"""End-to-end runs of the experiment CLI."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorscale
from cantorscale import _decimal
from cantorscale.cli import MAX_SAMPLES, REQUIRED_KEYS, main


def run_cli(tmp_path, cfg, name="cfg.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    return main(["--config", str(cfg_path), "--out", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_partition_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "partition",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.3, "depth": 5})
    assert rc == 0
    rows = read_csv(tmp_path / "partition.csv")
    assert len(rows) == 2 ** 6
    assert set(rows[0]) == {"word", "lo", "hi", "length", "orientation"}
    assert all(float(r["lo"]) < float(r["hi"]) for r in rows)
    assert min(float(r["lo"]) for r in rows) == -1.0


def test_partition_rows_match_words(tmp_path):
    fam = cantorscale.Figure6(-0.03)
    rc = run_cli(tmp_path, {"command": "partition",
                            "family": {"kind": "figure6",
                                       "params": {"c": -0.03}},
                            "epsilon": 0.0, "depth": 6})
    assert rc == 0
    part = cantorscale.partition(fam, 0.0, 6)
    expected = [[str(part.word(i)), repr(float(part.los[i])),
                 repr(float(part.his[i])),
                 repr(float(part.his[i] - part.los[i])),
                 str(part.word(i).parity)] for i in range(len(part))]
    with open(tmp_path / "partition.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == expected


def test_scaling_graph_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "scaling-graph",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.0, "depth": 8,
                            "output": "graph"})
    assert rc == 0
    rows = read_csv(tmp_path / "graph.csv")
    assert len(rows) == 2 ** 9
    assert all(0.0 < float(r["s"]) < 1.0 for r in rows)



def _csv_writer_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row]
                     for row in rows)
    return buf.getvalue().encode()


#: mirrored presets (Quadratic, Tent, GammaPower, Figure6), whose CSV
#: derives its right half from the left, and AsymQuadratic at beta != 0,
#: which is not even and formats every row
PARTITION_CASES = [
    ({"kind": "quadratic"}, 0.0), ({"kind": "quadratic"}, 0.3),
    ({"kind": "tent"}, 1.0),
    ({"kind": "gamma_power", "params": {"gamma": 1.5}}, 0.2),
    ({"kind": "gamma_power", "params": {"gamma": 3.0}}, 0.2),
    ({"kind": "figure6", "params": {"c": -0.03}}, 0.0),
    ({"kind": "asym_quadratic", "params": {"beta": 0.3}}, 0.2),
]


def _check_partition_csv_bytes(tmp_path, spec, eps, depth):
    # csv.reader also accepts "\n" line ends, so compare the raw bytes
    assert run_cli(tmp_path, {"command": "partition", "family": spec,
                              "epsilon": eps, "depth": depth}) == 0
    part = cantorscale.partition(cantorscale.family_from_spec(spec), eps,
                                 depth)
    expected = _csv_writer_bytes(
        ["word", "lo", "hi", "length", "orientation"],
        [(str(part.word(i)), float(part.los[i]), float(part.his[i]),
          float(part.lengths[i]), part.word(i).parity)
         for i in range(len(part))])
    assert (tmp_path / "partition.csv").read_bytes() == expected, (spec, eps,
                                                                   depth)


def _graph_rows(s):
    """``(x, word, s)`` rows rebuilt from ``scaling_graph``'s x-ordered array."""
    n_bits = s.size.bit_length() - 1
    return [(k / s.size, format(k, f"0{n_bits}b")[::-1], v)
            for k, v in enumerate(s.tolist())]


def _check_graph_csv_bytes(tmp_path, spec, eps, depth):
    assert run_cli(tmp_path, {"command": "scaling-graph", "family": spec,
                              "epsilon": eps, "depth": depth}) == 0
    s = cantorscale.scaling_graph(cantorscale.family_from_spec(spec), eps,
                                  depth)
    expected = _csv_writer_bytes(["x_coord", "word", "s"], _graph_rows(s))
    assert (tmp_path / "scaling_graph.csv").read_bytes() == expected, (
        spec, eps, depth)


def test_csv_artifacts_match_csv_writer_bytes(tmp_path):
    for spec, eps in PARTITION_CASES:
        for depth in (0, 1, 7):
            _check_partition_csv_bytes(tmp_path, spec, eps, depth)

    _check_graph_csv_bytes(
        tmp_path, {"kind": "gamma_power", "params": {"gamma": 3.0}}, 0.2, 7)


def test_chunked_partition_and_dimension_csv_match_csv_writer_bytes(
        tmp_path, monkeypatch):
    # chunks of 3 and 100 rows end off the half of 2, 4 and 256 rows, and
    # the last chunk of each half is short.  No write formats more than a
    # chunk of rows
    csv_rows = _decimal.rows

    def one_chunk_rows(columns):
        assert len(columns[0]) <= cantorscale.cli.CSV_CHUNK_ROWS
        return csv_rows(columns)

    monkeypatch.setattr(_decimal, "rows", one_chunk_rows)
    for rows in (3, 100):
        monkeypatch.setattr(cantorscale.cli, "CSV_CHUNK_ROWS", rows)
        for spec, eps in PARTITION_CASES:
            for depth in (0, 1, 7):
                _check_partition_csv_bytes(tmp_path, spec, eps, depth)
                _check_graph_csv_bytes(tmp_path, spec, eps, depth)

    fam = cantorscale.Quadratic()
    grid = [0.01, 0.05, 0.1]
    assert run_cli(tmp_path, {"command": "dimension-curve",
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": grid, "depth": 8}) == 0
    ests, _ = cantorscale.hd_curve(fam, grid, 8)
    expected = _csv_writer_bytes(
        ["epsilon", "delta", "bracket_lo", "bracket_hi"],
        [(e.epsilon, e.delta, *e.bracket) for e in ests])
    assert (tmp_path / "dimension_curve.csv").read_bytes() == expected


@pytest.mark.parametrize("spec,eps,digest", [
    ({"kind": "quadratic"}, 0.3,
     "a738cd584eca9a22a0decc3d7e9b5139ee5ddbe7c98ae4a1916e06dc1f63ac85"),
    ({"kind": "figure6", "params": {"c": 0.0}}, 0.0,
     "0b19185454ab22b72e9f657b0ba420e738b58f17c7d361b01edc5d4141501130"),
], ids=["quadratic", "figure6"])
def test_depth_15_partition_csv_sha256(tmp_path, spec, eps, digest):
    # 65 536 rows in 16 chunks on the mirrored path give the bytes that
    # formatting every float gave
    assert run_cli(tmp_path, {"command": "partition", "family": spec,
                              "epsilon": eps, "depth": 15}) == 0
    data = (tmp_path / "partition.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_the_mirrored_half_is_copied_without_sendfile(tmp_path, monkeypatch):
    # os.sendfile is missing on Windows and takes only a socket target on
    # macOS; the spilled half must reach the CSV without it
    monkeypatch.delattr(os, "sendfile", raising=False)
    assert run_cli(tmp_path, {"command": "partition",
                              "family": {"kind": "quadratic"},
                              "epsilon": 0.3, "depth": 15}) == 0
    data = (tmp_path / "partition.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "a738cd584eca9a22a0decc3d7e9b5139ee5ddbe7c98ae4a1916e06dc1f63ac85")


@pytest.mark.parametrize("spec,eps,digest", [
    ({"kind": "quadratic"}, 0.3,
     "ed3993c8e3e3bf9c1ede2559cb36e4d51bc111584b869e806298365fffc96cd3"),
    ({"kind": "figure6", "params": {"c": 0.0}}, 0.0,
     "e441cbd2890b5056bf7527d11f569f7194b3622b62b3f9a24fbb79e200d95569"),
], ids=["quadratic", "figure6"])
def test_depth_14_scaling_graph_csv_sha256(tmp_path, spec, eps, digest):
    # 32 768 rows in 8 chunks give the bytes that one write of the whole
    # file gave
    assert run_cli(tmp_path, {"command": "scaling-graph", "family": spec,
                              "epsilon": eps, "depth": 14}) == 0
    data = (tmp_path / "scaling_graph.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("spec,eps,floats_per_cell", [
    ({"kind": "tent"}, 0.5, 1.5),
    ({"kind": "gamma_power", "params": {"gamma": 3.0}}, 0.1, 1.5),
    ({"kind": "figure6", "params": {"c": 0.0}}, 0.0, 1.5),
    ({"kind": "asym_quadratic", "params": {"beta": 0.3}}, 0.2, 3),
], ids=["tent", "gamma_power", "figure6", "asym_quadratic"])
def test_a_mirrored_partition_formats_half_its_floats(tmp_path, monkeypatch,
                                                      spec, eps,
                                                      floats_per_cell):
    counted = []
    digits = _decimal.digits

    def counting_digits(values, column):
        counted.append(len(values))
        return digits(values, column)

    monkeypatch.setattr(_decimal, "digits", counting_digits)
    monkeypatch.setattr(cantorscale.cli, "CSV_CHUNK_ROWS", 50)
    assert run_cli(tmp_path, {"command": "partition", "family": spec,
                              "epsilon": eps, "depth": 7}) == 0
    # the values that went through the digit search
    assert sum(counted) == floats_per_cell * 2 ** 8
    # the mirrored half waited in an anonymous file, which is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                          "partition.csv"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_csv_cell_exits_2_and_leaves_no_csv(tmp_path, monkeypatch,
                                                         capsys, bad):
    # no command makes one today: the graph gets one planted in a late chunk
    graph = cantorscale.scaling.scaling_graph

    def planted(*args):
        s = graph(*args).copy()
        s[-1] = bad
        return s

    monkeypatch.setattr(cantorscale.scaling, "scaling_graph", planted)
    monkeypatch.setattr(cantorscale.cli, "CSV_CHUNK_ROWS", 16)
    assert run_cli(tmp_path, {"command": "scaling-graph",
                              "family": {"kind": "quadratic"},
                              "epsilon": 0.0, "depth": 6}) == 2
    assert capsys.readouterr().err == "non-convergence: column 's' is not finite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


#: the planted row's (lo, hi) per column: the first column of the fused
#: search that holds a non-finite value is its own
PLANTED = {"lo": (math.nan, 0.5), "hi": (0.25, math.inf),
           "length": (-1.7e308, 1.7e308)}


@pytest.mark.parametrize("column", PLANTED)
@pytest.mark.parametrize("spec", [
    {"kind": "quadratic"}, {"kind": "asym_quadratic", "params": {"beta": 0.3}},
], ids=["mirrored", "unmirrored"])
def test_a_non_finite_partition_cell_names_its_column(tmp_path, monkeypatch,
                                                      capsys, spec, column):
    # one digit search covers lo, hi and length together; the value sits in
    # the last row that the search reads, in the last of 4 (mirrored) or 8
    # chunks of 16 rows
    partition = cantorscale.branches.partition

    def planted(*args):
        part = partition(*args)
        los, his = part.los.copy(), part.his.copy()
        row = len(part) // 2 - 1 if part.mirrored else len(part) - 1
        los[row], his[row] = PLANTED[column]
        return cantorscale.Partition(part.depth, los, his, part.mirrored)

    monkeypatch.setattr(cantorscale.branches, "partition", planted)
    monkeypatch.setattr(cantorscale.cli, "CSV_CHUNK_ROWS", 16)
    # the planted length is hi - lo overflowing to inf
    with np.errstate(over="ignore"):
        assert run_cli(tmp_path, {"command": "partition", "family": spec,
                                  "epsilon": 0.2, "depth": 6}) == 2
    assert capsys.readouterr().err == (f"non-convergence: column {column!r} "
                                       "is not finite\n")
    # no CSV, and no spilled mirror half
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_scaling_point_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "scaling-point",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.0, "depth": 20,
                            "dual_point": "(10)^inf|."})
    assert rc == 0
    data = json.loads((tmp_path / "scaling_point.json").read_text())
    assert data["value"] == pytest.approx(0.5, abs=1e-6)
    assert data["converged"]


def test_scaling_point_period_three_tail(tmp_path):
    rc = run_cli(tmp_path, {"command": "scaling-point",
                            "family": {"kind": "asym_quadratic", "beta": 0.358},
                            "epsilon": 0.0, "depth": 22,
                            "dual_point": "(010)^inf|00."})
    assert rc == 0
    assert json.loads((tmp_path / "scaling_point.json").read_text())["converged"]


def test_scaling_point_beyond_partition_budget(tmp_path):
    # the partition depth budget does not apply to the chain commands
    rc = run_cli(tmp_path, {"command": "scaling-point",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.0, "depth": 25,
                            "dual_point": "(10)^inf|1."})
    assert rc == 0
    data = json.loads((tmp_path / "scaling_point.json").read_text())
    assert data["depth"] == 25
    assert data["value"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("depth", [-1, 10 ** 9])
def test_depth_out_of_range_rejected(tmp_path, depth):
    assert run_cli(tmp_path, {"command": "jump-report",
                              "family": {"kind": "quadratic"},
                              "depth": depth, "dual_point": "0^inf|1."}) == 1


def test_gap_fit_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "gap-fit",
                            "family": {"kind": "quadratic"},
                            "epsilon_grid": [0.001, 0.003, 0.01, 0.03, 0.1],
                            "depth": 4})
    assert rc == 0
    data = json.loads((tmp_path / "gap_fit.json").read_text())
    assert data["slope"] == pytest.approx(0.5, abs=0.05)
    assert len(data["rows"]) == 5
    assert data["depth"] == 4


def test_gap_fit_records_its_depth_clamped_to_8(tmp_path):
    assert run_cli(tmp_path, {"command": "gap-fit",
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": [0.05, 0.1], "depth": 12}) == 0
    assert json.loads((tmp_path / "gap_fit.json").read_text())["depth"] == 8


def test_tent_distortion_check_runs_at_eps_zero(tmp_path):
    assert run_cli(tmp_path, {"command": "distortion-check",
                              "family": {"kind": "tent"}, "epsilon": 0.0,
                              "samples": 500, "depth": 12}) == 0
    data = json.loads((tmp_path / "distortion_check.json").read_text())
    assert data["passed"] == data["samples"] == 500
    assert data["worst_margin"] == 1.0


@pytest.mark.parametrize("family", [
    {"kind": "quadratic"}, {"kind": "gamma_power", "params": {"gamma": 3}},
    {"kind": "asym_quadratic", "params": {"beta": 0.3}},
    # figure6's eps range is [0, 0], so its distortion-check never runs
    {"kind": "figure6", "params": {"c": -0.03}}])
def test_distortion_check_at_eps_zero_is_refused_with_the_config(
        tmp_path, capsys, monkeypatch, family):
    # f' is 0 at the critical point, which the depth-1 cylinders close on:
    # the config is refused before the distortion suite is reached
    monkeypatch.setattr(cantorscale.geometry, "distortion_suite", None)
    assert run_cli(tmp_path, {"command": "distortion-check",
                              "family": family, "epsilon": 0.0,
                              "samples": 50, "depth": 12}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'epsilon':") and "eps > 0" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("cfg,status,message,written", [
    ([{"command": "partition"}], 1, "error: config must be a JSON object",
     ["cfg.json"]),
    ({"command": "distortion-check", "family": {"kind": "quadratic"},
      "epsilon": 0.0, "samples": 50, "depth": 12}, 1, "requires eps > 0",
     ["cfg.json"]),
    ({"command": "scaling-point", "family": {"kind": "quadratic"},
      "epsilon": 0.0, "dual_point": "0^inf|1.", "depth": 20}, 2,
     "non-convergence: scaling approximants", ["cfg.json", "scaling_point.json"]),
    ({"command": "jump-report", "family": {"kind": "quadratic"},
      "dual_point": "0^inf|10.", "depth": 4}, 2,
     "non-convergence: jump sequences", ["cfg.json", "jump_report.txt"]),
    ({"command": "distortion-check", "family": {"kind": "quadratic"},
      "epsilon": 0.2, "samples": 50, "depth": 0}, 1,
     "error: key 'depth': 0 outside [1, 1000]", ["cfg.json"]),
    ({"command": "dimension-curve", "family": {"kind": "quadratic"},
      "epsilon_grid": [0.1, 0.2], "depth": 5}, 1,
     "error: key 'depth': 5 outside [6, 1000]", ["cfg.json"]),
    # delta is exactly 1.0 at eps = 1e-16, so its defect has no log
    ({"command": "dimension-curve", "family": {"kind": "quadratic"},
      "epsilon_grid": [1e-16, 1e-15], "depth": 8}, 2,
     "non-convergence: dimension defect 1 - delta rounds to 0 at eps=1e-16",
     ["cfg.json"]),
], ids=["not-an-object", "distortion-at-eps-0", "scaling-point-unconverged",
        "jump-report-unconverged", "distortion-depth-0",
        "dimension-curve-depth-5", "dimension-curve-defect-0"])
def test_exit_status_and_artifacts_of_a_failed_run(tmp_path, capsys, cfg,
                                                  status, message, written):
    # a refused config writes nothing; an unconverged estimate still
    # writes its artifact before it exits 2
    assert run_cli(tmp_path, cfg) == status
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == written


def test_dimension_curve_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "dimension-curve",
                            "family": {"kind": "tent"},
                            "epsilon_grid": [0.5, 1.0], "depth": 12})
    assert rc == 0
    rows = read_csv(tmp_path / "dimension_curve.csv")
    assert float(rows[1]["delta"]) == pytest.approx(
        math.log(2.0) / math.log(3.0), abs=1e-5)
    assert (tmp_path / "dimension_curve_fit.json").exists()


def test_metric_check_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "metric-check",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.0})
    assert rc == 0
    data = json.loads((tmp_path / "metric_check.json").read_text())
    assert data["round_trip_max_error"] < 1e-10
    assert data["tent_conjugacy_max_error"] < 1e-8


def test_distortion_check_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "distortion-check",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.2, "depth": 15,
                            "samples": 300, "seed": 5})
    assert rc == 0
    data = json.loads((tmp_path / "distortion_check.json").read_text())
    assert data["passed"] == data["samples"] == 300


def test_distortion_check_counts_the_samples_it_drops(tmp_path):
    # at gamma = 40 the boundary distance empties some eta_1 cells, and a
    # sample drawn in one is dropped, not redrawn
    rc = run_cli(tmp_path, {"command": "distortion-check",
                            "family": {"kind": "gamma_power", "gamma": 40.0},
                            "epsilon": 0.5, "samples": 300})
    assert rc == 0
    data = json.loads((tmp_path / "distortion_check.json").read_text())
    assert data["passed"] == data["samples"] == 159
    assert data["dropped"] == 300 - 159


def test_jump_report_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "jump-report",
                            "family": {"kind": "quadratic"},
                            "depth": 18, "dual_point": "0^inf|1."})
    assert rc == 0
    text = (tmp_path / "jump_report.txt").read_text()
    assert "tau1" in text and "converged    : True" in text


@pytest.mark.parametrize("dual_point", ["0^inf|.", "0^inf|1."])
@pytest.mark.parametrize("depth", [12, 25])
def test_jump_report_writes_an_undefined_tau_as_undefined(tmp_path, depth,
                                                          dual_point):
    # the tracked cell touches the left endpoint, so c_n = 0 and tau = b/c
    # is not a number
    assert run_cli(tmp_path, {"command": "jump-report",
                              "family": {"kind": "quadratic"},
                              "depth": depth, "dual_point": dual_point}) == 0
    data = (tmp_path / "jump_report.txt").read_bytes()
    assert data.decode().splitlines()[1:3] == ["tau1         : undefined",
                                               "tau2         : undefined"]
    _check_artifact("jump_report.txt", data)


def test_invariants_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "invariants",
                            "family": {"kind": "quadratic"},
                            "epsilon": 0.3, "seed": 1})
    assert rc == 0
    data = json.loads((tmp_path / "invariants.json").read_text())
    assert all(v["passed"] for v in data.values())


def test_deterministic_output(tmp_path):
    cfg = {"command": "distortion-check", "family": {"kind": "quadratic"},
           "epsilon": 0.2, "samples": 200, "seed": 9, "output": "a"}
    assert run_cli(tmp_path, cfg) == 0
    first = (tmp_path / "a.json").read_bytes()
    cfg["output"] = "b"
    assert run_cli(tmp_path, cfg, name="cfg2.json") == 0
    assert first == (tmp_path / "b.json").read_bytes()


def test_bad_config_exit_codes(tmp_path):
    assert run_cli(tmp_path, {"command": "no-such",
                              "family": {"kind": "quadratic"}}) == 1
    assert run_cli(tmp_path, {"command": "partition"}) == 1
    assert run_cli(tmp_path, {"command": "partition",
                              "family": {"kind": "quadratic"},
                              "depth": 40}) == 1
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert main(["--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("key,value", [
    ("depth", 3.7), ("depth", True), ("depth", "3"), ("samples", 2.9),
    ("seed", 1.5), ("seed", False), ("epsilon", True), ("epsilon", "0.1"),
    ("epsilon", math.nan), ("epsilon_grid", [0.01, True]),
    ("epsilon_grid", [0.01, math.inf]), ("epsilon_grid", 0.1),
])
def test_bad_config_value_types_exit_1(tmp_path, capsys, key, value):
    # the boundary refuses a value it would otherwise truncate or coerce
    cfg = {"command": "distortion-check", "family": {"kind": "quadratic"},
           "epsilon": 0.2, "depth": 3, "samples": 5, "seed": 1, key: value}
    assert run_cli(tmp_path, cfg) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "distortion_check.json").exists()


@pytest.mark.parametrize("key,value", [
    ("samples", 0), ("samples", -3), ("samples", MAX_SAMPLES + 1),
    ("depth", 0)])
def test_distortion_check_needs_a_sample_and_a_branch(tmp_path, capsys, key,
                                                      value):
    cfg = {"command": "distortion-check", "family": {"kind": "quadratic"},
           "epsilon": 0.2, "depth": 3, "samples": 5, key: value}
    assert run_cli(tmp_path, cfg) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "distortion_check.json").exists()


@pytest.mark.parametrize("key,value", [
    ("dual_point", 7), ("dual_point", "garbage"), ("samples", -5),
    ("dual_point", "0^inf|1"), ("dual_point", "0^inf|1..")])
def test_every_key_is_checked_whatever_the_command(tmp_path, capsys, key,
                                                   value):
    # partition reads neither key, yet a bad value of either is refused
    cfg = {"command": "partition", "family": {"kind": "quadratic"},
           "depth": 3, key: value}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err.startswith(f"error: key {key!r}")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command,given", [
    ("scaling-point", {}), ("jump-report", {"dual_point": None}),
    ("gap-fit", {}), ("dimension-curve", {"epsilon_grid": []})])
def test_a_command_without_its_required_key_exits_1(tmp_path, capsys,
                                                    command, given):
    cfg = {"command": command, "family": {"kind": "quadratic"}, "depth": 4,
           **given}
    assert run_cli(tmp_path, cfg) == 1
    assert capsys.readouterr().err == (
        f"error: missing key {REQUIRED_KEYS[command]!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("output", [
    "../escaped", "sub/name", "/abs", "", ".", "..", 7, None, ["a"]])
def test_output_must_be_a_plain_file_name(tmp_path, capsys, output):
    out = tmp_path / "out"
    cfg = {"command": "metric-check", "family": {"kind": "quadratic"},
           "output": output}
    assert run_cli(tmp_path, cfg) == 1
    assert "'output'" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_output_plain_name_is_written_inside_out(tmp_path):
    cfg = {"command": "metric-check", "family": {"kind": "quadratic"},
           "output": "run.1"}
    assert run_cli(tmp_path, cfg) == 0
    assert (tmp_path / "run.1.json").exists()


@pytest.mark.parametrize("cfg", [
    {"command": "metric-check", "family": {"kind": "quadratic"},
     "epsilon": 5.0},
    {"command": "metric-check", "family": {"kind": "quadratic"},
     "epsilon": -0.1},
    {"command": "metric-check", "family": {"kind": "figure6"},
     "epsilon": 0.1},
])
def test_epsilon_outside_the_family_range_exits_1(tmp_path, capsys, cfg):
    assert run_cli(tmp_path, cfg) == 1
    assert "outside" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["distortion-check", "invariants"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    # refused at the config, also by a command that draws nothing
    cfg = {"command": command, "family": {"kind": "quadratic"},
           "epsilon": 0.2, "depth": 3, "samples": 5, "seed": -3}
    assert run_cli(tmp_path, cfg) == 1
    assert "error: key 'seed': expected a non-negative integer" in (
        capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_invariants_check_every_word_whatever_the_seed(tmp_path):
    written = []
    for seed in (1, 2):
        cfg = {"command": "invariants", "family": {"kind": "figure6",
                                                    "params": {"c": -0.03}},
               "seed": seed, "output": f"inv{seed}"}
        assert run_cli(tmp_path, cfg, name=f"cfg{seed}.json") == 0
        written.append((tmp_path / f"inv{seed}.json").read_bytes())
    assert written[0] == written[1]
    data = json.loads(written[0])
    assert data == {"endpoints": {"checks": 3, "passed": True},
                    "nesting_additivity": {"checks": 511, "passed": True},
                    "shift_conjugacy": {"checks": 1022, "passed": True}}


@pytest.mark.parametrize("family", [
    {"kind": "figure6", "shape": -0.05},
    {"kind": "figure6", "params": {"c": -0.05, "scale": 2.0}},
])
def test_unknown_family_key_rejected(tmp_path, family):
    assert run_cli(tmp_path, {"command": "partition", "family": family,
                              "depth": 3}) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    assert run_cli(tmp_path, {"command": "partition",
                              "family": {"kind": "quadratic"},
                              "depth": 3, "epsilion": 0.3}) == 1
    assert "epsilion" in capsys.readouterr().err
    assert not (tmp_path / "partition.csv").exists()


def test_unsorted_grid_rejected(tmp_path):
    assert run_cli(tmp_path, {"command": "gap-fit",
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": [0.1, 0.01]}) == 1


@pytest.mark.parametrize("command,grid,message", [
    ("gap-fit", [0.1], "two distinct eps"),
    ("dimension-curve", [0.1], "two distinct eps"),
    ("dimension-curve", [0.1, 0.1], "strictly increasing"),
    ("gap-fit", [0.01, 0.1, 0.1], "strictly increasing"),
])
def test_grid_without_two_distinct_eps_exits_1(tmp_path, capsys, command,
                                               grid, message):
    assert run_cli(tmp_path, {"command": command,
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": grid, "depth": 8}) == 1
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("family", [
    5, ["kind"], None, {"kind": "quadratic", "gamma": 3.0},
    {"kind": "tent", "params": {"gamma": 3.0}},
    {"kind": "gamma_power", "params": {"beta": 0.3}},
    {"kind": "figure6", "params": {"normalize": "no"}},
    {"kind": "figure6", "c": "0.01"}, {"kind": "gamma_power", "gamma": None},
    {"kind": "gamma_power", "gamma": True},
])
def test_bad_family_spec_exits_1_naming_the_key(tmp_path, capsys, family):
    assert run_cli(tmp_path, {"command": "partition", "family": family,
                              "depth": 3}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'family'") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["scaling-point", "jump-report"])
@pytest.mark.parametrize("dual_point", [5, 0, False, ["0^inf|1."]])
def test_non_string_dual_point_exits_1_naming_the_key(tmp_path, capsys,
                                                      command, dual_point):
    assert run_cli(tmp_path, {"command": command,
                              "family": {"kind": "quadratic"},
                              "depth": 4, "dual_point": dual_point}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'dual_point'") and "Traceback" not in err


def test_gap_fit_with_a_gap_below_binary64_exits_2(tmp_path, capsys):
    # 1 + eps rounds to 1, so the leading gap is 0 and its log -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, {"command": "gap-fit",
                                  "family": {"kind": "quadratic"},
                                  "epsilon_grid": [1e-300, 1e-200]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence:") and "eps=1e-300" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_non_finite_json_field_exits_2_naming_it(tmp_path, capsys,
                                                   monkeypatch):
    fit = cantorscale.GapFit(eps=[0.1, 0.2], leading_ratios=[0.3, 0.4],
                             slope=0.5, band=(1.0, math.inf))
    monkeypatch.setattr(cantorscale.geometry, "asymptotic_gap_fit",
                        lambda *args, **kwargs: fit)
    assert run_cli(tmp_path, {"command": "gap-fit",
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": [0.1, 0.2]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence:") and "'band'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_the_first_non_finite_json_field_in_payload_order_is_named(
        tmp_path, capsys, monkeypatch):
    # the encoder meets 'band' first, as it sorts the keys; the message
    # names 'slope', the first of the two in the payload
    fit = cantorscale.GapFit(eps=[0.1, 0.2], leading_ratios=[0.3, 0.4],
                             slope=math.nan, band=(1.0, math.inf))
    monkeypatch.setattr(cantorscale.geometry, "asymptotic_gap_fit",
                        lambda *args, **kwargs: fit)
    assert run_cli(tmp_path, {"command": "gap-fit",
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": [0.1, 0.2]}) == 2
    assert capsys.readouterr().err == (
        "non-convergence: field 'slope' is not finite\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


#: the help text and the usage error of the parser as first written, at 80
#: columns
HELP = """usage: cantorscale [-h] --config CONFIG [--out OUT]

Cantor-set geometry experiments for unimodal map families

options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON config path
  --out OUT        artifact output directory
"""
USAGE_ERROR = """usage: cantorscale [-h] --config CONFIG [--out OUT]
cantorscale: error: the following arguments are required: --config
"""


def _exit_of(argv):
    """SystemExit code, stdout and stderr of an in-process run that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as stop:
        main(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


def test_help_and_usage_error_stay_the_same_on_every_run(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert _exit_of(["--help"]) == (0, HELP, "")
        assert _exit_of([]) == (2, "", USAGE_ERROR)
        assert _exit_of(["--out", str(tmp_path)]) == (2, "", USAGE_ERROR)
        assert run_cli(tmp_path, {"command": "metric-check",
                                  "family": {"kind": "quadratic"}}) == 0


#: one config of each ending: a JSON artifact, a CSV artifact, a config
#: refused (exit 1) and a run that does not converge (exit 2)
SEQUENCE = {
    "json": {"command": "metric-check",
             "family": {"kind": "gamma_power", "params": {"gamma": 3}},
             "epsilon": 0.1},
    "csv": {"command": "partition", "family": {"kind": "quadratic"},
            "epsilon": 0.2, "depth": 6},
    "refused": {"command": "distortion-check",
                "family": {"kind": "quadratic"}, "depth": 6},
    "unconverged": {"command": "jump-report", "family": {"kind": "quadratic"},
                    "dual_point": "0^inf|10.", "depth": 4},
}


def _outcome(rc, out, err, out_dir):
    """A run's exit status, stdout, stderr and ``{name: bytes}`` of its
    ``--out``, None where the run made none."""
    files = ({p.name: p.read_bytes() for p in out_dir.iterdir()}
             if out_dir.exists() else None)
    return rc, out, err, files


def test_runs_in_one_process_match_each_config_run_alone(tmp_path):
    # each config alone, in a fresh interpreter of its own
    src = Path(cantorscale.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    children = {}
    for name, cfg in SEQUENCE.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        children[name] = subprocess.Popen(
            [sys.executable, "-m", "cantorscale.cli",
             "--config", str(tmp_path / f"{name}.json"),
             "--out", str(tmp_path / "alone" / name)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    alone = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=120)
        alone[name] = _outcome(child.returncode, out, err,
                               tmp_path / "alone" / name)
    assert [alone[name][0] for name in SEQUENCE] == [0, 0, 1, 2]
    # then alternated in this process, each into an --out of its own, one
    # or two levels below a directory that exists
    order = ["json", "refused", "csv", "unconverged", "csv", "json",
             "unconverged", "refused", "json"]
    for k, name in enumerate(order):
        out_dir = tmp_path / f"run{k}" / ("a/b" if k % 2 else "")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--config", str(tmp_path / f"{name}.json"),
                       "--out", str(out_dir)])
        assert _outcome(rc, out.getvalue(), err.getvalue(),
                        out_dir) == alone[name], (k, name)


@pytest.mark.parametrize("cfg,message", [
    # some level-17 cells round to length 0, and s divides by them
    ({"command": "scaling-graph",
      "family": {"kind": "gamma_power", "params": {"gamma": 3}},
      "epsilon": 1.0, "depth": 18}, "depth 18"),
    # every level-13 cell rounds to length 0, so no pressure root exists
    ({"command": "dimension-curve",
      "family": {"kind": "gamma_power", "params": {"gamma": 40}},
      "epsilon_grid": [0.5, 1.0], "depth": 14}, "level-13"),
])
def test_cells_of_length_zero_exit_2_with_no_artifact(tmp_path, capsys, cfg,
                                                      message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence:") and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


FUZZ_FAMILIES = [
    {"kind": "quadratic"}, {"kind": "tent"},
    {"kind": "gamma_power", "params": {"gamma": 1.5}},
    {"kind": "gamma_power", "params": {"gamma": 3}},
    {"kind": "gamma_power", "params": {"gamma": 40}},
    {"kind": "figure6", "params": {"c": 0.0}},
    {"kind": "figure6", "params": {"c": -0.06}},
    {"kind": "figure6", "params": {"c": 0.03}},
    {"kind": "asym_quadratic", "params": {"beta": 0.3}},
    {"kind": "asym_quadratic", "params": {"beta": -0.9}},
    {"kind": "gamma_power", "params": {"gamma": 1.0}},
    {"kind": "quadratic", "params": {"gamma": 3}}, {"kind": "cubic"},
]
#: epsilon as a place in the family's range [lo, hi]: its ends, inside it,
#: a hair above lo, and outside it on either side.  Hypothesis shrinks
#: towards the first entry of each list, so the valid entries come first
FUZZ_EPS = {"lo": lambda lo, hi: lo,
            "hi": lambda lo, hi: hi,
            "mid": lambda lo, hi: (lo + hi) / 2,
            "tiny": lambda lo, hi: lo + 1e-300,
            "small": lambda lo, hi: lo + 1e-12,
            "below": lambda lo, hi: lo - 0.1,
            "above": lambda lo, hi: hi + 0.5}
FUZZ_DUAL_POINTS = ["0^inf|1.", "0^inf|.", "(10)^inf|.", "(010)^inf|00.",
                    "(1)^inf|0.", "?|01.", "()^inf|.", "0^inf|2.", "01",
                    "(ab)^inf|.", None]


def _run_in(cfg: dict):
    """Exit status, stderr and ``{name: bytes}`` of one in-process run."""
    with tempfile.TemporaryDirectory() as cfg_dir, \
            tempfile.TemporaryDirectory() as out_dir:
        cfg_path = Path(cfg_dir) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(["--config", str(cfg_path), "--out", out_dir])
        files = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}
    return rc, err.getvalue(), files


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_artifact(name: str, data: bytes) -> None:
    text = data.decode()
    if name.endswith(".json"):
        json.loads(text, parse_constant=_refuse_constant)
    elif name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert rows and all(len(row) == len(header) for row in rows)
        for row in rows:
            for key, cell in zip(header, row):
                if key != "word":
                    assert math.isfinite(float(cell)), (name, key, cell)
    else:
        # jump-report's "label : value" lines: a finite number, a flag, the
        # dual point as given or an undefined tau
        assert name.endswith(".txt")
        for line in text.splitlines():
            label, sep, value = line.partition(" : ")
            assert sep, (name, line)
            if label.strip() != "dual point" and value not in (
                    "undefined", "True", "False"):
                assert math.isfinite(float(value)), (name, line)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(cantorscale.cli.COMMANDS),
       family=st.sampled_from(FUZZ_FAMILIES),
       depth=st.integers(0, 8),
       eps=st.sampled_from(list(FUZZ_EPS)),
       grid=st.lists(st.sampled_from(list(FUZZ_EPS)), max_size=3),
       dual_point=st.sampled_from(FUZZ_DUAL_POINTS),
       samples=st.integers(0, 20), seed=st.integers(0, 3))
def test_fuzzed_configs_exit_cleanly_with_finite_repeatable_artifacts(
        command, family, depth, eps, grid, dual_point, samples, seed):
    # an invalid family spec gets the quadratic's range; its run exits 1.
    # A grid is sorted, as an unsorted one only ever exits 1; an empty one
    # and a None dual point are left out
    try:
        lo, hi = cantorscale.family_from_spec(family).param_range
    except cantorscale.CantorScaleError:
        lo, hi = 0.0, 1.0
    cfg = {"command": command, "family": family, "depth": depth,
           "epsilon": FUZZ_EPS[eps](lo, hi), "samples": samples, "seed": seed}
    if grid:
        cfg["epsilon_grid"] = sorted({FUZZ_EPS[e](lo, hi) for e in grid})
    if dual_point is not None:
        cfg["dual_point"] = dual_point
    rc, err, files = _run_in(cfg)
    assert rc in (0, 1, 2)
    if rc:
        assert err.startswith(("error:", "non-convergence:")), err
    for name, data in files.items():
        _check_artifact(name, data)
    assert _run_in(cfg) == (rc, err, files)
