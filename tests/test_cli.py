"""End-to-end runs of the experiment CLI."""

import csv
import io
import json
import math
import warnings

import pytest

import cantorscale
from cantorscale.cli import main


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


def test_csv_artifacts_match_csv_writer_bytes(tmp_path):
    # csv.reader also accepts "\n" line ends, so compare the raw bytes
    fam = cantorscale.GammaPower(3.0)
    spec = {"kind": "gamma_power", "params": {"gamma": 3.0}}
    assert run_cli(tmp_path, {"command": "partition", "family": spec,
                              "epsilon": 0.2, "depth": 7}) == 0
    part = cantorscale.partition(fam, 0.2, 7)
    expected = _csv_writer_bytes(
        ["word", "lo", "hi", "length", "orientation"],
        [(str(part.word(i)), float(part.los[i]), float(part.his[i]),
          float(part.lengths[i]), part.word(i).parity)
         for i in range(len(part))])
    assert (tmp_path / "partition.csv").read_bytes() == expected

    assert run_cli(tmp_path, {"command": "scaling-graph", "family": spec,
                              "epsilon": 0.2, "depth": 7}) == 0
    expected = _csv_writer_bytes(["x_coord", "word", "s"],
                                 cantorscale.scaling_graph(fam, 0.2, 7))
    assert (tmp_path / "scaling_graph.csv").read_bytes() == expected


def test_chunked_partition_and_dimension_csv_match_csv_writer_bytes(
        tmp_path, monkeypatch):
    # 256 rows in chunks of 100: the last chunk is short
    monkeypatch.setattr(cantorscale.cli, "CSV_CHUNK_ROWS", 100)
    fam = cantorscale.Quadratic()
    assert run_cli(tmp_path, {"command": "partition",
                              "family": {"kind": "quadratic"},
                              "epsilon": 0.3, "depth": 7}) == 0
    part = cantorscale.partition(fam, 0.3, 7)
    expected = _csv_writer_bytes(
        ["word", "lo", "hi", "length", "orientation"],
        [(str(part.word(i)), float(part.los[i]), float(part.his[i]),
          float(part.lengths[i]), part.word(i).parity)
         for i in range(len(part))])
    assert (tmp_path / "partition.csv").read_bytes() == expected

    grid = [0.01, 0.05, 0.1]
    assert run_cli(tmp_path, {"command": "dimension-curve",
                              "family": {"kind": "quadratic"},
                              "epsilon_grid": grid, "depth": 8}) == 0
    ests, _ = cantorscale.hd_curve(fam, grid, 8)
    expected = _csv_writer_bytes(
        ["epsilon", "delta", "bracket_lo", "bracket_hi"],
        [(e.epsilon, e.delta, *e.bracket) for e in ests])
    assert (tmp_path / "dimension_curve.csv").read_bytes() == expected


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


def test_jump_report_command(tmp_path):
    rc = run_cli(tmp_path, {"command": "jump-report",
                            "family": {"kind": "quadratic"},
                            "depth": 18, "dual_point": "0^inf|1."})
    assert rc == 0
    text = (tmp_path / "jump_report.txt").read_text()
    assert "tau1" in text and "converged    : True" in text


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
    ("samples", 0), ("samples", -3), ("depth", 0)])
def test_distortion_check_needs_a_sample_and_a_branch(tmp_path, capsys, key,
                                                      value):
    cfg = {"command": "distortion-check", "family": {"kind": "quadratic"},
           "epsilon": 0.2, "depth": 3, "samples": 5, key: value}
    assert run_cli(tmp_path, cfg) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "distortion_check.json").exists()


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
