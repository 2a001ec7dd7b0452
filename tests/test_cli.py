"""End-to-end runs of the experiment CLI."""

import csv
import io
import json
import math

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
