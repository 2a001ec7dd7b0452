"""The benchmark's span tracer still installs on the package as it is now.

``perfbench/tracing.py`` wraps the layer functions and a few named methods
and module globals by name, so a rename in the package breaks
``perfbench/run.py --trace 1``.  This test installs the tracer, makes one
small call per layer and checks that each layer recorded spans.
"""

import importlib.util
import json
from pathlib import Path

import cantorscale as cs
import cantorscale.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_call_per_layer(tmp_path):
    tracing = _tracing()
    inverse, tent_deriv = cs.MapFamily.inverse_branch, cs.Tent.__dict__["deriv"]
    partition_levels = cs.partition_levels
    config = tmp_path / "partition.json"
    config.write_text(json.dumps({"command": "partition",
                                  "family": {"kind": "quadratic"}, "depth": 3}))
    tracer = tracing.Tracer()
    try:
        tracer.install(cs)
        tracer.active = True
        q = cs.Quadratic()
        cs.partition_levels(q, 0.1, 4)                                # branches
        cs.Tent().deriv(0.5, 0.25)                                    # families
        cs.scale_at(q, 0.0, cs.parse_dual_point("(10)^inf|1."), 10)  # scaling
        cs.gap(q, 0.1, None)                                          # geometry
        cs.MetricChange(3.0, 0.0).h(0.5)                              # metric
        cs.hd_estimate(q, 0.1, 6)                                     # dimension
        cs.point_from_code(q, 0.0, cs.Code((1,), "zeros"), 5)        # symbolic
        assert cli.main(["--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0        # cli
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.counts["families.inverse_calls"] > 0
    assert tracer.counts["families.eval_deriv_calls"] > 0
    assert tracer.counts["dimension.roots"] > 0
    assert tracer.counts["metric.h_points"] > 0
    assert tracer.counts["metric.quad_calls"] == 0
    assert tracer.counts["cli.commands"] == 1
    assert {name.split(".", 1)[0] for name, *_ in tracer.spans} == set(tracing.LAYERS)
    # uninstall puts the originals back
    assert cs.MapFamily.inverse_branch is inverse
    assert cs.Tent.__dict__["deriv"] is tent_deriv
    assert cs.partition_levels is partition_levels
