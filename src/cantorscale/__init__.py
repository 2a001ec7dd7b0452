"""Asymptotic geometry of invariant Cantor sets of unimodal map families.

Cylinder partitions, scaling functions on the dual Cantor set, gap
geometry, singular-metric conjugates and Hausdorff-dimension estimates,
with built-in map presets and closed-form oracles.
"""

from .branches import (Cylinder, Partition, Word, apply_branches, cylinder,
                       invariant_suite, partition, partition_levels)
from .dimension import (DimensionEstimate, delta0, hd_curve, hd_estimate,
                        zero_run_count)
from .errors import (BudgetExceededError, CantorScaleError, ConvergenceError,
                     DomainError, ParameterRangeError)
from .families import (AsymQuadratic, Figure6, GammaPower, MapFamily,
                       Quadratic, Tent, family_from_spec, make_family)
from .geometry import (GapFit, GapRecord, GoodFamilyConstants,
                       asymptotic_gap_fit, distortion_suite,
                       estimate_constants, gap, gap_geometry)
from .metric import MetricChange, tilde_eval, tilde_scaling
from .scaling import (JumpAnalysis, ScalingEstimate, asymmetry, gamma_recover,
                      jump_at, scale_at, scaling_convergence, scaling_graph)
from .symbolic import Code, DualPoint, parse_dual_point, point_from_code

__version__ = "0.1.0"
