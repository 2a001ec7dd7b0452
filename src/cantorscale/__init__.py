"""Asymptotic geometry of invariant Cantor sets of unimodal map families.

Cylinder partitions, scaling functions on the dual Cantor set, gap
geometry, singular-metric conjugates and Hausdorff-dimension estimates,
with built-in map presets and closed-form oracles.
"""

from .branches import (Cylinder, Partition, Word, apply_branches, cylinder,
                       decay_rate, invariant_suite, partition, partition_levels)
from .dimension import (DimensionEstimate, delta0, hd_curve, hd_estimate,
                        pressure_sum, zero_run_count,
                        zero_run_count_bruteforce)
from .errors import (BudgetExceededError, CantorScaleError, ConvergenceError,
                     DomainError, ParameterRangeError)
from .families import (AsymQuadratic, Figure6, GammaPower, MapFamily,
                       Quadratic, Tent, family_from_spec, make_family)
from .geometry import (DistortionCheck, GapFit, GapRecord,
                       GoodFamilyConstants, asymptotic_gap_fit,
                       distortion_check, distortion_suite, estimate_constants,
                       gap, gap_geometry)
from .metric import (MetricChange, b_const, nonlinearity_tilde_q, tilde_deriv,
                     tilde_eval, tilde_scaling)
from .scaling import (HolderFit, JumpAnalysis, ScalingEstimate, asymmetry,
                      gamma_recover, holder_fit, jump_at, scale_at,
                      scaling_convergence, scaling_graph)
from .symbolic import (Code, DualPoint, approximants, parse_dual_point,
                       point_from_code, shift_dual)

__version__ = "0.1.0"
