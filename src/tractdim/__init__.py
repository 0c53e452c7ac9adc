"""tractdim: certified dimension bounds for Cantor repellers over logarithmic tracts.

The pipeline goes from a map family with a logarithmic tract to a
dimension-greater-than-one certificate in four steps: logarithmic lift
and inverse branches (loglift), square geometry and the admissible index
set (tractgeom), the induced conformal iterated function system
(cantor_ifs), and pressure bounds with the Bowen-root enclosure
(pressure).  The oracle module holds independent brute-force verifiers.
"""

from .errors import (ConfigError, ConstructionError, DomainError, GeometryError,
                     NumericError, TractdimError)
from .loglift import (MapFamily, UserCallbacks, check_growth, eval_lift,
                      exponential_family, inv_branch, normalize_family,
                      user_family)
from .tractgeom import (DistortionBound, GeometryBudget, GSet, Rect, SquareSpec,
                        anchor_line, build_G, build_squares, cell_verdicts,
                        distortion_constant, find_radius, min_cell_gap,
                        solve_s_window, trace_level_lines)
from .cantor_ifs import (LimitSample, check_invariance, cylinder_eval,
                         cylinder_fixed_point, project_to_plane, sample_limit_set)
from .pressure import (BowenInterval, DimensionCertificate, Level1Sum,
                       PressureReport, WeightedSystem, bowen_root,
                       build_weighted_system, certify_dim_gt_one,
                       compare_window_modes, level1_sum, pressure_bounds,
                       pressure_report)
from .oracle import (BoxCountEstimate, box_counting_dim, brute_force_pressure,
                     brute_force_pressure_similarity, cantor_middle_thirds,
                     containment_recheck, fd_derivative_check, recheck_gset)

__version__ = "0.1.0"
