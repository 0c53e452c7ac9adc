"""tractdim: certified dimension bounds for Cantor repellers over logarithmic tracts.

The pipeline goes from the map f(z) = lam * e**z, which has a
logarithmic tract, to a dimension-greater-than-one certificate in four
steps: logarithmic lift and inverse branches (loglift), square geometry
and the admissible index set (tractgeom), the induced conformal iterated
function system (cantor_ifs), and pressure bounds with the Bowen-root
enclosure (pressure).  The lemmas module checks the paper's anchor and
level-line conditions, and the oracle module holds independent
brute-force verifiers.

Every name exported here is read by the package itself, by the
benchmark harness (`perfbench/`), or is one of the few references the
tests compare the pipeline against: `inv_branch`, the cylinder maps
with `check_invariance`, and the oracles' `compare_window_modes`,
`fd_derivative_check`, `brute_force_pressure_similarity` and
`containment_recheck`.  `tests/test_api_surface.py` keeps it that way.

The names of `cantor_ifs`, `oracle` and `lemmas` (`_LAZY`) are exported
lazily: the first access of one, `tractdim.recheck_gset` say, imports
its module and keeps the name here (a module `__getattr__`, PEP 562), and
`dir` lists them from the start.  The certificate path (`tractdim dim`
at a numeric anchor) needs none of the three, so `import tractdim`
neither compiles them nor loads numpy, which `cantor_ifs` and `oracle`
import: the functions of the other modules that take numpy arrays
import it when called.

The records are `typing.NamedTuple`s, so importing the package generates
no dataclass code and loads neither `dataclasses` nor `inspect`.  `Rect`,
`GeometryBudget` and `MapFamily` check their fields in the `__new__` of a
subclass of their NamedTuple (`_replace` skips that check).  A record is
a tuple, but no report writes one: `canonical_json` refuses it.
"""

import importlib

from .errors import (ConfigError, ConstructionError, DomainError, GeometryError,
                     NumericError, TractdimError)
from .loglift import MapFamily, exponential_family, inv_branch, normalize_family
from .tractgeom import (GeometryBudget, GSet, Rect, build_G, build_squares,
                        log_distortion_bound, min_cell_gap)
from .pressure import (BowenInterval, DimensionCertificate, Level1Sum, WeightedSystem,
                       bowen_root, build_weighted_system, certify_dim_gt_one, level1_sum)

__version__ = "0.1.0"

# exported name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("LimitSample", "check_invariance", "cylinder_eval",
                     "cylinder_fixed_point", "project_to_plane", "sample_limit_set"),
                    "cantor_ifs"),
    **dict.fromkeys(("BoxCountEstimate", "box_counting_dim", "brute_force_pressure",
                     "brute_force_pressure_similarity", "cantor_middle_thirds",
                     "compare_window_modes", "containment_recheck", "fd_derivative_check",
                     "recheck_gset"),
                    "oracle"),
    **dict.fromkeys(("anchor_line", "find_radius", "trace_level_lines"), "lemmas"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
