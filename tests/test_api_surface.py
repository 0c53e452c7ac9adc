"""Every public name of the package has a reader.

Each name that `tractdim/__init__.py` exports, and each public function
and class of the seven pipeline modules, with the public methods and
properties of those classes, must be read somewhere in `src/tractdim/`
or `perfbench/`, or be one of the references the tests compare the
pipeline against (`KEPT_REFERENCES`).  A read is a name, an attribute or
a `from ... import` in the parsed source; the re-exports of
`__init__.py` do not count.  So API that only tests call cannot be added
silently.
"""

import ast
import importlib
import inspect
from functools import cache, cached_property
from pathlib import Path

import tractdim

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "tractgeom", "loglift", "pressure", "numerics", "cantor_ifs", "oracle")

# name -> what the tests compare with it
KEPT_REFERENCES = {
    "inv_branch": "the inverse branch with its half-plane check (criteria 1 and 2)",
    "cylinder_fixed_point": "fixed points and multipliers of cylinder maps",
    "check_invariance": "the two-step shift invariance of a sample",
    "compare_window_modes": "enumeration against the run sum on one window (criterion 5)",
    "WindowComparison.consistent": "the verdict of compare_window_modes",
    "WeightedSystem.from_uniform": "synthetic systems of similarities with exact weights",
    "fd_derivative_check": "closed-form derivatives against central differences",
    "brute_force_pressure_similarity": "the pressure of a similarity system by brute force",
    "containment_recheck": "the dense containment verdict of one letter",
}


@cache
def _reads() -> frozenset:
    """Every name, attribute and imported name the package and the
    benchmark read."""
    paths = [p for p in (ROOT / "src" / "tractdim").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return frozenset(reads)


def _is_member(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(
        obj, (property, cached_property, classmethod, staticmethod))


@cache
def _public_names() -> frozenset:
    """The exported names, the modules' public functions and classes, and
    Class.member for the public methods and properties of those classes."""
    names = {name for name, obj in vars(tractdim).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    for module_name in MODULES:
        module = importlib.import_module(f"tractdim.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names.add(name)
            elif inspect.isclass(obj):
                names.add(name)
                names.update(f"{name}.{attr}" for attr, member in vars(obj).items()
                             if not attr.startswith("_") and _is_member(member))
    return frozenset(names)


def _has_reader(name: str) -> bool:
    return name.rpartition(".")[2] in _reads()


def test_every_public_name_has_a_reader():
    unread = sorted(name for name in _public_names()
                    if not _has_reader(name) and name not in KEPT_REFERENCES)
    assert unread == [], ("read by no module of src/tractdim or perfbench: delete them, "
                          "or list them in KEPT_REFERENCES with what the tests compare")


def test_kept_references_exist_and_have_no_other_reader():
    """A kept reference is a public name that nothing but the tests reads;
    one that gains a reader leaves the list."""
    assert sorted(set(KEPT_REFERENCES) - _public_names()) == []
    assert sorted(name for name in KEPT_REFERENCES if _has_reader(name)) == []


def test_the_surface_covers_the_modules():
    """The collection sees what it should: exported functions, classes
    of every module, properties and classmethods."""
    names = _public_names()
    assert {"build_G", "certify_dim_gt_one", "load_config", "write_json", "recheck_gset",
            "sample_limit_set", "RunSum.log_bound", "GSet.n_letters",
            "WeightedSystem.envelope_sums", "WeightedSystem.from_uniform",
            "ConfigError"} <= names
    assert not any(name.startswith("_") or "._" in name for name in names)
