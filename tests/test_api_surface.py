"""Every public name of the package has a reader, and every knob a caller.

Each name that `tractdim/__init__.py` exports, and each public function
and class of the seven pipeline modules, with the public methods and
properties of those classes, must be read somewhere in `src/tractdim/`
or `perfbench/`, or be one of the references the tests compare the
pipeline against (`KEPT_REFERENCES`).  A read is a name, an attribute or
a `from ... import` in the parsed source; the re-exports of
`__init__.py` do not count.  So API that only tests call cannot be added
silently.

Likewise each parameter with a default of those functions and methods
must be passed, by keyword or by position, by some call in
`src/tractdim/` or `perfbench/`, or be listed in `KEPT_KNOBS` with the
tests that pass it.  A parameter that every caller leaves at its default
is a constant.
"""

import ast
import importlib
import inspect
import math
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


def _sources() -> list:
    """The package's modules, less the re-exports of `__init__.py`, and the
    benchmark's."""
    paths = [p for p in (ROOT / "src" / "tractdim").glob("*.py") if p.name != "__init__.py"]
    return paths + sorted((ROOT / "perfbench").glob("*.py"))


@cache
def _reads() -> frozenset:
    """Every name, attribute and imported name the package and the
    benchmark read."""
    reads = set()
    for path in _sources():
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


# "function.parameter" -> what the tests pass through it
KEPT_KNOBS = {
    "recheck_gset.dense_sample": "subsamples of 0 to 2,000 letters against the per-letter "
                                 "reference and the one-batch count (test_oracle)",
    "cylinder_eval.gset": "a word with a letter outside G is refused "
                          "(test_cylinder_rejects_alien_letter)",
}


class _Every:
    """The keywords of a call with a ** argument: it may pass any of them."""

    def __contains__(self, name) -> bool:
        return True


@cache
def _calls() -> dict:
    """callee name -> [(number of positional arguments, keyword names)] for
    every call in the package and the benchmark, the callee known by its
    name alone (a name or an attribute); a * argument passes every
    position and a ** argument every keyword."""
    calls = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((n_pos, _Every() if None in keywords else keywords))
    return calls


@cache
def _knobs() -> dict:
    """"function.parameter" -> (function name, position or None) for every
    parameter with a default of the modules' public functions and of the
    public methods of their classes, the position counted without self or
    cls (None: keyword-only).  The kept references are left out: only the
    tests call them."""
    knobs = {}
    for module_name in MODULES:
        module = importlib.import_module(f"tractdim.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                funcs = [(name, obj, 0)]
            elif inspect.isclass(obj):
                # a plain method's signature has self; a classmethod comes bound
                funcs = [(f"{name}.{attr}", getattr(obj, attr), int(inspect.isfunction(member)))
                         for attr, member in vars(obj).items()
                         if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(
                             member, (classmethod, staticmethod)))]
            else:
                continue
            for qualname, func, skip in funcs:
                if qualname in KEPT_REFERENCES:
                    continue
                params = list(inspect.signature(func).parameters.values())
                for i, p in enumerate(params[skip:]):
                    if p.default is not p.empty:
                        position = None if p.kind is p.KEYWORD_ONLY else i
                        knobs[f"{qualname}.{p.name}"] = (func.__name__, position)
    return knobs


def _passed(knob: str) -> bool:
    """Whether some call of the function passes the parameter, by keyword
    or by position."""
    func_name, position = _knobs()[knob]
    param = knob.rpartition(".")[2]
    return any(param in keywords or (position is not None and position < n_pos)
               for n_pos, keywords in _calls().get(func_name, ()))


def test_every_knob_is_passed():
    """A parameter with a default that no call in the package or the
    benchmark passes is a constant: make it one, or list it in KEPT_KNOBS
    with the tests that pass it."""
    unpassed = sorted(k for k in _knobs() if not _passed(k) and k not in KEPT_KNOBS)
    assert unpassed == [], ("passed by no call in src/tractdim or perfbench: make them "
                            "constants, or list them in KEPT_KNOBS with the tests that need them")


def test_kept_knobs_exist_and_are_passed_only_by_tests():
    assert sorted(set(KEPT_KNOBS) - set(_knobs())) == []
    assert sorted(k for k in KEPT_KNOBS if _passed(k)) == []
