"""Every public name of the package has a reader, and every knob a caller.

Each name that `tractdim/__init__.py` exports, and each public function
and class of the nine pipeline modules, with the public methods and
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

And each field of every NamedTuple record of the nine modules must be
read as an attribute (`.field`, matched by name) in the same sources,
but the fields of the records the kept references return
(`KEPT_RECORDS`) and those listed in `KEPT_FIELDS` with what the tests
check: a field that nothing reads is computed for nothing.  The match
is by name alone, so a field sharing its name with an attribute read on
another class passes unread (`Level1Sum.n_letters` did, read only as
`WeightedSystem.n_letters`); such a field is found by grepping its
reads.

What is kept only because `perfbench/` passes or reads it is listed in
`PERFBENCH_ONLY`, each entry with the benchmark line that needs it, and
nothing in `src/tractdim/` reads it.

And outside `lemmas` the construction reads the square Q alone: the lemma
budget (epsilon, inset) is read only where it is validated and as the
inset `build_squares` checks, and only `lemmas` builds the squares Q' and
Q'' of the level lines.
"""

import ast
import importlib
import inspect
import math
from functools import cache, cached_property
from pathlib import Path

import pytest

import tractdim

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "commands", "tractgeom", "lemmas", "loglift", "pressure", "numerics",
           "cantor_ifs", "oracle")

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
    "MapFamily.plane_map": "f itself: criterion 1 and `test_conjugacy_residual` compare "
                           "f∘exp with exp∘F",
}


def _parsed(paths) -> tuple:
    return tuple(node for path in paths
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


@cache
def _src_nodes() -> tuple:
    """Every AST node of the package's modules, less the re-exports of
    `__init__.py`."""
    return _parsed(sorted(p for p in (ROOT / "src" / "tractdim").glob("*.py")
                          if p.name != "__init__.py"))


@cache
def _nodes() -> tuple:
    """Every AST node of the package's modules, less the re-exports of
    `__init__.py`, and of the benchmark's."""
    return _src_nodes() + _parsed(sorted((ROOT / "perfbench").glob("*.py")))


@cache
def _reads() -> frozenset:
    """Every name, attribute and imported name the package and the
    benchmark read."""
    reads = set()
    for node in _nodes():
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
    """The exported names, the lazy ones too (`dir` lists them), the
    modules' public functions and classes, and Class.member for the public
    methods and properties of those classes."""
    names = {name for name in dir(tractdim)
             if not name.startswith("_") and not inspect.ismodule(getattr(tractdim, name))}
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


def test_lazy_exports_are_their_modules_objects():
    """Each lazily exported name is its module's object, `dir` lists it,
    and an unknown attribute raises AttributeError."""
    assert set(tractdim._LAZY.values()) == {"cantor_ifs", "oracle", "lemmas"}
    for name, module_name in tractdim._LAZY.items():
        module = importlib.import_module(f"tractdim.{module_name}")
        assert getattr(tractdim, name) is getattr(module, name)
        assert name in dir(tractdim)
    with pytest.raises(AttributeError, match="no_such_name"):
        tractdim.no_such_name


def test_the_surface_covers_the_modules():
    """The collection sees what it should: exported functions, classes
    of every module, properties and classmethods."""
    names = _public_names()
    assert {"build_G", "certify_dim_gt_one", "load_config", "write_json", "recheck_gset",
            "sample_limit_set", "RunSum.log_bound", "GSet.n_letters",
            "WeightedSystem.n_letters", "WeightedSystem.from_uniform",
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
def _calls(package_only: bool = False) -> dict:
    """callee name -> [(number of positional arguments, keyword names)] for
    every call in the package and the benchmark (or the package only), the
    callee known by its name alone (a name or an attribute); a * argument
    passes every position and a ** argument every keyword."""
    calls = {}
    for node in _src_nodes() if package_only else _nodes():
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


def _passed(knob: str, package_only: bool = False) -> bool:
    """Whether some call of the function passes the parameter, by keyword
    or by position."""
    func_name, position = _knobs()[knob]
    param = knob.rpartition(".")[2]
    return any(param in keywords or (position is not None and position < n_pos)
               for n_pos, keywords in _calls(package_only).get(func_name, ()))


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


# records whose fields only the tests read: what the kept references return
KEPT_RECORDS = ("WindowComparison", "InvarianceReport")

# "Record.field" -> what the tests check with it
KEPT_FIELDS = {
    "GapReport.log_min_gap": "the gap bound itself, against an 80-digit mpmath value "
                             "(test_tractgeom); min_gap is its exp and is 0 from anchor "
                             "about 750 on",
}


@cache
def _records() -> dict:
    """name -> class for every NamedTuple class that the modules define."""
    records = {}
    for module_name in MODULES:
        module = importlib.import_module(f"tractdim.{module_name}")
        records.update((name, obj) for name, obj in vars(module).items()
                       if inspect.isclass(obj) and issubclass(obj, tuple)
                       and hasattr(obj, "_fields") and obj.__module__ == module.__name__)
    return records


@cache
def _record_fields() -> frozenset:
    """"Record.field" for every field of every record but the kept ones."""
    return frozenset(f"{name}.{field}" for name, record in _records().items()
                     if name not in KEPT_RECORDS for field in record._fields)


@cache
def _attribute_reads() -> frozenset:
    """Every attribute the package and the benchmark read."""
    return frozenset(node.attr for node in _nodes()
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _field_is_read(field: str) -> bool:
    return field.rpartition(".")[2] in _attribute_reads()


def test_every_record_field_has_a_reader():
    unread = sorted(f for f in _record_fields() if not _field_is_read(f) and f not in KEPT_FIELDS)
    assert unread == [], ("read as an attribute by no module of src/tractdim or perfbench: "
                          "delete them and what computes them, or list them in KEPT_FIELDS "
                          "with what the tests check")


def test_kept_records_and_fields_exist_and_fields_have_no_other_reader():
    assert sorted(set(KEPT_RECORDS) - set(_records())) == []
    assert sorted(set(KEPT_FIELDS) - _record_fields()) == []
    assert sorted(f for f in KEPT_FIELDS if _field_is_read(f)) == []


def test_the_field_check_sees_the_records():
    """Public and private records, and the fields of a NamedTuple under a
    checked subclass, are collected."""
    fields = _record_fields()
    assert {"GSet.runs", "WeightedSystem.envelope_sums", "Rect.re_lo", "_RectFields.re_lo",
            "_Boundary.q_order", "RunConfig.collar", "LimitSample.shifted"} <= fields
    assert not any(f.startswith(KEPT_RECORDS) for f in fields)


# What only perfbench/ passes or reads: "function", "Class.attribute" or
# "function.parameter" -> the benchmark file and the line of it that needs
# the entry.  Each has no effect, and ROADMAP item 1 deletes them.
_BUILD_G_LINE = ("workloads.py", "gset = build_G(cfg.family, cfg.anchor, spec, cfg.budget, "
                                 "mode=cfg.mode, dist=dist,")
_BUILD_G_TAIL = ("workloads.py", "collar=cfg.collar, workers=1)")
_BOWEN_ROOT_LINE = ("workloads.py", "roots = bowen_root(system, tol=cfg.bisect_tol)")
PERFBENCH_ONLY = {
    "RunConfig.bisect_tol": _BOWEN_ROOT_LINE,
    "bowen_root.tol": _BOWEN_ROOT_LINE,
    "distortion_constant": ("workloads.py",
                            "dist = distortion_constant(cfg.anchor, cfg.family.ln_r0)"),
    "GSet.n_explicit": ("layers.py", 'tr.count("tractgeom.letters", gset.n_explicit)'),
    "GSet.windows": ("layers.py", 'tr.count("tractgeom.windows", len(gset.windows))'),
    "RunConfig.mode": _BUILD_G_LINE,
    "RunConfig.collar": _BUILD_G_TAIL,
    "build_G.anchor": _BUILD_G_LINE,
    "build_G.budget": _BUILD_G_LINE,
    "build_G.mode": _BUILD_G_LINE,
    "build_G.dist": _BUILD_G_LINE,
    "build_G.workers": _BUILD_G_TAIL,
    "build_G.collar": _BUILD_G_TAIL,
    "build_weighted_system.dist": ("workloads.py", "system = build_weighted_system("
                                                   "cfg.family, gset, spec, dist)"),
    "recheck_gset.budget": ("workloads.py", "rep = step(recheck_gset, fam, gset, spec, "
                                            "cfg.budget,"),
}

# attribute reads in src/tractdim that share a listed name: the parsed
# `--mode` option, which `_read_config` merges into the config
_OTHER_READS = {"args.mode"}


def _package_object(name: str):
    """The object a module of the package defines under `name`."""
    for module_name in MODULES:
        module = importlib.import_module(f"tractdim.{module_name}")
        if name in vars(module):
            return vars(module)[name]
    raise AssertionError(f"no module defines {name}")


def test_perfbench_only_entries_exist_and_are_named_in_perfbench():
    """Each entry is in the package (a function, a class attribute, or a
    parameter of a function) and its benchmark line, which names it, is in
    the file given; a parameter's function is called in that file."""
    for entry, (file_name, line) in PERFBENCH_ONLY.items():
        source = (ROOT / "perfbench" / file_name).read_text(encoding="utf-8")
        assert line in source and entry.rpartition(".")[2] in line, entry
        owner_name, _, member = entry.rpartition(".")
        if not owner_name:
            assert inspect.isfunction(_package_object(member)), entry
            continue
        owner = _package_object(owner_name)
        if inspect.isfunction(owner):
            assert member in inspect.signature(owner).parameters, entry
            assert f"{owner_name}(" in source or f"({owner_name}," in source, entry
        else:
            assert hasattr(owner, member), entry


def test_perfbench_only_entries_have_no_reader_in_the_package():
    """No listed function or attribute is read in src/tractdim, and no call
    there passes a listed parameter that has a default."""
    names, attributes = set(), set()
    for node in _src_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if ast.unparse(node) not in _OTHER_READS:
                attributes.add(node.attr)

    def is_read(entry):
        owner_name, _, member = entry.rpartition(".")
        if not owner_name:
            return member in names | attributes
        return not inspect.isfunction(_package_object(owner_name)) and member in attributes

    read = [entry for entry in PERFBENCH_ONLY if is_read(entry)]
    passed = [entry for entry in PERFBENCH_ONLY
              if entry in _knobs() and _passed(entry, package_only=True)]
    assert read == [] and passed == []



# Where the lemma budget may be read outside `lemmas`: the function or class
# that validates it, by module
_BUDGET_OWNERS = {"cli": "load_config", "tractgeom": "GeometryBudget"}
# attribute reads that share the budget's field names
_OTHER_BUDGET_READS = {"sys.float_info.epsilon"}


def _lemma_layer_uses(module: str, source: str) -> tuple:
    """What a module reads or builds of the lemma layer: its reads of
    `.inset` or `.epsilon` but the inset argument of a `build_squares`
    call (and those of `_BUDGET_OWNERS`), its reads of `.shrink`, `.inner`
    and `.core`, and the scope of each `Rect(...)` call, each scope named
    by its top-level function or class."""
    tree = ast.parse(source)
    inset_args = {id(call.args[1]) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and len(call.args) == 2
                  and getattr(call.func, "id", getattr(call.func, "attr", None))
                  == "build_squares"}
    reads, rects = [], []
    for top in tree.body:
        scope = f"{module}.{getattr(top, 'name', None)}"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Rect":
                rects.append(scope)
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            budget = (node.attr in ("inset", "epsilon") and id(node) not in inset_args
                      and _BUDGET_OWNERS.get(module) != scope.partition(".")[2]
                      and ast.unparse(node) not in _OTHER_BUDGET_READS)
            if budget or node.attr in ("shrink", "inner", "core"):
                reads.append(f"{scope}: {ast.unparse(node)}")
    return reads, rects


def test_the_construction_reads_q_alone():
    """Outside `lemmas`, `cli.load_config` and `GeometryBudget`, the only
    read of `.inset` or `.epsilon` is the inset argument of a
    `build_squares` call.  And no module but `lemmas` builds Q' or Q'':
    nothing else reads `.shrink`, `.inner` or `.core`, and `Rect` is
    constructed once in `build_squares` (Q) and once in `Rect.shrink`."""
    reads, rects = [], []
    for path in sorted((ROOT / "src" / "tractdim").glob("*.py")):
        if path.stem != "lemmas":
            module_reads, module_rects = _lemma_layer_uses(path.stem,
                                                           path.read_text(encoding="utf-8"))
            reads += module_reads
            rects += module_rects
    assert reads == []
    assert sorted(rects) == ["tractgeom.Rect", "tractgeom.build_squares"]


def test_the_q_guard_finds_what_it_forbids():
    """Planted in a module: a budget read beside the allowed inset argument,
    an inset copy of Q and a second Rect are each found; in `cli`, the
    reads of `load_config` are not."""
    source = ("import sys\n"
              "def run(cfg):\n"
              "    q = build_squares(cfg.anchor, cfg.budget.inset)\n"
              "    eps = sys.float_info.epsilon + cfg.budget.epsilon\n"
              "    return q.shrink(1.0), Rect(1.0, 2.0, 3.0, 4.0)\n"
              "def load_config(raw):\n"
              "    return raw.inset\n")
    assert _lemma_layer_uses("commands", source) == (
        ["commands.run: cfg.budget.epsilon", "commands.run: q.shrink",
         "commands.load_config: raw.inset"], ["commands.run"])
    assert _lemma_layer_uses("cli", source)[0] == ["cli.run: cfg.budget.epsilon",
                                                   "cli.run: q.shrink"]
