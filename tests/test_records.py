"""What the package's records keep as NamedTuples.

Every public class of the pipeline modules that is not an exception is
a record, a NamedTuple.  Each one is immutable, keeps the
`Name(field=value, ...)` repr, and the three records with constructor
checks still make them.
"""

import importlib
import inspect
import itertools
import math

import pytest

import tractdim as td
from tractdim import cantor_ifs, cli
from tractdim.numerics import TWO_PI
from tractdim.tractgeom import Rect, RunBlock

MODULES = ("cli", "commands", "tractgeom", "lemmas", "loglift", "pressure", "numerics",
           "cantor_ifs", "oracle")


def _record_classes() -> dict:
    """name -> class for every public class of the modules that is not an
    exception."""
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(f"tractdim.{module_name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)):
                found[name] = obj
    return found


@pytest.fixture(scope="module")
def records():
    """One instance of every record, from one small run at anchor 12."""
    fam = td.exponential_family()
    budget = td.GeometryBudget()
    spec = td.build_squares(12.0, budget.inset)
    env = fam.envelope(spec)
    gset = td.build_G(fam, 12.0, spec, budget)
    system = td.build_weighted_system(fam, gset, spec)
    lines = td.trace_level_lines(fam, 12.0, budget)
    sample = td.sample_limit_set(fam, gset, spec, depth=2, count=10)
    s1 = next(run.s_lo for run in gset.runs if run.s_lo > 0)
    sigma = math.log(TWO_PI * s1)
    made = [fam, budget, spec, env, env.run_sums([(s1, s1 + 99)])[0][1][0],
            td.anchor_line(fam, 12.0, budget.inset),
            gset, gset.runs[0], td.min_cell_gap(fam, gset, spec), lines,
            system, td.level1_sum(system, 1.0), td.bowen_root(system),
            td.certify_dim_gt_one(fam, spec),
            td.compare_window_modes(fam, spec, sigma, sigma + 1.0),
            cli.load_config({}), sample, cantor_ifs.project_to_plane(fam, sample),
            td.check_invariance(fam, sample),
            td.box_counting_dim(td.cantor_middle_thirds(10_000, 35),
                               [3.0 ** -k for k in range(1, 7)]),
            td.recheck_gset(fam, gset, spec, budget, density=1, dense_sample=10)]
    return {type(record).__name__: record for record in made}


def test_every_record_is_covered(records):
    classes = _record_classes()
    assert sorted(records) == sorted(classes)
    for name, record in records.items():
        assert type(record) is classes[name]


def test_records_are_namedtuples(records):
    for name, record in records.items():
        assert isinstance(record, tuple) and hasattr(record, "_fields"), name


def test_records_are_immutable(records):
    """Assigning any field of any record raises AttributeError and leaves
    the field as it was."""
    for name, record in records.items():
        for field in type(record)._fields:
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            assert getattr(record, field) is before, (name, field)


def test_records_repr_their_fields_by_name(records):
    for name, record in records.items():
        text = repr(record)
        assert text.startswith(f"{name}(") and text.endswith(")"), text
        head = ", ".join(f"{field}={getattr(record, field)!r}" for field in type(record)._fields)
        assert text == f"{name}({head})"


def test_run_blocks_sort_by_their_four_ends():
    blocks = [RunBlock(*ends) for ends in itertools.product((-2, 0, 3), (0, 1), (-7, 5),
                                                            (5, 9))]
    want = sorted(blocks, key=lambda r: (r.u_lo, r.u_hi, r.s_lo, r.s_hi))
    for shift in range(len(blocks)):
        assert sorted(blocks[shift:] + blocks[:shift]) == want
    assert sorted(blocks, reverse=True) == want[::-1]


@pytest.mark.parametrize("ends", [(1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 2.0, 2.0),
                                  (2.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, -1.0),
                                  (0.0, math.nan, 0.0, 1.0)])
def test_rect_refuses_a_degenerate_rectangle(ends):
    with pytest.raises(td.GeometryError, match="degenerate rectangle"):
        Rect(*ends)


@pytest.mark.parametrize("kwargs, match", [
    ({"epsilon": 0.0}, "epsilon"), ({"epsilon": 1.0}, "epsilon"), ({"epsilon": -0.5}, "epsilon"),
    ({"epsilon": 1.5}, "epsilon"), ({"inset": 0.0}, "inset"), ({"inset": -1.0}, "inset")])
def test_geometry_budget_refuses_bad_constants(kwargs, match):
    with pytest.raises(td.ConfigError, match=match):
        td.GeometryBudget(**kwargs)


@pytest.mark.parametrize("kwargs, match", [
    ({"r0": 1.0}, "tract radius"), ({"r0": 0.5}, "tract radius"),
    ({"lam": 0j}, "lam != 0"), ({"lam": 0.0, "r0": 2.0}, "lam != 0")])
def test_map_family_refuses_bad_parameters(kwargs, match):
    with pytest.raises(td.ConfigError, match=match):
        td.MapFamily(**kwargs)


def test_checked_records_keep_their_defaults_and_fields():
    assert td.GeometryBudget() == (0.1, 0.5)
    assert td.MapFamily() == (1.0 + 0.0j, math.e)
    assert Rect(0.0, 1.0, 2.0, 3.0) == (0.0, 1.0, 2.0, 3.0)
    family = td.normalize_family(td.exponential_family(lam=10.0))
    assert type(family) is td.MapFamily and family.r0 == 10.0 * math.e
