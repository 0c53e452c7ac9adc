import math
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest

import tractdim as td
from tractdim import tractgeom
from tractdim.numerics import TWO_PI
from tractdim.tractgeom import _sigma_windows


@pytest.fixture(scope="session")
def fam():
    """Flagship family: lam = 1, tract radius e."""
    return td.normalize_family(td.exponential_family(1.0, math.e))


@pytest.fixture(scope="session")
def fam25():
    return td.normalize_family(td.exponential_family(2.5, math.e))


@pytest.fixture(scope="session")
def small(fam):
    """Anchor 12 bundle: G holds 41.8M letters in two runs of two columns."""
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(12.0, 0.5)
    dist = td.distortion_constant(12.0, fam.ln_r0)
    gset = td.build_G(fam, 12.0, spec, budget, dist=dist)
    return SimpleNamespace(family=fam, budget=budget, spec=spec, dist=dist,
                           gset=gset, anchor=12.0)


@pytest.fixture(scope="session")
def mini():
    """Anchor 4 with a smaller tract radius: mild contractions, ~120 letters,
    fully enumerated.  Used where finite differences need headroom."""
    f = td.normalize_family(td.exponential_family(1.0, 1.2))
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(4.0, 0.5)
    dist = td.distortion_constant(4.0, f.ln_r0)
    gset = td.build_G(f, 4.0, spec, budget, mode="enumerate", dist=dist)
    return SimpleNamespace(family=f, budget=budget, spec=spec, dist=dist,
                           gset=gset, anchor=4.0)


def column_window(family, u, spec, target=None, sign=1):
    """(sigma_lo, sigma_hi) of the column (u, sign): the window of the
    `_sigma_windows` block holding it, or None where it has no room.  The
    envelope is that of Q; the cells must lie in `target` (Q by default)."""
    env = family.envelope(spec.outer.bounds())
    target = spec.outer if target is None else target
    return next(((lo, hi) for u_lo, u_hi, lo, hi in _sigma_windows(env, target, sign)
                 if u_lo <= u <= u_hi), None)


@contextmanager
def cells_inside(margin):
    """Within it, `build_G` admits the cells inside Q.shrink(margin) rather
    than Q: its window solve gets that smaller target, and the envelope
    stays Q's.  `margin` 0 leaves G as it is."""
    solve = tractgeom._sigma_windows
    with mock.patch.object(tractgeom, "_sigma_windows",
                           lambda env, target, sign: solve(env, target.shrink(margin), sign)):
        yield


def window_s_bounds(window):
    """A window's ends in index units, e^sigma / (2 pi), inf past sigma 700."""
    return tuple(math.exp(x) / TWO_PI if x < 700 else math.inf for x in window)
