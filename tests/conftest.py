import math
from types import SimpleNamespace

import pytest

import tractdim as td


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
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5, margin=0.0, boundary_samples=256)
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
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5, margin=0.0, boundary_samples=256)
    spec = td.build_squares(4.0, 0.5)
    dist = td.distortion_constant(4.0, f.ln_r0)
    gset = td.build_G(f, 4.0, spec, budget, mode="enumerate", dist=dist)
    return SimpleNamespace(family=f, budget=budget, spec=spec, dist=dist,
                           gset=gset, anchor=4.0)
