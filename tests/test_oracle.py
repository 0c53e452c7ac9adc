import math
import warnings

import numpy as np
import pytest

import tractdim as td
from tractdim import oracle
from tractdim.tractgeom import GSet, SWindow


def test_box_dim_middle_thirds():
    pts = td.cantor_middle_thirds(100_000, 35, seed=7)
    est = td.box_counting_dim(pts, [3.0 ** -k for k in range(1, 8)])
    assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)
    assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))  # sorted by scale


def test_box_dim_segment():
    rng = np.random.default_rng(3)
    pts = rng.random(20_000).astype(complex)
    est = td.box_counting_dim(pts, [10.0 ** -k for k in np.linspace(0.5, 2.8, 6)])
    assert est.slope == pytest.approx(1.0, abs=0.05)


def test_box_dim_validations():
    with pytest.raises(td.ConfigError):
        td.box_counting_dim(np.zeros(20_000, dtype=complex),
                            [10.0 ** -k for k in range(5)])
    with pytest.raises(td.ConfigError):
        td.box_counting_dim(np.arange(100).astype(complex), [0.1, 0.01, 0.001, 1e-4, 1e-5])
    rng = np.random.default_rng(1)
    pts = rng.random(20_000).astype(complex)
    with pytest.raises(td.ConfigError):
        td.box_counting_dim(pts, [0.1, 0.09, 0.08, 0.07, 0.06])  # < 2 decades


def test_brute_similarity_single_letter_exact():
    c = 0.41
    for n in (1, 2, 4):
        val = td.brute_force_pressure_similarity([c], n, 0.7)
        assert val == pytest.approx(0.7 * math.log(c), abs=1e-12)


def test_brute_similarity_n_independent():
    v1 = td.brute_force_pressure_similarity([1 / 3, 1 / 3], 1, 1.0)
    v3 = td.brute_force_pressure_similarity([1 / 3, 1 / 3], 3, 1.0)
    assert v1 == pytest.approx(v3, abs=1e-12)


def test_brute_budget_guard(small):
    letters = small.gset.letters_by_weight(12)
    with pytest.raises(td.ConfigError):
        td.brute_force_pressure(small.family, letters, small.spec, n=6, t=1.0)


def test_fd_constant_map():
    worst = td.fd_derivative_check(lambda z: (3.5 + 0j, 0.0 + 0j),
                                   [1.0 + 1j, 2.0 - 0.5j])
    assert worst == 0.0


def test_fd_branch_tolerance(fam):
    rng = np.random.default_rng(17)
    zeta = fam.ln_r0 + 0.5 + 20.0 * rng.random(1000) + 1j * rng.random(1000)
    worst = td.fd_derivative_check(lambda z: td.inv_branch(fam, 0, z), zeta)
    assert worst <= 1e-6


def test_containment_recheck_inside_and_outside(small):
    assert td.containment_recheck(small.family, 0, 5000, small.spec,
                                  small.budget, density=10) == "inside"
    v = td.containment_recheck(small.family, 0, 30, small.spec,
                               small.budget, density=10)
    assert v == "outside"


def test_containment_recheck_disagreement_raises(small):
    with pytest.raises(td.NumericError):
        td.containment_recheck(small.family, 0, 30, small.spec, small.budget,
                               density=10, recorded_verdict="inside")


def test_recheck_gset_clean(small):
    rep = td.recheck_gset(small.family, small.gset, small.spec, small.budget,
                          density=10, dense_sample=64)
    assert rep.n_flagged == 0
    assert rep.n_checked == small.gset.n_explicit
    assert rep.min_margin > 0


def test_recheck_gset_flags_planted_outsider(small):
    # plant a window holding one clearly inadmissible index
    bad = GSet(mode="enumerate",
               windows=tuple(sorted(small.gset.windows + (SWindow(0, 30, 30),),
                                    key=lambda w: (w.u, w.s_lo))),
               segments=())
    rep = td.recheck_gset(small.family, bad, small.spec, small.budget,
                          density=10, dense_sample=16)
    assert rep.n_flagged >= 1
    assert (0, 30) in rep.flagged


def test_recheck_gset_undefined_margins_get_dense_recheck(monkeypatch):
    """lam = 0.01, R0 = 1.2, anchor 4: for |s| <= 2, 2*pi*|s| falls below
    the independent envelope constant, so the enclosure margin is undefined;
    those letters must go to the dense recheck instead of passing unchecked."""
    fam = td.normalize_family(td.exponential_family(0.01, 1.2))
    budget = td.GeometryBudget(inset=0.5, margin=0.0)
    spec = td.build_squares(4.0, 0.5)
    gset = td.build_G(fam, 4.0, spec, budget, mode="enumerate")
    rechecked = []
    dense = oracle.containment_recheck

    def spy(family, u, s, *args, **kwargs):
        rechecked.append(s)
        return dense(family, u, s, *args, **kwargs)

    monkeypatch.setattr(oracle, "containment_recheck", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.recheck_gset(fam, gset, spec, budget, dense_sample=0)
    assert {-2, -1, 1, 2} <= set(rechecked)
    assert rep.n_flagged == 0
    assert rep.n_checked == gset.n_explicit
    assert math.isfinite(rep.min_margin)
