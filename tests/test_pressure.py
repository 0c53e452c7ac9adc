import math

import numpy as np
import pytest

import tractdim as td
from tractdim.numerics import log_sum_exp
from tractdim.pressure import WeightedSystem, build_weighted_system


def test_level1_empty_system():
    sys0 = WeightedSystem(log_lo=np.array([]), log_hi=np.array([]))
    s = td.level1_sum(sys0, 1.0)
    assert s.lo == 0.0 and s.hi == 0.0


def test_level1_two_quarters_exact():
    sys2 = WeightedSystem.from_uniform([0.25, 0.25])
    s = td.level1_sum(sys2, 0.5)
    assert s.lo == pytest.approx(1.0, abs=1e-14)
    assert s.hi == pytest.approx(1.0, abs=1e-14)


def test_level1_rejects_bad_exponent():
    sys2 = WeightedSystem.from_uniform([0.25, 0.25])
    with pytest.raises(td.ConfigError):
        td.level1_sum(sys2, 4.5)


def test_pressure_single_letter_linear():
    c = 0.37
    sys1 = WeightedSystem.from_uniform([c])
    for t in (0.0, 0.5, 1.0, 2.0):
        lo, hi = td.pressure_bounds(sys1, t)
        assert lo == pytest.approx(t * math.log(c), abs=1e-12)
        assert hi == pytest.approx(t * math.log(c), abs=1e-12)


def test_pressure_middle_thirds_straddles_zero():
    sys3 = WeightedSystem.from_uniform([1.0 / 3.0, 1.0 / 3.0])
    t_star = math.log(2.0) / math.log(3.0)
    lo, hi = td.pressure_bounds(sys3, t_star)
    assert abs(lo) <= 1e-9 and abs(hi) <= 1e-9


def test_pressure_ordering_and_decrease(small):
    system = build_weighted_system(small.family, small.gset, small.spec, small.dist)
    grid = [0.5 + 0.1 * k for k in range(11)]
    rep = td.pressure_report(system, grid)
    assert rep.two_sided_consistent
    assert rep.strictly_decreasing_lo and rep.strictly_decreasing_hi


def test_two_sided_ratio_within_distortion(small):
    system = build_weighted_system(small.family, small.gset, small.spec, small.dist)
    for t in (0.5, 1.0, 1.5):
        s = td.level1_sum(system, t)
        assert s.log_hi - s.log_lo <= 2.0 * t * math.log(small.dist.c) + 1e-9


def test_per_letter_envelope_width(small):
    system = build_weighted_system(small.family, small.gset, small.spec, small.dist)
    if system.log_lo is not None and system.log_lo.size:
        width = system.log_hi - system.log_lo
        assert np.all(width <= 2.0 * math.log(small.dist.c))
        assert np.all(system.log_hi < 0)  # contractions


def test_bowen_roots_closed_forms():
    r = td.bowen_root(WeightedSystem.from_uniform([0.25, 0.25]))
    assert r.t_lo == pytest.approx(0.5, abs=1e-3)
    assert r.t_hi == pytest.approx(0.5, abs=1e-3)
    r = td.bowen_root(WeightedSystem.from_uniform([1 / 3, 1 / 3]))
    assert r.t_lo == pytest.approx(math.log(2) / math.log(3), abs=1e-3)
    assert r.t_hi == pytest.approx(math.log(2) / math.log(3), abs=1e-3)
    r = td.bowen_root(WeightedSystem.from_uniform([0.6]))
    assert r.t_lo == 0.0 and r.t_hi == 0.0


def test_bowen_cap_flag():
    # ten letters at 0.9: the root sits far beyond the scan cap
    r = td.bowen_root(WeightedSystem.from_uniform([0.9] * 10))
    assert r.hi_capped and r.t_hi == 4.0


def test_bowen_monotone_in_weights():
    base = WeightedSystem.from_uniform([0.3, 0.2, 0.1])
    shrunk = base.scaled(0.5)
    r1 = td.bowen_root(base, tol=1e-4)
    r2 = td.bowen_root(shrunk, tol=1e-4)
    assert r2.t_lo < r1.t_lo
    assert r2.t_hi < r1.t_hi


def test_level1_cross_mode_windows_vs_segments(small):
    """Explicit letters and tail segments of the same window agree."""
    win = td.solve_s_window(small.family, 0, small.spec, budget=small.budget, sign=1)
    cmp = td.compare_window_modes(small.family, small.spec,
                                  win.sigma_lo, min(win.sigma_lo + 4.0, win.sigma_hi),
                                  t=1.0)
    assert cmp.consistent
    assert cmp.rel_width_lo <= 0.01
    assert cmp.rel_width_hi <= 0.01


def test_level1_anchor_mode(small):
    system = build_weighted_system(small.family, small.gset, small.spec, small.dist)
    anchored = td.level1_sum(system, 1.0, mode="anchor")
    bounded = td.level1_sum(system, 1.0, mode="bounds")
    # anchor values sit inside the inf/sup envelope sums
    assert bounded.log_lo <= anchored.log_hi
    assert anchored.log_lo <= bounded.log_hi


def test_level1_segment_sums_bit_identical_to_direct(fam):
    """Sharing one sandwich sum per sigma range changes no bit of the bounds."""
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    spec = td.build_squares(4000.0, 3.0)
    dist = td.distortion_constant(4000.0, fam.ln_r0)
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail", dist=dist)
    system = build_weighted_system(fam, gset, spec, dist)
    assert gset.n_explicit == 0 and gset.n_segments > 1000
    model = fam.tail_model()
    parts = [model.sum_log_weight_bounds(seg.sigma_lo, seg.sigma_hi, 1.0, system.env)
             for seg in gset.segments]
    got = td.level1_sum(system, 1.0)
    assert got.log_lo == log_sum_exp([lo for lo, _ in parts])
    assert got.log_hi == log_sum_exp([hi for _, hi in parts])


def test_brute_force_within_level1_sandwich(small):
    letters = small.gset.letters_by_weight(8)
    model = small.family.tail_model()
    env = model.envelope(small.spec.outer.bounds())
    sigma = np.log(2 * math.pi) + np.log(np.abs(np.array([s for _, s in letters], dtype=float)))
    lo, hi = model.log_weight_bounds(sigma, env)
    sub = WeightedSystem(log_lo=lo, log_hi=hi, distortion_c=small.dist.c)
    for n in (1, 2, 3):
        brute = td.brute_force_pressure(small.family, letters, small.spec,
                                        n=n, t=1.0, distortion_c=small.dist.c)
        p_lo, p_hi = td.pressure_bounds(sub, 1.0)
        assert p_lo - brute.slack_log <= brute.value <= p_hi + brute.slack_log


def test_certificate_small_anchor_not_certified(fam):
    cert = td.certify_dim_gt_one(fam, anchor=12.0, epsilon=0.1, inset=0.5,
                                 mode="tail")
    assert cert.verdict == "not-certified"
    assert cert.p1_lo <= 0
    assert any("P_lo" in r for r in cert.reasons)


def test_certificate_empty_g(fam):
    cert = td.certify_dim_gt_one(fam, anchor=3.0, epsilon=0.1, inset=0.5,
                                 mode="enumerate")
    assert cert.verdict == "not-certified"
    assert any("empty" in r for r in cert.reasons)


def test_certificate_deterministic(fam):
    a = td.certify_dim_gt_one(fam, anchor=4000.0, epsilon=0.1, inset=3.0, mode="tail")
    b = td.certify_dim_gt_one(fam, anchor=4000.0, epsilon=0.1, inset=3.0, mode="tail",
                              workers=4)
    da, db = a.to_json_dict(), b.to_json_dict()
    assert da == db
