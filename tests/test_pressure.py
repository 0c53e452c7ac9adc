import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tractdim as td
from tractdim.loglift import ExpTailModel, TailEnvelope
from tractdim.numerics import TWO_PI, log_sum_exp, weighted_log_sum_exp
from tractdim import tractgeom
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


def test_explicit_letter_envelope_width(small):
    """The per-letter envelopes that the closed-form run sums add up stay
    within the distortion constant and are contractions, at 64 letters at
    each end of every run (the width falls with |s|) and 2,000 drawn over G."""
    ends = [np.r_[r.s_lo:r.s_lo + 64, r.s_hi - 63:r.s_hi + 1] for r in small.gset.runs]
    drawn = small.gset.random_ranks(np.random.default_rng(0), 2000)
    s = np.concatenate(ends + [small.gset.letters(drawn)[1]])
    model = small.family.tail_model()
    env = model.envelope(small.spec.outer.bounds())
    lo, hi = model.log_weight_bounds(np.log(TWO_PI) + np.log(np.abs(s).astype(float)), env)
    assert s.size > 0
    assert np.all(hi - lo <= 2.0 * math.log(small.dist.c))
    assert np.all(hi < 0)


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
    """The enumerated sum of a window lies inside its closed-form run-sum
    bracket; a window past the float range is refused before any exp."""
    win = td.solve_s_window(small.family, 0, small.spec, budget=small.budget, sign=1)
    cmp = td.compare_window_modes(small.family, small.spec,
                                  win.sigma_lo, min(win.sigma_lo + 4.0, win.sigma_hi),
                                  t=1.0)
    assert cmp.consistent
    assert cmp.rel_width_lo <= 0.01
    assert cmp.rel_width_hi <= 0.01
    with pytest.raises(td.ConfigError, match="window too large to enumerate"):
        td.compare_window_modes(small.family, td.build_squares(4000.0, 3.0), 800.0, 801.0)


def test_level1_anchor_mode(small):
    system = build_weighted_system(small.family, small.gset, small.spec, small.dist)
    anchored = td.level1_sum(system, 1.0, mode="anchor")
    bounded = td.level1_sum(system, 1.0, mode="bounds")
    # anchor values sit inside the inf/sup envelope sums
    assert bounded.log_lo <= anchored.log_hi
    assert anchored.log_lo <= bounded.log_hi


@pytest.mark.parametrize("bundle", ["mini", "small"])
def test_level1_anchor_mode_inside_bounds(request, bundle):
    """Anchor-point sums use the anchor envelope for explicit runs too, so
    they sit strictly inside the inf/sup sums and bracket the direct sum
    of the anchor weights 1 / (|a + 2 pi i s| |R - c|)."""
    b = request.getfixturevalue(bundle)
    system = build_weighted_system(b.family, b.gset, b.spec, b.dist)
    fam = b.family
    a = complex(np.asarray(fam.inv0(complex(b.anchor))).item()) - fam.log_lam
    d = abs(complex(b.anchor) - fam.log_lam)
    for t in (0.5, 1.0, 2.0):
        bounds = td.level1_sum(system, t, mode="bounds")
        anchored = td.level1_sum(system, t, mode="anchor")
        assert bounds.log_lo < anchored.log_lo <= anchored.log_hi < bounds.log_hi
        if b.gset.n_letters <= 10_000:
            _, s = b.gset.letters(np.arange(b.gset.n_letters))
            direct = math.log(math.fsum(
                (np.abs(a + TWO_PI * 1j * s.astype(float)) * d) ** -t))
            assert anchored.log_lo <= direct <= anchored.log_hi


def test_level1_segment_sums_bit_identical_to_direct(fam):
    """Sharing one run sum per |s| range changes no bit of the bounds: the
    sum equals one run-sum term per column of every run of G."""
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    spec = td.build_squares(4000.0, 3.0)
    dist = td.distortion_constant(4000.0, fam.ln_r0)
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail", dist=dist)
    system = build_weighted_system(fam, gset, spec, dist)
    assert sum(run.n_columns for run in gset.runs) > 1000
    model = fam.tail_model()
    parts = [model.sum_run_log_bounds(*sorted((abs(run.s_lo), abs(run.s_hi))), 1.0, system.env)
             for run in gset.runs for _ in range(run.n_columns)]
    got = td.level1_sum(system, 1.0)
    assert got.log_lo == log_sum_exp([lo for lo, _ in parts])
    assert got.log_hi == log_sum_exp([hi for _, hi in parts])


def test_brute_force_within_level1_sandwich(small):
    letters = small.gset.letters_by_weight(8)
    model = small.family.tail_model()
    env = model.envelope(small.spec.outer.bounds())
    sigma = np.log(2 * math.pi) + np.log(np.abs(np.array([s for _, s in letters], dtype=float)))
    lo, hi = model.log_weight_bounds(sigma, env)
    sub = WeightedSystem(log_lo=lo, log_hi=hi)
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


# ---------------------------------------------------------------------------
# One sum per distinct range
# ---------------------------------------------------------------------------

_LOG_TERMS = st.one_of(st.just(-math.inf), st.floats(-800.0, 50.0), st.floats(-40.0, 1.0),
                       st.sampled_from([0.0, -1e-300, 1e-16]))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(_LOG_TERMS, st.integers(0, 10_000)), max_size=5))
@example([(0.0, 10_000), (-math.inf, 3), (-1e-3, 1), (0.0, 7), (-745.0, 10_000)])
@example([(-math.inf, 10_000)])
@example([])
# a float sum of the k * e^(x - m) is an ulp off the correctly rounded one here
@example([(-13.970713010307275, 8572), (-24.012594443624273, 249),
          (-12.472129509846706, 1050)])
@example([(-13.421755638530684, 1135), (-0.6926974884253383, 4165),
          (-30.07423603909414, 3107)])
def test_weighted_log_sum_exp_equals_expanded_list(terms):
    expanded = [x for x, k in terms for _ in range(k)]
    assert weighted_log_sum_exp(terms).hex() == log_sum_exp(expanded).hex()


def _runs_per_part(gset):
    """|s| ranges of G: one per column of every run."""
    return [tuple(sorted((abs(run.s_lo), abs(run.s_hi))))
            for run in gset.runs for _ in range(run.n_columns)]


def _level1_sum_per_part(system, runs, t, mode="bounds"):
    """Reference: one log-sum-exp term per run of G, each distinct range
    summed once (the level-1 sum before multiplicities)."""
    model = system.family.tail_model()
    env = system.env
    if mode == "anchor":
        a = complex(np.asarray(system.family.inv0(complex(system.anchor))).item()) \
            - system.family.log_lam
        d = abs(complex(system.anchor) - system.family.log_lam)
        env = TailEnvelope(b=abs(a), d_lo=d, d_hi=d)
    sums = {}
    for key in runs:
        if key not in sums:
            sums[key] = model.sum_run_log_bounds(*key, t, env)
    parts = [sums[key] for key in runs]
    return log_sum_exp([lo for lo, _ in parts]), log_sum_exp([hi for _, hi in parts])


_SUM_CONFIGS = {
    "cert-4000": (1.0, 4000.0, 3.0, "tail"),
    "anchor-12-tail": (1.0, 12.0, 0.5, "tail"),
    "anchor-12-enumerate": (1.0, 12.0, 0.5, "enumerate"),
    "lam-0.5+0.5i-anchor-100": (0.5 + 0.5j, 100.0, 0.5, "tail"),
}


@pytest.mark.parametrize("config", sorted(_SUM_CONFIGS))
def test_level1_sum_bit_identical_to_per_part_reference(config):
    lam, anchor, inset, mode = _SUM_CONFIGS[config]
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(anchor, inset)
    dist = td.distortion_constant(anchor, fam.ln_r0)
    gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=inset), mode=mode,
                      dist=dist)
    system = build_weighted_system(fam, gset, spec, dist)
    runs = _runs_per_part(gset)
    assert sorted(system.runs) == sorted(Counter(runs).items())
    for t in (0.0, 0.5, 1.0, 1.0015, 2.0, 4.0):
        for mode in ("bounds", "anchor"):
            got = td.level1_sum(system, t, mode=mode)
            ref = _level1_sum_per_part(system, runs, t, mode)
            assert (got.log_lo.hex(), got.log_hi.hex()) == (ref[0].hex(), ref[1].hex())
            assert got.n_letters == sum(hi - lo + 1 for lo, hi in runs)


def test_level1_sum_at_the_certificate_sums_one_range(fam, monkeypatch):
    """The 1,274 columns of the default certificate share one sigma window:
    build_G converts it to integer bounds once and holds G as one run of
    637 columns per sign, the weighted system is that |s| range with
    multiplicity 1,274, and one level-1 sum makes one run-sum call."""
    spec = td.build_squares(4000.0, 3.0)
    dist = td.distortion_constant(4000.0, fam.ln_r0)
    converted, summed = [], []
    convert = tractgeom._sigma_run
    run_sum = ExpTailModel.sum_run_log_bounds

    def convert_spy(*args):
        converted.append(args)
        return convert(*args)

    def sum_spy(self, *args):
        summed.append(args)
        return run_sum(self, *args)

    monkeypatch.setattr(tractgeom, "_sigma_run", convert_spy)
    monkeypatch.setattr(ExpTailModel, "sum_run_log_bounds", sum_spy)
    budget = td.GeometryBudget(inset=3.0)
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail", dist=dist)
    assert len(converted) == 1
    assert gset.n_segments == 2 and [run.n_columns for run in gset.runs] == [637, 637]
    win = td.solve_s_window(fam, 0, spec, budget=budget)
    system = build_weighted_system(fam, gset, spec, dist)
    assert system.runs == ((convert(win.sigma_lo, win.sigma_hi), 1274),)
    for t in (0.5, 1.0):
        summed.clear()
        td.level1_sum(system, t)
        assert len(summed) == 1
