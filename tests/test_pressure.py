import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import run_sum_reference as ref
import tractdim as td
from conftest import column_window
from tractdim import loglift, pressure, tractgeom
from tractdim.loglift import RunSum
from tractdim.numerics import TWO_PI, log_sum_exp, weighted_log_sum_exp
from tractdim.pressure import WeightedSystem, build_weighted_system
from tractdim.tractgeom import GSet, RunBlock


def test_level1_empty_system():
    sys0 = WeightedSystem(log_lo=np.array([]), log_hi=np.array([]))
    s = td.level1_sum(sys0, 1.0)
    assert math.exp(s.log_lo) == 0.0 and math.exp(s.log_hi) == 0.0


def test_level1_two_quarters_exact():
    sys2 = WeightedSystem.from_uniform([0.25, 0.25])
    s = td.level1_sum(sys2, 0.5)
    assert math.exp(s.log_lo) == pytest.approx(1.0, abs=1e-14)
    assert math.exp(s.log_hi) == pytest.approx(1.0, abs=1e-14)


def test_level1_rejects_bad_exponent():
    sys2 = WeightedSystem.from_uniform([0.25, 0.25])
    with pytest.raises(td.ConfigError):
        td.level1_sum(sys2, 4.5)


def test_pressure_single_letter_linear():
    c = 0.37
    sys1 = WeightedSystem.from_uniform([c])
    for t in (0.0, 0.5, 1.0, 2.0):
        s = td.level1_sum(sys1, t)
        lo, hi = s.log_lo, s.log_hi
        assert lo == pytest.approx(t * math.log(c), abs=1e-12)
        assert hi == pytest.approx(t * math.log(c), abs=1e-12)


def test_pressure_middle_thirds_straddles_zero():
    sys3 = WeightedSystem.from_uniform([1.0 / 3.0, 1.0 / 3.0])
    t_star = math.log(2.0) / math.log(3.0)
    s = td.level1_sum(sys3, t_star)
    lo, hi = s.log_lo, s.log_hi
    assert abs(lo) <= 1e-9 and abs(hi) <= 1e-9


def test_pressure_ordering_and_decrease(small):
    system = build_weighted_system(small.family, small.gset, small.spec, small.dist)
    grid = [0.5 + 0.1 * k for k in range(11)]
    sums = [td.level1_sum(system, t) for t in grid]
    lows, highs = [s.log_lo for s in sums], [s.log_hi for s in sums]
    assert all(lo <= hi for lo, hi in zip(lows, highs))
    assert all(b < a for a, b in zip(lows, lows[1:]))
    assert all(b < a for a, b in zip(highs, highs[1:]))


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
    env = small.family.envelope(small.spec.outer.bounds())
    lo, hi = env.log_weight_bounds(np.log(TWO_PI) + np.log(np.abs(s).astype(float)))
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
    shrunk = WeightedSystem.from_uniform([0.15, 0.1, 0.05])
    r1 = td.bowen_root(base, tol=1e-4)
    r2 = td.bowen_root(shrunk, tol=1e-4)
    assert r2.t_lo < r1.t_lo
    assert r2.t_hi < r1.t_hi


def test_level1_cross_mode_windows_vs_segments(small):
    """The enumerated sum of a window lies inside its closed-form run-sum
    bracket; a window past the float range is refused before any exp."""
    win_lo, win_hi = column_window(small.family, 0, small.spec, sign=1)
    cmp = td.compare_window_modes(small.family, small.spec,
                                  win_lo, min(win_lo + 4.0, win_hi), t=1.0)
    assert cmp.consistent
    assert cmp.rel_width_lo <= 0.01
    assert cmp.rel_width_hi <= 0.01
    with pytest.raises(td.ConfigError, match="window too large to enumerate"):
        td.compare_window_modes(small.family, td.build_squares(4000.0, 3.0), 800.0, 801.0)


def test_level1_segment_sums_bit_identical_to_direct(fam):
    """Sharing one run sum per |s| range changes no bit of the bounds: the
    sum equals one run-sum term per column of every run of G."""
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    spec = td.build_squares(4000.0, 3.0)
    dist = td.distortion_constant(4000.0, fam.ln_r0)
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail", dist=dist)
    system = build_weighted_system(fam, gset, spec, dist)
    assert sum(run.n_columns for run in gset.runs) > 1000
    parts = [ref.envelope_run_sum(*sorted((abs(run.s_lo), abs(run.s_hi))), 1.0, system.env)
             for run in gset.runs for _ in range(run.n_columns)]
    got = td.level1_sum(system, 1.0)
    assert got.log_lo == log_sum_exp([lo for lo, _ in parts])
    assert got.log_hi == log_sum_exp([hi for _, hi in parts])


def test_brute_force_within_level1_sandwich(small):
    letters = small.gset.letters_by_weight(8)
    env = small.family.envelope(small.spec.outer.bounds())
    sigma = np.log(2 * math.pi) + np.log(np.abs(np.array([s for _, s in letters], dtype=float)))
    lo, hi = env.log_weight_bounds(sigma)
    sub = WeightedSystem(log_lo=lo, log_hi=hi)
    s1 = td.level1_sum(sub, 1.0)
    p_lo, p_hi = s1.log_lo, s1.log_hi
    for n in (1, 2, 3):
        # every intermediate point lies in Q: no distortion slack
        brute = td.brute_force_pressure(small.family, letters, small.spec, n=n, t=1.0)
        assert p_lo <= brute.value <= p_hi


def test_upper_envelope_below_s_star_bounds_each_letter_by_p_lo():
    """lam = 0.01, R0 = e, anchor 4, inset 0.5, a planted G of |s| = 1..64
    at u = 0 (G's own windows start at |s| = 4): it holds letters with
    2*pi*|s| <= b = 6.99, where the upper envelope (2*pi*|s| - b)^-1 is
    unbounded.  Below s* = ceil((b + p_lo) / (2*pi)) = 3 each letter weighs
    at most (p_lo d_lo)^-1 (p_lo = ln d_lo - Re c = 6.49), so a range
    (s_lo, s_hi) adds ln m - t ln(p_lo d_lo) for its m letters below s* to
    the run sum from s* on.  The upper sum is finite, it bounds the sum of
    the letters' own upper weights, and the upper Bowen root is not
    capped: t_hi = 0.7645, t_lo = 0.671."""
    fam = td.normalize_family(td.exponential_family(0.01, math.e))
    spec = td.build_squares(4.0, 0.5)
    gset = GSet(runs=(RunBlock(0, 0, -64, -1), RunBlock(0, 0, 1, 64)))
    system = build_weighted_system(fam, gset, spec)
    env = system.env
    p_lo = math.log(env.d_lo) - fam.log_lam.real
    s_star = math.ceil((env.b + p_lo) / TWO_PI)
    assert (round(env.b, 2), round(p_lo, 2), s_star) == (6.99, 6.49, 3)
    assert min(lo for (lo, _), _ in system.runs) < s_star
    ss = [abs(s) for run in gset.runs for _ in range(run.n_columns)
          for s in range(run.s_lo, run.s_hi + 1)]
    lo_w, hi_w = env.log_weight_bounds(np.log(TWO_PI) + np.log(ss))
    h, log_scale = env.b / TWO_PI, math.log(TWO_PI * env.d_lo)
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        got = td.level1_sum(system, t)
        parts = []
        for (lo, hi), k in system.runs:
            m = min(hi + 1, s_star) - lo
            part = [math.log(m) - t * math.log(p_lo * env.d_lo)] if m > 0 else []
            if hi >= s_star:
                part.append(ref.log_run_sum_bounds(max(lo, s_star), hi, t, -h,
                                                   -t * log_scale)[1])
            parts += [log_sum_exp(part)] * k
        assert got.log_hi == pytest.approx(log_sum_exp(parts), abs=1e-12)
        assert got.log_lo <= log_sum_exp(t * lo_w) <= log_sum_exp(t * hi_w) <= got.log_hi
    roots = td.bowen_root(system, tol=1e-3)
    assert not (roots.lo_capped or roots.hi_capped)
    assert (roots.t_lo, roots.t_hi) == pytest.approx((0.671, 0.7645), abs=1e-3)


def test_certificate_small_anchor_not_certified(fam):
    cert = td.certify_dim_gt_one(fam, 12.0, td.GeometryBudget(epsilon=0.1, inset=0.5))
    assert cert.verdict == "not-certified"
    assert cert.p1_lo <= 0
    assert any("P_lo" in r for r in cert.reasons)


def test_certificate_empty_g(fam):
    cert = td.certify_dim_gt_one(fam, 3.0, td.GeometryBudget(epsilon=0.1, inset=0.5))
    assert cert.verdict == "not-certified"
    assert any("empty" in r for r in cert.reasons)


@pytest.mark.parametrize("lam", [1.0, 1j, 0.5 + 0.5j])
@pytest.mark.parametrize("anchor, inset", [(30.0, 0.5), (4000.0, 3.0), (1e5, 3.0),
                                           (3e5, 3.0), (1e6, 3.0)])
def test_verdict_does_not_depend_on_the_bisection_tolerance(lam, anchor, inset):
    """The verdict is P_lo(1) > 0 alone.  Where the root lies within the
    tolerance of 1, as at anchor 1e5 and tol 1e-3, the bisection's lower end
    stays at 1.0, and a certified report reads t_lo = 1.0."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    budget = td.GeometryBudget(epsilon=0.1, inset=inset)
    certs = [td.certify_dim_gt_one(fam, anchor, budget, bisect_tol=tol)
             for tol in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10)]
    assert len({(c.verdict, c.p1_lo) for c in certs}) == 1
    for cert in certs:
        assert cert.certified == (cert.p1_lo > 0)
        assert cert.t_lo >= 1.0 if cert.certified else cert.reasons


def test_certificate_deterministic(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    a = td.certify_dim_gt_one(fam, 4000.0, budget)
    b = td.certify_dim_gt_one(fam, 4000.0, budget)
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


def _level1_sum_per_part(system, runs, t):
    """Reference: one log-sum-exp term per run of G, each distinct range
    summed once (the level-1 sum before multiplicities)."""
    sums = {}
    for key in runs:
        if key not in sums:
            sums[key] = ref.envelope_run_sum(*key, t, system.env)
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
        got = td.level1_sum(system, t)
        ref = _level1_sum_per_part(system, runs, t)
        assert (got.log_lo.hex(), got.log_hi.hex()) == (ref[0].hex(), ref[1].hex())
        assert got.n_letters == sum(hi - lo + 1 for lo, hi in runs)


def test_level1_sum_at_the_certificate_sums_one_range(fam, monkeypatch):
    """The 1,274 columns of the default certificate share one sigma window:
    build_G converts it to integer bounds once and holds G as one run of
    637 columns per sign, the weighted system is that |s| range with
    multiplicity 1,274, and its run sum is built once per envelope, on the
    first level-1 sum, whatever the number of exponents."""
    spec = td.build_squares(4000.0, 3.0)
    dist = td.distortion_constant(4000.0, fam.ln_r0)
    converted, summed = [], []
    convert = tractgeom._sigma_run
    run_sum = loglift.run_sum

    def convert_spy(*args):
        converted.append(args)
        return convert(*args)

    def sum_spy(*args):
        summed.append(args)
        return run_sum(*args)

    monkeypatch.setattr(tractgeom, "_sigma_run", convert_spy)
    monkeypatch.setattr(loglift, "run_sum", sum_spy)
    budget = td.GeometryBudget(inset=3.0)
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail", dist=dist)
    assert len(converted) == 1
    assert gset.n_segments == 2 and [run.n_columns for run in gset.runs] == [637, 637]
    win = column_window(fam, 0, spec)
    system = build_weighted_system(fam, gset, spec, dist)
    key = convert(*win)
    assert system.runs == ((key, 1274),)
    for t in (0.5, 1.0):
        td.level1_sum(system, t)
    h = system.env.b / TWO_PI
    assert summed == [(*key, h), (*key, -h)]


def test_the_root_evaluates_one_envelope_per_step(fam, monkeypatch):
    """At the default certificate the run data is built once per system
    (one range, two envelopes) and the root evaluates the run sum of one
    envelope per step: 13 one-sided evaluations (8 for the lower bound, 5
    for the upper), where bisecting took 2 x 18, with the bisection's
    bracket."""
    spec = td.build_squares(4000.0, 3.0)
    dist = td.distortion_constant(4000.0, fam.ln_r0)
    gset = td.build_G(fam, 4000.0, spec, td.GeometryBudget(inset=3.0), dist=dist)
    built, evaluated = [], []
    run_sum, log_bound = loglift.run_sum, RunSum.log_bound

    def build_spy(*args):
        built.append(args)
        return run_sum(*args)

    def evaluate_spy(self, *args):
        evaluated.append(args)
        return log_bound(self, *args)

    monkeypatch.setattr(loglift, "run_sum", build_spy)
    monkeypatch.setattr(RunSum, "log_bound", evaluate_spy)
    system = build_weighted_system(fam, gset, spec, dist)
    roots = td.bowen_root(system, tol=1e-4)
    assert len(built) == 2
    assert len(evaluated) == 13 and roots.evaluations == (8, 5)
    assert [side for _, _, side in evaluated] == [0] * 8 + [1] * 5
    assert (roots.t_lo, roots.t_hi) == (1.00146484375, 1.00201416015625)
    td.bowen_root(system, tol=1e-4)
    assert len(built) == 2 and len(evaluated) == 26


_ROOT_LAMBDAS = (1.0, 0.5 + 0.5j, 2.5, 0.01)
_ROOT_ANCHORS = ((12.0, 0.5), (30.0, 0.5), (100.0, 3.0), (4000.0, 3.0), (8000.0, 3.0))


@pytest.mark.parametrize("lam", _ROOT_LAMBDAS, ids=str)
def test_bowen_root_and_level1_sum_equal_two_sided_reference(lam):
    """The one-envelope root and the level-1 sums over the system's run
    data are hex-identical to a per-call run sum of both envelopes at every
    exponent and to bisecting on it, over anchors from 12 to 8000 and
    tolerances down to 1e-8."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    for anchor, inset in _ROOT_ANCHORS:
        spec = td.build_squares(anchor, inset)
        dist = td.distortion_constant(anchor, fam.ln_r0)
        gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=inset), dist=dist)
        system = build_weighted_system(fam, gset, spec, dist)
        assert system.runs
        for t in (0.0, 0.5, 1.0, 1.37, 2.0, 4.0):
            got = td.level1_sum(system, t)
            want = ref.level1_log_bounds(system, t)
            assert (got.log_lo.hex(), got.log_hi.hex()) == tuple(x.hex() for x in want)
        for tol in (1e-3, 1e-4, 1e-8):
            r = td.bowen_root(system, tol=tol)
            got = (r.t_lo.hex(), r.t_hi.hex(), r.lo_capped, r.hi_capped)
            t_lo, t_hi, lo_capped, hi_capped = ref.bowen_root(system, tol)
            assert got == (t_lo.hex(), t_hi.hex(), lo_capped, hi_capped), (anchor, tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_bowen_root_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(td.ConfigError, match="bisection tolerance"):
        td.bowen_root(WeightedSystem.from_uniform([1 / 3, 1 / 3]), tol=tol)


def test_bowen_root_below_the_float_spacing_gives_the_tightest_bracket():
    """A tolerance of 1e-300 is finer than any float bracket around the
    root ln 2 / ln 3: the bisection stops at two adjacent floats."""
    r = td.bowen_root(WeightedSystem.from_uniform([1 / 3, 1 / 3]), tol=1e-300)
    assert r.t_hi == math.nextafter(r.t_lo, math.inf)
    assert r.t_lo <= math.log(2.0) / math.log(3.0) <= r.t_hi


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(weights=st.one_of(
           st.lists(st.floats(1e-300, 0.999), min_size=1, max_size=50),
           st.lists(st.floats(0.9, 0.999), min_size=20, max_size=50)),
       tol=st.sampled_from([1e-3, 1e-4, 1e-8, 1e-300, 5e-324]))
@example(weights=[0.6], tol=1e-4)              # f(0) = 0 on both sides
@example(weights=[0.9] * 10, tol=1e-4)         # capped on both sides
@example(weights=[1 / 3, 1 / 3], tol=5e-324)   # below the float spacing
def test_bowen_root_equals_reference_bisection_with_a_witness(weights, tol):
    """On listed systems of 1 to 50 letters the root has the reference
    bisection's bracket and flags, and each uncapped end rests on an
    evaluated value of the right sign: f_lo > 0 at some t >= t_lo (where
    t_lo > 0) and f_hi <= 0 at some t <= t_hi."""
    system = WeightedSystem.from_uniform(weights)
    evaluated = {0: [], 1: []}
    envelope_log_sum = pressure._envelope_log_sum

    def spy(system, t, side):
        value = envelope_log_sum(system, t, side)
        evaluated[side].append((t, value))
        return value

    with patch.object(pressure, "_envelope_log_sum", spy):
        r = td.bowen_root(system, tol=tol)
    assert (r.t_lo, r.t_hi, r.lo_capped, r.hi_capped) == ref.bowen_root(system, tol)
    assert r.evaluations == (len(evaluated[0]), len(evaluated[1]))
    if r.t_lo > 0.0:
        assert any(t >= r.t_lo and f > 0.0 for t, f in evaluated[0])
    if not r.hi_capped:
        assert any(t <= r.t_hi and f <= 0.0 for t, f in evaluated[1])


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-8])
def test_bowen_root_evaluates_only_points_of_the_bisection_grid(monkeypatch, tol):
    """The root reads its bound only on the bisection's final grid (the cap
    4 halved until it is within tol).  Here the bound is convex and
    decreasing on the grid, with roots 1.2345 and 1.6789, but has the
    wrong sign everywhere off it, as rounding can make a computed bound
    near its root: the root still returns the grid cells around the roots,
    the bisection's brackets, from grid evaluations only."""
    grid = 4.0
    while grid > tol:
        grid *= 0.5
    roots = (1.2345, 1.6789)
    evaluated = []

    def bound(system, t, side):
        evaluated.append(t)
        value = math.exp(-3.0 * t) - math.exp(-3.0 * roots[side])
        return value if (t / grid).is_integer() else -value

    monkeypatch.setattr(pressure, "_envelope_log_sum", bound)
    r = td.bowen_root(WeightedSystem.from_uniform([0.5, 0.5]), tol=tol)
    cells = [math.floor(root / grid) * grid for root in roots]
    assert (r.t_lo, r.t_hi) == (cells[0], cells[1] + grid)
    assert all((t / grid).is_integer() for t in evaluated)
    assert len(evaluated) == sum(r.evaluations)
