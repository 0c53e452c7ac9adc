import json
import math
import os
import subprocess
import sys
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
from tractdim.loglift import RunSum, run_sum
from tractdim.numerics import TWO_PI, log_sum_exp
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
    system = build_weighted_system(small.family, small.gset, small.spec)
    grid = [0.5 + 0.1 * k for k in range(11)]
    sums = [td.level1_sum(system, t) for t in grid]
    lows, highs = [s.log_lo for s in sums], [s.log_hi for s in sums]
    assert all(lo <= hi for lo, hi in zip(lows, highs))
    assert all(b < a for a, b in zip(lows, lows[1:]))
    assert all(b < a for a, b in zip(highs, highs[1:]))


def test_two_sided_ratio_within_distortion(small):
    system = build_weighted_system(small.family, small.gset, small.spec)
    log_k = td.log_distortion_bound(small.family, small.gset, small.spec)
    for t in (0.5, 1.0, 1.5):
        s = td.level1_sum(system, t)
        assert s.log_hi - s.log_lo <= 2.0 * t * log_k + 1e-9


def test_explicit_letter_envelope_width(small):
    """The per-letter envelopes that the closed-form run sums add up stay
    within the distortion constant and are contractions, at 64 letters at
    each end of every run (the width falls with |s|) and 2,000 drawn over G."""
    ends = [np.r_[r.s_lo:r.s_lo + 64, r.s_hi - 63:r.s_hi + 1] for r in small.gset.runs]
    drawn = small.gset.random_ranks(np.random.default_rng(0), 2000)
    s = np.concatenate(ends + [small.gset.letters(drawn)[1]])
    env = small.family.envelope(small.spec)
    lo, hi = env.log_weight_bounds(np.log(TWO_PI) + np.log(np.abs(s).astype(float)))
    assert s.size > 0
    assert np.all(hi - lo <= 2.0 * td.log_distortion_bound(small.family, small.gset, small.spec))
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


@pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.0], [1.0], [0.5, -0.1], [math.inf]],
                         ids=str)
def test_from_uniform_rejects_weights_outside_0_1(weights):
    """A weight outside (0, 1), NaN among them, is a config error: a NaN
    log-weight would pass through the level-1 sum silently."""
    with pytest.raises(td.ConfigError, match=r"must lie in \(0, 1\)"):
        WeightedSystem.from_uniform(weights)


_NO_NUMPY = """
import json, sys
from tractdim import WeightedSystem, bowen_root, level1_sum
system = WeightedSystem.from_uniform([0.25, 0.25, 0.125])
sums = [level1_sum(system, t) for t in (0.0, 1.0, 2.0)]
root = bowen_root(system)
print(json.dumps({"numpy": "numpy" in sys.modules, "t_lo": root.t_lo}))
"""


def test_level1_sum_and_bowen_root_import_no_numpy():
    """In a fresh interpreter, the level-1 sums and the Bowen root of a
    synthetic system load no numpy: they run on `math` alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY], env=env,
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert report["numpy"] is False and 0.0 < report["t_lo"] < 1.0


def test_bowen_cap_flag():
    # ten letters at 0.9: the root sits far beyond the scan cap
    r = td.bowen_root(WeightedSystem.from_uniform([0.9] * 10))
    assert r.hi_capped and r.t_hi == 4.0


def test_bowen_monotone_in_weights():
    base = WeightedSystem.from_uniform([0.3, 0.2, 0.1])
    shrunk = WeightedSystem.from_uniform([0.15, 0.1, 0.05])
    r1 = td.bowen_root(base)
    r2 = td.bowen_root(shrunk)
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
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail")
    system = build_weighted_system(fam, gset, spec)
    assert sum(run.n_columns for run in gset.runs) > 1000
    env = fam.envelope(spec)
    parts = [ref.envelope_run_sum(*sorted((abs(run.s_lo), abs(run.s_hi))), 1.0, env)
             for run in gset.runs for _ in range(run.n_columns)]
    got = td.level1_sum(system, 1.0)
    assert got.log_lo == log_sum_exp([lo for lo, _ in parts])
    assert got.log_hi == log_sum_exp([hi for _, hi in parts])


def test_brute_force_within_level1_sandwich(small):
    letters = small.gset.letters_by_weight(8)
    env = small.family.envelope(small.spec)
    sigma = np.log(2 * math.pi) + np.log(np.abs(np.array([s for _, s in letters], dtype=float)))
    lo, hi = env.log_weight_bounds(sigma)
    sub = WeightedSystem(log_lo=lo, log_hi=hi)
    s1 = td.level1_sum(sub, 1.0)
    p_lo, p_hi = s1.log_lo, s1.log_hi
    for n in (1, 2, 3):
        # every intermediate point lies in Q: no distortion slack
        brute = td.brute_force_pressure(small.family, letters, small.spec, n=n, t=1.0)
        assert p_lo <= brute <= p_hi


def test_run_sums_need_every_range_past_h():
    """The upper envelope (2*pi*|s| - b)^-1 is a bound only where 2*pi*|s| >
    b: a range with s_lo <= h = b / (2*pi) raises DomainError, on its own
    and where the weighted system is built.  lam = 0.01, R0 = e, anchor 4,
    with a planted G of |s| = 1..64 at u = 0 (G's own windows start at |s|
    = 4): h = 1.11, so the range from 1 is refused and the one from 2 is
    summed.
    With b = 6*pi, h is 3.0 exactly: from 3 refused, from 4 summed."""
    fam = td.normalize_family(td.exponential_family(0.01, math.e))
    spec = td.build_squares(4.0, 0.5)
    env = fam.envelope(spec)
    assert round(env.b / TWO_PI, 2) == 1.11
    with pytest.raises(td.DomainError, match=r"every \|s\| > b / \(2 pi\) = 1.11"):
        build_weighted_system(
            fam, GSet(runs=(RunBlock(0, 0, -64, -1), RunBlock(0, 0, 1, 64))), spec)
    with pytest.raises(td.DomainError):
        env.run_sums([(1, 64)])
    assert len(env.run_sums([(2, 64)])[1][1]) == 1
    exact = env._replace(b=6.0 * math.pi)
    assert exact.b / TWO_PI == 3.0
    for ranges in ([(3, 10)], [(4, 10), (3, 3)]):
        with pytest.raises(td.DomainError):
            exact.run_sums(ranges)
    (_, lower), (_, upper) = exact.run_sums([(4, 10)])
    assert upper == (run_sum(4, 10, -3.0),) and lower == (run_sum(4, 10, 3.0),)


def test_certificate_small_anchor_not_certified(fam):
    cert = td.certify_dim_gt_one(fam, td.build_squares(12.0, 0.5))
    assert cert.verdict == "not-certified"
    assert cert.p1_lo <= 0
    assert any("P_lo" in r for r in cert.reasons)


def test_certificate_empty_g(fam):
    cert = td.certify_dim_gt_one(fam, td.build_squares(3.0, 0.5))
    assert cert.verdict == "not-certified"
    assert any("empty" in r for r in cert.reasons)


@pytest.mark.parametrize("lam", [1.0, 1j, 0.5 + 0.5j])
@pytest.mark.parametrize("anchor, inset", [(30.0, 0.5), (4000.0, 3.0), (1e5, 3.0),
                                           (3e5, 3.0), (1e6, 3.0)])
def test_verdict_is_p_lo_at_1_and_a_certified_t_lo_lies_above_1(lam, anchor, inset):
    """The verdict is P_lo(1) > 0 alone, and a certified bracket starts
    above 1: the root of P_lo lies farther than 4 ulp from 1 at each of
    these anchors (at 1e6 about 1.5e-5 above it), so t_lo > 1, where a
    bisection to 1e-3 read t_lo = 1.0 from anchor 1e5 on."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    cert = td.certify_dim_gt_one(fam, td.build_squares(anchor, inset))
    assert cert.certified == (cert.p1_lo > 0)
    assert 1.0 < cert.t_lo <= cert.t_hi if cert.certified else cert.reasons


def test_certificate_deterministic(fam):
    spec = td.build_squares(4000.0, 3.0)
    a = td.certify_dim_gt_one(fam, spec)
    b = td.certify_dim_gt_one(fam, spec)
    da, db = a.to_json_dict(), b.to_json_dict()
    assert da == db


# ---------------------------------------------------------------------------
# One sum per distinct range
# ---------------------------------------------------------------------------

def _runs_per_part(gset):
    """|s| ranges of G: one per column of every run."""
    return [tuple(sorted((abs(run.s_lo), abs(run.s_hi))))
            for run in gset.runs for _ in range(run.n_columns)]


def _level1_sum_per_part(env, runs, t):
    """Reference: one log-sum-exp term per run of G, each distinct range
    summed once over the envelope `env` of Q (the level-1 sum before
    multiplicities)."""
    sums = {}
    for key in runs:
        if key not in sums:
            sums[key] = ref.envelope_run_sum(*key, t, env)
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
    gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=inset), mode=mode)
    system = build_weighted_system(fam, gset, spec)
    runs = _runs_per_part(gset)
    assert sorted(system.runs) == sorted(Counter(runs).items())
    assert system.n_letters == sum(hi - lo + 1 for lo, hi in runs)
    for t in (0.0, 0.5, 1.0, 1.0015, 2.0, 4.0):
        got = td.level1_sum(system, t)
        ref = _level1_sum_per_part(fam.envelope(spec), runs, t)
        assert (got.log_lo.hex(), got.log_hi.hex()) == (ref[0].hex(), ref[1].hex())


def test_level1_sum_at_the_certificate_sums_one_range(fam, monkeypatch):
    """The 1,274 columns of the default certificate share one sigma window:
    build_G converts it to integer bounds once and holds G as one run of
    637 columns per sign, the weighted system is that |s| range with
    multiplicity 1,274, and its run sum is built once per envelope, with
    the system, whatever the number of exponents."""
    spec = td.build_squares(4000.0, 3.0)
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
    gset = td.build_G(fam, 4000.0, spec, budget, mode="tail")
    assert len(converted) == 1
    assert gset.n_segments == 2 and [run.n_columns for run in gset.runs] == [637, 637]
    win = column_window(fam, 0, spec)
    system = build_weighted_system(fam, gset, spec)
    key = convert(*win)
    assert system.runs == ((key, 1274),)
    for t in (0.5, 1.0):
        td.level1_sum(system, t)
    h = fam.envelope(spec).b / TWO_PI
    assert summed == [(*key, h), (*key, -h)]


def test_the_root_evaluates_one_envelope_per_step(fam, monkeypatch):
    """At the default certificate the run data is built once per system
    (one range, two envelopes) and the root evaluates the run sum of one
    envelope per step: 15 one-sided evaluations (8 for the lower bound, 7
    for the upper), within the budget of 16, for a bracket strictly inside
    the bisection's [1.00146484375, 1.00201416015625] at tolerance 1e-4."""
    spec = td.build_squares(4000.0, 3.0)
    gset = td.build_G(fam, 4000.0, spec, td.GeometryBudget(inset=3.0))
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
    system = build_weighted_system(fam, gset, spec)
    roots = td.bowen_root(system)
    assert len(built) == 2
    assert len(evaluated) == sum(roots.evaluations) <= 16 and roots.evaluations == (8, 7)
    assert [side for _, _, side in evaluated] == [0] * 8 + [1] * 7
    assert 1.00146484375 < roots.t_lo < roots.t_hi < 1.00201416015625
    td.bowen_root(system)
    assert len(built) == 2 and len(evaluated) == 30


def test_the_certificate_evaluates_p_lo_1_once(fam):
    """At the default certificate `certify_dim_gt_one` makes 15 one-sided
    evaluations, those of the root alone: P1_lo is the lower root's first,
    at t = 1."""
    spec = td.build_squares(4000.0, 3.0)
    with patch.object(pressure, "_envelope_log_sum",
                      wraps=pressure._envelope_log_sum) as spy:
        cert = td.certify_dim_gt_one(fam, spec)
    assert cert.diagnostics["bowen_evaluations"] == (8, 7)
    assert spy.call_count == 15
    system, t, side = spy.call_args_list[0].args
    assert (t, side) == (1.0, 0)
    assert cert.p1_lo == pressure._envelope_log_sum(system, 1.0, 0) > 0


def test_the_root_starts_from_the_exact_p_0(fam, small):
    """No root evaluates t = 0 for two letters or more: P(0) = ln #letters
    is the secant's first point.  So where P_lo(1) <= 0 the lower root
    spends no evaluation on f(0): anchor 12 takes 9 + 8, and the default
    certificate 8 + 7.  A single letter whose bound is <= 0 at its start
    has root 0, after that one evaluation per side."""
    systems = {"anchor-12": build_weighted_system(fam, small.gset, small.spec),
               "thirds": WeightedSystem.from_uniform([1 / 3, 1 / 3]),
               "tens": WeightedSystem.from_uniform([0.05] * 10)}
    spec = td.build_squares(4000.0, 3.0)
    gset = td.build_G(fam, 4000.0, spec, td.GeometryBudget(inset=3.0))
    systems["cert-4000"] = build_weighted_system(fam, gset, spec)
    roots = {}
    for name, system in systems.items():
        r, evaluated = _spied_root(system)
        assert all(t > 0.0 for side in (0, 1) for t, _ in evaluated[side]), name
        assert 0.0 < r.t_lo <= r.t_hi, name
        roots[name] = r
    assert roots["anchor-12"].p1_lo <= 0 and roots["anchor-12"].evaluations == (9, 8)
    assert roots["cert-4000"].p1_lo > 0 and roots["cert-4000"].evaluations == (8, 7)
    r, evaluated = _spied_root(WeightedSystem.from_uniform([0.6]))
    assert (r.t_lo, r.t_hi, r.evaluations) == (0.0, 0.0, (1, 1))
    assert [t for t, _ in evaluated[0] + evaluated[1]] == [1.0, 1.0]


# lam, and the distinct |s| ranges of G at anchor 9.5, inset 0.5, each at
# two columns: the systems with more than one range, where the ln k terms
# of the level-1 sum round differently from adding each column's sum
_MULTI_RANGE = {0.01: ((34, 245761), (20, 245761)), -2.0: ((21, 245762), (20, 245762))}


@pytest.mark.parametrize("lam", sorted(_MULTI_RANGE), ids=str)
def test_a_system_of_several_ranges_sums_within_4_ulp_of_each_part(lam):
    """With several ranges the level-1 sum is within 4 ulp (of the larger
    of 1 and the sum) of one term per column, the Bowen bracket lies
    inside the reference bisection's to 1e-4, and the certificate is not
    certified."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(9.5, 0.5)
    gset = td.build_G(fam, 9.5, spec, td.GeometryBudget(inset=0.5))
    system = build_weighted_system(fam, gset, spec)
    assert system.runs == tuple((key, 2) for key in _MULTI_RANGE[lam])
    env = fam.envelope(spec)
    for t in (0.0, 0.5, 1.0, 2.0):
        got = td.level1_sum(system, t)
        want = _level1_sum_per_part(env, _runs_per_part(gset), t)
        for a, b in zip((got.log_lo, got.log_hi), want):
            assert abs(a - b) <= 4.0 * math.ulp(max(1.0, abs(b))), (t, a, b)
    r = td.bowen_root(system)
    t_lo, t_hi, lo_capped, hi_capped = ref.bowen_root(system, 1e-4, env)
    assert (r.lo_capped, r.hi_capped) == (lo_capped, hi_capped) == (False, False)
    assert t_lo <= r.t_lo < r.t_hi <= t_hi
    cert = td.certify_dim_gt_one(fam, spec)
    assert cert.verdict == "not-certified" and cert.p1_lo == r.p1_lo < 0


_ROOT_LAMBDAS = (1.0, 0.5 + 0.5j, 2.5, 0.01)
_ROOT_ANCHORS = ((12.0, 0.5), (30.0, 0.5), (100.0, 3.0), (4000.0, 3.0), (8000.0, 3.0))


def _within_4_ulp(a, b):
    return abs(a - b) <= 4.0 * math.ulp(max(a, b))


def _spied_root(system):
    """`bowen_root` of `system` with the (t, value) pairs it evaluated, per
    side."""
    evaluated = {0: [], 1: []}
    envelope_log_sum = pressure._envelope_log_sum

    def spy(system, t, side):
        value = envelope_log_sum(system, t, side)
        evaluated[side].append((t, value))
        return value

    with patch.object(pressure, "_envelope_log_sum", spy):
        r = td.bowen_root(system)
    assert r.evaluations == (len(evaluated[0]), len(evaluated[1]))
    return r, evaluated


def _assert_ends_are_evaluated_sign_changes(r, evaluated):
    """Each uncapped nonzero end is an evaluated t of the right sign (f_lo >
    0 at t_lo, f_hi <= 0 at t_hi) with an evaluated t of the opposite sign
    within 4 ulp."""
    for side, end, capped in ((0, r.t_lo, r.lo_capped), (1, r.t_hi, r.hi_capped)):
        if capped or end == 0.0:
            continue
        signs = {f > 0.0 for t, f in evaluated[side] if t == end}
        assert signs == {side == 0}, (side, end)
        assert any((f > 0.0) != (side == 0) and _within_4_ulp(t, end)
                   for t, f in evaluated[side]), (side, end)


@pytest.mark.parametrize("lam", _ROOT_LAMBDAS, ids=str)
def test_level1_sum_equals_and_bowen_root_lies_inside_the_two_sided_reference(lam):
    """The level-1 sums over the system's run data are hex-identical to a
    per-call run sum of both envelopes at every exponent, and the root's
    bracket lies inside the reference bisection's to 1e-4 on that sum,
    with its flags, over anchors from 12 to 8000."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    for anchor, inset in _ROOT_ANCHORS:
        spec = td.build_squares(anchor, inset)
        gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=inset))
        system = build_weighted_system(fam, gset, spec)
        env = fam.envelope(spec)
        assert system.runs
        for t in (0.0, 0.5, 1.0, 1.37, 2.0, 4.0):
            got = td.level1_sum(system, t)
            want = ref.level1_log_bounds(system, t, env)
            assert (got.log_lo.hex(), got.log_hi.hex()) == tuple(x.hex() for x in want)
        r = td.bowen_root(system)
        t_lo, t_hi, lo_capped, hi_capped = ref.bowen_root(system, 1e-4, env)
        assert (r.lo_capped, r.hi_capped) == (lo_capped, hi_capped) == (False, False)
        assert t_lo <= r.t_lo < r.t_hi <= t_hi, anchor


@pytest.mark.parametrize("anchor, inset", _ROOT_ANCHORS)
@pytest.mark.parametrize("lam", _ROOT_LAMBDAS, ids=str)
def test_bowen_root_brackets_each_real_root_to_4_ulp_in_at_most_32_evaluations(
        lam, anchor, inset):
    """Each end rests on an evaluated sign change 4 ulp wide, in at most 32
    one-sided evaluations in total (at most 18 on this grid)."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(anchor, inset)
    gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=inset))
    r, evaluated = _spied_root(build_weighted_system(fam, gset, spec))
    assert 0.0 < r.t_lo < r.t_hi < 4.0 and sum(r.evaluations) <= 32
    _assert_ends_are_evaluated_sign_changes(r, evaluated)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(weights=st.one_of(
           st.lists(st.floats(1e-300, 0.999), min_size=1, max_size=50),
           st.lists(st.floats(0.9, 0.999), min_size=20, max_size=50)))
@example(weights=[0.6])              # f(0) = 0 on both sides
@example(weights=[0.9] * 10)         # capped on both sides
@example(weights=[1 / 3, 1 / 3])
def test_bowen_root_ends_are_evaluated_sign_changes_inside_the_reference(weights):
    """On listed systems of 1 to 50 letters each uncapped nonzero end is an
    evaluated t of the right sign with an evaluated t of the opposite sign
    within 4 ulp, the flags are the reference bisection's, and the bracket
    lies inside the reference's to 1e-4."""
    system = WeightedSystem.from_uniform(weights)
    r, evaluated = _spied_root(system)
    _assert_ends_are_evaluated_sign_changes(r, evaluated)
    t_lo, t_hi, lo_capped, hi_capped = ref.bowen_root(system, 1e-4)
    assert (r.lo_capped, r.hi_capped) == (lo_capped, hi_capped)
    assert t_lo <= r.t_lo <= r.t_hi <= t_hi


@pytest.mark.parametrize("scale", [8, 30, 50])
def test_bowen_root_ends_on_a_bound_that_is_not_convex(monkeypatch, scale):
    """Here the bound decreases but is not convex, with roots 1.2345 and
    1.6789, and within 0.05 of each root it has the wrong sign on every
    third interval of length 2^-scale, as rounding can make a computed
    bound near its root (at 2^-50, a few ulp).  The root still ends, never
    evaluates a point twice, and each end is an evaluated sign change 4
    ulp wide."""
    roots = (1.2345, 1.6789)
    evaluated = {0: [], 1: []}

    def bound(system, t, side):
        value = roots[side] - t + 0.02 * math.sin(40.0 * (t - roots[side]))
        if abs(t - roots[side]) < 0.05 and math.floor(t * 2.0 ** scale) % 3 == 0:
            value = -value
        evaluated[side].append((t, value))
        return value

    monkeypatch.setattr(pressure, "_envelope_log_sum", bound)
    r = td.bowen_root(WeightedSystem.from_uniform([0.5, 0.5]))
    assert not (r.lo_capped or r.hi_capped) and 0.0 < r.t_lo and 0.0 < r.t_hi
    for side in (0, 1):
        assert len({t for t, _ in evaluated[side]}) == len(evaluated[side]) \
            == r.evaluations[side]
    _assert_ends_are_evaluated_sign_changes(r, evaluated)


def test_certificate_at_a_run_end_past_2_24(fam):
    """At anchor 22,613,379 a sigma window, [11306689.5, 33920068.5], has
    ends past 2^24, where a fixed trim of 2^-30 rounds back to the end and
    its int fails the sigma test (a NumericError); the trim in ulps
    certifies.  The CLI caps the anchor below this (test_cli)."""
    spec = td.build_squares(22_613_379.0, 0.5)
    assert td.certify_dim_gt_one(fam, spec).verdict == "certified"
