import cmath
import decimal
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tractdim as td
from tractdim import oracle
from tractdim.numerics import TWO_PI
from tractdim.tractgeom import GSet, Rect, RunBlock


def test_box_dim_middle_thirds():
    pts = td.cantor_middle_thirds(100_000, 35, seed=7)
    est = td.box_counting_dim(pts, [3.0 ** -k for k in range(1, 8)])
    assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)
    assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))  # sorted by scale


def _cantor_exact(count, depth, seed):
    """Reference, in Python ints: the ternary digits d_1..d_depth of a point
    are its draw in [0, 2^depth) written in binary with depth digits, each
    doubled (d_k = 2 * bit (depth - k)); read in base 3 they give the
    numerator sum_k d_k 3^(depth - k), as a float over the float of 3^depth."""
    draws = np.random.default_rng(seed).integers(0, 2 ** depth, size=count, dtype=np.int64)
    return np.array([float(int(format(d, f"0{depth}b").replace("1", "2"), 3))
                     / float(3 ** depth) for d in draws.tolist()], dtype=complex)


@pytest.mark.parametrize("count", [100_000, 10_001, 4097, 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_cantor_blocks_equal_one_shot_draw(count, seed):
    """The points are those of the one-draw digit rule, evaluated in Python
    ints, bit for bit."""
    pts = td.cantor_middle_thirds(count, 35, seed=seed)
    ref = _cantor_exact(count, 35, seed)
    assert pts.dtype == ref.dtype and pts.shape == ref.shape
    assert np.array_equal(pts.view(np.int64), ref.view(np.int64))


def test_cantor_points_are_exact_numerators_over_a_power_of_three():
    """Every point is its exact numerator sum_k d_k 3^(depth - k) over
    3^depth, with d_k = 2 * bit (depth - k) of the point's draw, from depth
    1 up to depth 39, the last whose numerators fit int64."""
    count, seed = 4097, 7
    for depth in (1, 35, 39):
        pts = td.cantor_middle_thirds(count, depth, seed=seed)
        ref = _cantor_exact(count, depth, seed)
        assert np.array_equal(pts.view(np.int64), ref.view(np.int64)), depth
        assert not pts.imag.any()
    with pytest.raises(td.ConfigError):
        td.cantor_middle_thirds(10, 40)


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
    for bad in ([0.0, 0.1, 0.01, 1e-3, 1e-4], [math.inf, 1.0, 0.1, 1e-2, 1e-3, 1e-4]):
        with pytest.raises(td.ConfigError):
            td.box_counting_dim(pts, bad)
    for v in (math.nan, math.inf):
        with pytest.raises(td.ConfigError):
            td.box_counting_dim(np.append(pts, v), [10.0 ** -k for k in range(5)])


def _box_counts_by_pairs(xy, scales):
    """Reference: distinct (floor(x/eps), floor(y/eps)) float pairs, sorted
    lexicographically."""
    counts = []
    for eps in sorted(scales):
        boxes = np.floor(xy / eps)
        boxes = boxes[np.lexsort((boxes[:, 1], boxes[:, 0]))]
        counts.append(1 + int(np.count_nonzero((np.diff(boxes, axis=0) != 0).any(axis=1))))
    return tuple(counts)


def test_box_counts_equal_distinct_box_pairs():
    triadic = [3.0 ** -k for k in range(1, 8)]
    for seed in range(20):
        pts = td.cantor_middle_thirds(20_000, 35, seed=seed)
        xy = np.column_stack([pts.real, pts.imag])
        assert td.box_counting_dim(pts, triadic).counts == _box_counts_by_pairs(xy, triadic)
    rng = np.random.default_rng(5)
    scales = [10.0 ** -k for k in np.linspace(0.5, 2.8, 6)]
    for _ in range(10):
        xy = rng.normal(rng.normal(size=2), rng.uniform(0.1, 3.0), size=(20_000, 2))
        assert td.box_counting_dim(xy, scales).counts == _box_counts_by_pairs(xy, scales)
        assert td.box_counting_dim(xy.ravel(), scales).counts == _box_counts_by_pairs(xy, scales)


def test_box_counts_of_boxes_2_31_apart_do_not_collide():
    """Boxes (0, 2**31) and (1, 0) at eps = 1 are two boxes; a key i*2**31 + j
    gives both the key 2**31."""
    pts = np.tile([0.5 + (2.0 ** 31 + 0.5) * 1j, 1.5 + 0.5j], 10_000)
    est = td.box_counting_dim(pts, [1.0, 2.0, 4.0, 8.0, 1000.0])
    assert est.counts == (2, 2, 2, 2, 2)


def test_box_counts_on_a_grid_past_the_int64_key_range():
    """At eps = 0.1 the cloud's bounding grid has about 1e22 boxes, more
    than one int64 key can number; the counts are still the distinct box
    pairs, at every scale."""
    rng = np.random.default_rng(2)
    xy = rng.random((20_000, 2)) * 1e10
    # at eps = 0.1 each even point lies a box left of and 2**31 boxes above the
    # next one, where keys i*2**31 + j coincide
    xy[::2] = xy[1::2] + [-0.1, 2.0 ** 31 * 0.1]
    scales = [0.1, 1.0, 10.0, 100.0, 1000.0]
    assert td.box_counting_dim(xy, scales).counts == _box_counts_by_pairs(xy, scales)
    # boxes (0, 2**32) and (2**32, 0) at eps = 1: in the (2**32 + 1)**2 grid
    # the key i*(2**32 + 1) + j of both is 2**32 modulo 2**64
    pts = np.tile([0.5 + (2.0 ** 32 + 0.5) * 1j, 2.0 ** 32 + 0.5 + 0.5j], 10_000)
    assert td.box_counting_dim(pts, [1.0, 2.0, 4.0, 8.0, 1000.0]).counts == (2, 2, 2, 2, 2)


@pytest.mark.parametrize("pts", [
    np.tile([1e20, 1e20 + 2.0 ** 20 + 1j], 10_000),
    np.tile([-1e20, -1e20 + 2.0 ** 20 + 1j], 10_000),
], ids=["above", "below"])
def test_box_indices_past_int64_raise(pts):
    with pytest.raises(td.ConfigError, match="int64 range"):
        td.box_counting_dim(pts, [0.1, 1.0, 10.0, 100.0, 1000.0])


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
    assert td.containment_recheck(small.family, 0, 5000, small.spec, density=10) == "inside"
    v = td.containment_recheck(small.family, 0, 30, small.spec, density=10)
    assert v == "outside"


def test_recheck_gset_clean(small):
    rep = td.recheck_gset(small.family, small.gset, small.spec, small.budget,
                          density=10, dense_sample=64)
    assert rep.n_flagged == 0
    assert rep.n_checked == small.gset.n_letters == 41_800_176
    assert rep.min_margin > 0


def test_recheck_gset_flags_planted_outsider(small):
    # plant a run holding one clearly inadmissible index
    bad = GSet(runs=tuple(sorted(small.gset.runs + (RunBlock(0, 0, 30, 30),))))
    rep = td.recheck_gset(small.family, bad, small.spec, small.budget,
                          density=10, dense_sample=16)
    assert rep.n_flagged >= 1
    assert (0, 30) in rep.flagged


def test_recheck_gset_undefined_margins_get_dense_recheck(monkeypatch):
    """lam = 0.01, R0 = 1.2, anchor 4, a planted G of |s| = 1..64 at u = 0:
    for |s| <= 2, 2*pi*|s| falls below the independent envelope constant,
    so the enclosure margin is undefined; those letters must go to the
    dense recheck instead of passing unchecked."""
    fam, gset, spec, budget = _lam_001_anchor_4()
    rechecked = []
    dense = oracle._recheck_cells

    def spy(us, ss, *args, **kwargs):
        rechecked.extend(int(s) for s in ss)
        return dense(us, ss, *args, **kwargs)

    monkeypatch.setattr(oracle, "_recheck_cells", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.recheck_gset(fam, gset, spec, budget, dense_sample=0)
    assert {-2, -1, 1, 2} <= set(rechecked)
    assert rep.n_flagged == 0
    assert rep.n_checked == gset.n_letters
    assert math.isfinite(rep.min_margin)


def _recheck_per_letter(family, gset, spec, density=10, dense_sample=2000,
                        seed=20210):
    """Reference: the recheck margin evaluated on every letter of every
    column of every run, and the dense subsample drawn through the ranks."""
    flagged = []
    n_checked = 0
    min_margin = math.inf
    c = family.log_lam
    rect = spec.outer
    w = rect.boundary_points(4096) - c
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    b_ind = float(np.max(np.abs(log_first - c))) * (1.0 + 1e-9)
    for run in gset.runs:
        sign = 1 if run.s_lo > 0 else -1
        ss = list(range(run.s_lo, run.s_hi + 1))
        ln_t = math.log(TWO_PI) + np.array([math.log(abs(s)) for s in ss])
        bx = b_ind * np.exp(-ln_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo_re = ln_t + np.log1p(-bx)
            dev = np.arcsin(np.minimum(1.0, bx / (1.0 - bx)))
        hi_re = ln_t + np.log1p(bx)
        for u in range(run.u_lo, run.u_hi + 1):
            n_checked += len(ss)
            mid = TWO_PI * float(u) + sign * 0.5 * math.pi
            margin = np.minimum.reduce([
                lo_re - rect.re_lo,
                rect.re_hi - hi_re,
                (mid - dev) - rect.im_lo,
                rect.im_hi - (mid + dev),
            ])
            min_margin = min(min_margin, float(np.fmin.reduce(margin, initial=math.inf)))
            for i in np.nonzero(~(margin >= 0))[0]:
                v = td.containment_recheck(family, u, ss[i], spec, density=density)
                if v == "outside":
                    flagged.append((u, ss[i]))
    rng = np.random.default_rng(seed)
    if gset.n_letters <= dense_sample:
        ranks = list(range(gset.n_letters))
    else:
        picked = set()
        while len(picked) < dense_sample:
            picked.update(gset.random_ranks(rng, dense_sample - len(picked)).tolist())
        ranks = sorted(picked)
    for rank in ranks:
        (u,), (s,) = gset.letters([rank])
        if td.containment_recheck(family, int(u), int(s), spec, density=density) == "outside":
            flagged.append((int(u), int(s)))
    return oracle.RecheckReport(n_checked=n_checked, n_densely_sampled=len(ranks),
                                n_flagged=len(flagged), flagged=tuple(flagged[:64]),
                                min_margin=min_margin)


def _lam_001_anchor_4():
    """lam = 0.01, R0 = 1.2, anchor 4 with a planted G of the letters |s| =
    1..64 at u = 0, of which |s| <= 2 lie below envelope validity (G's own
    windows start at |s| = 4)."""
    fam = td.normalize_family(td.exponential_family(0.01, 1.2))
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(4.0, 0.5)
    gset = GSet(runs=(RunBlock(0, 0, -64, -1), RunBlock(0, 0, 1, 64)))
    return fam, gset, spec, budget


def _planted(anchor, *runs):
    fam = td.normalize_family(td.exponential_family(1.0, math.e))
    return (fam, GSet(runs=runs), td.build_squares(anchor, 0.5), td.GeometryBudget(inset=0.5))


# the anchor-20 u = 0 runs (|s| from 3506) started 100 letters early
_EXTENDED_BELOW = (20.0, RunBlock(0, 0, -5505, -3406), RunBlock(0, 0, 3406, 5505))
# anchor 12: u = -1 and u = 0 have room for |s| = 5000..5099 at sign +1, u = 1 has none
_BLOCK_PAST_ITS_COLUMNS = (12.0, RunBlock(-1, 1, 5000, 5099))


def _small_cut(small):
    """The runs of the small G cut to |s| <= 5000: two blocks of two columns."""
    return GSet(runs=tuple(RunBlock(r.u_lo, r.u_hi, max(r.s_lo, -5000), min(r.s_hi, 5000))
                           for r in small.gset.runs))


@pytest.mark.parametrize("case", ["mini", "small", "lam-0.01-anchor-4",
                                  "planted-no-window", "window-extended-below",
                                  "block-past-its-columns"])
def test_recheck_gset_matches_per_letter_reference(request, case):
    """The run-by-run recheck gives the per-letter report field for field:
    - mini: clean runs, the end blocks stop at 64 letters;
    - small: the runs of the small G cut to |s| <= 5000, two blocks of two
      columns each, evaluated at their extreme columns;
    - lam = 0.01, R0 = 1.2, anchor 4, planted |s| = 1..64: undefined
      margins at |s| <= 2;
    - 1,000 letters at u = 2, anchor 12, a column with no window: every
      letter fails, so the end blocks grow to the whole run;
    - the anchor-20 u = 0 runs of both signs (|s| from 3506) started
      100 letters early: the inner letter of the 64-letter block at the
      small-|s| end fails, so both blocks widen;
    - 100 letters shared by u = -1..1 at anchor 12, where u = 1 has no
      room: only the u = 1 letters get the dense recheck and are flagged."""
    if case == "mini":
        b = request.getfixturevalue(case)
        fam, gset, spec, budget = b.family, b.gset, b.spec, b.budget
    elif case == "small":
        b = request.getfixturevalue(case)
        fam, gset, spec, budget = b.family, _small_cut(b), b.spec, b.budget
    elif case == "lam-0.01-anchor-4":
        fam, gset, spec, budget = _lam_001_anchor_4()
    elif case == "planted-no-window":
        fam, gset, spec, budget = _planted(12.0, RunBlock(2, 2, 5000, 5999))
    elif case == "block-past-its-columns":
        fam, gset, spec, budget = _planted(*_BLOCK_PAST_ITS_COLUMNS)
    else:
        fam, gset, spec, budget = _planted(*_EXTENDED_BELOW)
    kw = dict(density=2, dense_sample=64, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.recheck_gset(fam, gset, spec, budget, **kw)
    ref = _recheck_per_letter(fam, gset, spec, **kw)
    assert rep == ref
    assert rep.min_margin.hex() == ref.min_margin.hex()
    if case == "planted-no-window":
        assert rep.n_flagged == 1000 + 64 and rep.min_margin < 0
    if case == "window-extended-below":
        assert rep.n_flagged > 0 and rep.min_margin < 0
    if case == "block-past-its-columns":
        assert {u for u, _ in rep.flagged} == {1} and rep.n_flagged >= 100


def test_recheck_gset_widens_past_a_failing_inner_letter(monkeypatch):
    # the inner letter of the end block at |s| = 3406 (|s| = 3406 + 63)
    # fails the margin; in each run the failing letters are the ones
    # nearest |s| = 3406, found in (run, s) order
    fam, gset, spec, budget = _planted(*_EXTENDED_BELOW)
    rechecked = []
    dense = oracle._recheck_cells

    def spy(us, ss, *args, **kwargs):
        rechecked.extend(int(s) for s in ss)
        return dense(us, ss, *args, **kwargs)

    monkeypatch.setattr(oracle, "_recheck_cells", spy)
    td.recheck_gset(fam, gset, spec, budget, density=2, dense_sample=0)
    neg, pos = [s for s in rechecked if s < 0], [s for s in rechecked if s > 0]
    assert rechecked == neg + pos
    assert -(3406 + 63) in neg and 3406 + 63 in pos
    assert neg == list(range(min(neg), -3406 + 1))
    assert pos == list(range(3406, max(pos) + 1))


def test_enumerate_g_at_anchor_20_works_per_run(fam):
    """Anchor 20: 1.02e13 letters in 2 runs of 3 columns.  G, its level-1
    sum, the gap report and the recheck all work per run."""
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(20.0, 0.5)
    dist = td.distortion_constant(20.0, fam.ln_r0)
    gset = td.build_G(fam, 20.0, spec, budget, mode="enumerate", dist=dist)
    assert [run.n_columns for run in gset.runs] == [3, 3]
    # the ints of each column's window, |s| = 3507..1700805253874
    assert gset.n_letters == 10_204_831_502_208
    s1 = td.level1_sum(td.build_weighted_system(fam, gset, spec, dist), 1.0)
    assert s1.log_lo < s1.log_hi
    gap = td.min_cell_gap(fam, gset, spec)
    assert gap.min_gap > 0 and gap.column_separation > 0
    rep = td.recheck_gset(fam, gset, spec, budget, dense_sample=64)
    assert rep.n_checked == gset.n_letters
    assert rep.n_densely_sampled == 64
    assert rep.n_flagged == 0


@pytest.mark.parametrize("case", ["small", "planted-no-window"])
def test_recheck_gset_boundary_work_does_not_grow_with_dense_sample(monkeypatch, request,
                                                                   case):
    """The dense subsample shares one evaluation of the boundary samples of
    Q: Rect.boundary_points is called as often for 64 letters as for none."""
    if case == "small":
        b = request.getfixturevalue(case)
        fam, gset, spec, budget = b.family, b.gset, b.spec, b.budget
    else:
        fam, gset, spec, budget = _planted(12.0, RunBlock(2, 2, 5000, 5009))
    calls = []
    points = Rect.boundary_points

    def spy(self, n):
        calls.append(n)
        return points(self, n)

    monkeypatch.setattr(Rect, "boundary_points", spy)
    counts = []
    for dense_sample in (0, 8, 64):
        calls.clear()
        td.recheck_gset(fam, gset, spec, budget, density=2, dense_sample=dense_sample)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


def _recheck_cell_reference(family, u, s, spec, log_first):
    """The per-letter dense recheck that `_recheck_cells` batches: verdict,
    padding delta (at least an ulp of Q's largest coordinate) and the images
    of the boundary samples, in the scale-free form."""
    c = family.log_lam
    ln_t = math.log(TWO_PI) + np.array([math.log(abs(s))])
    x = np.exp(-ln_t)
    y = (log_first.imag - c.imag) * x + (1.0 if s > 0 else -1.0)
    xx = (log_first.real - c.real) * x
    half = 0.5 * np.log(y * y + xx * xx)
    imgs = (ln_t + half) + 1j * (np.arctan2(y, xx) + TWO_PI * float(u))
    lip = float(np.exp(-(ln_t + (half + log_first.real).min()))[0]) * 1.25
    spacing = spec.outer.perimeter / log_first.size
    delta = max(lip * spacing, math.ulp(max(map(abs, spec.outer.bounds()))))
    inside = bool(np.all(spec.outer.shrink(delta).contains(imgs)))
    near = bool(np.all(spec.outer.contains(imgs)))
    return ("inside" if inside else ("borderline" if near else "outside")), delta, imgs


def _column_letters(gset):
    """(us, ss) of every letter of G, run by run and column by column."""
    us = np.concatenate([np.repeat(np.arange(r.u_lo, r.u_hi + 1), r.length) for r in gset.runs])
    ss = np.concatenate([np.tile(np.arange(r.s_lo, r.s_hi + 1), r.n_columns)
                         for r in gset.runs])
    return us, ss


def _random_letters(gset, n, seed=20210):
    return gset.letters(np.sort(gset.random_ranks(np.random.default_rng(seed), n)))


def _kernel_case(request, case):
    """(family, spec, density, us, ss) for one batched-recheck case."""
    if case.startswith("block-"):
        b = request.getfixturevalue("small")
        step = oracle._DENSE_BLOCK // (oracle._BOUNDARY_SAMPLES * 10)
        m = {"1": 1, "B-1": step - 1, "B": step, "B+1": step + 1}[case[len("block-"):]]
        # the first letters of the u = 0 column cross its window edge at |s| = 64
        ss = np.arange(60, 60 + m, dtype=np.int64)
        return b.family, b.spec, 10, np.zeros(m, dtype=np.int64), ss
    if case in ("small-subsample", "lam-0.5+0.5i", "anchor-25", "anchor-30", "cert-4000"):
        if case == "small-subsample":
            # the small config: 41.8M letters
            b = request.getfixturevalue("small")
            fam, spec, gset = b.family, b.spec, b.gset
        else:
            lam, anchor, inset = {"lam-0.5+0.5i": (complex(0.5, 0.5), 12.0, 0.5),
                                  "anchor-25": (1.0, 25.0, 0.5), "anchor-30": (1.0, 30.0, 0.5),
                                  "cert-4000": (1.0, 4000.0, 3.0)}[case]
            fam = td.normalize_family(td.exponential_family(lam, math.e))
            spec, budget = td.build_squares(anchor, inset), td.GeometryBudget(inset=inset)
            gset = td.build_G(fam, anchor, spec, budget)
        us, ss = _random_letters(gset, 200 if case == "cert-4000" else 2000)
        if case == "anchor-25":
            # the last letters of the first run, |s| near 3.1e15
            run = gset.runs[0]
            us = np.r_[us, np.full(20, run.u_lo)]
            ss = np.r_[ss, np.arange(run.s_hi - 19, run.s_hi + 1, dtype=np.int64)]
        return fam, spec, 10, us, ss
    if case == "anchor-24-run-end":
        fam, _, spec, _ = _planted(24.0)
        ss = np.arange(686153811537103 - 40, 686153811537103 + 40, dtype=np.int64)
        return fam, spec, 2, np.zeros(ss.size, dtype=np.int64), ss
    if case == "planted-no-window":
        fam, gset, spec, _ = _planted(12.0, RunBlock(2, 2, 5000, 5999))
    elif case == "lam-0.01-anchor-4":
        fam, gset, spec, _ = _lam_001_anchor_4()
    else:
        fam, gset, spec, _ = _planted(*_EXTENDED_BELOW)
    return (fam, spec, 2) + _column_letters(gset)


@pytest.mark.parametrize("case", ["block-1", "block-B-1", "block-B", "block-B+1",
                                  "small-subsample", "planted-no-window",
                                  "lam-0.01-anchor-4", "window-extended-below",
                                  "lam-0.5+0.5i", "anchor-25", "anchor-24-run-end",
                                  "anchor-30", "cert-4000"])
def test_recheck_cells_matches_per_letter_reference(request, case):
    """The batched dense recheck gives every letter the verdict, padding and
    image extents of the per-letter evaluation, bit for bit:
    - 1, B - 1, B and B + 1 letters, B the letters of one block;
    - the 2,000-letter subsample of the small config in enumerate mode;
    - 1,000 letters at u = 2, anchor 12, a column with no window;
    - lam = 0.01, R0 = 1.2, anchor 4, a planted G with undefined margins at
      |s| <= 2;
    - the anchor-20 u = 0 runs started 100 letters early;
    - lam = 0.5 + 0.5i, anchor 12, a 2,000-letter subsample;
    - anchor 25, where G holds 2.5e16 letters (ranks past 2^53), a
      2,000-letter subsample and the last letters of a run;
    - anchor 24, u = 0, the 40 letters on each side of the run's end
      686153811537103, whose images step across re_hi(Q) = 36 by less
      than its ulp, the padding: all three verdicts at density 2;
    - anchor 30 (ranks past 2^63, indices past 2^53), 2,000 letters, and
      the default anchor-4000 certificate (indices of 2,600 digits), 200."""
    fam, spec, density, us, ss = _kernel_case(request, case)
    boundary = oracle._recheck_boundary(fam, spec, density)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts, delta, ext = oracle._recheck_cells(us, ss, spec, boundary)
    assert len(verdicts) == delta.size == ext.shape[0] == len(ss)
    if case in ("anchor-30", "cert-4000"):
        assert set(verdicts) == {"inside"}
    for i, (u, s) in enumerate(zip(us, ss)):
        v, d, imgs = _recheck_cell_reference(fam, int(u), int(s), spec, boundary.logs)
        assert verdicts[i] == v, (u, s)
        assert delta[i].hex() == d.hex(), (u, s)
        ref = (imgs.real.min(), imgs.real.max(), imgs.imag.min(), imgs.imag.max())
        assert [x.hex() for x in ext[i]] == [float(x).hex() for x in ref], (u, s)
    if case == "planted-no-window":
        assert set(verdicts) == {"outside"}
    if case == "window-extended-below":
        assert {"inside", "outside"} <= set(verdicts)
    if case == "anchor-24-run-end":
        assert set(verdicts) == {"inside", "borderline", "outside"}


def _direct_recheck_cells(family, us, ss, spec, density, chunk=256):
    """The direct-form dense kernel that the scale-free one replaced, kept
    as its reference: w2 = log_first + 2*pi*i*s - c formed in float, images
    0.5*ln(re^2 + im^2) + i*atan2 + 2*pi*i*u, padding 1.25 / min(|w2| * |z - c|).
    Float-exact indices only."""
    w = spec.outer.boundary_points(oracle._BOUNDARY_SAMPLES * density) - family.log_lam
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    d_first = np.abs(w)
    c = family.log_lam
    rect = spec.outer
    ss = np.asarray(ss, dtype=float)
    us = np.broadcast_to(np.asarray(us, dtype=float), ss.shape)
    re_w2 = log_first.real - c.real
    lip = np.empty(ss.size)
    ext = np.empty((ss.size, 4))
    for i in range(0, ss.size, chunk):
        im_w2 = log_first.imag + (TWO_PI * ss[i:i + chunk])[:, None] - c.imag
        re = 0.5 * np.log(re_w2 ** 2 + im_w2 * im_w2)
        im = np.arctan2(im_w2, re_w2)
        lip[i:i + chunk] = 1.0 / (np.abs(re_w2 + 1j * im_w2) * d_first).min(axis=1) * 1.25
        ext[i:i + chunk] = np.column_stack([re.min(axis=1), re.max(axis=1),
                                            im.min(axis=1), im.max(axis=1)])
    ext[:, 2:] += TWO_PI * us[:, None]
    delta = np.maximum(lip * (rect.perimeter / log_first.size),
                       math.ulp(max(map(abs, rect.bounds()))))

    def within(pad):
        return ((ext[:, 0] >= rect.re_lo + pad) & (ext[:, 1] <= rect.re_hi - pad)
                & (ext[:, 2] >= rect.im_lo + pad) & (ext[:, 3] <= rect.im_hi - pad))

    return np.where(within(delta), "inside", np.where(within(0.0), "borderline", "outside")), ext


def test_scale_free_kernel_gives_the_direct_kernels_verdicts(small):
    """At anchor 12 the scale-free dense kernel rates every letter as the
    direct-form kernel does, and their image extents agree to 1e-14: s in
    +-[1, 200] at u = -1, 0, 1, 64 letters at each end of every column of
    every run, and 2,000 letters drawn over G."""
    fam, spec = small.family, small.spec
    low = np.r_[1:201, -200:0]
    us, ss = [np.repeat([-1, 0, 1], low.size)], [np.tile(low, 3)]
    for r in small.gset.runs:
        ends = np.r_[r.s_lo:r.s_lo + 64, r.s_hi - 63:r.s_hi + 1]
        us.append(np.repeat(np.arange(r.u_lo, r.u_hi + 1), ends.size))
        ss.append(np.tile(ends, r.n_columns))
    drawn = _random_letters(small.gset, 2000)
    us, ss = np.concatenate(us + [drawn[0]]), np.concatenate(ss + [drawn[1]])
    boundary = oracle._recheck_boundary(fam, spec, 10)
    verdicts, _, ext = oracle._recheck_cells(us, ss, spec, boundary)
    direct, direct_ext = _direct_recheck_cells(fam, us, ss, spec, 10)
    assert np.array_equal(verdicts, direct)
    assert {"inside", "outside"} <= set(verdicts)
    assert np.max(np.abs(ext - direct_ext)) <= 1e-14


def test_dense_recheck_pads_by_at_least_an_ulp_at_anchor_24(fam):
    """lam = 1, R0 = e, inset 0.5, anchor 24, enumerate mode: the images of
    the letters at the ends of the runs reach re_hi(Q) = 36.0 exactly, and
    their Lipschitz padding (about 9.1e-19) is below ulp(36).  Raised to
    that ulp, the padding rates them "borderline", not "inside"."""
    spec, budget = td.build_squares(24.0, 0.5), td.GeometryBudget(inset=0.5)
    gset = td.build_G(fam, 24.0, spec, budget, mode="enumerate")
    letters = [(-2, 686153811537102), (0, 686153811537103), (0, -686153811537103)]
    assert all(letter in gset for letter in letters)
    us, ss = (np.array(x, dtype=np.int64) for x in zip(*letters))
    boundary = oracle._recheck_boundary(fam, spec, 10)
    verdicts, delta, ext = oracle._recheck_cells(us, ss, spec, boundary)
    assert spec.outer.re_hi == 36.0 and np.all(ext[:, 1] == 36.0)
    assert np.all(delta == math.ulp(36.0))
    assert list(verdicts) == ["borderline"] * 3


@pytest.mark.parametrize("n_letters", [10, 1000])
def test_recheck_gset_evaluates_the_boundary_once(monkeypatch, n_letters):
    """Planted u = 2 window at anchor 12, where every letter fails its
    margin: the dense boundary work is built once per recheck, whatever
    the number of failing letters and the size of the dense subsample."""
    fam, gset, spec, budget = _planted(12.0, RunBlock(2, 2, 5000, 5000 + n_letters - 1))
    calls = []
    boundary = oracle._recheck_boundary

    def spy(*args, **kwargs):
        calls.append(args)
        return boundary(*args, **kwargs)

    monkeypatch.setattr(oracle, "_recheck_boundary", spy)
    for dense_sample in (0, 8, 64):
        calls.clear()
        rep = td.recheck_gset(fam, gset, spec, budget, density=2, dense_sample=dense_sample)
        assert rep.n_flagged == n_letters + min(dense_sample, n_letters)
        assert len(calls) == 1


def _every_sample(boundary, x):
    """The candidate buckets of `_recheck_cells` with every sample for every
    letter: the block loop's reference."""
    yield np.arange(x.size), np.arange(boundary.logs.size)


# (lam, anchor, inset): lam = 20 puts p = ln|z| - ln 20 <= 0 on part of
# Q's boundary at anchor 12; lam = e^3i at anchor 4 puts q = arg(z - c) - 3
# in [-4.2, -3.1]
_KERNEL_FAMILIES = [(1.0, 12.0, 0.5), (20.0, 12.0, 0.5), (complex(0.5, 0.5), 12.0, 0.5),
                    (cmath.rect(1.0, 3.0), 4.0, 0.5), (1.0, 30.0, 0.5), (1.0, 4000.0, 3.0)]


def _index_near_log(ln_t):
    """The least index s with ln(2*pi*s) >= ln_t, as an exact int."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return int((decimal.Decimal(ln_t).exp() / decimal.Decimal(TWO_PI))
                   .to_integral_value(decimal.ROUND_CEILING))


# ln T around the underflow of x = e^-ln T: x goes subnormal past 708.4
# and is 0 past 745.13
_UNDERFLOW_INDICES = [_index_near_log(t) for t in (708.3, 708.5, 744.4, 744.45, 745.13,
                                                   745.14, 746.0)]

_letters = st.tuples(
    st.integers(-3, 3),
    st.one_of(st.integers(1, 64), st.integers(1, 10 ** 9), st.integers(1, 10 ** 20),
              st.sampled_from(_UNDERFLOW_INDICES),
              st.integers(10 ** 2599, 10 ** 2600)),
    st.sampled_from([1, -1]))


def _near(lo, hi):
    """Floats on a grid of step 1 or 0.1 plus offsets from 5e-2 down to
    1e-16, so that samples nearly tie."""
    return st.builds(lambda a, digits, m, e: round(a, digits) + m * 10.0 ** -e,
                     st.floats(lo, hi), st.sampled_from([0, 1]), st.integers(-50, 50),
                     st.integers(3, 16))


# boundary logs ln|z - c| + i*arg(z - c) that no square produces (|q| up
# to 11, past 2*pi), sorted by ln|z - c| as `_recheck_boundary` returns them
_synthetic_boundaries = st.lists(st.tuples(_near(-3.0, 9.0), _near(-8.0, 8.0)),
                                 min_size=1, max_size=48).map(
    lambda pts: np.array([complex(a, b) for a, b in sorted(pts)]))


def _pinned(*logs):
    """One letter (0, 159), x = 1.0e-3, at lam = 1 (c = 0), on the boundary
    logs `logs`: p = ln|z - c|, q = arg(z - c)."""
    return example(family=_KERNEL_FAMILIES[0], density=1, letters=[(0, 159, 1)],
                   synthetic=np.array(logs))


# Each pins one perturbation bound: a sample that holds a float extreme
# only through its perturbation, and no extreme key.
# atan2: the least atan2 is at p = 4.99 (q = -2), not at the greatest p
@_pinned(1.0 - 3j, 2.0 + 3j, 4.99 - 2j, 5.0 + 2j)
# half: the least half is at q = -1.995 (p = 1), not at the least q
@_pinned(0.5 + 0j, 1.0 - 1.995j, 5.0 - 2j, 6.0 + 0j)
# padding: the least half + ln|z - c| is at ln|z - c| = 0.002 (q = -2)
@_pinned(0.0 + 2j, 0.002 - 2j, 0.04 - 3j, 0.05 + 3j)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(_KERNEL_FAMILIES), density=st.integers(1, 10),
       letters=st.lists(_letters, min_size=1, max_size=24),
       synthetic=st.one_of(st.none(), _synthetic_boundaries))
def test_recheck_cells_on_candidate_samples_equal_every_sample(family, density, letters,
                                                                synthetic):
    """The dense recheck on per-letter candidate samples gives the verdicts,
    paddings and image extents of the same block loop given every sample,
    bit for bit: lam = 1, 20 (p <= 0 on some samples), 0.5 + 0.5i and e^3i
    (|q| up to 4.2 at anchor 4), anchors 4 to 4000, small |s| where every
    sample is a candidate, ln T around the underflow of e^-ln T, indices of
    2,600 digits and density 1 to 10; and on synthetic
    boundary logs whose keys nearly tie (and with 2*pi*|s| <= max|q| at
    |s| = 1), where the perturbation bounds decide which samples are
    candidates.  Three pinned examples each fail when one perturbation
    bound is dropped."""
    lam, anchor, inset = family
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(anchor, inset)
    us = np.array([u for u, _, _ in letters])
    ss = [sign * s for _, s, sign in letters]
    boundary = (oracle._recheck_boundary(fam, spec, density) if synthetic is None
                else oracle._Boundary.from_logs(fam, synthetic))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts, delta, ext = oracle._recheck_cells(us, ss, spec, boundary)
        with mock.patch.object(oracle, "_candidate_samples", _every_sample):
            ref = oracle._recheck_cells(us, ss, spec, boundary)
        # each letter's bucket, folded or not, holds the letter's own candidates
        x = np.exp(-oracle._index_logs(ss)[0])
        for letters, samples in oracle._candidate_samples(boundary, x):
            for i in letters:
                (_, own), = oracle._candidate_samples(boundary, x[i:i + 1])
                assert np.isin(own, samples).all()
    assert list(verdicts) == list(ref[0])
    assert delta.tobytes() == ref[1].tobytes()
    assert ext.tobytes() == ref[2].tobytes()


def _count_evaluations(monkeypatch):
    """Spy on the block loop; returns the list of its (letter, sample) counts."""
    counts = []
    block = oracle._sample_extremes

    def spy(p, q, lr, x, sign):
        counts.append(x.size * p.size)
        return block(p, q, lr, x, sign)

    monkeypatch.setattr(oracle, "_sample_extremes", spy)
    return counts


@pytest.mark.parametrize("case", ["small-subsample", "cert-4000"])
def test_recheck_cells_evaluates_few_samples_per_letter(monkeypatch, request, case):
    """The dense recheck evaluates each letter on its candidate samples, not
    on all density x 256 = 2,560: the 2,000 letters drawn over the anchor-12
    G take at most 2% of 2,000 x 2,560 (letter, sample) evaluations, and
    the default certificate's 2,000 letters, where x = e^-ln T is 0, one
    sample each."""
    if case == "small-subsample":
        b = request.getfixturevalue("small")
        fam, spec, gset = b.family, b.spec, b.gset
    else:
        fam = td.normalize_family(td.exponential_family(1.0, math.e))
        spec = td.build_squares(4000.0, 3.0)
        gset = td.build_G(fam, 4000.0, spec, td.GeometryBudget(inset=3.0))
    us, ss = _random_letters(gset, 2000)
    boundary = oracle._recheck_boundary(fam, spec, 10)
    counts = _count_evaluations(monkeypatch)
    oracle._recheck_cells(us, ss, spec, boundary)
    if case == "small-subsample":
        assert 0 < sum(counts) <= 0.02 * 2000 * boundary.logs.size
    else:
        assert sum(counts) == 2000


def _index_logs_per_letter(ss):
    """Reference: ln T and the signs formed letter by letter."""
    ln_t = math.log(TWO_PI) + np.array([math.log(abs(int(s))) for s in ss], dtype=float)
    return ln_t, np.array([1.0 if s > 0 else -1.0 for s in ss])


# indices around the float and int64 limits, and past the int-to-str limit;
# np.log of the float of 9170, 275063, 1441959 and 10755591 is an ulp off
# math.log's where numpy vectorises log itself (AVX-512)
_EDGE_INDICES = [1, 2, 3, 65, 9170, 275063, 1441959, 10755591,
                 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1]
_HUGE_INDICES = [2 ** 63, 2 ** 64 + 1, 10 ** 2600 + 7,
                 10 ** (sys.get_int_max_str_digits() + 5) + 3]


@pytest.mark.parametrize("form", ["int64", "list", "object"])
def test_index_logs_equal_the_per_letter_forms(form):
    """ln T and the signs from one map over the list of ints are the per-letter
    math.log(abs(int(s))) and sign lists, bit for bit, on int64 arrays,
    lists and object arrays: indices at 2^53 +- 1 and 2^63 - 1 (int64),
    and past 2^63 and past the int-to-str digit limit (lists and object
    arrays), of both signs."""
    rng = np.random.default_rng(5)
    small = _EDGE_INDICES + rng.integers(1, 2 ** 62, size=200).tolist()
    ints = small if form == "int64" else small + _HUGE_INDICES
    ints = [s * sign for s in ints for sign in (1, -1)]
    ss = {"int64": lambda: np.array(ints, dtype=np.int64), "list": lambda: ints,
          "object": lambda: np.array(ints, dtype=object)}[form]()
    ln_t, sign = oracle._index_logs(ss)
    ref_ln_t, ref_sign = _index_logs_per_letter(ss)
    assert ln_t.tobytes() == ref_ln_t.tobytes()
    assert sign.tobytes() == ref_sign.tobytes()


def _dense_ranks_by_set(gset, dense_sample, seed):
    """Reference: the subsample ranks picked through a set and redrawn until
    there are `dense_sample` of them."""
    rng = np.random.default_rng(seed)
    if gset.n_letters <= dense_sample:
        return list(range(gset.n_letters))
    picked = set()
    while len(picked) < dense_sample:
        picked.update(gset.random_ranks(rng, dense_sample - len(picked)).tolist())
    return sorted(picked)


@pytest.mark.parametrize("runs, dense_sample", [
    ((RunBlock(0, 0, 1, 2_500),), 2000),             # most draws repeat: several redraws
    ((RunBlock(0, 1, 65, 10_450_108),), 2000),       # the anchor-12 sizes
    ((RunBlock(0, 0, 1, 2 ** 40),), 2000),
    ((RunBlock(0, 0, 1, 2 ** 64),), 300),             # ranks past 2^63: object arrays
    ((RunBlock(0, 0, 1, 1_000),), 1000),              # all of G
    ((RunBlock(0, 0, 1, 1_000),), 0),
])
def test_dense_ranks_equal_the_set_pick(runs, dense_sample):
    """The sorted distinct ranks are those the set loop picks from the same
    draws, with the same redraws, as int64 or object arrays."""
    gset = GSet(runs=runs)
    for seed in (0, 1, 7, 20210):
        ranks = oracle._dense_ranks(gset, dense_sample, seed)
        assert ranks.tolist() == _dense_ranks_by_set(gset, dense_sample, seed)
        assert all(type(r) is int for r in ranks.tolist())


def test_sample_extremes_layouts_agree(small):
    """A block with fewer samples than letters (laid out samples x letters)
    gives each letter the bits it gets evaluated alone (letters x samples).
    On the 2,000 letters drawn at anchor 12 the small candidate buckets
    fold into one (three buckets into two): each folded bucket's samples
    hold those of the buckets it folds, and its letters get the bits of
    every sample."""
    fam, spec, gset = small.family, small.spec, small.gset
    boundary = oracle._recheck_boundary(fam, spec, 10)
    us, ss = _random_letters(gset, 2000)
    ln_t, sign = oracle._index_logs(ss)
    x = np.exp(-ln_t)
    p, q, lr = boundary.p, boundary.q, boundary.lr
    for samples in (np.arange(7), np.arange(0, 2560, 97), np.array([0, 2559])):
        batched = oracle._sample_extremes(p[samples], q[samples], lr[samples], x, sign)
        alone = np.hstack([oracle._sample_extremes(p[samples], q[samples], lr[samples],
                                                   x[i:i + 1], sign[i:i + 1])
                           for i in range(x.size)])
        assert batched.tobytes() == alone.tobytes()
    folded = list(oracle._candidate_samples(boundary, x))
    with mock.patch.object(oracle, "_FOLD_PAIRS", 0):
        unfolded = list(oracle._candidate_samples(boundary, x))
    assert [len(b) for b, _ in folded] == [1995, 5] and len(unfolded) == 3
    every = oracle._sample_extremes(p, q, lr, x, sign)
    for letters, samples in folded:
        parts = [set(s.tolist()) for l, s in unfolded if np.isin(l, letters).all()]
        assert sum(len(l) for l, _ in unfolded if np.isin(l, letters).all()) == letters.size
        assert all(part <= set(samples.tolist()) for part in parts)
        got = oracle._sample_extremes(p[samples], q[samples], lr[samples], x[letters],
                                      sign[letters])
        assert got.tobytes() == every[:, letters].tobytes()


@pytest.mark.parametrize("dense_sample, calls", [(2000, 1), (0, 0)])
def test_recheck_gset_makes_one_dense_batch(monkeypatch, small, dense_sample, calls):
    """At anchor 12 no letter is inconclusive: the subsample is the one
    dense batch, and without it the dense recheck is not called."""
    batches = []
    dense = oracle._recheck_cells

    def spy(us, ss, *args, **kwargs):
        batches.append(len(ss))
        return dense(us, ss, *args, **kwargs)

    monkeypatch.setattr(oracle, "_recheck_cells", spy)
    rep = td.recheck_gset(small.family, small.gset, small.spec, small.budget,
                          dense_sample=dense_sample)
    assert batches == [dense_sample] * calls
    assert rep.n_densely_sampled == dense_sample and rep.n_flagged == 0
