import math
import warnings

import numpy as np
import pytest

import tractdim as td
from tractdim import oracle
from tractdim.numerics import TWO_PI
from tractdim.tractgeom import GSet, Rect, SWindow


def test_box_dim_middle_thirds():
    pts = td.cantor_middle_thirds(100_000, 35, seed=7)
    est = td.box_counting_dim(pts, [3.0 ** -k for k in range(1, 8)])
    assert est.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)
    assert all(a >= b for a, b in zip(est.counts, est.counts[1:]))  # sorted by scale


def _cantor_digits(count, depth, seed):
    return 2 * np.random.default_rng(seed).integers(0, 2, size=(count, depth))


def _cantor_one_shot(count, depth, seed):
    """Reference: the digits of all points drawn and weighted as one matrix."""
    powers = 3 ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    return ((_cantor_digits(count, depth, seed) @ powers) / 3 ** depth).astype(complex)


@pytest.mark.parametrize("count", [100_000, 10_001, 4097, 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_cantor_blocks_equal_one_shot_draw(count, seed):
    pts = td.cantor_middle_thirds(count, 35, seed=seed)
    ref = _cantor_one_shot(count, 35, seed)
    assert pts.dtype == ref.dtype and pts.shape == ref.shape
    assert np.array_equal(pts.view(np.int64), ref.view(np.int64))


def test_cantor_points_are_exact_numerators_over_a_power_of_three():
    """Count 4,097 ends in a block of one row; every point is still its
    exact numerator sum_k d_k 3^(depth - k) over 3^depth, as a row-by-row
    evaluation and a Python-int one give it."""
    count, depth, seed = 4097, 35, 7
    pts = td.cantor_middle_thirds(count, depth, seed=seed)
    digits = _cantor_digits(count, depth, seed)
    powers = 3 ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    rows = np.array([row @ powers for row in digits]) / 3 ** depth
    exact = [float(sum(int(d) * 3 ** (depth - k) for k, d in enumerate(row, 1)))
             / float(3 ** depth) for row in digits]
    assert np.array_equal(pts.real, rows) and np.array_equal(pts.real, exact)
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
               runs=())
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
    dense = oracle._recheck_cells

    def spy(family, us, ss, *args, **kwargs):
        rechecked.extend(int(s) for s in ss)
        return dense(family, us, ss, *args, **kwargs)

    monkeypatch.setattr(oracle, "_recheck_cells", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.recheck_gset(fam, gset, spec, budget, dense_sample=0)
    assert {-2, -1, 1, 2} <= set(rechecked)
    assert rep.n_flagged == 0
    assert rep.n_checked == gset.n_explicit
    assert math.isfinite(rep.min_margin)


def _recheck_per_letter(family, gset, spec, budget, density=10, dense_sample=2000,
                        seed=20210):
    """Reference: the recheck margin evaluated on every letter of every run."""
    flagged = []
    n_checked = 0
    min_margin = math.inf
    c = family.log_lam
    rect = spec.outer
    w = rect.boundary_points(4096) - c
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    b_ind = float(np.max(np.abs(log_first - c))) * (1.0 + 1e-9)
    for win in gset.windows:
        for start in range(win.s_lo, win.s_hi + 1, 1 << 20):
            end = min(start + (1 << 20) - 1, win.s_hi)
            ss = np.arange(start, end + 1, dtype=np.int64)
            n_checked += ss.size
            two_pi_s = TWO_PI * np.abs(ss).astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lo_re = np.log(two_pi_s - b_ind)
                dev = np.arcsin(np.minimum(1.0, b_ind / (two_pi_s - b_ind)))
            hi_re = np.log(two_pi_s + b_ind)
            mid = TWO_PI * win.u + np.sign(ss) * 0.5 * math.pi
            margin = np.minimum.reduce([
                lo_re - (rect.re_lo + budget.margin),
                (rect.re_hi - budget.margin) - hi_re,
                (mid - dev) - (rect.im_lo + budget.margin),
                (rect.im_hi - budget.margin) - (mid + dev),
            ])
            min_margin = min(min_margin, float(np.fmin.reduce(margin, initial=math.inf)))
            for i in np.nonzero(~(margin >= 0))[0]:
                v = td.containment_recheck(family, win.u, int(ss[i]), spec, budget,
                                           density=density)
                if v == "outside":
                    flagged.append((win.u, int(ss[i])))
    rng = np.random.default_rng(seed)
    n_dense = 0
    if gset.n_explicit:
        ranks = np.sort(rng.choice(gset.n_explicit, size=min(dense_sample, gset.n_explicit),
                                   replace=False))
        for u, s in zip(*gset.letters_from_ranks(ranks)):
            n_dense += 1
            if td.containment_recheck(family, int(u), int(s), spec, budget,
                                      density=density) == "outside":
                flagged.append((int(u), int(s)))
    return oracle.RecheckReport(n_checked=n_checked, n_densely_sampled=n_dense,
                                n_flagged=len(flagged), flagged=tuple(flagged[:64]),
                                min_margin=min_margin)


def _lam_001_anchor_4():
    fam = td.normalize_family(td.exponential_family(0.01, 1.2))
    budget = td.GeometryBudget(inset=0.5, margin=0.0)
    spec = td.build_squares(4.0, 0.5)
    return fam, td.build_G(fam, 4.0, spec, budget, mode="enumerate"), spec, budget


def _planted(anchor, *windows):
    fam = td.normalize_family(td.exponential_family(1.0, math.e))
    return (fam, GSet(mode="enumerate", windows=windows, runs=()),
            td.build_squares(anchor, 0.5), td.GeometryBudget(inset=0.5))


# the anchor-20 u = 0 windows (|s| from 3506) started 100 letters early
_EXTENDED_BELOW = (20.0, SWindow(0, -5505, -3406), SWindow(0, 3406, 5505))


@pytest.mark.parametrize("case", ["mini", "small", "lam-0.01-anchor-4",
                                  "planted-no-window", "window-extended-below"])
def test_recheck_gset_matches_per_letter_reference(request, case):
    """The run-by-run recheck gives the per-letter report field for field:
    - mini and small: clean runs, the end blocks stop at 64 letters;
    - lam = 0.01, R0 = 1.2, anchor 4: undefined margins at |s| <= 2;
    - 1,000 letters at u = 2, anchor 12, a column with no window: every
      letter fails, so the end blocks grow to the whole run;
    - the anchor-20 u = 0 windows of both signs (|s| from 3506) started
      100 letters early: the inner letter of the 64-letter block at the
      small-|s| end fails, so both blocks widen."""
    if case in ("mini", "small"):
        b = request.getfixturevalue(case)
        fam, gset, spec, budget = b.family, b.gset, b.spec, b.budget
    elif case == "lam-0.01-anchor-4":
        fam, gset, spec, budget = _lam_001_anchor_4()
    elif case == "planted-no-window":
        fam, gset, spec, budget = _planted(12.0, SWindow(2, 5000, 5999))
    else:
        fam, gset, spec, budget = _planted(*_EXTENDED_BELOW)
    kw = dict(density=2, dense_sample=64, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.recheck_gset(fam, gset, spec, budget, **kw)
    ref = _recheck_per_letter(fam, gset, spec, budget, **kw)
    assert rep == ref
    assert rep.min_margin.hex() == ref.min_margin.hex()
    if case == "planted-no-window":
        assert rep.n_flagged == 1000 + 64 and rep.min_margin < 0
    if case == "window-extended-below":
        assert rep.n_flagged > 0 and rep.min_margin < 0


def test_recheck_gset_widens_past_a_failing_inner_letter(monkeypatch):
    # the inner letter of the end block at |s| = 3406 (|s| = 3406 + 63)
    # fails the margin; in each run the failing letters are the ones
    # nearest |s| = 3406, found in (run, s) order
    fam, gset, spec, budget = _planted(*_EXTENDED_BELOW)
    rechecked = []
    dense = oracle._recheck_cells

    def spy(family, us, ss, *args, **kwargs):
        rechecked.extend(int(s) for s in ss)
        return dense(family, us, ss, *args, **kwargs)

    monkeypatch.setattr(oracle, "_recheck_cells", spy)
    td.recheck_gset(fam, gset, spec, budget, density=2, dense_sample=0)
    neg, pos = [s for s in rechecked if s < 0], [s for s in rechecked if s > 0]
    assert rechecked == neg + pos
    assert -(3406 + 63) in neg and 3406 + 63 in pos
    assert neg == list(range(min(neg), -3406 + 1))
    assert pos == list(range(3406, max(pos) + 1))


def test_enumerate_g_at_anchor_20_works_per_run(fam):
    """Anchor 20 in enumerate mode: 1.02e13 letters in 6 runs.  G, its
    level-1 sum, the gap report and the recheck all work per run."""
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(20.0, 0.5)
    dist = td.distortion_constant(20.0, fam.ln_r0)
    gset = td.build_G(fam, 20.0, spec, budget, mode="enumerate", dist=dist)
    assert len(gset.windows) == 6
    assert gset.n_explicit == 10_204_831_502_220
    s1 = td.level1_sum(td.build_weighted_system(fam, gset, spec, dist), 1.0)
    assert s1.log_lo < s1.log_hi
    gap = td.min_cell_gap(fam, gset, spec)
    assert gap.min_gap > 0 and gap.column_separation > 0
    rep = td.recheck_gset(fam, gset, spec, budget, dense_sample=64)
    assert rep.n_checked == gset.n_explicit
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
        fam, gset, spec, budget = _planted(12.0, SWindow(2, 5000, 5009))
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


def _recheck_cell_reference(family, u, s, spec, budget, boundary):
    """The per-letter dense recheck that `_recheck_cells` batches: verdict,
    padding delta (at least an ulp of Q's largest coordinate) and the images
    of the boundary samples."""
    log_first, d_first = boundary
    c = family.log_lam
    w2 = log_first + TWO_PI * 1j * np.asarray(s, dtype=float) - c
    imgs = 0.5 * np.log(w2.real ** 2 + w2.imag ** 2) + 1j * np.arctan2(w2.imag, w2.real) \
        + TWO_PI * 1j * np.asarray(u, dtype=float)
    xi = np.abs(log_first + TWO_PI * 1j * float(s) - c)
    lip = float(np.max(1.0 / (xi * d_first))) * 1.25
    spacing = spec.outer.perimeter / log_first.size
    delta = max(budget.margin + lip * spacing, math.ulp(max(map(abs, spec.outer.bounds()))))
    inside = bool(np.all(spec.outer.contains(imgs, margin=delta)))
    near = bool(np.all(spec.outer.contains(imgs, margin=0.0)))
    return ("inside" if inside else ("borderline" if near else "outside")), delta, imgs


def _kernel_case(request, case):
    """(family, spec, budget, density, us, ss) for one batched-recheck case."""
    if case.startswith("block-"):
        b = request.getfixturevalue("small")
        step = oracle._DENSE_BLOCK // (b.budget.boundary_samples * 10)
        m = {"1": 1, "B-1": step - 1, "B": step, "B+1": step + 1}[case[len("block-"):]]
        # the first letters of the u = 0 column cross its window edge at |s| = 64
        ss = np.arange(60, 60 + m, dtype=np.int64)
        return b.family, b.spec, b.budget, 10, np.zeros(m, dtype=np.int64), ss
    if case in ("small-subsample", "lam-0.5+0.5i", "anchor-25"):
        if case == "small-subsample":
            # the small config in enumerate mode: 41.8M letters
            b = request.getfixturevalue("small")
            fam, spec, budget = b.family, b.spec, b.budget
            gset = td.build_G(fam, 12.0, spec, budget, mode="enumerate", dist=b.dist)
        else:
            lam, anchor = (complex(0.5, 0.5), 12.0) if case == "lam-0.5+0.5i" else (1.0, 25.0)
            fam = td.normalize_family(td.exponential_family(lam, math.e))
            spec, budget = td.build_squares(anchor, 0.5), td.GeometryBudget(inset=0.5)
            gset = td.build_G(fam, anchor, spec, budget, mode="enumerate")
        ranks = np.sort(np.random.default_rng(20210).choice(gset.n_explicit, size=2000,
                                                            replace=False))
        us, ss = gset.letters_from_ranks(ranks)
        if case == "anchor-25":
            # the last letters of the first run, |s| near 3.1e15
            win = gset.windows[0]
            us = np.r_[us, np.full(20, win.u)]
            ss = np.r_[ss, np.arange(win.s_hi - 19, win.s_hi + 1, dtype=np.int64)]
        return fam, spec, budget, 10, us, ss
    if case == "margin-0.1":
        fam, _, spec, _ = _planted(12.0)
        us = np.repeat([0, 1], 200)
        ss = np.r_[40:240, -239:-39]
        return fam, spec, td.GeometryBudget(inset=0.5, margin=0.1), 2, us, ss
    if case == "planted-no-window":
        fam, gset, spec, budget = _planted(12.0, SWindow(2, 5000, 5999))
    elif case == "lam-0.01-anchor-4":
        fam, gset, spec, budget = _lam_001_anchor_4()
    else:
        fam, gset, spec, budget = _planted(*_EXTENDED_BELOW)
    us = np.concatenate([np.full(w.count, w.u) for w in gset.windows])
    ss = np.concatenate([np.arange(w.s_lo, w.s_hi + 1) for w in gset.windows])
    return fam, spec, budget, 2, us, ss


@pytest.mark.parametrize("case", ["block-1", "block-B-1", "block-B", "block-B+1",
                                  "small-subsample", "planted-no-window",
                                  "lam-0.01-anchor-4", "window-extended-below",
                                  "lam-0.5+0.5i", "anchor-25", "margin-0.1"])
def test_recheck_cells_matches_per_letter_reference(request, case):
    """The batched dense recheck gives every letter the verdict, padding and
    image extents of the per-letter evaluation, bit for bit:
    - 1, B - 1, B and B + 1 letters, B the letters of one block;
    - the 2,000-letter subsample of the small config in enumerate mode;
    - 1,000 letters at u = 2, anchor 12, a column with no window;
    - lam = 0.01, R0 = 1.2, anchor 4: G, with undefined margins at |s| <= 2;
    - the anchor-20 u = 0 windows started 100 letters early;
    - lam = 0.5 + 0.5i, anchor 12, a 2,000-letter subsample;
    - anchor 25, where G holds 2.5e16 letters (ranks past 2^53), a
      2,000-letter subsample and the last letters of a run;
    - margin 0.1 at anchor 12, across the u = 0 and u = 1 window edges:
      all three verdicts."""
    fam, spec, budget, density, us, ss = _kernel_case(request, case)
    boundary = oracle._recheck_boundary(fam, spec, budget, density)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts, delta, ext = oracle._recheck_cells(fam, us, ss, spec, budget, boundary)
    assert len(verdicts) == delta.size == ext.shape[0] == len(ss)
    for i, (u, s) in enumerate(zip(us, ss)):
        v, d, imgs = _recheck_cell_reference(fam, int(u), int(s), spec, budget, boundary)
        assert verdicts[i] == v, (u, s)
        assert delta[i].hex() == d.hex(), (u, s)
        ref = (imgs.real.min(), imgs.real.max(), imgs.imag.min(), imgs.imag.max())
        assert [x.hex() for x in ext[i]] == [float(x).hex() for x in ref], (u, s)
    if case == "planted-no-window":
        assert set(verdicts) == {"outside"}
    if case == "window-extended-below":
        assert {"inside", "outside"} <= set(verdicts)
    if case == "margin-0.1":
        assert set(verdicts) == {"inside", "borderline", "outside"}


def test_dense_recheck_pads_by_at_least_an_ulp_at_anchor_24(fam):
    """lam = 1, R0 = e, inset 0.5, anchor 24, enumerate mode: the images of
    the letters at the ends of the runs reach re_hi(Q) = 36.0 exactly, and
    their Lipschitz padding (about 9.1e-19) is below ulp(36).  Raised to
    that ulp, the padding rates them "borderline", not "inside"."""
    spec, budget = td.build_squares(24.0, 0.5), td.GeometryBudget(inset=0.5)
    gset = td.build_G(fam, 24.0, spec, budget, mode="enumerate")
    letters = [(-2, 686153811537102), (0, 686153811537103), (0, -686153811537103)]
    assert all(any(w.u == u and w.s_lo <= s <= w.s_hi for w in gset.windows)
               for u, s in letters)
    us, ss = (np.array(x, dtype=np.int64) for x in zip(*letters))
    boundary = oracle._recheck_boundary(fam, spec, budget, 10)
    verdicts, delta, ext = oracle._recheck_cells(fam, us, ss, spec, budget, boundary)
    assert spec.outer.re_hi == 36.0 and np.all(ext[:, 1] == 36.0)
    assert np.all(delta == math.ulp(36.0))
    assert list(verdicts) == ["borderline"] * 3


@pytest.mark.parametrize("n_letters", [10, 1000])
def test_recheck_gset_evaluates_the_boundary_once(monkeypatch, n_letters):
    """Planted u = 2 window at anchor 12, where every letter fails its
    margin: the dense boundary work is built once per recheck, whatever
    the number of failing letters and the size of the dense subsample."""
    fam, gset, spec, budget = _planted(12.0, SWindow(2, 5000, 5000 + n_letters - 1))
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
