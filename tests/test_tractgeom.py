import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tractdim as td
from tractdim import tractgeom
from tractdim.numerics import TWO_PI
from tractdim.loglift import ExpTailModel
from tractdim.tractgeom import (_ENDPOINT_ULPS, GSet, RadiusSearchError, RunBlock, SigmaWindow,
                                _distortion_or_unavailable, _sigma_windows,
                                universal_cell_diameter_bound)


# ---------------------------------------------------------------------------
# radius search
# ---------------------------------------------------------------------------

def test_find_radius_smallest_passing(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    # tract depth needs ln R > 1 + 1, i.e. R > e^2 ~ 7.39
    r = td.find_radius(fam, budget, 8.0, 20.0, 1.0)
    assert r == 8.0


def test_find_radius_square_size_impossible(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=25.0)
    with pytest.raises(RadiusSearchError) as err:
        td.find_radius(fam, budget, 10.0, 20.0, 1.0)
    assert err.value.margins["square_size"] < 0


def test_find_radius_depth_condition_dominates(fam):
    # with inset 25 the depth condition needs ln R > 51, far past this scan
    budget = td.GeometryBudget(epsilon=0.1, inset=25.0)
    with pytest.raises(RadiusSearchError) as err:
        td.find_radius(fam, budget, 1000.0, 10000.0, 10.0)
    assert err.value.margins["tract_depth"] < 0
    assert err.value.margins["anchor_derivative"] > 0  # condition (1) is easy here


def test_anchor_derivative_condition_arithmetic(fam):
    # at R = 100: |inv0'(R)| = 1/100 > 100^-1.1 ~ 0.006310
    lhs = abs(complex(np.asarray(fam.inv0_deriv(100.0 + 0j)).item()))
    rhs = 100.0 ** -1.1
    assert lhs == pytest.approx(0.01, rel=1e-12)
    assert rhs == pytest.approx(0.006310, rel=1e-4)
    assert lhs > rhs


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

def test_build_squares_corners():
    spec = td.build_squares(100.0, 25.0)
    assert spec.outer.bounds() == (50.0, 150.0, -50.0, 50.0)
    assert spec.core.bounds() == (75.0, 125.0, -25.0, 25.0)
    assert spec.outer.diam == pytest.approx(141.421, abs=1e-3)


def test_build_squares_boundary_case_flagged():
    spec = td.build_squares(100.0, 25.0)
    assert spec.inner.bounds() == spec.core.bounds()
    assert spec.inner_degenerate
    assert not td.build_squares(100.0, 20.0).inner_degenerate


def test_build_squares_invalid():
    with pytest.raises(td.GeometryError):
        td.build_squares(100.0, 26.0)
    with pytest.raises(td.GeometryError):
        td.build_squares(100.0, 0.0)


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def test_distortion_single_disk_value():
    d = td.distortion_constant(100.0, 1.0)
    assert d.rho == pytest.approx(0.714249, abs=1e-6)
    assert d.c == pytest.approx(73.47, abs=0.01)


def test_distortion_large_anchor_limit():
    d = td.distortion_constant(1e9, 1.0)
    assert d.c == pytest.approx(67.94, abs=0.01)


def test_distortion_geometry_error():
    with pytest.raises(td.GeometryError):
        td.distortion_constant(1.2, 1.0)


@pytest.mark.parametrize("anchor", [100.0, 4000.0])
def test_distortion_chained_never_worse(anchor):
    single = td.distortion_constant(anchor, 1.0)
    chained = td.distortion_constant(anchor, 1.0, mode="chained", subdivisions=4)
    assert chained.c <= single.c


# ---------------------------------------------------------------------------
# anchor line
# ---------------------------------------------------------------------------

def test_anchor_line_values(fam):
    line = td.anchor_line(fam, 100.0, inset=25.0)
    assert line.real_part == pytest.approx(math.log(100.0), rel=1e-12)
    assert line.c0 == pytest.approx(0.693147, abs=1e-6)
    assert line.growth_bound == pytest.approx(58.44, abs=0.01)
    assert line.cor_margin > 0
    assert line.conj_symmetric


def test_anchor_line_depth_failure_is_reported_not_raised(fam):
    line = td.anchor_line(fam, 100.0, inset=25.0)
    # ln 100 < ln R0 + 50: the depth condition fails at this inset
    assert line.depth_margin < 0


def test_anchor_preimages_on_one_line(fam):
    line = td.anchor_line(fam, 1000.0, inset=1.0, s_check=1000)
    spread = max(abs(p.real - line.real_part) for p in line.sample_points)
    assert spread <= 1e-9 * (1.0 + abs(line.real_part))


# ---------------------------------------------------------------------------
# cells and containment
# ---------------------------------------------------------------------------

def test_cell_image_center_closed_form(fam):
    spec = td.build_squares(100.0, 25.0)
    dist = td.distortion_constant(100.0, 1.0)
    cell = td.cell_image(fam, 0, 64, spec, dist)
    expect = complex(np.log(np.log(100.0 + 0j) + 2j * math.pi * 64))
    assert cell.center == pytest.approx(expect, rel=1e-12)
    assert cell.center.real == pytest.approx(5.9968, abs=1e-4)
    assert cell.center.imag == pytest.approx(1.5593, abs=1e-4)


def test_cell_image_outside_verdict(fam):
    spec = td.build_squares(100.0, 25.0)
    dist = td.distortion_constant(100.0, 1.0)
    budget = td.GeometryBudget(epsilon=0.1, inset=25.0)
    cell = td.cell_image(fam, 0, 64, spec, dist, budget=budget)
    assert cell.center_re < spec.outer.re_lo
    assert cell.verdict == "outside"


def test_cell_image_past_exact_range_raises(fam):
    # 2^53 + 2 is a float-exact integer, but |s| past 2^53 has no exact cell
    spec = td.build_squares(100.0, 25.0)
    dist = td.distortion_constant(100.0, 1.0)
    with pytest.raises(td.ConstructionError):
        td.cell_image(fam, 0, 2 ** 53 + 2, spec, dist)
    with pytest.raises(td.ConstructionError):
        td.cell_image(fam, 0, -(2 ** 53 + 2), spec, dist)


def _boundary_points_per_point(rect, n):
    """Reference: each boundary sample placed on its edge one at a time."""
    ts = np.arange(n, dtype=float) * (rect.perimeter / n)
    w, h = rect.width, rect.height
    pts = np.empty(n, dtype=complex)
    for i, t in enumerate(ts):
        if t < w:
            pts[i] = complex(rect.re_lo + t, rect.im_lo)
        elif t < w + h:
            pts[i] = complex(rect.re_hi, rect.im_lo + (t - w))
        elif t < 2 * w + h:
            pts[i] = complex(rect.re_hi - (t - w - h), rect.im_hi)
        else:
            pts[i] = complex(rect.re_lo, rect.im_hi - (t - 2 * w - h))
    return pts


@pytest.mark.parametrize("anchor", [3.3, 4.0, 12.0, 37.5, 4000.0, 1e5])
def test_boundary_points_bit_identical_to_per_point_reference(anchor):
    for inset in (0.5, anchor / 8.0):
        spec = td.build_squares(anchor, inset)
        for rect in (spec.outer, spec.inner, spec.core):
            for n in (64, 256, 777, 1000, 2560, 4096):
                pts = rect.boundary_points(n)
                assert pts.tobytes() == _boundary_points_per_point(rect, n).tobytes()


def test_universal_diameter_bound_inconsistent_at_small_anchor(fam):
    # the distortion-only bound dwarfs the square itself at this scale;
    # admissibility is rescued by the family-sharp per-cell bound
    spec = td.build_squares(100.0, 25.0)
    dist = td.distortion_constant(100.0, 1.0)
    bound = universal_cell_diameter_bound(spec, dist, fam.ln_r0)
    assert bound == pytest.approx(math.sqrt(2) * 100 * 4 * math.pi * dist.c / 99, rel=1e-12)
    assert bound > spec.outer.min_side
    cell = td.cell_image(fam, 0, 64, spec, dist)
    assert cell.diam_bound < bound


def test_containment_fast_path_inside(small):
    # pick an index well inside the admissible window
    cell = td.cell_image(small.family, 0, 5000, small.spec, small.dist)
    verdict = td.containment_test(small.family, cell, small.spec, small.budget,
                                  small.dist)
    assert verdict == "inside"
    assert cell.measured_diam is None  # no sampling needed


def test_containment_sampled_agrees_with_dense_recheck(small):
    # the first admissible index sits near the window edge
    for s in (64, 65, 66):
        cell = td.cell_image(small.family, 0, s, small.spec, small.dist)
        v = td.containment_test(small.family, cell, small.spec, small.budget,
                                small.dist)
        dense = td.containment_recheck(small.family, 0, s, small.spec,
                                       small.budget, density=10)
        if v == "inside":
            assert dense == "inside"
        else:
            assert dense in ("outside", "borderline")


def test_measured_diameter_below_bounds(small):
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5, boundary_samples=128)
    spec, fam = small.spec, small.family
    pts = spec.outer.boundary_points(128)
    for s in (65, 200, 40000):
        cell = td.cell_image(fam, 0, s, spec, small.dist)
        first = np.asarray(fam.inv0(pts)) + TWO_PI * 1j * s
        imgs = np.asarray(fam.inv0(first))
        measured = float(np.max(np.abs(imgs[:, None] - imgs[None, :])))
        assert measured <= cell.diam_bound
        assert measured <= cell.diam_bound_universal


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_solve_s_window_small_anchor(fam, small):
    win = td.solve_s_window(fam, 0, small.spec, budget=small.budget, sign=1)
    lo, hi = win.s_bounds
    assert 64.0 <= lo <= 65.0          # asymptotic estimate is e^6 / 2pi ~ 64.2
    assert hi == pytest.approx(1.045e7, rel=1e-3)
    # endpoints verified by explicit cells
    inside = td.cell_image(fam, 0, math.ceil(lo), small.spec, small.dist,
                           budget=small.budget)
    outside = td.cell_image(fam, 0, math.floor(lo) - 1, small.spec, small.dist,
                            budget=small.budget)
    assert inside.verdict == "inside"
    assert outside.verdict == "outside"


def test_solve_s_window_empty_for_large_u(fam, small):
    # |2 pi u| > R/2 + pi/2 leaves no room for the image column
    assert td.solve_s_window(fam, 2, small.spec, budget=small.budget, sign=1) is None


def test_solve_s_window_empty_under_huge_margin(fam, small):
    win = td.solve_s_window(fam, 0, small.spec, budget=small.budget, sign=1,
                            margin=6.5)
    assert win is None


def _enclosure_admissible(model, env, rect, margin, u, sign, sigma):
    """The enclosure predicate of the window solver, vectorized over sigma."""
    sigma = np.asarray(sigma, dtype=float)
    valid = sigma > env.sigma_valid_min
    s = np.where(valid, sigma, env.sigma_valid_min + 1.0)
    re_lo, re_hi, im_lo, im_hi = model.cell_enclosure(u, sign, s, env)
    return valid & ((re_lo >= rect.re_lo + margin) & (re_hi <= rect.re_hi - margin)
                    & (im_lo >= rect.im_lo + margin) & (im_hi <= rect.im_hi - margin))


def _ulps(x, n, direction):
    for _ in range(n):
        x = math.nextafter(x, direction)
    return x


def _columns(spec):
    """Every column u that can have room in Q, and two more past each end."""
    return range(math.floor(spec.outer.im_lo / TWO_PI) - 3,
                 math.ceil(spec.outer.im_hi / TWO_PI) + 4)


@pytest.mark.parametrize("margin", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("anchor", [12.0, 30.0, 100.0, 4000.0])
def test_closed_form_windows_are_tight_and_complete(fam, anchor, margin):
    """Certified endpoints, at most 4 ulps of slack, None exactly when a
    dense sigma grid finds no admissible point."""
    spec = td.build_squares(anchor, 0.5)
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5, margin=margin)
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    rect = spec.outer
    grid = np.linspace(rect.re_lo - 2.0, rect.re_hi + 2.0, 4097)
    n_windows = 0
    for sign in (1, -1):
        for u in _columns(spec):
            win = td.solve_s_window(fam, u, spec, budget=budget, sign=sign, margin=margin)

            def ok(sigma):
                return bool(_enclosure_admissible(model, env, rect, margin, u, sign, sigma))

            on_grid = bool(np.any(_enclosure_admissible(model, env, rect, margin,
                                                        u, sign, grid)))
            assert (win is None) == (not on_grid), (u, sign)
            if win is None:
                continue
            n_windows += 1
            assert ok(win.sigma_lo) and ok(win.sigma_hi)
            below = _ulps(win.sigma_lo, 4, -math.inf)
            assert not ok(below) or below <= env.sigma_valid_min
            assert not ok(_ulps(win.sigma_hi, 4, math.inf))
    assert n_windows > 0


def _solve_s_window_per_column(family, u, spec, margin, sign):
    """Reference: the window of one column by its own closed forms and one
    scalar enclosure test per endpoint step."""
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    target = spec.outer

    def admissible(sigma):
        if sigma <= env.sigma_valid_min:
            return False
        re_lo, re_hi, im_lo, im_hi = model.cell_enclosure(u, sign, sigma, env)
        return (re_lo >= target.re_lo + margin and re_hi <= target.re_hi - margin
                and im_lo >= target.im_lo + margin and im_hi <= target.im_hi - margin)

    def certify(sigma, inward):
        for _ in range(_ENDPOINT_ULPS + 1):
            if admissible(sigma):
                return sigma
            sigma = math.nextafter(sigma, inward)
        return None

    ln_b = math.log(env.b)
    x = target.re_lo + margin
    y = target.re_hi - margin
    mid = TWO_PI * u + sign * 0.5 * math.pi
    delta = min(mid - (target.im_lo + margin), (target.im_hi - margin) - mid)
    if y <= ln_b or delta <= 0.0:
        return None
    sigma_hi = y + math.log1p(-env.b * math.exp(-y))
    sigma_lo = max(env.sigma_valid_min, float(np.logaddexp(x, ln_b)))
    if delta < 0.5 * math.pi:
        sigma_lo = max(sigma_lo, ln_b + math.log1p(1.0 / math.sin(delta)))
    if sigma_hi <= sigma_lo:
        return None
    lo, hi = certify(sigma_lo, math.inf), certify(sigma_hi, -math.inf)
    if lo is None or hi is None or hi <= lo:
        raise td.NumericError(f"u={u}, sign={sign}")
    return SigmaWindow(u=int(u), sign=int(sign), sigma_lo=lo, sigma_hi=hi)


@pytest.mark.parametrize("margin", [0.0, 0.5])
@pytest.mark.parametrize("anchor", [3.3, 4.0, 12.0, 100.0, 4000.0, 1e5])
@pytest.mark.parametrize("lam", [1.0, 0.5 + 0.5j])
def test_window_solve_matches_per_column_reference(lam, anchor, margin):
    """One solve over all columns of a sign gives every column's window bit
    for bit, none where there is no room, as does the one-column view; the
    columns come in at most three blocks: two edge columns and the block
    between them."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    inset = 0.5 if anchor < 1000 else 3.0
    spec = td.build_squares(anchor, inset)
    budget = td.GeometryBudget(inset=inset, margin=margin)
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    n_windows = 0
    for sign in (1, -1):
        us = _columns(spec)
        blocks = _sigma_windows(model, env, spec.outer, margin, sign)
        assert len(blocks) <= 3
        assert all(b[1] == b[0] for b in blocks[:1] + blocks[2:])
        wins = [None] * len(us)
        for u_lo, u_hi, lo, hi in blocks:
            for u in range(u_lo, u_hi + 1):
                wins[u - us.start] = SigmaWindow(u=u, sign=sign, sigma_lo=lo, sigma_hi=hi)
        # every column up to anchor 4000; at 1e5 (31,834 columns) both ends and a stride
        picks = range(len(us)) if len(us) <= 2000 else sorted(
            {*range(40), *range(40, len(us) - 40, 97), *range(len(us) - 40, len(us))})
        for i in picks:
            ref = _solve_s_window_per_column(fam, us[i], spec, margin, sign)
            assert wins[i] == ref, (us[i], sign)
            assert td.solve_s_window(fam, us[i], spec, budget=budget, sign=sign) == ref
            if ref is not None:
                assert type(ref.sigma_lo) is type(wins[i].sigma_lo) is float
        assert wins[0] is None and wins[-1] is None
        n_windows += sum(w is not None for w in wins)
    # below anchor 12 a margin of 0.5 leaves no column any room
    assert (n_windows > 0) == (margin == 0.0 or anchor >= 12.0)


def _count_calls(monkeypatch, cls, name):
    calls = []
    method = getattr(cls, name)

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


def test_build_g_solves_each_sign_once(fam, monkeypatch):
    """The tail model's envelope is computed once per build_G, whatever the
    number of columns, and the window endpoints of one sign take one
    cell_enclosure call plus at most one per inward ulp step."""
    envelopes = _count_calls(monkeypatch, ExpTailModel, "envelope")
    enclosures = _count_calls(monkeypatch, ExpTailModel, "cell_enclosure")
    counts = {}
    for anchor in (100.0, 4000.0):
        envelopes.clear()
        enclosures.clear()
        spec = td.build_squares(anchor, 3.0)
        gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=3.0))
        counts[anchor] = (sum(run.n_columns for run in gset.runs), len(envelopes),
                          len(enclosures))
    assert counts[100.0][0] < 100 < 1000 < counts[4000.0][0]
    assert counts[100.0][1] == counts[4000.0][1] == 1
    assert all(n <= 2 * 2 * (1 + _ENDPOINT_ULPS) for _, _, n in counts.values())


# ---------------------------------------------------------------------------
# build_G
# ---------------------------------------------------------------------------

def test_build_g_empty_below_threshold(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(3.0, 0.5)
    g = td.build_G(fam, 3.0, spec, budget, mode="enumerate")
    assert g.is_empty()


def test_build_g_tail_large_anchor_is_segments_only(fam):
    """At anchor 4000 G holds one run per sign, shared by all 637 columns
    of that sign and spanning sigma from R/2 to 3R/2."""
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    spec = td.build_squares(4000.0, 3.0)
    g = td.build_G(fam, 4000.0, spec, budget, mode="tail")
    assert [(run.s_lo > 0, run.n_columns) for run in g.runs] == [(False, 637), (True, 637)]
    for run in g.runs:
        assert abs(math.log(abs(run.s_hi)) - math.log(abs(run.s_lo))) == pytest.approx(
            4000.0, abs=0.1)


@pytest.mark.parametrize("anchor, inset", [(30.0, 0.5), (4000.0, 3.0)])
def test_certificate_past_2_53_does_not_depend_on_mode(fam, anchor, inset):
    """Every window passes 2^53 at these anchors; the enumerate-mode
    certificate is the tail-mode one field for field, apart from `mode`."""
    reports = {}
    for mode in ("enumerate", "tail"):
        cert = td.certify_dim_gt_one(fam, anchor=anchor, epsilon=0.1, inset=inset, mode=mode)
        reports[mode] = cert.to_json_dict()
        assert reports[mode].pop("mode") == mode
        assert reports[mode]["diagnostics"]["n_explicit"] == 0
    assert reports["enumerate"] == reports["tail"]


def test_build_g_enumerate_pins_edge_rescues(mini):
    """The sampled fallback admits cells just past the closed-form windows."""
    assert _letter_runs(mini.gset) == [(0, -64, -2), (0, 2, 64)]
    win = td.solve_s_window(mini.family, 0, mini.spec, budget=mini.budget, sign=1)
    assert math.floor(win.s_bounds[1]) == 63
    fam = td.normalize_family(td.exponential_family(0.5 + 0.5j, math.e))
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5, margin=0.0)
    g = td.build_G(fam, 8.0, td.build_squares(8.0, 0.5), budget, mode="enumerate")
    assert _letter_runs(g) == [(0, -25902, -9), (0, 9, 25903)]


def _letter_runs(gset):
    """Signed (u, s_lo, s_hi) runs of all letters, column by column."""
    return sorted((u, run.s_lo, run.s_hi) for run in gset.runs
                  for u in range(run.u_lo, run.u_hi + 1))


def _merged(runs):
    merged = []
    for u, a, b in sorted(runs):
        if merged and merged[-1][0] == u and a <= merged[-1][2] + 1:
            merged[-1] = (u, merged[-1][1], max(b, merged[-1][2]))
        else:
            merged.append((u, a, b))
    return merged


def _letter_runs_per_column(fam, spec, budget):
    """Reference from each column's own window solve: its signed runs.
    Past 2^53 a window holds the integers of its sigma range.  Else it
    holds [ceil(s_lo), floor(s_hi)] and the letters of the two edge bands,
    ceil((2*pi + 2b) / (2*pi)) + 2 indices deep, that `_edge_letters`
    admits for that column alone."""
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    dist = _distortion_or_unavailable(spec.anchor, fam.ln_r0)
    widen = math.ceil((TWO_PI + 2.0 * env.b) / TWO_PI) + 2
    runs = []
    for sign in (1, -1):
        for u in _columns(spec):
            win = _solve_s_window_per_column(fam, u, spec, budget.margin, sign)
            if win is None:
                continue
            s_lo, s_hi = win.s_bounds
            if s_hi > 2 ** 53:
                s1, s2 = tractgeom._sigma_run(win.sigma_lo, win.sigma_hi)
                runs += [(u, *sorted((sign * s1, sign * s2)))] if s1 <= s2 else []
                continue
            lo, hi = math.ceil(s_lo), math.floor(s_hi)
            bands = np.r_[max(1, math.floor(s_lo) - widen):lo,
                          hi + 1:min(math.ceil(s_hi) + widen, 2 ** 53) + 1]
            runs += [(u, s, s) for s in tractgeom._edge_letters(fam, model, env, spec, budget,
                                                                dist, u, sign, bands)]
            runs += [(u, *sorted((sign * lo, sign * hi)))] if hi >= lo else []
    return _merged(runs)


def _check_runs_in_both_modes(lam, anchor, inset, margin):
    """G is the same in both modes, and its runs hold, column by column,
    the letters of each column's own window solve and edge bands."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    budget = td.GeometryBudget(epsilon=0.1, inset=inset, margin=margin)
    spec = td.build_squares(anchor, inset)
    enum = td.build_G(fam, anchor, spec, budget, mode="enumerate")
    tail = td.build_G(fam, anchor, spec, budget, mode="tail", collar=-5)
    assert tail == enum
    assert _letter_runs(enum) == _letter_runs_per_column(fam, spec, budget)


@pytest.mark.parametrize("anchor", [8.0, 10.0, 12.0])
@pytest.mark.parametrize("margin", [0.0, 0.3])
def test_tail_letters_equal_enumerate_letters(anchor, margin):
    """Float-exact windows with edge-band rescues."""
    _check_runs_in_both_modes(1.0, anchor, 0.5, margin)


@pytest.mark.parametrize("lam, anchor, inset, margin", [
    (1.0, 30.0, 0.5, 0.0), (1.0, 30.0, 0.5, 0.3), (1.0, 4000.0, 3.0, 0.0),
    (1.0, 4000.0, 3.0, 0.3),
    # the two edge columns of each sign get windows of their own here
    (0.01, 9.5, 0.5, 0.0)])
def test_runs_past_2_53_and_edge_windows_equal_per_column_solves(lam, anchor, inset, margin):
    """Windows past 2^53, one run per block of columns, and edge columns
    whose window differs from the shared one."""
    _check_runs_in_both_modes(lam, anchor, inset, margin)


def test_mini_g_structure(mini):
    assert mini.gset.n_letters > 50
    assert {u for r in mini.gset.runs for u in range(r.u_lo, r.u_hi + 1)} == {0}
    # ranks come out sorted by (u, s) in a single column
    u, s = mini.gset.letters(np.arange(mini.gset.n_letters))
    pairs = list(zip(u.tolist(), s.tolist()))
    assert pairs == sorted(pairs)


def test_gset_letter_ranks(mini):
    """Every rank of mini maps to its letter, run by run, column by
    column, s by s."""
    expected = [(u, s) for r in mini.gset.runs for u in range(r.u_lo, r.u_hi + 1)
                for s in range(r.s_lo, r.s_hi + 1)]
    u, s = mini.gset.letters(np.arange(mini.gset.n_letters))
    assert list(zip(u.tolist(), s.tolist())) == expected
    assert all(letter in mini.gset for letter in expected)
    assert (0, 1) not in mini.gset and (1, 2) not in mini.gset


@pytest.mark.parametrize("anchor", [12.0, 30.0, 4000.0])
def test_gset_letter_ranks_of_any_size(fam, anchor):
    """The ranks around each run's start and end and its column seams map
    to their letters at anchors 12 (int64), 30 (ranks past 2^63) and 4000
    (indices of 2,600 digits), and drawn ranks lie in [0, n_letters)."""
    inset = 3.0 if anchor == 4000.0 else 0.5
    spec = td.build_squares(anchor, inset)
    gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=inset))
    ranks, expected, start = [], [], 0
    for r in gset.runs:
        for col in (0, 1, r.n_columns - 1):
            for off in (0, 1, r.length - 1):
                ranks.append(start + col * r.length + off)
                expected.append((r.u_lo + col, r.s_lo + off))
        start += r.n_columns * r.length
    u, s = gset.letters(ranks)
    assert list(zip(u.tolist(), s.tolist())) == expected
    assert all(letter in gset for letter in expected)
    assert (u.dtype == np.int64) == (anchor == 12.0)
    drawn = gset.random_ranks(np.random.default_rng(1), 500).tolist()
    assert all(0 <= rank < gset.n_letters for rank in drawn) and len(set(drawn)) == 500


def test_min_cell_gap_positive(mini):
    rep = td.min_cell_gap(mini.family, mini.gset, mini.spec)
    assert rep.min_gap > 0
    assert rep.column_separation > 0


def test_min_cell_gap_with_letters_below_envelope_validity():
    """lam = 0.01, R0 = 1.2, anchor 4: G holds letters with e^sigma <= 2b,
    where the per-letter envelopes are undefined; the closed-form bounds
    still hold."""
    fam = td.normalize_family(td.exponential_family(0.01, 1.2))
    budget = td.GeometryBudget(inset=0.5, margin=0.0)
    spec = td.build_squares(4.0, 0.5)
    gset = td.build_G(fam, 4.0, spec, budget, mode="enumerate")
    env = fam.tail_model().envelope(spec.outer.bounds())
    lowest = min(min(abs(r.s_lo), abs(r.s_hi)) for r in gset.runs)
    assert lowest <= math.exp(env.sigma_valid_min) / TWO_PI
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.min_cell_gap(fam, gset, spec)
    assert 0 < rep.min_gap < math.inf
    assert 0 < rep.column_separation < math.inf
    assert rep.n_adjacent_checked == sum(r.n_columns * (r.s_hi - r.s_lo) for r in gset.runs)


def test_min_cell_gap_past_the_float_range(fam):
    """At anchor 4000, 2*pi*|s| passes the float range: the gap report
    raises ConstructionError, not OverflowError."""
    spec = td.build_squares(4000.0, 3.0)
    gset = td.build_G(fam, 4000.0, spec, td.GeometryBudget(inset=3.0))
    with pytest.raises(td.ConstructionError, match="float range"):
        td.min_cell_gap(fam, gset, spec)


def _brute_column_separation(fam, gset, spec):
    """The least gap between the imaginary extents of adjacent columns,
    each the min and max of atan2(q + 2*pi*s, p) + 2*pi*u over the run
    ends s, q = arg(corner - c) - Im c at the four corners of Q, and p =
    ln|z - c| - Re c at the nearest and farthest points z of Q."""
    c, rect = fam.log_lam, spec.outer
    corners = [complex(x, y) for x in (rect.re_lo, rect.re_hi) for y in (rect.im_lo, rect.im_hi)]
    nearest = complex(min(max(c.real, rect.re_lo), rect.re_hi),
                      min(max(c.imag, rect.im_lo), rect.im_hi))
    ps = [math.log(abs(nearest - c)) - c.real, math.log(max(abs(z - c) for z in corners)) - c.real]
    qs = [math.atan2(z.imag - c.imag, z.real - c.real) - c.imag for z in corners]
    extents = []
    for r in gset.runs:
        angles = [math.atan2(q + TWO_PI * s, p) for p in ps for q in qs for s in (r.s_lo, r.s_hi)]
        extents.extend((min(angles) + TWO_PI * u, max(angles) + TWO_PI * u)
                       for u in range(r.u_lo, r.u_hi + 1))
    extents.sort()
    return min(b_lo - a_hi for (_, a_hi), (b_lo, _) in zip(extents, extents[1:]))


@pytest.mark.parametrize("sign", [1, -1])
def test_min_cell_gap_column_extents_of_one_sign(fam, sign):
    """G's of one sign at anchor 12: columns u = -1, 0 at |s| near 1e7,
    where the images sit near +-pi/2 + 2*pi*u, then u = 1, 2 at |s| = 65..70,
    which lie further from it, so the gap between u = 0 and u = 1 is the
    least.  The column separation equals the brute-force one over the
    corners of Q and the run ends, bit for bit, so each sign's run ends
    enter the extents the right way round (with them swapped, a column's
    extent is mirrored and that gap widens)."""
    spec = td.build_squares(12.0, 0.5)
    runs = [RunBlock(-1, 0, 10 ** 7, 10 ** 7 + 1000), RunBlock(1, 2, 65, 70)]
    if sign < 0:
        runs = [RunBlock(r.u_lo, r.u_hi, -r.s_hi, -r.s_lo) for r in runs]
    gset = GSet(runs=tuple(sorted(runs)))
    rep = td.min_cell_gap(fam, gset, spec)
    assert 0 < rep.column_separation < math.inf
    assert rep.column_separation == _brute_column_separation(fam, gset, spec)


def test_containment_padding_past_half_side_is_borderline_outside():
    """lam = 0.01, R0 = e, anchor 4: the sampled padding of cells (0, +-1)
    and (0, +-2) exceeds half the side of Q, so sampling cannot certify
    them; they are outside and borderline, and G is built without them."""
    fam = td.normalize_family(td.exponential_family(0.01, math.e))
    budget = td.GeometryBudget(inset=0.5, margin=0.0)
    spec = td.build_squares(4.0, 0.5)
    dist = _distortion_or_unavailable(4.0, fam.ln_r0)
    for s in (1, 2, -1, -2):
        cell = td.cell_image(fam, 0, s, spec, dist)
        assert td.containment_test(fam, cell, spec, budget, dist) == "outside"
        assert cell.borderline and cell.delta_used > 0.5 * spec.outer.min_side
    gset = td.build_G(fam, 4.0, spec, budget, mode="enumerate", dist=dist)
    assert _letter_runs(gset) == [(0, -64, -3), (0, 3, 64)]


def _cells(fam, spec, u, ss, n=1024):
    """Boundary samples of cell(u, s) for each s: the cell's boundary is
    the image of the boundary of Q."""
    first = np.asarray(fam.inv0(spec.outer.boundary_points(n)))
    return [np.asarray(fam.inv0(first + TWO_PI * 1j * s)) + TWO_PI * 1j * u for s in ss]


def _sampled_distance(a, b):
    return float(np.min(np.abs(a[:, None] - b[None, :])))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(modulus=st.floats(0.01, 3.0), arg=st.floats(-math.pi, math.pi),
       r0=st.sampled_from([1.2, 2.0, math.e]), anchor=st.floats(3.3, 7.0),
       margin=st.sampled_from([0.0, 0.1, 0.3]))
def test_min_cell_gap_below_sampled_distances(modulus, arg, r0, anchor, margin):
    """Sampled boundary distances can only overstate a gap, so each closed-form
    bound must stay below them: min_gap below the distance of the first and
    the last consecutive pair of every run, column_separation below the gap
    between the sampled extents of the runs' end cells."""
    fam = td.normalize_family(td.exponential_family(cmath.rect(modulus, arg), r0))
    budget = td.GeometryBudget(inset=0.5, margin=margin)
    spec = td.build_squares(anchor, 0.5)
    gset = td.build_G(fam, anchor, spec, budget, mode="enumerate")
    if gset.is_empty():
        return
    rep = td.min_cell_gap(fam, gset, spec)
    assert rep.min_gap > 0 and rep.column_separation > 0
    extents = []
    for u, s_lo, s_hi in _letter_runs(gset):
        ends = [s_lo, s_lo + 1, s_hi - 1, s_hi] if s_hi > s_lo else [s_lo]
        c = _cells(fam, spec, u, ends)
        if s_hi > s_lo:
            assert rep.min_gap <= _sampled_distance(c[0], c[1])
            assert rep.min_gap <= _sampled_distance(c[2], c[3])
        im = np.imag(np.concatenate(c))
        extents.append((float(im.min()), float(im.max())))
    extents.sort()
    for (_, a_hi), (b_lo, _) in zip(extents, extents[1:]):
        assert rep.column_separation <= b_lo - a_hi


def test_tail_segments_bracket_enumeration(small):
    """Within one integer step, the analytic window endpoints match the
    small-|s| end of every column's run."""
    for u, s_lo, s_hi in _letter_runs(small.gset):
        sign = 1 if s_lo > 0 else -1
        analytic = td.solve_s_window(small.family, u, small.spec,
                                     budget=small.budget, sign=sign)
        lo, hi = analytic.s_bounds
        assert abs(min(abs(s_lo), abs(s_hi)) - math.ceil(lo - 1e-9)) <= 1


# ---------------------------------------------------------------------------
# level lines
# ---------------------------------------------------------------------------

def test_level_lines_small_anchor(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(12.0, 0.5)
    rep = td.trace_level_lines(fam, spec, budget)
    assert rep.curve_count >= rep.required_count
    assert rep.min_component_length >= rep.required_length
    assert all(m > 0 for m in rep.min_re_margins)


def test_level_lines_anchor_100(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=5.0)
    spec = td.build_squares(100.0, 5.0)
    rep = td.trace_level_lines(fam, spec, budget)
    assert rep.required_count == 7
    assert rep.curve_count >= 7
    assert rep.min_component_length >= 100.0 / 4.0 - 5.0


def test_level_lines_vertical_translation(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=5.0)
    spec = td.build_squares(100.0, 5.0)
    rep = td.trace_level_lines(fam, spec, budget)
    by_u = {t.u: t for t in rep.traces}
    t0, t1 = by_u[0], by_u[1]
    n = min(t0.points.size, t1.points.size)
    shift = t1.points[:n] - t0.points[:n]
    assert np.max(np.abs(shift - TWO_PI * 1j)) <= 1e-9 * TWO_PI


def test_sampled_fallback_pads_by_at_least_an_ulp_at_anchor_24(fam, monkeypatch):
    """lam = 1, R0 = e, inset 0.5, anchor 24, enumerate mode: the edge-band
    cells at sigma ~ 36 are narrower than an ulp of Q's coordinates and go
    to the sampled fallback.  Its padding is at least ulp(36), so no cell
    is admitted because its samples round onto the edge of Q."""
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(24.0, 0.5)
    ulp = math.ulp(max(abs(x) for x in spec.outer.bounds()))
    decided = []
    test = tractgeom.containment_test

    def spy(family, cell, *args, **kwargs):
        decided.append((test(family, cell, *args, **kwargs), cell.delta_used))
        return decided[-1][0]

    monkeypatch.setattr(tractgeom, "containment_test", spy)
    td.build_G(fam, 24.0, spec, budget, mode="enumerate")
    padded = [(v, d) for v, d in decided if d is not None]
    assert padded
    assert all(d >= ulp for _, d in padded)
