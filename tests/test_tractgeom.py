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
                                _sigma_windows)


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

# The per-cell decision `cell_verdicts` replaced, kept as its reference:
# `cell_image` and `containment_test`, reached through `_edge_letters`.

def _reference_cell_decision(fam, u, s, spec, budget):
    """(verdict, delta) of one cell by the per-cell path: an enclosure
    rounded one ulp outward, the center and Lipschitz bound from math.log,
    then the sampled fallback ("borderline" for an outside cell with the
    borderline flag; delta None where nothing was sampled)."""
    sign = 1 if s > 0 else -1
    sigma = math.log(TWO_PI) + math.log(abs(s))
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    lipschitz = float(np.exp(model.log_weight_bounds(sigma, env)[1]))
    enclosure = None
    if sigma > env.sigma_valid_min:
        re_lo, re_hi, im_lo, im_hi = map(float, model.cell_enclosure(u, sign, sigma, env))
        enclosure = (math.nextafter(re_lo, -math.inf), math.nextafter(re_hi, math.inf),
                     math.nextafter(im_lo, -math.inf), math.nextafter(im_hi, math.inf))
    v_s = complex(np.asarray(fam.inv0(complex(spec.anchor))).item()) + TWO_PI * 1j * s
    center = complex(np.asarray(fam.inv0(v_s)).item()) + TWO_PI * 1j * u
    rect, margin = spec.outer, budget.margin
    if not (rect.re_lo <= center.real <= rect.re_hi and rect.im_lo <= center.imag <= rect.im_hi):
        return "outside", None
    if enclosure is not None:
        e_lo, e_hi, f_lo, f_hi = enclosure
        if (e_lo >= rect.re_lo + margin and e_hi <= rect.re_hi - margin
                and f_lo >= rect.im_lo + margin and f_hi <= rect.im_hi - margin):
            return "inside", None
    if float(rect.dist_to_boundary(center)) - margin > lipschitz * rect.diam:
        return "inside", None
    n = budget.boundary_samples
    first = np.asarray(fam.inv0(rect.boundary_points(n))) + TWO_PI * 1j * s
    imgs = np.asarray(fam.inv0(first)) + TWO_PI * 1j * u
    delta = max(margin + lipschitz * (rect.perimeter / n),
                math.ulp(max(map(abs, rect.bounds()))))
    if delta > 0.5 * rect.min_side:
        return "borderline", delta
    if np.all(rect.contains(imgs, margin=delta)):
        return "inside", delta
    return ("borderline" if np.all(rect.contains(imgs)) else "outside"), delta


def _reference_edge_verdicts(fam, spec, budget, u, sign, ss):
    """Per unsigned index of ss, (verdict, delta) as `_edge_letters` decided
    it: the vectorized enclosure, then the per-cell decision for the cells
    it rejects whose center lies in Q."""
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    sigma = np.log(TWO_PI) + np.log(ss.astype(float))
    enclosed = tractgeom._enclosed(model, env, spec.outer, budget.margin, u, sign, sigma)
    base = complex(np.asarray(fam.inv0(complex(spec.anchor))).item())
    centers = np.asarray(fam.inv0(base + TWO_PI * 1j * (sign * ss.astype(float)))) \
        + TWO_PI * 1j * u
    return [("inside", None) if enc else ("outside", None) if not in_q
            else _reference_cell_decision(fam, u, int(sign * s), spec, budget)
            for s, enc, in_q in zip(ss, enclosed, spec.outer.contains(centers))]


def _reference_edge_letters(fam, spec, budget, u, sign, ss):
    return [int(sign * s) for s, (v, _) in
            zip(ss, _reference_edge_verdicts(fam, spec, budget, u, sign, ss)) if v == "inside"]


def _edge_bands(fam, spec, budget):
    """(u, sign, unsigned band indices) of every column, as `build_G` forms
    them: ceil((2*pi + 2b) / (2*pi)) + 2 indices on each side of each
    float-exact window."""
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    widen = math.ceil((TWO_PI + 2.0 * env.b) / TWO_PI) + 2
    for sign in (1, -1):
        for u_lo, u_hi, sigma_lo, sigma_hi in _sigma_windows(model, env, spec.outer,
                                                             budget.margin, sign):
            s_lo, s_hi = math.exp(sigma_lo) / TWO_PI, math.exp(sigma_hi) / TWO_PI
            assert s_hi <= 2 ** 53
            bands = np.r_[max(1, math.floor(s_lo) - widen):math.ceil(s_lo),
                          math.floor(s_hi) + 1:min(math.ceil(s_hi) + widen, 2 ** 53) + 1]
            for u in range(u_lo, u_hi + 1):
                yield u, sign, bands


@pytest.mark.parametrize("lam, anchor", [(1.0, 13.5), (1.0, 20.0), (1.0, 24.0), (0.01, 4.0)])
@pytest.mark.parametrize("margin", [0.0, 0.3])
def test_cell_verdicts_equal_the_per_cell_reference(lam, anchor, margin):
    """On every edge-band index of every column (R0 = e, inset 0.5), the
    verdict array and the paddings equal the per-cell decision's, bit for
    bit.  At lam = 1 some cells go to the sampled fallback; at lam = 0.01,
    anchor 4 the cells (0, +-1), (0, +-2) lie below envelope validity."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(anchor, 0.5)
    budget = td.GeometryBudget(inset=0.5, margin=margin)
    sampled = 0
    for u, sign, bands in _edge_bands(fam, spec, budget):
        verdicts, delta = td.cell_verdicts(fam, spec, budget, u, sign * bands)
        want = _reference_edge_verdicts(fam, spec, budget, u, sign, bands)
        assert verdicts.tolist() == [v for v, _ in want], (u, sign)
        np.testing.assert_array_equal(delta, [math.nan if d is None else d for _, d in want])
        sampled += sum(d is not None for _, d in want)
    assert sampled > 0 or lam != 1.0


def test_cell_image_center_closed_form(fam):
    """The center of cell(0, 64), g_{0,64}(R), at anchor 100."""
    center, _ = td.cylinder_eval(fam, [(0, 64)], 100.0 + 0j)
    expect = complex(np.log(np.log(100.0 + 0j) + 2j * math.pi * 64))
    assert center == pytest.approx(expect, rel=1e-12)
    assert center.real == pytest.approx(5.9968, abs=1e-4)
    assert center.imag == pytest.approx(1.5593, abs=1e-4)


def test_cell_image_outside_verdict(fam):
    """A center left of Q: outside, decided before any sample."""
    spec = td.build_squares(100.0, 25.0)
    budget = td.GeometryBudget(epsilon=0.1, inset=25.0)
    center, _ = td.cylinder_eval(fam, [(0, 64)], complex(spec.anchor))
    assert center.real < spec.outer.re_lo
    verdicts, delta = td.cell_verdicts(fam, spec, budget, 0, [64])
    assert verdicts.tolist() == ["outside"] and np.isnan(delta).all()


def test_cell_image_past_exact_range_raises(fam):
    # 2^53 + 2 is a float-exact integer, but |s| past 2^53 has no exact cell
    spec = td.build_squares(100.0, 25.0)
    budget = td.GeometryBudget(inset=25.0)
    for ss in ([2 ** 53 + 2], [64, -(2 ** 53 + 2)], [2 ** 70]):
        with pytest.raises(td.ConstructionError, match="2\\^53"):
            td.cell_verdicts(fam, spec, budget, 0, ss)


def _cell_lipschitz(fam, s, spec):
    """sup_Q |g'_{u,s}| <= e^hi of `log_weight_bounds`, the bound every
    cell verdict pads with."""
    model = fam.tail_model()
    sigma = np.log(TWO_PI) + np.log(float(abs(s)))
    return float(np.exp(model.log_weight_bounds(sigma, model.envelope(spec.outer.bounds()))[1]))


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


def _koebe_cell_diameter_bound(spec, ln_r0):
    """diam(Q) * 4*pi*C / (R - ln R0): the cell diameter bound from the Koebe
    constant C alone, which the construction does not use."""
    c = td.distortion_constant(spec.anchor, ln_r0).c
    return spec.outer.diam * 4.0 * math.pi * c / (spec.anchor - ln_r0)


def test_universal_diameter_bound_inconsistent_at_small_anchor(fam):
    # the distortion-only bound dwarfs the square itself at this scale;
    # the cell's closed-form Lipschitz bound does not
    spec = td.build_squares(100.0, 25.0)
    dist = td.distortion_constant(100.0, 1.0)
    bound = _koebe_cell_diameter_bound(spec, fam.ln_r0)
    assert bound == pytest.approx(math.sqrt(2) * 100 * 4 * math.pi * dist.c / 99, rel=1e-12)
    assert bound > spec.outer.min_side
    assert _cell_lipschitz(fam, 64, spec) * spec.outer.diam < bound


def test_containment_fast_path_inside(small):
    # an index well inside the admissible window: inside with no sampling
    verdicts, delta = td.cell_verdicts(small.family, small.spec, small.budget, 0, [5000])
    assert verdicts.tolist() == ["inside"] and np.isnan(delta).all()


def test_containment_sampled_agrees_with_dense_recheck(small):
    # the first admissible index sits near the window edge
    ss = [64, 65, 66]
    verdicts, _ = td.cell_verdicts(small.family, small.spec, small.budget, 0, ss)
    for s, v in zip(ss, verdicts):
        dense = td.containment_recheck(small.family, 0, s, small.spec,
                                       small.budget, density=10)
        if v == "inside":
            assert dense == "inside"
        else:
            assert dense in ("outside", "borderline")


def test_measured_diameter_below_bounds(small):
    """A cell's sampled diameter stays below lip * diam(Q), the bound the
    verdicts pad with, and below the Koebe bound."""
    spec, fam = small.spec, small.family
    pts = spec.outer.boundary_points(128)
    for s in (65, 200, 40000):
        first = np.asarray(fam.inv0(pts)) + TWO_PI * 1j * s
        imgs = np.asarray(fam.inv0(first))
        measured = float(np.max(np.abs(imgs[:, None] - imgs[None, :])))
        assert measured <= _cell_lipschitz(fam, s, spec) * spec.outer.diam
        assert measured <= _koebe_cell_diameter_bound(spec, fam.ln_r0)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_solve_s_window_small_anchor(fam, small):
    win = td.solve_s_window(fam, 0, small.spec, budget=small.budget, sign=1)
    lo, hi = win.s_bounds
    assert 64.0 <= lo <= 65.0          # asymptotic estimate is e^6 / 2pi ~ 64.2
    assert hi == pytest.approx(1.045e7, rel=1e-3)
    # endpoints verified by explicit cells
    verdicts, _ = td.cell_verdicts(fam, small.spec, small.budget, 0,
                                   [math.ceil(lo), math.floor(lo) - 1])
    assert verdicts.tolist() == ["inside", "outside"]


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
    ceil((2*pi + 2b) / (2*pi)) + 2 indices deep, that the per-cell
    reference decision admits for that column alone."""
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
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
            runs += [(u, s, s) for s in _reference_edge_letters(fam, spec, budget, u, sign,
                                                                bands)]
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


def test_cells_below_envelope_validity_are_certified_by_their_lipschitz_bound():
    """lam = 0.01, R0 = e, anchor 4: cells (0, +-1) and (0, +-2) have
    e^sigma <= 2b, so no enclosure, and the Koebe constant is 10386 here.
    Their closed-form Lipschitz bound puts them inside by the center +
    diameter test, before any sample, as the dense recheck rates them, and
    G holds them."""
    fam = td.normalize_family(td.exponential_family(0.01, math.e))
    budget = td.GeometryBudget(inset=0.5, margin=0.0)
    spec = td.build_squares(4.0, 0.5)
    env = fam.tail_model().envelope(spec.outer.bounds())
    ss = [1, 2, -1, -2]
    assert all(math.log(TWO_PI * abs(s)) <= env.sigma_valid_min for s in ss)
    verdicts, delta = td.cell_verdicts(fam, spec, budget, 0, ss)
    assert verdicts.tolist() == ["inside"] * 4 and np.isnan(delta).all()
    for s in ss:
        assert td.containment_recheck(fam, 0, s, spec, budget, density=40) == "inside"
    gset = td.build_G(fam, 4.0, spec, budget, mode="enumerate")
    assert _letter_runs(gset) == [(0, -64, -1), (0, 1, 64)]


def test_containment_padding_past_half_side_is_borderline_outside(small):
    """A cell whose sampled padding exceeds half the side of Q cannot be
    certified by sampling: a budget margin of 6.5 at anchor 12 (side 12)
    makes it borderline, so it is left out of G.  So does a margin of 7 at
    anchor 13.5 for cell (0, 136), whose center lies in Q but whose samples
    leave it (outside at margin 0)."""
    budget = td.GeometryBudget(inset=0.5, margin=6.5)
    center, _ = td.cylinder_eval(small.family, [(0, 5000)], complex(small.spec.anchor))
    assert small.spec.outer.contains(center)
    verdicts, delta = td.cell_verdicts(small.family, small.spec, budget, 0, [5000])
    assert verdicts.tolist() == ["borderline"]
    assert delta[0] > 0.5 * small.spec.outer.min_side
    spec = td.build_squares(13.5, 0.5)
    for margin, want in ((0.0, "outside"), (7.0, "borderline")):
        budget = td.GeometryBudget(inset=0.5, margin=margin)
        verdicts, delta = td.cell_verdicts(small.family, spec, budget, 0, [136])
        assert verdicts.tolist() == [want] and delta[0] > margin
    assert delta[0] > 0.5 * spec.outer.min_side


def _sharp_or_koebe_lipschitz(fam, s, spec):
    """Reference that the cell's Lipschitz bound may not exceed: min(sharp,
    Koebe).  sharp = 1 / ((2*pi*|s| - b) d_lo), above envelope validity
    (e^sigma > 2b) only; Koebe = |g'(R)| * C, the derivative at the anchor
    times the Koebe constant C (infinite below the Koebe range)."""
    model = fam.tail_model()
    env = model.envelope(spec.outer.bounds())
    sigma = math.log(TWO_PI) + math.log(abs(s))
    sharp = math.inf
    if sigma > env.sigma_valid_min:
        corr = env.b * np.exp(-sigma)
        sharp = float(np.exp(-(sigma + np.log1p(-corr)) - math.log(env.d_lo)))
    v_s = complex(np.asarray(fam.inv0(complex(spec.anchor))).item()) + TWO_PI * 1j * s
    deriv = abs(complex(np.asarray(fam.inv0_deriv(v_s)).item())
                * complex(np.asarray(fam.inv0_deriv(complex(spec.anchor))).item()))
    return min(sharp, deriv * tractgeom._distortion_or_unavailable(spec.anchor, fam.ln_r0).c)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(modulus=st.floats(0.01, 3.0), arg=st.floats(-math.pi, math.pi),
       r0=st.sampled_from([1.2, 2.0, math.e]), anchor=st.floats(3.3, 40.0),
       u=st.integers(-3, 3), s=st.integers(1, 10 ** 6), sign=st.sampled_from([1, -1]))
def test_cell_lipschitz_bounds_the_sampled_derivative(modulus, arg, r0, anchor, u, s, sign):
    """A cell's Lipschitz bound (e^hi of `log_weight_bounds`) is at least
    |g'| = 1 / (|xi_s(z)| |z - c|) at every point of an 80 x 80 grid of Q,
    formed by atan2 and hypot (1e-12 relative slack), and no larger than
    min(sharp, Koebe)."""
    fam = td.normalize_family(td.exponential_family(cmath.rect(modulus, arg), r0))
    spec = td.build_squares(anchor, 0.5)
    if math.log(fam.tail_model().envelope(spec.outer.bounds()).d_lo) <= fam.ln_r0:
        return  # the first-level image leaves H: no cells
    lip = _cell_lipschitz(fam, sign * s, spec)
    c, rect = fam.log_lam, spec.outer
    x, y = np.meshgrid(np.linspace(rect.re_lo, rect.re_hi, 80),
                       np.linspace(rect.im_lo, rect.im_hi, 80))
    dist = np.hypot(x - c.real, y - c.imag)
    xi = np.hypot(np.log(dist) - c.real,
                  np.arctan2(y - c.imag, x - c.real) - c.imag + TWO_PI * sign * s)
    assert float(np.max(1.0 / (xi * dist))) <= lip * (1.0 + 1e-12)
    assert lip <= _sharp_or_koebe_lipschitz(fam, sign * s, spec)


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


def _march_one_branch(family, r, u, re_stop, step):
    """Reference: the continuation of F_inv_u alone, on complex scalars, with
    the residual checked point by point (one march per branch)."""
    pts = []
    aborted = False
    diag = ""
    for direction in (1.0, -1.0):
        branch = []
        y = 0.0
        guard = 0
        while guard < 500_000:
            guard += 1
            zeta = complex(r, y)
            w = complex(np.asarray(family.inv0(zeta)).item()) + TWO_PI * 1j * u
            back = complex(np.asarray(family.lift(w)).item())
            if abs(back - zeta) > 1e-9 * (1.0 + abs(zeta)):
                aborted = True
                diag = (f"continuation residual {abs(back - zeta):.3g} at y={y:.6g} "
                        f"for u={u}")
                break
            branch.append(w)
            if w.real > re_stop:
                break
            dw = abs(complex(np.asarray(family.inv0_deriv(zeta)).item()))
            dy = step / max(dw, 1e-300)
            y += direction * dy
        if direction > 0:
            pts = branch[::-1]
        else:
            pts.extend(branch[1:])
    return np.asarray(pts, dtype=complex), aborted, diag


def _traced_branches(monkeypatch, family, anchor, inset):
    """Run trace_level_lines and return the shared march's arguments and
    every branch it cut from the march, (u, (points, aborted, diagnostic))."""
    march, branch = tractgeom._march_curve, tractgeom._branch_points
    args, branches = [], []

    def march_spy(family, *a):
        args.append(a)
        return march(family, *a)

    def branch_spy(family, shared, u):
        branches.append((u, branch(family, shared, u)))
        return branches[-1][1]

    monkeypatch.setattr(tractgeom, "_march_curve", march_spy)
    monkeypatch.setattr(tractgeom, "_branch_points", branch_spy)
    rep = td.trace_level_lines(family, td.build_squares(anchor, inset),
                               td.GeometryBudget(epsilon=0.1, inset=inset))
    monkeypatch.undo()
    assert len(args) == 1
    return rep, args[0], branches


def _assert_branches_match_reference(family, march_args, branches):
    r, re_stop, step = march_args
    for u, (pts, aborted, diag) in branches:
        ref_pts, ref_aborted, ref_diag = _march_one_branch(family, r, u, re_stop, step)
        assert pts.dtype == ref_pts.dtype and pts.shape == ref_pts.shape, u
        assert np.array_equal(pts.view(np.int64), ref_pts.view(np.int64)), u
        assert (aborted, diag) == (ref_aborted, ref_diag), u


@pytest.mark.parametrize("lam", [1.0, 0.3, 3.0, 0.5 + 0.5j, 1j, 0.01])
def test_shared_march_equals_per_branch_march(lam, monkeypatch):
    """Every branch cut from the shared march is the per-branch continuation
    bit for bit: points, abort flag and diagnostic, over anchors 6 to 400."""
    family = td.normalize_family(td.exponential_family(lam, math.e))
    for anchor in (6.0, 12.0, 30.0, 100.0, 400.0):
        _, march_args, branches = _traced_branches(monkeypatch, family, anchor, 0.5)
        assert len(branches) >= 5
        _assert_branches_match_reference(family, march_args, branches)


def _planted_family(bad):
    """exp with the lift perturbed by 1e-3 where bad(Im w) holds, so the
    continuation residual check fails there."""
    def lift(w):
        w = np.asarray(w, dtype=complex)
        return np.exp(w) + np.where(bad(w.imag), 1e-3, 0.0)

    cbs = td.UserCallbacks(plane_map=np.exp, lift=lift, lift_deriv=np.exp,
                           inv0=lambda z: np.log(np.asarray(z, dtype=complex)),
                           inv0_deriv=lambda z: 1.0 / np.asarray(z, dtype=complex))
    return td.normalize_family(td.user_family(cbs, r0=math.e))


@pytest.mark.parametrize("bad, cut_down", [
    # branch 0 leaves the band |Im w| <= 1 going up and going down
    (lambda im: (np.abs(im) > 1.0) & (np.abs(im) < math.pi), True),
    # branch 0 is cut going up only; branches 1 and above fail at y = 0
    (lambda im: im > 1.0, False),
], ids=["band", "above"])
def test_shared_march_cuts_branches_at_the_first_failing_point(bad, cut_down, monkeypatch):
    family = _planted_family(bad)
    rep, march_args, branches = _traced_branches(monkeypatch, family, 12.0, 0.5)
    _assert_branches_match_reference(family, march_args, branches)
    up, down = (w for _, _, w in tractgeom._march_curve(family, *march_args))
    by_u = dict(branches)
    pts, aborted, diag = by_u[0]
    assert aborted and diag.startswith("continuation residual 0.001 at y=")
    assert 0.5 < pts.imag.max() <= 1.0 < up.imag.max()
    if cut_down:
        assert down.imag.min() < -1.0 <= pts.imag.min() < -0.5
    else:
        assert np.array_equal(pts[pts.size - down.size + 1:], down[1:])
        assert all(by_u[u][0].size == 0 and by_u[u][1] for u in by_u if u > 0)
    assert [t.u for t in rep.traces if t.aborted] == [0]


def test_level_lines_march_once_for_all_branches(fam, monkeypatch):
    """At anchor 12 the seven branches share one march: one scalar inv0 call
    per march point (not one per point and branch) and one array lift call
    per branch and direction."""
    anchor, inset = 12.0, 0.5
    spec, budget = td.build_squares(anchor, inset), td.GeometryBudget(epsilon=0.1, inset=inset)
    inv0 = _count_calls(monkeypatch, td.MapFamily, "inv0")
    td.anchor_line(fam, anchor, inset)
    line_calls = len(inv0)
    inv0.clear()
    deriv = _count_calls(monkeypatch, td.MapFamily, "inv0_deriv")
    lift = _count_calls(monkeypatch, td.MapFamily, "lift")
    march, marches = tractgeom._march_curve, []

    def march_spy(*args):
        marches.append(march(*args))
        return marches[-1]

    monkeypatch.setattr(tractgeom, "_march_curve", march_spy)
    rep = td.trace_level_lines(fam, spec, budget)
    assert rep.curve_count >= rep.required_count
    (shared,) = marches
    n_points = sum(len(ys) for ys, _, _ in shared)
    assert n_points > 500
    assert all(np.ndim(z) == 0 for (z,) in inv0 + deriv)
    assert len(inv0) - line_calls == n_points
    assert len(deriv) == n_points - 2  # the last point of each direction takes no step
    assert len(lift) == 2 * 7
    assert all(np.ndim(w) == 1 for (w,) in lift)


def test_sampled_fallback_pads_by_at_least_an_ulp_at_anchor_24(fam, monkeypatch):
    """lam = 1, R0 = e, inset 0.5, anchor 24, enumerate mode: the edge-band
    cells at sigma ~ 36 are narrower than an ulp of Q's coordinates and go
    to the sampled fallback.  Its padding is at least ulp(36), so no cell
    is admitted because its samples round onto the edge of Q."""
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(24.0, 0.5)
    ulp = math.ulp(max(abs(x) for x in spec.outer.bounds()))
    paddings = []
    kernel = tractgeom._cell_verdicts

    def spy(*args):
        inside, borderline, delta = kernel(*args)
        paddings.extend(delta[~np.isnan(delta)].tolist())
        return inside, borderline, delta

    monkeypatch.setattr(tractgeom, "_cell_verdicts", spy)
    td.build_G(fam, 24.0, spec, budget, mode="enumerate")
    assert paddings
    assert all(d >= ulp for d in paddings)
