import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tractdim as td
from tractdim import cli, oracle, tractgeom
from tractdim.numerics import TWO_PI
from tractdim.loglift import MapFamily, TailEnvelope
from tractdim.tractgeom import (_ENDPOINT_ULPS, GSet, RadiusSearchError, Rect, RunBlock,
                                _sigma_windows)
from conftest import cells_inside, column_window, window_s_bounds


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


def test_anchor_derivative_margin_is_the_one_every_reader_reports(tmp_path):
    """On seeded random (lam, anchor), with both signs of the margin: the
    certificate's `eq1_margin` and the lemma report's
    `anchor_derivative_lower` margin are `anchor_derivative_margin` bit for
    bit, and `find_radius` passes a one-point scan at the anchor exactly
    when that margin is positive (the depth and size conditions hold
    there)."""
    rng = np.random.default_rng(2026)
    signs = set()
    for k in range(30):
        lam = cmath.rect(math.exp(rng.uniform(-25.0, 0.9)), rng.uniform(-math.pi, math.pi))
        anchor = float(rng.uniform(5.0, 100.0))
        fam = td.normalize_family(td.exponential_family(lam, math.e))
        budget = td.GeometryBudget(epsilon=0.1, inset=0.05)
        margin = tractgeom.anchor_derivative_margin(fam, anchor, budget.epsilon)
        signs.add(margin > 0)
        cert = td.certify_dim_gt_one(fam, anchor, budget)
        assert cert.diagnostics["eq1_margin"] == margin
        cfg = cli.load_config({"family": {"lambda_re": lam.real, "lambda_im": lam.imag},
                               "geometry": {"anchor": anchor, "inset": budget.inset}})
        out = tmp_path / f"lemmas-{k}.json"
        assert cli.cmd_lemmas(cfg, str(out)) == 0
        report = json.loads(out.read_text())
        assert report["checks"]["anchor_derivative_lower"]["margin"] == margin
        if margin > 0:
            assert td.find_radius(fam, budget, anchor, anchor, 1.0) == anchor
        else:
            with pytest.raises(RadiusSearchError) as err:
                td.find_radius(fam, budget, anchor, anchor, 1.0)
            assert err.value.margins["anchor_derivative"] == margin
            assert err.value.margins["tract_depth"] > 0 and err.value.margins["square_size"] > 0
    assert signs == {True, False}


def test_eq1_and_eq4_read_one_anchor_derivative(tmp_path, monkeypatch):
    """On seeded random (lam, R), R from 5 to 4000: shifting
    `anchor_derivative` by 1/8 shifts the lemma report's eq1 margin up and
    its eq4 margin down by the same float, so both read that one
    expression (the forms 1/|R - Log(lam)| and |inv0_deriv(R)| can differ
    in the last bit)."""
    real = tractgeom.anchor_derivative

    def shifted(family, anchor):
        return real(family, anchor) + 0.125

    monkeypatch.setattr(tractgeom, "anchor_derivative", shifted)
    monkeypatch.setattr(cli, "anchor_derivative", shifted)
    rng = np.random.default_rng(23)
    out = tmp_path / "lemmas.json"
    for _ in range(40):
        lam = cmath.rect(math.exp(rng.uniform(-25.0, 0.9)), rng.uniform(-math.pi, math.pi))
        anchor = float(np.exp(rng.uniform(math.log(5.0), math.log(4000.0))))
        cfg = cli.load_config({"family": {"lambda_re": lam.real, "lambda_im": lam.imag},
                               "geometry": {"anchor": anchor, "inset": 0.5}})
        assert cli.cmd_lemmas(cfg, str(out)) == 0
        checks = json.loads(out.read_text())["checks"]
        deriv = real(cfg.family, anchor) + 0.125
        assert checks["anchor_derivative_lower"]["margin"] == deriv - anchor ** -1.1
        assert checks["anchor_derivative_upper"]["margin"] \
            == 4.0 * math.pi / (anchor - cfg.family.ln_r0) - deriv


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
    assert _inner_degenerate(spec)
    assert not _inner_degenerate(td.build_squares(100.0, 20.0))


def _inner_degenerate(spec):
    """True when the inset square no longer strictly contains the core."""
    return not (spec.inner.re_lo < spec.core.re_lo and spec.inner.re_hi > spec.core.re_hi
                and spec.inner.im_lo < spec.core.im_lo and spec.inner.im_hi > spec.core.im_hi)


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


def test_anchor_line_depth_failure_is_reported_not_raised(fam):
    line = td.anchor_line(fam, 100.0, inset=25.0)
    # ln 100 < ln R0 + 50: the depth condition fails at this inset
    assert line.depth_margin < 0


# ---------------------------------------------------------------------------
# cells and containment
# ---------------------------------------------------------------------------

def test_cell_image_center_closed_form(fam):
    """The center of cell(0, 64), g_{0,64}(R), at anchor 100."""
    center, _ = td.cylinder_eval(fam, [(0, 64)], 100.0 + 0j)
    expect = complex(np.log(np.log(100.0 + 0j) + 2j * math.pi * 64))
    assert center == pytest.approx(expect, rel=1e-12)
    assert center.real == pytest.approx(5.9968, abs=1e-4)
    assert center.imag == pytest.approx(1.5593, abs=1e-4)


def test_cell_image_outside_verdict(fam):
    """A center left of Q: the cell's closed-form enclosure fails, the dense
    recheck rates it outside, and G leaves it out."""
    spec = td.build_squares(100.0, 25.0)
    budget = td.GeometryBudget(epsilon=0.1, inset=25.0)
    center, _ = td.cylinder_eval(fam, [(0, 64)], complex(spec.anchor))
    assert center.real < spec.outer.re_lo
    env = fam.envelope(spec.outer.bounds())
    sigma = np.array([math.log(TWO_PI * 64)])
    assert not tractgeom._enclosed(env, spec.outer, 0, 1, sigma).any()
    assert td.containment_recheck(fam, 0, 64, spec, density=10) == "outside"
    assert (0, 64) not in td.build_G(fam, 100.0, spec, budget)


def _cell_lipschitz(fam, s, spec):
    """sup_Q |g'_{u,s}| <= e^hi of `log_weight_bounds`, the closed-form
    Lipschitz bound of a cell."""
    sigma = np.log(TWO_PI) + np.log(float(abs(s)))
    return float(np.exp(fam.envelope(spec.outer.bounds()).log_weight_bounds(sigma)[1]))


def _min_side(rect):
    return min(rect.width, rect.height)


def _dist_to_boundary(rect, z):
    """Signed distance of the point z to the boundary of rect (positive inside)."""
    return min(z.real - rect.re_lo, rect.re_hi - z.real, z.imag - rect.im_lo, rect.im_hi - z.imag)


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


def _boundary_points_by_select(rect, n):
    """Reference: the edge of each sample chosen by two np.select passes."""
    ts = np.arange(n, dtype=float) * (rect.perimeter / n)
    w, h = rect.width, rect.height
    edges = [ts < w, ts < w + h, ts < 2 * w + h]
    pts = np.empty(n, dtype=complex)
    pts.real = np.select(edges, [rect.re_lo + ts, rect.re_hi, rect.re_hi - (ts - w - h)],
                         rect.re_lo)
    pts.imag = np.select(edges, [rect.im_lo, rect.im_lo + (ts - w), rect.im_hi],
                         rect.im_hi - (ts - 2 * w - h))
    return pts


@pytest.mark.parametrize("rect", [
    Rect(6.0, 18.0, -6.0, 6.0), Rect(3997.0, 4003.0, -3.0, 3.0),
    Rect(-0.3, 1e5, -1e-3, 7.1), Rect(1.0, 1.0 + 1e-9, -2.0, 40.0),  # thin rectangles
    Rect(0.1, 0.7, 0.2, 0.9)])
def test_boundary_points_edge_slices_equal_np_select(rect):
    """The edge-by-edge slice fill gives the np.select form bit for bit,
    including sizes where an edge holds one sample or none."""
    for n in (1, 2, 3, 7, 2560, 4096):
        assert (rect.boundary_points(n).tobytes()
                == _boundary_points_by_select(rect, n).tobytes())


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
    assert bound > _min_side(spec.outer)
    assert _cell_lipschitz(fam, 64, spec) * spec.outer.diam < bound


def test_containment_fast_path_inside(small):
    """An index well inside the admissible window: its closed-form
    enclosure lies in Q, with no sample, as the dense recheck agrees, and
    G holds it."""
    env = small.family.envelope(small.spec.outer.bounds())
    sigma = np.array([math.log(TWO_PI * 5000)])
    assert tractgeom._enclosed(env, small.spec.outer, 0, 1, sigma).all()
    assert td.containment_recheck(small.family, 0, 5000, small.spec, density=10) == "inside"
    assert (0, 5000) in small.gset


def test_containment_sampled_agrees_with_dense_recheck(small):
    """The first letters of the u = 0 run sit at its window edge (|s| from
    65): each is inside by the dense recheck, and the letters just below
    the window, which G leaves out, are not."""
    for s in (63, 64, 65, 66):
        dense = td.containment_recheck(small.family, 0, s, small.spec, density=10)
        assert ((0, s) in small.gset) == (s >= 65)
        assert dense == ("inside" if s >= 65 else "outside")


def test_measured_diameter_below_bounds(small):
    """A cell's sampled diameter stays below lip * diam(Q), its closed-form
    Lipschitz bound, and below the Koebe bound."""
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
    lo, hi = window_s_bounds(column_window(fam, 0, small.spec, sign=1))
    assert 64.0 <= lo <= 65.0          # asymptotic estimate is e^6 / 2pi ~ 64.2
    assert hi == pytest.approx(1.045e7, rel=1e-3)
    # endpoints verified by the dense recheck of explicit cells
    verdicts = [td.containment_recheck(fam, 0, s, small.spec, density=10)
                for s in (math.ceil(lo), math.floor(lo) - 1)]
    assert verdicts == ["inside", "outside"]


def test_solve_s_window_empty_for_large_u(fam, small):
    # |2 pi u| > R/2 + pi/2 leaves no room for the image column
    assert column_window(fam, 2, small.spec, sign=1) is None


def test_solve_s_window_empty_under_huge_margin(fam, small):
    """Q's half side is 6 at anchor 12: inside Q shrunk by 5.9 no column of
    either sign has room."""
    target = small.spec.outer.shrink(5.9)
    for sign in (1, -1):
        assert all(column_window(fam, u, small.spec, target=target, sign=sign) is None
                   for u in _columns(small.spec))


def _enclosure_admissible(env, rect, u, sign, sigma):
    """The enclosure predicate of the window solver, vectorized over sigma."""
    sigma = np.asarray(sigma, dtype=float)
    valid = sigma > env.sigma_valid_min
    s = np.where(valid, sigma, env.sigma_valid_min + 1.0)
    re_lo, re_hi, im_lo, im_hi = env.cell_enclosure(u, sign, s)
    return valid & ((re_lo >= rect.re_lo) & (re_hi <= rect.re_hi)
                    & (im_lo >= rect.im_lo) & (im_hi <= rect.im_hi))


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
    dense sigma grid finds no admissible point, for cells inside Q shrunk
    by the margin."""
    spec = td.build_squares(anchor, 0.5)
    env = fam.envelope(spec.outer.bounds())
    rect = spec.outer
    target = rect.shrink(margin)
    grid = np.linspace(rect.re_lo - 2.0, rect.re_hi + 2.0, 4097)
    n_windows = 0
    for sign in (1, -1):
        for u in _columns(spec):
            win = column_window(fam, u, spec, target=target, sign=sign)

            def ok(sigma):
                return bool(_enclosure_admissible(env, target, u, sign, sigma))

            on_grid = bool(np.any(_enclosure_admissible(env, target, u, sign, grid)))
            assert (win is None) == (not on_grid), (u, sign)
            if win is None:
                continue
            n_windows += 1
            sigma_lo, sigma_hi = win
            assert ok(sigma_lo) and ok(sigma_hi)
            below = _ulps(sigma_lo, 4, -math.inf)
            assert not ok(below) or below <= env.sigma_valid_min
            assert not ok(_ulps(sigma_hi, 4, math.inf))
    assert n_windows > 0


def _solve_s_window_per_column(family, u, spec, target, sign):
    """Reference: the window (sigma_lo, sigma_hi) of one column, for cells
    inside `target` under the envelope of Q, by its own closed forms and
    one scalar enclosure test per endpoint step."""
    env = family.envelope(spec.outer.bounds())

    def admissible(sigma):
        if sigma <= env.sigma_valid_min:
            return False
        re_lo, re_hi, im_lo, im_hi = env.cell_enclosure(u, sign, sigma)
        return (re_lo >= target.re_lo and re_hi <= target.re_hi
                and im_lo >= target.im_lo and im_hi <= target.im_hi)

    def certify(sigma, inward):
        for _ in range(_ENDPOINT_ULPS + 1):
            if admissible(sigma):
                return sigma
            sigma = math.nextafter(sigma, inward)
        return None

    ln_b = math.log(env.b)
    x, y = target.re_lo, target.re_hi
    mid = TWO_PI * u + sign * 0.5 * math.pi
    delta = min(mid - target.im_lo, target.im_hi - mid)
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
    return lo, hi


@pytest.mark.parametrize("margin", [0.0, 0.5])
@pytest.mark.parametrize("anchor", [3.3, 4.0, 12.0, 100.0, 4000.0, 1e5])
@pytest.mark.parametrize("lam", [1.0, 0.5 + 0.5j])
def test_window_solve_matches_per_column_reference(lam, anchor, margin):
    """One solve over all columns of a sign gives every column's window bit
    for bit, none where there is no room, as does the one-column view; the
    columns come in at most three blocks: two edge columns and the block
    between them.  The cells lie inside Q shrunk by the margin."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    inset = 0.5 if anchor < 1000 else 3.0
    spec = td.build_squares(anchor, inset)
    target = spec.outer.shrink(margin)
    env = fam.envelope(spec.outer.bounds())
    n_windows = 0
    for sign in (1, -1):
        us = _columns(spec)
        blocks = _sigma_windows(env, target, sign)
        assert len(blocks) <= 3
        assert all(b[1] == b[0] for b in blocks[:1] + blocks[2:])
        wins = [None] * len(us)
        for u_lo, u_hi, lo, hi in blocks:
            for u in range(u_lo, u_hi + 1):
                wins[u - us.start] = (lo, hi)
        # every column up to anchor 4000; at 1e5 (31,834 columns) both ends and a stride
        picks = range(len(us)) if len(us) <= 2000 else sorted(
            {*range(40), *range(40, len(us) - 40, 97), *range(len(us) - 40, len(us))})
        for i in picks:
            ref = _solve_s_window_per_column(fam, us[i], spec, target, sign)
            assert wins[i] == ref, (us[i], sign)
            assert column_window(fam, us[i], spec, target=target, sign=sign) == ref
            if ref is not None:
                assert type(ref[0]) is type(wins[i][0]) is float
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
    """The envelope of Q is computed once per build_G, whatever the number
    of columns, and the window endpoints of one sign take one
    cell_enclosure call plus at most one per inward ulp step."""
    envelopes = _count_calls(monkeypatch, MapFamily, "envelope")
    enclosures = _count_calls(monkeypatch, TailEnvelope, "cell_enclosure")
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


def test_build_g_is_the_integers_of_its_windows(mini):
    """G holds exactly the ints of its sigma windows: at lam = 1, R0 = 1.2,
    anchor 4 the u = 0 window holds |s| = 2..63, and at lam = 0.5 + 0.5i,
    R0 = e, anchor 8 it holds |s| = 10..25902, for both signs."""
    assert _letter_runs(mini.gset) == [(0, -63, -2), (0, 2, 63)]
    win = column_window(mini.family, 0, mini.spec, sign=1)
    assert tractgeom._sigma_run(*win) == (2, 63)
    fam = td.normalize_family(td.exponential_family(0.5 + 0.5j, math.e))
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    g = td.build_G(fam, 8.0, td.build_squares(8.0, 0.5), budget, mode="enumerate")
    assert _letter_runs(g) == [(0, -25902, -10), (0, 10, 25902)]


@pytest.mark.parametrize("margin, low", [(0.0, 11459935658), (0.1, 12665187612)])
def test_run_end_below_2_53_is_tight_when_the_other_end_is_past(fam, margin, low):
    """At lam = 1, R0 = e, inset 0.5, anchor 50 every window runs from
    below 2^53 to past it.  Its low end is the least int whose float sigma
    lies in the window: 10 (margin 0) and 11 (cells inside Q shrunk by
    0.1) more letters per column than a trim by a relative 2^-30 keeps.
    Its high end is trimmed."""
    spec = td.build_squares(50.0, 0.5)
    with cells_inside(margin):
        gset = td.build_G(fam, 50.0, spec, td.GeometryBudget(inset=0.5))
    assert gset.n_segments == 2
    for run in gset.runs:
        sign = 1 if run.s_lo > 0 else -1
        lo, hi = sorted((abs(run.s_lo), abs(run.s_hi)))
        sigma_lo, sigma_hi = column_window(fam, run.u_lo, spec, target=spec.outer.shrink(margin),
                                           sign=sign)
        assert lo == low
        assert _LOG_TWO_PI + math.log(lo - 1) < sigma_lo <= _LOG_TWO_PI + math.log(lo)
        assert hi > 2 ** 53 and _LOG_TWO_PI + math.log(hi) <= sigma_hi


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


def _exp_int_fraction(x, rounding):
    """Reference: e^x formed as a 53-bit mantissa times 2^k, rounded by
    `rounding` (math.ceil or math.floor) as an exact Fraction."""
    e = x / math.log(2.0)
    k = math.floor(e) - 52
    return rounding(int(2.0 ** (e - k)) * Fraction(2) ** k)


def _least_int(pred):
    """The least int s >= 1 with pred(s), pred monotone, by bisection."""
    lo, hi = 0, 1
    while not pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def _trim(x):
    """The inward trim of a run end past 2^53: a relative 2^-30, and from
    x = 2^18 on 16 ulps of x."""
    return max(2.0 ** -30, 16.0 * math.ulp(x))


def _window_ints(sigma_lo, sigma_hi):
    """Reference integer bounds of a sigma window, end by end: an end below
    2^53 by bisection on the float sigma test ln(2*pi) + math.log(s), an
    end past 2^53 trimmed inward by `_trim`, e^x formed as a Fraction."""
    log_two_pi = math.log(TWO_PI)
    x_lo, x_hi = sigma_lo - log_two_pi, sigma_hi - log_two_pi
    log_exact = math.log(2 ** 53)
    return (_least_int(lambda s: log_two_pi + math.log(s) >= sigma_lo) if x_lo < log_exact
            else _exp_int_fraction(x_lo + _trim(x_lo), math.ceil),
            _least_int(lambda s: log_two_pi + math.log(s) > sigma_hi) - 1 if x_hi < log_exact
            else _exp_int_fraction(x_hi - _trim(x_hi), math.floor))


def _letter_runs_per_column(fam, spec, target):
    """Reference from each column's own window solve for cells inside
    `target`: its signed run, the ints of its window (`_window_ints`)."""
    runs = []
    for sign in (1, -1):
        for u in _columns(spec):
            win = _solve_s_window_per_column(fam, u, spec, target, sign)
            if win is None:
                continue
            s1, s2 = _window_ints(*win)
            runs += [(u, *sorted((sign * s1, sign * s2)))] if s1 <= s2 else []
    return _merged(runs)


def _check_runs_in_both_modes(lam, anchor, inset, margin):
    """G is the same in both modes, and its runs hold, column by column,
    the ints of each column's own window solve, for cells inside Q shrunk
    by the margin."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    budget = td.GeometryBudget(epsilon=0.1, inset=inset)
    spec = td.build_squares(anchor, inset)
    with cells_inside(margin):
        enum = td.build_G(fam, anchor, spec, budget, mode="enumerate")
        tail = td.build_G(fam, anchor, spec, budget, mode="tail", collar=-5)
    assert tail == enum
    assert _letter_runs(enum) == _letter_runs_per_column(fam, spec, spec.outer.shrink(margin))


@pytest.mark.parametrize("anchor", [8.0, 10.0, 12.0])
@pytest.mark.parametrize("margin", [0.0, 0.3])
def test_tail_letters_equal_enumerate_letters(anchor, margin):
    """Float-exact windows, each end the tight int of its window."""
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


_LOG_TWO_PI = math.log(TWO_PI)
# ln(2*pi * 2^53): the sigma where window ends leave the tight int range
_SIGMA_2_53 = _LOG_TWO_PI + 53 * math.log(2.0)


@example(modulus=1.0, arg=0.0, r0=math.e, anchor=25.6, margin=0.0)   # s_hi just below 2^53
@example(modulus=1.0, arg=0.0, r0=math.e, anchor=25.8, margin=0.0)   # s_hi just past 2^53
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(modulus=st.floats(0.01, 3.0), arg=st.one_of(st.sampled_from([0.0, math.pi]),
                                                   st.floats(-math.pi, math.pi)),
       r0=st.floats(1.1, 3.0),
       anchor=st.one_of(st.floats(4.0, 100.0), st.floats(24.5, 26.5)),
       margin=st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 1.0)))
def test_windows_agree_with_brute_enumeration(modulus, arg, r0, anchor, margin):
    """At every run end of G, for every column of its block: the end letter
    passes the enclosure test `_enclosed` at its own sigma = ln(2*pi) +
    ln|s|.  A run end whose window end is below 2^53 is tight: a
    per-index scan of `_enclosed` over ceil((2*pi + 2b) / (2*pi)) + 2
    indices on each side of it admits no letter outside the run.  A run
    end past 2^53, where adjacent ints come to share their float sigma, is
    trimmed: the int a relative 2^-28, plus two, past it has its float
    sigma outside the window.  The cells lie inside Q shrunk by the
    margin."""
    fam = td.normalize_family(td.exponential_family(cmath.rect(modulus, arg), r0))
    spec = td.build_squares(anchor, 0.5)
    target = spec.outer.shrink(margin)
    with cells_inside(margin):
        gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=0.5))
    env = fam.envelope(spec.outer.bounds())
    depth = math.ceil((TWO_PI + 2.0 * env.b) / TWO_PI) + 2

    def enclosed(u, sign, ss):
        sigma = _LOG_TWO_PI + np.array([math.log(s) for s in ss])
        return tractgeom._enclosed(env, target, u, sign, sigma)

    for run in gset.runs:
        sign = 1 if run.s_lo > 0 else -1
        lo, hi = sorted((abs(run.s_lo), abs(run.s_hi)))
        sigma_lo, sigma_hi = column_window(fam, run.u_lo, spec, target=target, sign=sign)
        for u in range(run.u_lo, run.u_hi + 1):
            assert enclosed(u, sign, [lo, hi]).all(), (u, lo, hi)
            for end, out, edge in ((lo, -1, sigma_lo), (hi, 1, sigma_hi)):
                if edge - _LOG_TWO_PI < math.log(2 ** 53):
                    ss = [s for s in range(end - depth, end + depth + 1) if s >= 1]
                    admitted = [s for s, ok in zip(ss, enclosed(u, sign, ss)) if ok]
                    assert all(lo <= s <= hi for s in admitted), (u, end)
                else:
                    past = _LOG_TWO_PI + math.log(end + out * ((end >> 28) + 2))
                    assert past < sigma_lo if out < 0 else past > sigma_hi


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(x=st.one_of(st.floats(-2.0, 6000.0), st.floats(30.0, 45.0)), up=st.booleans())
def test_exp_int_equals_the_fraction_form(x, up):
    """The shifted integer form of e^x gives the ints of the exact Fraction
    form it replaced, rounded either way."""
    assert tractgeom._exp_int(x, up) == _exp_int_fraction(x, math.ceil if up else math.floor)


_NEAR_2_53 = st.floats(_SIGMA_2_53 - 2.0, _SIGMA_2_53 + 2.0)


@example(sigma_lo=_SIGMA_2_53 - 1e-3, width=2e-3)
@example(sigma_lo=10.0, width=1e-9)   # no int inside
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(sigma_lo=st.one_of(st.floats(1.0, 40.0), _NEAR_2_53, st.floats(40.0, 6000.0)),
       width=st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 4000.0)))
def test_sigma_run_equals_the_reference(sigma_lo, width):
    """The integer bounds of a sigma window are the reference's: an end
    below 2^53 by bisection on the float sigma test, an end past it
    trimmed through the Fraction form of e^x; also where the window
    straddles 2^53 and where it holds no int."""
    sigma_hi = sigma_lo + width
    assert tractgeom._sigma_run(sigma_lo, sigma_hi) == _window_ints(sigma_lo, sigma_hi)


@example(sigma_lo=11306689.5, width=22613379.0)   # anchor 22,613,379
@example(sigma_lo=2.0 ** 24, width=0.0)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sigma_lo=st.one_of(st.floats(6000.0, 2.0 ** 18), st.floats(2.0 ** 18, 4e7)),
       width=st.one_of(st.just(0.0), st.floats(1e-9, 1e-3), st.floats(1e-3, 4e7)))
def test_sigma_run_past_2_24_passes_its_own_test(sigma_lo, width):
    """Up to sigma = 4e7 (x past 2^24, where a fixed 2^-30 trim rounds
    back to x) both ends pass the float sigma test, and each lies within
    the trim plus a few ulps of its window end; a window wider than four
    trims keeps an int."""
    sigma_hi = sigma_lo + width
    s1, s2 = tractgeom._sigma_run(sigma_lo, sigma_hi)
    for end, edge, out in ((s1, sigma_lo, 1), (s2, sigma_hi, -1)):
        x = edge - _LOG_TWO_PI
        inside = out * (_LOG_TWO_PI + math.log(end) - edge)
        assert 0.0 <= inside <= _trim(x) + 8 * math.ulp(edge)
    if width >= 4 * _trim(sigma_hi):
        assert s1 <= s2


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
    assert rep.log_min_gap == pytest.approx(
        _mp_log_min_gap(mini.family, mini.gset, mini.spec), rel=0, abs=1e-12)


def test_min_cell_gap_with_letters_below_envelope_validity():
    """lam = 0.01, R0 = 1.2, anchor 4: a planted G with the letters |s| =
    1..64 at u = 0, of which |s| <= 2 have e^sigma <= 2b, where the
    per-letter envelopes are undefined (G itself starts at |s| = 4); the
    closed-form bounds still hold."""
    fam = td.normalize_family(td.exponential_family(0.01, 1.2))
    spec = td.build_squares(4.0, 0.5)
    gset = GSet(runs=(RunBlock(0, 0, -64, -1), RunBlock(0, 0, 1, 64)))
    env = fam.envelope(spec.outer.bounds())
    lowest = min(min(abs(r.s_lo), abs(r.s_hi)) for r in gset.runs)
    assert lowest <= math.exp(env.sigma_valid_min) / TWO_PI
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.min_cell_gap(fam, gset, spec)
    assert 0 < rep.min_gap < math.inf
    assert 0 < rep.column_separation < math.inf
    assert rep.n_adjacent_checked == sum(r.n_columns * (r.s_hi - r.s_lo) for r in gset.runs)


def _mp_log_min_gap(fam, gset, spec):
    """ln room - ln hypot(p_hi, top), top = max|q + 2*pi*s| over q in
    {q_lo, q_hi} at each run's largest |s|, in 80-digit arithmetic from the
    same float corner data (q_lo, q_hi, p_hi)."""
    mp = pytest.importorskip("mpmath")
    env = fam.envelope(spec.outer.bounds())
    c, rect = env.c, spec.outer
    thetas = [math.atan2(y - c.imag, x - c.real)
              for x in (rect.re_lo, rect.re_hi) for y in (rect.im_lo, rect.im_hi)]
    q_lo, q_hi = min(thetas) - c.imag, max(thetas) - c.imag
    p_hi = math.log(env.d_hi) - c.real
    with mp.workdps(80):
        room = 2 * mp.pi - (mp.mpf(q_hi) - mp.mpf(q_lo))
        logs = []
        for r in gset.runs:
            m, n = sorted((abs(r.s_lo), abs(r.s_hi)))
            if n > m:
                sign = 1 if r.s_lo > 0 else -1
                top = max(abs(mp.mpf(q) + sign * 2 * mp.pi * n) for q in (q_lo, q_hi))
                logs.append(mp.log(room) - mp.log(mp.sqrt(mp.mpf(p_hi) ** 2 + top ** 2)))
        return float(min(logs))


def test_min_cell_gap_past_the_float_range(fam):
    """From anchor 1000 on, 2*pi*|s| passes the float range (at 400,
    min_gap is already 1.2e-260): the gap report forms its bound in logs,
    so log_min_gap is finite and within 1e-12 of an 80-digit evaluation,
    min_gap is its exp (0 where it underflows), and the column extents take
    atan2's +-pi/2 limits, so adjacent columns stay about pi apart."""
    for anchor in (400.0, 1000.0, 2000.0, 4000.0, 8000.0):
        spec = td.build_squares(anchor, 3.0)
        gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=3.0))
        assert (gset.max_abs_index() > 1.7e308 / TWO_PI) == (anchor > 400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = td.min_cell_gap(fam, gset, spec)
        assert math.isfinite(rep.log_min_gap)
        assert rep.log_min_gap == pytest.approx(_mp_log_min_gap(fam, gset, spec),
                                                rel=0, abs=1e-12)
        assert rep.min_gap == math.exp(rep.log_min_gap)
        assert 3.0 < rep.column_separation < math.pi
        assert rep.n_adjacent_checked == sum(r.n_columns * (r.length - 1) for r in gset.runs)


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
    extent is mirrored and that gap widens).  log_min_gap, which only one
    sign reaches here, is within 1e-12 of its 80-digit value."""
    spec = td.build_squares(12.0, 0.5)
    runs = [RunBlock(-1, 0, 10 ** 7, 10 ** 7 + 1000), RunBlock(1, 2, 65, 70)]
    if sign < 0:
        runs = [RunBlock(r.u_lo, r.u_hi, -r.s_hi, -r.s_lo) for r in runs]
    gset = GSet(runs=tuple(sorted(runs)))
    rep = td.min_cell_gap(fam, gset, spec)
    assert 0 < rep.column_separation < math.inf
    assert rep.column_separation == _brute_column_separation(fam, gset, spec)
    assert rep.log_min_gap == pytest.approx(_mp_log_min_gap(fam, gset, spec), rel=0, abs=1e-12)


def test_cells_below_envelope_validity_are_certified_by_their_lipschitz_bound():
    """lam = 0.01, R0 = e, anchor 4: cells (0, +-1) and (0, +-2) have
    e^sigma <= 2b, so no enclosure, and the Koebe constant is 10386 here.
    Their closed-form Lipschitz bound (`log_weight_bounds`) puts them
    inside by the center + diameter test, as the dense recheck rates them;
    G, the ints of its sigma windows, leaves them out."""
    fam = td.normalize_family(td.exponential_family(0.01, math.e))
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(4.0, 0.5)
    env = fam.envelope(spec.outer.bounds())
    ss = [1, 2, -1, -2]
    assert all(math.log(TWO_PI * abs(s)) <= env.sigma_valid_min for s in ss)
    base = complex(np.asarray(fam.inv0(complex(spec.anchor))).item())
    for s in ss:
        sigma = math.log(TWO_PI * abs(s))
        assert not tractgeom._enclosed(env, spec.outer, 0, int(math.copysign(1, s)),
                                       np.array([sigma])).any()
        center = complex(np.asarray(fam.inv0(base + TWO_PI * 1j * s)).item())
        assert _dist_to_boundary(spec.outer, center) > _cell_lipschitz(fam, s, spec) \
            * spec.outer.diam
        assert td.containment_recheck(fam, 0, s, spec, density=40) == "inside"
    gset = td.build_G(fam, 4.0, spec, budget, mode="enumerate")
    assert all((0, s) not in gset for s in ss)


def test_cell_with_its_center_in_q_is_outside_by_its_samples(small):
    """At anchor 13.5 cell (0, 136) has its center in Q but its samples
    leave it: the dense recheck rates it outside, and G leaves it out."""
    spec = td.build_squares(13.5, 0.5)
    center, _ = td.cylinder_eval(small.family, [(0, 136)], complex(spec.anchor))
    assert spec.outer.contains(center)
    boundary = oracle._recheck_boundary(small.family, spec, 10)
    verdicts, delta, _ = oracle._recheck_cells(0, [136], spec, boundary)
    assert verdicts.tolist() == ["outside"] and delta[0] > 0
    assert (0, 136) not in td.build_G(small.family, 13.5, spec, small.budget)


def _sharp_or_koebe_lipschitz(fam, s, spec):
    """Reference that the cell's Lipschitz bound may not exceed: min(sharp,
    Koebe).  sharp = 1 / ((2*pi*|s| - b) d_lo), above envelope validity
    (e^sigma > 2b) only; Koebe = |g'(R)| * C, the derivative at the anchor
    times the Koebe constant C (infinite below the Koebe range)."""
    env = fam.envelope(spec.outer.bounds())
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
    if math.log(fam.envelope(spec.outer.bounds()).d_lo) <= fam.ln_r0:
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
    between the sampled extents of the runs' end cells, for G of the cells
    inside Q shrunk by the margin."""
    fam = td.normalize_family(td.exponential_family(cmath.rect(modulus, arg), r0))
    budget = td.GeometryBudget(inset=0.5)
    spec = td.build_squares(anchor, 0.5)
    with cells_inside(margin):
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
        lo, hi = window_s_bounds(column_window(small.family, u, small.spec, sign=sign))
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
    assert rep.min_re_margin > 0


def test_level_lines_anchor_100(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=5.0)
    spec = td.build_squares(100.0, 5.0)
    rep = td.trace_level_lines(fam, spec, budget)
    assert rep.required_count == 7
    assert rep.curve_count >= 7
    assert rep.min_component_length >= 100.0 / 4.0 - 5.0


def _dense_branch(family, r, u, re_stop, n=4_000):
    """Reference: branch u of the anchor line {Re = r} on a dense grid of
    the line, from its lowest to its highest point, each point checked to
    lift back to its zeta (|F(w) - zeta| <= 1e-9 (1 + |zeta|)).  The grid
    is y = 0, uniform in |y| up to a = r - Re c and geometric past it,
    until Re w passes re_stop."""
    c = family.log_lam
    a = r - c.real
    half = np.r_[np.linspace(0.0, a, 1_000)[1:], np.geomspace(a, math.exp(re_stop + 1.0), n)[1:]]
    zeta = r + 1j * (c.imag + np.r_[-half[::-1], 0.0, half])
    w = np.log(zeta - c) + TWO_PI * 1j * u
    assert np.all(np.abs(family.lift(w) - zeta) <= 1e-9 * (1.0 + np.abs(zeta)))
    return w


def _leave(p, q, rect):
    """The point where the segment from p, in rect, to q, outside it,
    crosses the boundary of rect."""
    t = 1.0
    for lo, hi, vp, vq in ((rect.re_lo, rect.re_hi, p.real, q.real),
                           (rect.im_lo, rect.im_hi, p.imag, q.imag)):
        for edge in (lo, hi):
            if (vp - edge) * (vq - edge) < 0:
                t = min(t, (edge - vp) / (vq - vp))
    return p + t * (q - p)


def _clipped_lengths(pts, inner, core):
    """Lengths of the polyline's components in inner that meet core, each
    cut where it leaves inner."""
    flags = np.r_[0, inner.contains(pts).astype(np.int8), 0]
    bounds = np.flatnonzero(np.diff(flags))
    lengths = []
    for start, stop in zip(bounds[::2], bounds[1::2]):  # pts[start:stop] lie in inner
        comp = pts[start:stop]
        if start > 0:
            comp = np.r_[_leave(comp[0], pts[start - 1], inner), comp]
        if stop < pts.size:
            comp = np.r_[comp, _leave(comp[-1], pts[stop], inner)]
        if core.contains(comp).any():
            lengths.append(float(np.sum(np.abs(np.diff(comp)))))
    return lengths


def _assert_level_lines_match_dense_reference(family, anchor, inset):
    """The closed-form curves against dense polylines of Log, clipped here,
    over every branch within two of Q': the same curve count, the same
    components to 1e-5 relative, and a least real part at or below every
    reference point's.  Returns the curve count."""
    spec, budget = td.build_squares(anchor, inset), td.GeometryBudget(epsilon=0.1, inset=inset)
    rep = td.trace_level_lines(family, spec, budget)
    r = td.anchor_line(family, anchor, inset).real_part
    traces = {t.u: t for t in rep.traces}
    count = 0
    for u in range(math.floor(spec.inner.im_lo / TWO_PI) - 2,
                   math.ceil(spec.inner.im_hi / TWO_PI) + 3):
        pts = _dense_branch(family, r, u, spec.inner.re_hi)
        want = sorted(_clipped_lengths(pts, spec.inner, spec.core))
        count += bool(want)
        if u not in traces:
            assert not want, (anchor, u)
            continue
        assert sorted(traces[u].arclengths) == pytest.approx(want, rel=1e-5), (anchor, u)
        assert rep.min_re <= pts.real.min(), (anchor, u)
    assert rep.curve_count == count, anchor
    return count


@pytest.mark.parametrize("lam", [1.0, 0.3, 3.0, 0.5 + 0.5j, 1j, 0.01])
def test_level_lines_equal_dense_log_reference(lam):
    """Anchors 6 to 400, inset 0.5; the curve counts from anchor 12 on are
    the same for every lam."""
    family = td.normalize_family(td.exponential_family(lam, math.e))
    counts = [_assert_level_lines_match_dense_reference(family, anchor, 0.5)
              for anchor in (6.0, 12.0, 30.0, 100.0, 400.0)]
    assert counts[1:] == [1, 3, 9, 33]


@pytest.mark.parametrize("inner, core, n_comps", [
    ((-1.0, 3.0, 0.3, 2.0), (1.0, 2.0, 0.5, 1.5), 1),     # enters through the bottom edge
    ((-1.0, 3.0, -2.0, -0.3), (1.0, 2.0, -1.5, -0.5), 1),  # the same, lower half
    ((0.5, 3.0, -1.2, 1.2), (0.6, 2.0, -1.1, 1.1), 2),     # leaves through the top and bottom
    ((-1.0, 3.0, -1.0, 1.0), (0.1, 0.5, 0.3, 0.8), 1),     # the vertex lies inside
    ((-1.0, 3.0, -1.0, 1.0), (2.0, 3.0, -0.5, 0.5), 0),    # misses the core
], ids=["bottom", "top", "sides", "vertex", "no-core"])
def test_branch_components_cut_by_each_edge(fam, inner, core, n_comps):
    """a = 1 (ln a = 0), branch 0, against rectangles that cut the curve
    by each of their edges: the same lengths as the dense reference."""
    inner, core = Rect(*inner), Rect(*core)
    got = tractgeom._branch_components(0.0, 0, inner, core)
    want = _clipped_lengths(_dense_branch(fam, 1.0, 0, inner.re_hi), inner, core)
    assert len(want) == n_comps
    assert sorted(got) == pytest.approx(sorted(want), rel=1e-6)
