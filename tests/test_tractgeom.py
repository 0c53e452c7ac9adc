import math

import numpy as np
import pytest

import tractdim as td
from tractdim.numerics import TWO_PI
from tractdim.tractgeom import (RadiusSearchError, _u_candidates,
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
    for sign, us in _u_candidates(spec, margin).items():
        for u in us:
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


# ---------------------------------------------------------------------------
# build_G
# ---------------------------------------------------------------------------

def test_build_g_empty_below_threshold(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(3.0, 0.5)
    g = td.build_G(fam, 3.0, spec, budget, mode="enumerate")
    assert g.is_empty()


def test_build_g_tail_large_anchor_is_segments_only(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    spec = td.build_squares(4000.0, 3.0)
    g = td.build_G(fam, 4000.0, spec, budget, mode="tail")
    assert g.n_explicit == 0
    assert g.n_segments > 1000
    for seg in g.segments[:5]:
        assert seg.sigma_hi - seg.sigma_lo == pytest.approx(4000.0, abs=0.1)


def test_build_g_enumerate_overflow_guard(fam):
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(40.0, 0.5)
    with pytest.raises(td.ConstructionError) as err:
        td.build_G(fam, 40.0, spec, budget, mode="enumerate")
    assert "tail" in str(err.value)


def test_mini_g_structure(mini):
    assert mini.gset.mode == "enumerate"
    assert mini.gset.n_explicit > 50
    us = {w.u for w in mini.gset.windows}
    assert us == {0}
    # pairs come out sorted by (u, s)
    pairs = list(mini.gset.pairs_iter())
    assert pairs == sorted(pairs)


def test_gset_json_roundtrip(mini):
    d = mini.gset.to_json_dict()
    assert d["mode"] == "enumerate"
    assert d["segments"] == []
    assert len(d["pairs"]) == mini.gset.n_explicit
    assert all(len(p) == 2 for p in d["pairs"])
    with pytest.raises(td.ConstructionError):
        mini.gset.to_json_dict(max_pairs=3)


def test_gset_letter_ranks(mini):
    n = mini.gset.n_explicit
    u, s = mini.gset.letters_from_ranks(np.arange(n))
    pairs = list(zip(u.tolist(), s.tolist()))
    assert pairs == list(mini.gset.pairs_iter())


def test_min_cell_gap_positive(mini):
    rep = td.min_cell_gap(mini.family, mini.gset, mini.spec)
    assert rep.min_gap > 0
    assert rep.column_separation > 0


def test_tail_segments_bracket_enumeration(small):
    """Within one integer step, the analytic window endpoints match the
    explicitly certified range (the collar letters of the tail G)."""
    for win in small.gset.windows:
        sign = win.sign
        analytic = td.solve_s_window(small.family, win.u, small.spec,
                                     budget=small.budget, sign=sign)
        lo, hi = analytic.s_bounds
        if sign > 0:
            assert abs(win.s_lo - math.ceil(lo - 1e-9)) <= 1
        else:
            assert abs(-win.s_hi - math.ceil(lo - 1e-9)) <= 1


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
