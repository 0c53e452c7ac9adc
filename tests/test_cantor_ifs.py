import math

import numpy as np
import pytest

import tractdim as td
from tractdim.cantor_ifs import LimitSample
from tractdim.numerics import TWO_PI
from tractdim.tractgeom import RunBlock


def test_cylinder_single_letter_is_cell_center(fam):
    """At the anchor, a one-letter cylinder is the cell's center,
    F_inv_u(F_inv_s(R))."""
    val, _ = td.cylinder_eval(fam, [(0, 64)], 100.0 + 0j)
    center = complex(np.asarray(fam.inv0(fam.inv0(100.0 + 0j) + TWO_PI * 1j * 64)).item())
    assert val == pytest.approx(center, rel=1e-12)
    assert val.real == pytest.approx(5.9968, abs=1e-4)
    assert val.imag == pytest.approx(1.5593, abs=1e-4)


def test_cylinder_composition_associative(mini):
    letters = mini.gset.letters_by_weight(3)
    word = [letters[0], letters[1], letters[2]]
    z = mini.spec.outer.center
    v_once, d_once = td.cylinder_eval(mini.family, word + word, z, spec=mini.spec)
    mid, d1 = td.cylinder_eval(mini.family, word, z, spec=mini.spec)
    v_twice, d2 = td.cylinder_eval(mini.family, word, mid, spec=mini.spec)
    assert abs(v_once - v_twice) <= 1e-12 * (1.0 + abs(v_once))
    assert abs(d_once - d1 * d2) <= 1e-12 * abs(d_once)


def test_cylinder_rejects_alien_letter(mini):
    with pytest.raises(td.ConstructionError):
        td.cylinder_eval(mini.family, [(5, 7)], mini.spec.outer.center,
                         spec=mini.spec, gset=mini.gset)


def test_cylinder_derivative_against_finite_differences(mini):
    letters = mini.gset.letters_by_weight(4)
    word = [letters[0], letters[2], letters[1]]
    z0 = mini.spec.outer.center
    rng = np.random.default_rng(9)
    samples = z0 + 0.3 * (rng.random(50) - 0.5) + 0.3j * (rng.random(50) - 0.5)
    worst = td.fd_derivative_check(
        lambda z: td.cylinder_eval(mini.family, word, z), samples)
    assert worst <= 1e-5


def test_fixed_point_and_multiplier(mini):
    letters = mini.gset.letters_by_weight(2)
    z, mult = td.cylinder_fixed_point(mini.family, [letters[0]], mini.spec)
    img, _ = td.cylinder_eval(mini.family, [letters[0]], z)
    assert abs(img - z) <= 1e-10
    assert abs(mult) > 1.0


def test_fixed_point_of_repeated_word(mini):
    letters = mini.gset.letters_by_weight(2)
    word = [letters[0], letters[1]]
    z1, _ = td.cylinder_fixed_point(mini.family, word, mini.spec)
    z2, _ = td.cylinder_fixed_point(mini.family, word * 3, mini.spec)
    assert abs(z1 - z2) <= 1e-9 * (1.0 + abs(z1))


def test_sampling_deterministic(small):
    a = td.sample_limit_set(small.family, small.gset, small.spec,
                            depth=5, count=500, seed=3)
    b = td.sample_limit_set(small.family, small.gset, small.spec,
                            depth=5, count=500, seed=3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.words_s, b.words_s)


def test_sampling_points_in_disjoint_cells(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=4, count=200, seed=1)
    # distinct first letters put points in disjoint cells: cross distances
    # exceed within-cell diameters
    first = list(zip(sample.words_u[:, 0].tolist(), sample.words_s[:, 0].tolist()))
    env = small.family.envelope(small.spec.outer.bounds())
    for i in range(0, 50):
        for j in range(i + 1, 50):
            if first[i] != first[j]:
                u, s = first[i]
                center, _ = td.cylinder_eval(small.family, [(u, s)], complex(small.anchor))
                lip = float(np.exp(env.log_weight_bounds(np.log(TWO_PI * abs(s)))[1]))
                d = abs(sample.points[i] - sample.points[j])
                assert d > 0
                assert abs(sample.points[i] - center) <= lip * small.spec.outer.diam


def test_sampling_depth_refinement(small):
    """A depth-d point and any refinement of its word stay within the
    contraction-tail bound of the shared depth-d cell."""
    d = 4
    a = td.sample_limit_set(small.family, small.gset, small.spec,
                            depth=d, count=40, seed=12)
    env = small.family.envelope(small.spec.outer.bounds())
    sig_min = min(math.log(TWO_PI) + math.log(min(abs(r.s_lo), abs(r.s_hi)))
                  for r in small.gset.runs)
    ratio = float(np.exp(env.log_weight_bounds(sig_min)[1]))
    tail = small.spec.outer.diam * ratio ** d + 1e-12
    extra = small.gset.letters_by_weight(1)[0]
    z0 = small.spec.outer.center
    for i in range(a.count):
        word = list(zip(a.words_u[i].tolist(), a.words_s[i].tolist()))
        deeper, _ = td.cylinder_eval(small.family, word + [extra], z0)
        assert abs(a.points[i] - deeper) <= tail


def _lexsorted_words(gset, depth, count, seed):
    """Reference: the sample's draws with their rows ordered by an
    np.lexsort over the depth rank columns (first column most significant)."""
    rng = np.random.default_rng(seed)
    ranks = gset.random_ranks(rng, count * depth).reshape(count, depth)
    order = np.lexsort(tuple(ranks[:, k] for k in range(depth - 1, -1, -1)))
    u, s = (x.astype(np.int64).reshape(count, depth) for x in gset.letters(ranks[order].ravel()))
    return ranks[order], u, s


def _assert_sample_is_lexsorted(family, gset, spec, depth, count, seed):
    sample = td.sample_limit_set(family, gset, spec, depth=depth, count=count, seed=seed)
    ranks, words_u, words_s = _lexsorted_words(gset, depth, count, seed)
    assert np.array_equal(sample.words_u, words_u)
    assert np.array_equal(sample.words_s, words_s)
    points = [td.cylinder_eval(family, np.column_stack([u, s]), spec.outer.center)[0]
              for u, s in zip(words_u, words_s)]
    assert np.array_equal(sample.points, np.array(points))
    return ranks


@pytest.mark.parametrize("depth", [1, 2, 8])
@pytest.mark.parametrize("runs", [
    ((0, 0, 65, 65), (0, 1, -66, -65)),
    ((-1, 0, 65, 66),),
    ((-1, 0, 65, 67), (0, 1, -10450108, -10450106)),
    ((-1, 0, 65, 364),),
], ids=["three-letters", "four-letters", "twelve-letters", "600-letters"])
def test_sampling_order_is_the_lexsort_of_the_word_ranks(small, runs, depth):
    """The byte-key sort orders the rows as np.lexsort over the rank columns
    does, ties included: with a few letters, many rows share their first
    ranks, and where there are at most 3^8 words, whole words repeat.  Ranks
    past 255 take more than one byte of their key."""
    gset = td.GSet(runs=tuple(RunBlock(*r) for r in runs))
    assert all(letter in small.gset for letter in zip(*gset.letters(range(gset.n_letters))))
    ranks = _assert_sample_is_lexsorted(small.family, gset, small.spec, depth, 600, seed=5)
    assert len(np.unique(ranks[:, 0])) < len(ranks)
    if gset.n_letters ** depth <= 3 ** 8:
        assert len(np.unique(ranks, axis=0)) < len(ranks)


def test_sampling_order_with_object_ranks(fam):
    """At anchor 30 G has more than 2^63 letters, so its ranks are Python
    ints; their byte keys order the rows as np.lexsort does."""
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(30.0, 0.5)
    gset = td.build_G(fam, 30.0, spec, budget)
    assert gset.n_letters > 2 ** 63
    ranks = _assert_sample_is_lexsorted(fam, gset, spec, 3, 400, seed=1)
    assert ranks.dtype == object


def test_projection_conjugacy_and_bookkeeping(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=4, count=300, seed=2)
    proj = td.project_to_plane(small.family, sample)
    assert proj.conjugacy_residual <= 1e-9
    assert not np.any(proj.log_polar)
    assert np.all(proj.points != 0)


@pytest.mark.parametrize("lam", [1.0, 1j, -2.0, 0.5 + 0.5j])
def test_projection_conjugacy_check_still_catches_a_planted_error(lam, monkeypatch):
    """At anchor 12 the check still compares rows for every lam (all of
    them for lam = 1), so an error of 1e-8 in f fails it."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(12.0, 0.5)
    gset = td.build_G(fam, 12.0, spec, td.GeometryBudget(inset=0.5))
    sample = td.sample_limit_set(fam, gset, spec, depth=8, count=2000, seed=3)
    assert td.project_to_plane(fam, sample).conjugacy_residual <= 1e-9
    plane_map = td.MapFamily.plane_map
    monkeypatch.setattr(td.MapFamily, "plane_map", lambda f, z: plane_map(f, z) * (1 + 1e-8))
    with pytest.raises(td.ConstructionError, match="conjugacy residual"):
        td.project_to_plane(fam, sample)


def test_projection_log_polar_for_huge_real_parts(small):
    """Row 0 is past the exp range and goes log-polar.  Row 2 is not, but
    its F-image is: Re F z = 705 > 700, where exp(F z) is still finite,
    so only that range test keeps it out of the conjugacy check, and only
    row 1 is compared."""
    pts = np.array([4000.0 + 0.5j, 6.0 + 1.5j, math.log(705.0) + 0j])
    fake = LimitSample(points=pts, shifted=pts, words_u=np.zeros((3, 1), dtype=np.int64),
                       words_s=np.full((3, 1), 65, dtype=np.int64), depth=1)
    proj = td.project_to_plane(small.family, fake)
    assert proj.log_polar.tolist() == [True, False, False]
    assert proj.points[0].real == pytest.approx(4000.0)  # ln modulus
    assert -math.pi < proj.points[0].imag <= math.pi
    assert 700.0 < np.real(small.family.lift(pts[2])) < 709.0
    assert proj.conjugacy_checked == 1


def test_invariance_shift_and_branch(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=3, count=500, seed=4)
    rep = td.check_invariance(small.family, sample, small.gset, small.spec)
    assert rep.passed
    assert rep.max_shift_residual <= rep.shift_tolerance
    assert rep.all_images_in_tracts


def test_invariance_depth1_lands_in_square(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=1, count=200, seed=5)
    ffz = np.asarray(small.family.lift(np.asarray(small.family.lift(sample.points))))
    assert np.all(small.spec.outer.shrink(-1e-6).contains(ffz))


def test_invariance_detects_corruption(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=3, count=100, seed=6)
    sample.points[0] += 1.0
    with pytest.raises(td.ConstructionError):
        td.check_invariance(small.family, sample, small.gset, small.spec)
