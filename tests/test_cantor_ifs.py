import math
import warnings

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
    z = mini.spec.center
    v_once, d_once = td.cylinder_eval(mini.family, word + word, z, square=mini.spec)
    mid, d1 = td.cylinder_eval(mini.family, word, z, square=mini.spec)
    v_twice, d2 = td.cylinder_eval(mini.family, word, mid, square=mini.spec)
    assert abs(v_once - v_twice) <= 1e-12 * (1.0 + abs(v_once))
    assert abs(d_once - d1 * d2) <= 1e-12 * abs(d_once)


def test_cylinder_rejects_alien_letter(mini):
    with pytest.raises(td.ConstructionError):
        td.cylinder_eval(mini.family, [(5, 7)], mini.spec.center,
                         square=mini.spec, gset=mini.gset)


def test_cylinder_derivative_against_finite_differences(mini):
    letters = mini.gset.letters_by_weight(4)
    word = [letters[0], letters[2], letters[1]]
    z0 = mini.spec.center
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
    env = small.family.envelope(small.spec)
    for i in range(0, 50):
        for j in range(i + 1, 50):
            if first[i] != first[j]:
                u, s = first[i]
                center, _ = td.cylinder_eval(small.family, [(u, s)], complex(small.anchor))
                lip = float(np.exp(env.log_weight_bounds(np.log(TWO_PI * abs(s)))[1]))
                d = abs(sample.points[i] - sample.points[j])
                assert d > 0
                assert abs(sample.points[i] - center) <= lip * small.spec.diam


def test_sampling_depth_refinement(small):
    """A depth-d point and any refinement of its word stay within the
    contraction-tail bound of the shared depth-d cell."""
    d = 4
    a = td.sample_limit_set(small.family, small.gset, small.spec,
                            depth=d, count=40, seed=12)
    env = small.family.envelope(small.spec)
    sig_min = min(math.log(TWO_PI) + math.log(min(abs(r.s_lo), abs(r.s_hi)))
                  for r in small.gset.runs)
    ratio = float(np.exp(env.log_weight_bounds(sig_min)[1]))
    tail = small.spec.diam * ratio ** d + 1e-12
    extra = small.gset.letters_by_weight(1)[0]
    z0 = small.spec.center
    for i in range(a.count):
        word = list(zip(a.words_u[i].tolist(), a.words_s[i].tolist()))
        deeper, _ = td.cylinder_eval(small.family, word + [extra], z0)
        assert abs(a.points[i] - deeper) <= tail


def _letter(gset, rank):
    """Reference: the letter at `rank`, by a walk over the runs, each run
    column by column and s by s."""
    for r in gset.runs:
        if rank < r.n_columns * r.length:
            return r.u_lo + rank // r.length, r.s_lo + rank % r.length
        rank -= r.n_columns * r.length
    raise AssertionError("rank past the letters of G")


# Column blocks of either sign, as `build_G` lays them out: at most three
# blocks of adjacent columns per sign, each with its own s run.
_POSITIVE = [(-2, -2, 65, 90), (-1, 0, 70, 100), (1, 1, 66, 80)]
_NEGATIVE = [(0, 0, -95, -65), (1, 2, -88, -70), (3, 3, -77, -66)]
# The same layout with |s| and the run lengths past 2^63: object ranks.
_POSITIVE_BIG = [(-2, -2, 65, 2 ** 64), (-1, 0, 2 ** 63 - 9, 2 ** 64), (1, 1, 3, 2 ** 63 + 1)]
_NEGATIVE_BIG = [(0, 0, -(2 ** 65), -7), (1, 2, -(2 ** 63) - 3, -(2 ** 63) + 2),
                 (3, 3, -(2 ** 70), -(2 ** 64))]
_RUN_LAYOUTS = [(1, 0), (0, 1), (1, 1), (0, 3), (3, 0), (2, 1), (2, 2), (3, 2), (3, 3)]


@pytest.mark.parametrize("n_pos, n_neg", _RUN_LAYOUTS,
                         ids=[f"{a}+{b}" for a, b in _RUN_LAYOUTS])
def test_letters_equal_the_per_rank_walk_on_1_to_6_runs(n_pos, n_neg):
    """`GSet.letters` against `_letter` on planted layouts of 1 to 6 runs:
    every rank of a small G (int64), and the ends of every run with random
    ranks of a G past 2^63 (object)."""
    small = td.GSet(runs=tuple(sorted(RunBlock(*r) for r in
                                      _POSITIVE[:n_pos] + _NEGATIVE[:n_neg])))
    ranks = np.arange(small.n_letters)
    u, s = small.letters(ranks)
    assert u.dtype == s.dtype == np.int64
    assert list(zip(u.tolist(), s.tolist())) == [_letter(small, r) for r in ranks.tolist()]
    assert list(zip(*small.letters([ranks[-1]]))) == [_letter(small, int(ranks[-1]))]

    big = td.GSet(runs=tuple(sorted(RunBlock(*r) for r in
                                    _POSITIVE_BIG[:n_pos] + _NEGATIVE_BIG[:n_neg])))
    n = big.n_letters
    assert n > 2 ** 63
    rng = np.random.default_rng(n_pos * 10 + n_neg)
    ends = [0]
    for r in big.runs:
        ends.append(ends[-1] + r.n_columns * r.length)
    ranks = sorted({x for e in ends for x in (e - 1, e, e + 1) if 0 <= x < n}
                   | {int(x) * n >> 63 for x in rng.integers(0, 2 ** 63, 200)})
    u, s = big.letters(ranks)
    assert u.dtype == s.dtype == object
    assert list(zip(u.tolist(), s.tolist())) == [_letter(big, r) for r in ranks]
    assert list(zip(*big.letters([ranks[-1]]))) == [_letter(big, ranks[-1])]


@pytest.mark.parametrize("lam", [1.0, 1j, 0.5 + 0.5j], ids=["1", "i", "half"])
def test_build_G_has_at_most_6_runs(lam):
    """`GSet.letters` makes one comparison per run end, so G's run count
    bounds its cost: at most three column blocks per sign."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    for anchor in (12.0, 30.0, 85.0, 4000.0):
        spec = td.build_squares(anchor, 0.5)
        gset = td.build_G(fam, anchor, spec, td.GeometryBudget(epsilon=0.1, inset=0.5))
        assert 1 <= gset.n_segments <= 6, anchor


def _sample_per_level(family, gset, spec, depth, count, seed):
    """Reference: each inverse step adds the complex term 2*pi*i*s to its
    `inv0` image."""
    u, s = gset.letters(gset.random_ranks(np.random.default_rng(seed), count * depth))
    words_u, words_s = u.reshape(count, depth), s.reshape(count, depth)
    z = np.full(count, spec.center, dtype=complex)
    for k in range(depth - 1, -1, -1):
        shifted = z
        first = np.asarray(family.inv0(z)) + TWO_PI * 1j * words_s[:, k]
        z = np.asarray(family.inv0(first)) + TWO_PI * 1j * words_u[:, k]
    return z, shifted


@pytest.mark.parametrize("depth", [1, 8])
@pytest.mark.parametrize("lam", [1.0, 1j, 0.5 + 0.5j], ids=["1", "i", "half"])
def test_sampling_equals_the_complex_sum_per_level_bitwise(lam, depth):
    """Adding 2*pi*s to the imaginary part in place gives the points and
    the shifted points of the complex sum, signed zeros included."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(12.0, 0.5)
    gset = td.build_G(fam, 12.0, spec, td.GeometryBudget(epsilon=0.1, inset=0.5))
    got = td.sample_limit_set(fam, gset, spec, depth=depth, count=2000, seed=3)
    points, shifted = _sample_per_level(fam, gset, spec, depth, 2000, seed=3)
    assert np.array_equal(got.points.view(np.uint64), points.view(np.uint64))
    assert np.array_equal(got.shifted.view(np.uint64), shifted.view(np.uint64))


def _assert_rows_are_the_drawn_words(family, gset, spec, depth, count, seed):
    """Row i of the sample is the word of draws i*depth to (i+1)*depth - 1
    of `GSet.random_ranks`, first letter first, and its point is that
    word's `cylinder_eval` image of the center of Q.  Returns the ranks."""
    sample = td.sample_limit_set(family, gset, spec, depth=depth, count=count, seed=seed)
    ranks = gset.random_ranks(np.random.default_rng(seed), count * depth).reshape(count, depth)
    words = [[_letter(gset, rank) for rank in row] for row in ranks.tolist()]
    assert sample.words_u.tolist() == [[u for u, _ in word] for word in words]
    assert sample.words_s.tolist() == [[s for _, s in word] for word in words]
    points = [td.cylinder_eval(family, word, spec.center)[0] for word in words]
    assert np.array_equal(sample.points, np.array(points))
    return ranks


@pytest.mark.parametrize("depth", [1, 2, 8])
@pytest.mark.parametrize("runs", [
    ((0, 0, 65, 65), (0, 1, -66, -65)),
    ((-1, 0, 65, 66),),
    ((-1, 0, 65, 67), (0, 1, -10450108, -10450106)),
    ((-1, 0, 65, 364),),
], ids=["three-letters", "four-letters", "twelve-letters", "600-letters"])
def test_sampling_rows_are_the_drawn_words_in_draw_order(small, runs, depth):
    """On planted Gs of 3 to 600 letters, in one or two runs of either
    sign, the rows come in the order their words were drawn."""
    gset = td.GSet(runs=tuple(RunBlock(*r) for r in runs))
    assert all(letter in small.gset for letter in zip(*gset.letters(range(gset.n_letters))))
    _assert_rows_are_the_drawn_words(small.family, gset, small.spec, depth, 600, seed=5)


def test_sampling_order_with_object_ranks(fam):
    """At anchor 30 G has more than 2^63 letters, so its ranks are Python
    ints; the rows still come in draw order."""
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(30.0, 0.5)
    gset = td.build_G(fam, 30.0, spec, budget)
    assert gset.n_letters > 2 ** 63
    ranks = _assert_rows_are_the_drawn_words(fam, gset, spec, 3, 400, seed=1)
    assert ranks.dtype == object


def test_projection_conjugacy_and_bookkeeping(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=4, count=300, seed=2)
    proj = td.project_to_plane(small.family, sample)  # raises past a residual of 1e-9
    assert proj.conjugacy_checked == 300
    assert not np.any(proj.log_polar)
    assert np.all(proj.points != 0)


@pytest.mark.parametrize("anchor", [12.0, 20.0, 30.0])
@pytest.mark.parametrize("lam", [1.0, 1j, -2.0, 0.5 + 0.5j])
def test_projection_conjugacy_check_still_catches_a_planted_error(lam, anchor):
    """The check compares every row on the lift, for every lam, so a
    relative error of 1e-8 in the first-level points fails it."""
    fam = td.normalize_family(td.exponential_family(lam, math.e))
    spec = td.build_squares(anchor, 0.5)
    gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=0.5))
    sample = td.sample_limit_set(fam, gset, spec, depth=8, count=2000, seed=3)
    assert td.project_to_plane(fam, sample).conjugacy_checked == 2000
    planted = sample._replace(first=sample.first * (1 + 1e-8))
    with pytest.raises(td.ConstructionError, match="conjugacy residual"):
        td.project_to_plane(fam, planted)


def test_projection_log_polar_for_huge_real_parts(small):
    """Rows 0, 3, 4 and 5 are past the exp range and go log-polar, with
    the angle wrapped to (-pi, pi]: Im z = pi, -pi and 3pi all give pi.
    Row 2 is not, though its F-image is (Re F z = 705 > 700): it is
    compared on the lift with row 1."""
    pts = np.array([4000.0 + 0.5j, 6.0 + 1.5j, math.log(705.0) + 0j,
                    800.0 + math.pi * 1j, 800.0 - math.pi * 1j, 800.0 + 3 * math.pi * 1j])
    first = pts.copy()  # F z on rows 1 and 2; the log-polar rows' are not read
    first[1:3] = small.family.lift(pts[1:3])
    fake = LimitSample(points=pts, shifted=pts, first=first,
                       words_u=np.zeros((6, 1), dtype=np.int64),
                       words_s=np.full((6, 1), 65, dtype=np.int64), depth=1)
    proj = td.project_to_plane(small.family, fake)
    assert proj.log_polar.tolist() == [True, False, False, True, True, True]
    assert proj.points[0].real == pytest.approx(4000.0)  # ln modulus
    assert proj.points[0].imag == 0.5
    assert proj.points[3:].tolist() == [800.0 + math.pi * 1j] * 3
    assert 700.0 < np.real(small.family.lift(pts[2])) < 709.0
    assert proj.conjugacy_checked == 2


def test_invariance_shift_and_branch(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=3, count=500, seed=4)
    rep = td.check_invariance(small.family, sample)
    assert rep.rows_checked == 500
    assert rep.branch_residual <= 1e-9 and rep.modulus_residual <= 1e-9
    assert rep.max_shift_residual <= rep.shift_tolerance < 1e-7


def _invariance_sample(anchor, count=200):
    """A lam = 1, inset 0.5, depth-3 sample at `anchor`, with its family."""
    fam = td.normalize_family(td.exponential_family(1.0, math.e))
    spec = td.build_squares(anchor, 0.5)
    gset = td.build_G(fam, anchor, spec, td.GeometryBudget(inset=0.5))
    return fam, td.sample_limit_set(fam, gset, spec, depth=3, count=count, seed=0)


@pytest.mark.parametrize("anchor", [12.0, 20.0, 25.0, 30.0])
def test_invariance_passes_a_correct_sample_with_no_warning(anchor):
    """Each step is compared on the lift: F of the point with `first` to
    relative 1e-9 and |e^first| with |shifted - Log(lam)| to relative
    1e-9 at every anchor, so no exp overflows; the phase bound is below
    1e-7 at anchor 12 and 1e-2 at 20."""
    fam, sample = _invariance_sample(anchor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = td.check_invariance(fam, sample)
    assert rep.rows_checked == 200
    assert rep.branch_residual <= 1e-9 and rep.modulus_residual <= 1e-9
    assert rep.max_shift_residual <= rep.shift_tolerance
    assert rep.shift_tolerance < {12.0: 1e-7, 20.0: 1e-2}.get(anchor, math.inf)


@pytest.mark.parametrize("anchor", [12.0, 20.0, 25.0, 30.0])
def test_invariance_catches_a_planted_wrong_shifted_row(anchor):
    """One `shifted` row moved 0.1% away from Log(lam) fails the modulus
    comparison at every anchor; one turned by 0.05 rad about Log(lam)
    fails the phase comparison where a float `first` holds the phase."""
    fam, sample = _invariance_sample(anchor)
    moved = sample.shifted.copy()
    moved[7] = fam.log_lam + 1.001 * (moved[7] - fam.log_lam)
    with pytest.raises(td.ConstructionError, match="invariance failure"):
        td.check_invariance(fam, sample._replace(shifted=moved))
    if anchor <= 20.0:
        turned = sample.shifted.copy()
        turned[7] = fam.log_lam + np.exp(0.05j) * (turned[7] - fam.log_lam)
        with pytest.raises(td.ConstructionError, match="invariance failure"):
            td.check_invariance(fam, sample._replace(shifted=turned))


def test_invariance_with_no_row_in_the_exp_range_raises():
    fam, sample = _invariance_sample(12.0, count=3)
    far = sample._replace(points=sample.points + 800.0)
    with pytest.raises(td.NumericError, match="exp range"):
        td.check_invariance(fam, far)


def test_invariance_depth1_lands_in_square(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=1, count=200, seed=5)
    ffz = np.asarray(small.family.lift(np.asarray(small.family.lift(sample.points))))
    assert np.all(small.spec.shrink(-1e-6).contains(ffz))


def test_invariance_detects_corruption(small):
    sample = td.sample_limit_set(small.family, small.gset, small.spec,
                                 depth=3, count=100, seed=6)
    sample.points[0] += 1.0
    with pytest.raises(td.ConstructionError):
        td.check_invariance(small.family, sample)
