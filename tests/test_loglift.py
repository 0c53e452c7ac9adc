import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import run_sum_reference as ref
import tractdim as td
from conftest import column_window
from tractdim.loglift import log_run_sum_bounds, run_sum
from tractdim.numerics import TWO_PI


def _tract_threshold(family):
    """Left edge of the tract {Re z > ln(R0 / |lam|)}."""
    return math.log(family.r0 / abs(family.lam))


def test_normalize_identity_for_flagship():
    f = td.exponential_family(1.0, math.e)
    g = td.normalize_family(f)
    assert g.r0 == f.r0
    assert _tract_threshold(g) == pytest.approx(1.0)


def test_normalize_lam_2_5_keeps_tract_off_origin():
    g = td.normalize_family(td.exponential_family(2.5, math.e))
    assert _tract_threshold(g) == pytest.approx(1.0 - math.log(2.5))
    assert _tract_threshold(g) > 0  # 0 stays outside the closed tract
    assert abs(g.plane_map(0.0 + 0.0j)) < g.r0


def test_normalize_enlarges_radius_when_needed():
    g = td.normalize_family(td.exponential_family(10.0, math.e))
    assert g.r0 > abs(g.lam)
    assert abs(g.plane_map(0.0 + 0.0j)) < g.r0


@pytest.mark.parametrize("lam", [1.0, 2.5, 1j, -2.0, 0.5 + 0.5j])
def test_conjugacy_residual(lam):
    f = td.normalize_family(td.exponential_family(lam, math.e))
    rng = np.random.default_rng(11)
    for s in range(-3, 4):
        zeta = f.ln_r0 + 0.2 + 19.8 * rng.random(1000) \
            + 1j * (rng.random(1000) * 60.0 - 30.0)
        w, _ = td.inv_branch(f, s, zeta)
        lhs = f.plane_map(np.exp(w))
        rhs = np.exp(np.asarray(f.lift(w)))
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + np.abs(rhs)))


def test_inv_branch_examples(fam):
    pt, dv = td.inv_branch(fam, 0, 100.0)
    assert pt == pytest.approx(4.60517, abs=1e-5)
    assert dv == pytest.approx(0.01, rel=1e-12)
    pt2, _ = td.inv_branch(fam, 2, 100.0)
    assert pt2 == pytest.approx(pt + 4j * math.pi, rel=1e-12)
    with pytest.raises(td.DomainError):
        td.inv_branch(fam, 0, fam.ln_r0 - 1.0)


def _inv0_test_points():
    """w over 600 decades of modulus at every angle, |w| within 1e-17 to
    1e-3 of 1, and the negative real axis with +0 and -0 imaginary parts."""
    rng = np.random.default_rng(12)
    far = 10.0 ** rng.uniform(-300, 300, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
    near = (1.0 + rng.choice([-1, 1], 1000) * 10.0 ** rng.uniform(-17, -3, 1000)) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000))
    axis = -(10.0 ** rng.uniform(-300, 300, 50))
    cut = np.concatenate([axis + 0j, np.array(axis, dtype=complex)])
    cut.imag[axis.size:] = -0.0
    edge = np.array([5e-324, 1.7e308, -5e-324, 1j, -1j, 5e-324j, 1.0, -1.0], dtype=complex)
    return np.concatenate([far, near, cut, edge])


def test_inv0_within_4_ulps_of_mpmath():
    """inv0 = ln|w| + i*atan2 against a 40-digit mpmath log: each part
    within 4 ulps, the real part absolutely (4 ulps of 1) where |ln|w|| < 1,
    that is near |w| = 1.  On the negative real axis the sign of a zero
    imaginary part picks the branch edge: +pi for +0, -pi for -0, as
    numpy's complex log gives it."""
    mpmath = pytest.importorskip("mpmath")
    fam = td.exponential_family(1.0, math.e)  # Log(lam) = 0, so w = zeta
    w = _inv0_test_points()
    got = np.asarray(fam.inv0(w))
    assert got.shape == w.shape
    with mpmath.workdps(40):
        for x, g in zip(w.tolist(), got.tolist()):
            exact = mpmath.log(mpmath.mpc(x.real, x.imag))
            im = -exact.imag if x.imag == 0 and math.copysign(1.0, x.imag) < 0 else exact.imag
            assert abs(g.real - exact.real) <= 4 * math.ulp(max(abs(float(exact.real)), 1.0)), x
            assert abs(g.imag - im) <= 4 * math.ulp(abs(float(im))), x
    cut = (w.real < 0) & (w.imag == 0)
    assert np.array_equal(got.imag[cut], np.where(np.signbit(w.imag[cut]), -np.pi, np.pi))
    assert np.array_equal(got.imag[cut], np.log(w[cut]).imag)


def test_inv0_of_a_0d_input_is_the_array_value():
    """inv_branch passes inv0 a 0-d array; the value is the one inv0 gives
    inside an array, for a family whose Log(lam) is not 0 too."""
    for lam in (1.0, 0.5 + 0.5j):
        f = td.normalize_family(td.exponential_family(lam, math.e))
        zeta = np.array([3.0 + 4.0j, 100.0 - 1e-3j, 12.5 + 7e6j])
        row = np.asarray(f.inv0(zeta))
        for k, z in enumerate(zeta.tolist()):
            one = f.inv0(np.asarray(z))
            assert np.ndim(one) == 0 and complex(one) == row[k]
            pt, _ = td.inv_branch(f, 3, z)
            assert pt == row[k] + TWO_PI * 3j


def test_branch_inversion_property(fam):
    rng = np.random.default_rng(5)
    zeta = fam.ln_r0 + 0.1 + 40.0 * rng.random(1000) \
        + 1j * (rng.random(1000) * 80.0 - 40.0)
    for s in (-3, 0, 2):
        w, _ = td.inv_branch(fam, s, zeta)
        back = np.asarray(fam.lift(w))
        assert np.all(np.abs(back - zeta) <= 1e-9 * (1.0 + np.abs(zeta)))


def test_branch_periodicity_property(fam):
    rng = np.random.default_rng(6)
    zeta = fam.ln_r0 + 0.1 + 10.0 * rng.random(200) + 1j * rng.random(200)
    base, _ = td.inv_branch(fam, 0, zeta)
    for s in (-5, 1, 3):
        w, _ = td.inv_branch(fam, s, zeta)
        err = np.abs((w - base) - TWO_PI * 1j * s)
        assert np.all(err <= 1e-12 * (1.0 + TWO_PI * abs(s)))


def test_branch_derivative_against_finite_differences(fam):
    rng = np.random.default_rng(7)
    zeta = fam.ln_r0 + 0.5 + 30.0 * rng.random(1000) \
        + 1j * (rng.random(1000) * 40.0 - 20.0)
    worst = td.fd_derivative_check(lambda z: td.inv_branch(fam, 1, z), zeta)
    assert worst <= 1e-6


# normalized families over (lam, R0): |lam| from e^-25 to e^3, any argument
_FAMILIES = st.builds(
    lambda log_mod, arg, r0: td.normalize_family(
        td.exponential_family(cmath.rect(math.exp(log_mod), arg), r0)),
    st.floats(-25.0, 3.0), st.floats(-math.pi, math.pi), st.floats(1.2, 20.0))


def _lift_margins(family, zeta, s):
    """Sampled 4 pi |F'(w)| - (Re F(w) - ln R0) at w = F_inv_s(zeta)."""
    w = np.asarray(family.inv0(zeta)) + TWO_PI * 1j * s
    return 4.0 * math.pi * np.abs(family.lift_deriv(w)) \
        - (np.real(family.lift(w)) - family.ln_r0)


def _sigma_above(base, offset):
    """`offset` floats above `base` for an int, else base + offset, and in
    both cases strictly above base."""
    sigma = math.nextafter(base, math.inf)
    if isinstance(offset, int):
        for _ in range(offset - 1):
            sigma = math.nextafter(sigma, math.inf)
        return sigma
    return max(sigma, base + offset)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(lam=st.sampled_from([1.0, 1j, 0.5 + 0.5j, -2.0, 0.01]),
       log_anchor=st.floats(math.log(12.0), math.log(2.7e6)),
       u=st.integers(-10 ** 6, 10 ** 6), sign=st.sampled_from([1, -1]),
       offsets=st.lists(st.one_of(st.integers(1, 64), st.floats(0.0, 50.0),
                                  st.floats(0.0, 4.1e6)), min_size=1, max_size=60))
@example(lam=1.0, log_anchor=math.log(4000.0), u=3, sign=1, offsets=[1, 2, 0.5, 30.0, 6000.0])
def test_cell_enclosure_is_monotone_in_sigma(lam, log_anchor, u, sign, offsets):
    """Above `sigma_valid_min`, the enclosure of `TailEnvelope.cell_enclosure`
    moves right and narrows as sigma grows: re_lo and re_hi never decrease,
    im_lo never decreases and im_hi never increases, so the imaginary
    half-width never increases.  `_sigma_windows` relies on this to certify
    a window at its two ends.  Checked on sorted sigmas from a few floats
    above the validity bound to past the anchor cap's Re, each with the
    next float above it."""
    family = td.normalize_family(td.exponential_family(lam=lam))
    anchor = math.exp(log_anchor)
    env = family.envelope(td.build_squares(anchor, 0.5).outer)
    sigmas = {_sigma_above(env.sigma_valid_min, offset) for offset in offsets}
    sigmas = sorted(sigmas | {math.nextafter(sigma, math.inf) for sigma in sigmas})
    boxes = [env.cell_enclosure(u, sign, sigma) for sigma in sigmas]
    for sigma, (lo1, hi1, bot1, top1), (lo2, hi2, bot2, top2) in zip(sigmas, boxes, boxes[1:]):
        assert lo1 <= lo2 and hi1 <= hi2, sigma
        assert bot1 <= bot2 and top1 >= top2, sigma
        assert top1 - bot1 >= top2 - bot2, sigma


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_FAMILIES, st.integers(0, 2 ** 32 - 1))
@example(td.exponential_family(1.0, math.e), 8)
def test_expansion_margin_positive(family, seed):
    """On 10,000 points of H, each on a branch |s| <= 3, the sampled
    expansion margin never falls below its closed-form infimum
    4 pi (ln R0 - Re Log(lam)), the lemma report's margin, which is
    positive; at zeta = ln R0 + i Im Log(lam) every branch attains it."""
    c = family.log_lam
    closed = 4.0 * math.pi * (family.ln_r0 - c.real)
    assert closed > 0
    rng = np.random.default_rng(seed)
    n = 10_000
    zeta = family.ln_r0 + 30.0 * rng.random(n) ** 2 \
        + 1j * (c.imag + 100.0 * rng.random(n) - 50.0)
    margins = _lift_margins(family, zeta, np.arange(n) % 7 - 3)
    assert np.all(margins >= closed - 1e-9)
    at_inf = _lift_margins(family, np.full(7, complex(family.ln_r0, c.imag)), np.arange(-3, 4))
    assert np.all(np.abs(at_inf - closed) <= 1e-9)


def test_growth_threshold_crossing(fam):
    """Re F_inv_0 along the powers of ten is ln|x - Log(lam)|, the closed
    form of the lemma report's growth check, and rises; the threshold
    ln R0 + 2D with D = 25 is first exceeded at x = 10^23."""
    xs = [10.0 ** k for k in range(1, 31)]
    re_vals = np.real(np.asarray(fam.inv0(np.asarray(xs, dtype=complex))))
    assert re_vals.tolist() == pytest.approx([math.log(abs(x - fam.log_lam)) for x in xs],
                                             rel=1e-15)
    assert np.all(np.diff(re_vals) > 0)
    idx = int(np.flatnonzero(re_vals > fam.ln_r0 + 50.0)[0])
    assert xs[idx] == pytest.approx(1e23)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_FAMILIES)
@example(td.exponential_family(1.0, math.e))
@example(td.exponential_family(2.5, math.e))
def test_growth_bound_shared_constant(family):
    """Re F_inv_s(x), the same for every branch s, stays at or below the
    growth bound 4 pi ln(x - ln R0) + c0 up to x = 1e6 (within 1e-9), and
    the excess is 0 (up to rounding) at x = ln R0 + 1, its closed-form
    maximum, the lemma report's `max_excess`; c0 = ln|1 + ln R0 - Log(lam)|
    (ln 2 at lam = 1, R0 = e) is the constant of `AnchorLine.growth_bound`."""
    c0 = math.log(abs(1.0 + family.ln_r0 - family.log_lam))
    anchor = family.ln_r0 + 10.0
    assert td.anchor_line(family, anchor, 1.0).growth_bound == pytest.approx(
        4.0 * math.pi * math.log(anchor - family.ln_r0) + c0, rel=1e-15, abs=1e-15)
    xs = np.geomspace(family.ln_r0 + 1.0, 1e6, 500)
    re_vals = np.real(np.asarray(family.inv0(xs.astype(complex))))
    excess = re_vals - (4.0 * math.pi * np.log(xs - family.ln_r0) + c0)
    assert np.all(excess <= 1e-9)
    assert abs(excess[0]) <= 1e-9
    for s in (-1000, -10, 1, 100):
        w, _ = td.inv_branch(family, s, xs)
        assert np.array_equal(w.real, re_vals)


# ---------------------------------------------------------------------------
# closed-form sums over explicit index runs
# ---------------------------------------------------------------------------

RUNS = [(2, 63), (65, 64 + 64), (65, 129), (65, 10_450_108), (10 ** 15, 2 ** 53)]
EXPONENTS = [0.5, 1.0, 1.0015, 2.0, 4.0]


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("shift", [0.0, 0.37, -0.37])
def test_run_sum_bracket_contains_hurwitz_zeta(run, shift):
    """sum_{s=a}^{b} (s + h)^-t = zeta(t, a + h) - zeta(t, b + 1 + h), or
    psi(b + 1 + h) - psi(a + h) at t = 1, at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a, b = run
    for t in EXPONENTS:
        if t == 1.0:
            exact = mpmath.digamma(b + 1 + shift) - mpmath.digamma(a + shift)
        else:
            exact = mpmath.zeta(t, a + shift) - mpmath.zeta(t, b + 1 + shift)
        lo, hi = log_run_sum_bounds(a, b, t, shift)
        assert lo <= mpmath.log(exact) <= hi, (run, shift, t)
        assert hi - lo <= 1e-11


BIG_RUNS = {"2^53+1-2^60": (2 ** 53 + 1, 2 ** 60), "1e20-1e300": (10 ** 20, 10 ** 300),
            "1e300-1e2600": (10 ** 300, 10 ** 2600),
            # short runs: ratio below 2, ratio 1 + 1e-299 and a run across 2^53
            "2^60-+1000": (2 ** 60, 2 ** 60 + 1000), "1e300-+70": (10 ** 300, 10 ** 300 + 70),
            "2^53-10-+100": (2 ** 53 - 10, 2 ** 53 + 100)}


@pytest.mark.parametrize("run", BIG_RUNS.values(), ids=BIG_RUNS.keys())
@pytest.mark.parametrize("shift", [0.0, 0.37, -0.37])
def test_big_run_sum_bracket_contains_hurwitz_zeta(run, shift):
    """Runs past 2^53, with Python-int ends up to far past the float range:
    the log-form bracket holds the Hurwitz zeta difference at 30 digits
    (the direct sum for the short runs, where the difference cancels).
    Its width is the 64-ulp widening on each side, of the log magnitude
    (1 + t) * ln(b + h), with a 1% allowance for the bracket itself."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a, b = run
    first, past = mpmath.mpf(a) + shift, mpmath.mpf(b) + 1 + shift
    for t in EXPONENTS:
        if b - a <= 1000:
            exact = mpmath.fsum((mpmath.mpf(s) + shift) ** -t for s in range(a, b + 1))
        elif t == 1.0:
            exact = mpmath.digamma(past) - mpmath.digamma(first)
        else:
            exact = mpmath.zeta(t, first) - mpmath.zeta(t, past)
        lo, hi = log_run_sum_bounds(a, b, t, shift)
        assert lo <= mpmath.log(exact) <= hi, (run, shift, t)
        slack = 64 * 2.0 ** -52 * (1.0 + (1.0 + t) * float(mpmath.log(past - 1)))
        assert hi - lo <= 2.0 * slack * 1.01, (run, shift, t)


def test_run_sum_bracket_contains_brute_fsum():
    s = np.arange(65, 10_450_109, dtype=float)
    for t in EXPONENTS:
        brute = math.log(math.fsum((s ** -t).tolist()))
        lo, hi = log_run_sum_bounds(65, 10_450_108, t, 0.0)
        assert lo <= brute <= hi, t


# ---------------------------------------------------------------------------
# the run sum's t-independent data, built once and evaluated per exponent
# ---------------------------------------------------------------------------

_RUN_STARTS = st.one_of(st.integers(1, 200), st.integers(2 ** 53 - 100, 2 ** 53 + 100),
                        st.integers(1, 2 ** 110))
_RUN_LENGTHS = st.one_of(st.integers(0, 200), st.integers(0, 2 ** 60),
                         st.integers(0, 2 ** 210))
_EXPONENTS = st.one_of(st.sampled_from([0.0, 1.0, 4.0]), st.floats(0.0, 4.0))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_RUN_STARTS, _RUN_LENGTHS, st.floats(-40.0, 40.0),
       st.lists(_EXPONENTS, min_size=1, max_size=3), st.floats(1.0, 1e6))
# r = ln(x_n / x_m) underflows to 0; the ratio passes 2; a run across 2^53
@example(10 ** 300, 70, 0.37, [1.0, 0.5], 3.0)
@example(2 ** 60, 2 ** 200, -0.37, [1.0015, 4.0], 3.0)
@example(2 ** 53 - 10, 110, 1.9, [0.0, 2.0], 10.0)
@example(2, 0, -1.5, [1.0], 1.0)
def test_run_sum_data_equals_per_call_reference(s1, length, h, ts, d):
    """One `run_sum` evaluated at several exponents gives the per-call
    bracket hex for hex, with log_c = -t ln(2 pi d) as the envelopes form it."""
    assume(s1 + h > 0)
    data = run_sum(s1, s1 + length, h)
    for t in ts:
        log_c = -t * math.log(TWO_PI * d)
        got = data.log_bounds(t, log_c)
        want = ref.log_run_sum_bounds(s1, s1 + length, t, h, log_c)
        assert tuple(x.hex() for x in got) == tuple(x.hex() for x in want)
        assert log_run_sum_bounds(s1, s1 + length, t, h, log_c) == got


def test_window_comparison_brackets_equal_per_call_reference(small):
    """`compare_window_modes` takes its two brackets from the run sum."""
    win_lo, win_hi = column_window(small.family, 0, small.spec, sign=1)
    sig_lo, sig_hi = win_lo, min(win_lo + 4.0, win_hi)
    env = small.family.envelope(small.spec.outer)
    s1, s2 = math.ceil(math.exp(sig_lo) / TWO_PI), math.floor(math.exp(sig_hi) / TWO_PI)
    h = env.b / TWO_PI
    for t in (0.5, 1.0, 2.0):
        cmp = td.compare_window_modes(small.family, small.spec, sig_lo, sig_hi, t=t)
        lo = ref.log_run_sum_bounds(s1, s2, t, h, -t * math.log(TWO_PI * env.d_hi))
        hi = ref.log_run_sum_bounds(s1, s2, t, -h, -t * math.log(TWO_PI * env.d_lo))
        assert cmp.tail_lo_bounds == tuple(math.exp(x) for x in lo)
        assert cmp.tail_hi_bounds == tuple(math.exp(x) for x in hi)
