"""The map f(z) = lam * e**z and its logarithmic lift.

f has a logarithmic tract T over infinity; its logarithmic lift F
(exp o F = f o exp on the lifted tracts) and the inverse branches of F,
defined on the closed half plane H = {Re z > ln R0}, are in closed form:

    F(w)       = e**w + Log(lam)
    F_inv_s(z) = Log(z - Log(lam)) + 2*pi*i*s

with Log the principal branch.  All branches are vertical translates of
the branch with index 0.  The principal branch is safe on H as soon as
ln R0 > Re Log(lam), which is exactly the normalization condition
|f(0)| < R0.

So the lift's two estimates (Eremenko and Lyubich, Ann. Inst. Fourier 42,
1992) are exact formulas: at zeta = F(w), |F'(w)| = |zeta - Log(lam)|, and
Re F_inv_s(x) = ln|x - Log(lam)| on the real axis, for every branch, which
rises with x past Re Log(lam).  The lemma report (`cli.cmd_lemmas`) takes
their margins and the growth to infinity in closed form; no branch is
sampled.  `inv_branch`, a branch with its half-plane check, is the
reference that the tests hold the lift and the cylinder maps to.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from typing import NamedTuple, Optional

from .errors import ConfigError, DomainError
from .numerics import TWO_PI, log_sum_exp

# Relative slack accepted when testing membership of the closed half plane.
_BOUNDARY_SLACK = 1e-12


class _MapFamilyFields(NamedTuple):
    lam: complex
    r0: float


class MapFamily(_MapFamilyFields):
    """The map f(z) = lam * e**z with tract radius R0, plus its lift.

    `envelope` gives the closed-form bounds over a rectangle behind the
    admissible set and its pressure bounds.
    """

    __slots__ = ()

    def __new__(cls, lam: complex = 1.0 + 0.0j, r0: float = math.e):
        if r0 <= 1.0:
            raise ConfigError(f"tract radius must exceed 1, got {r0}")
        if lam == 0:
            raise ConfigError("exponential family needs lam != 0")
        return super().__new__(cls, lam, r0)

    # -- basic constants ----------------------------------------------------

    @property
    def ln_r0(self) -> float:
        return math.log(self.r0)

    @property
    def log_lam(self) -> complex:
        return cmath.log(complex(self.lam))

    # -- plane map and lift (numpy arrays or scalars) ------------------------

    def plane_map(self, z):
        import numpy as np
        return self.lam * np.exp(z)

    def lift(self, w):
        import numpy as np
        return np.exp(w) + self.log_lam

    def lift_deriv(self, w):
        import numpy as np
        return np.exp(w)

    def inv0(self, zeta):
        """Log(w), w = zeta - Log(lam), on the principal branch, formed as
        ln|w| + i*atan2(Im w, Re w) in about a quarter of the time of
        numpy's complex log; within 4 ulps of the exact value (absolute
        where |w| is near 1, where ln|w| is near 0)."""
        import numpy as np
        w = np.asarray(zeta, dtype=complex) - self.log_lam
        return np.log(np.abs(w)) + 1j * np.arctan2(w.imag, w.real)

    def inv0_deriv(self, zeta):
        import numpy as np
        return 1.0 / (np.asarray(zeta, dtype=complex) - self.log_lam)

    # -- closed-form bounds over a rectangle --------------------------------

    def envelope(self, rect) -> "TailEnvelope":
        """The `TailEnvelope` of the rectangle rect = (re_lo, re_hi, im_lo,
        im_hi), which must lie strictly right of c = Log(lam)."""
        re_lo, re_hi, im_lo, im_hi = map(float, rect)
        c = self.log_lam
        cr, ci = c.real, c.imag
        if re_lo <= cr:
            raise ConfigError(
                "tail envelopes need the rectangle strictly right of Log(lam)")
        # distance of c to the rectangle and to its farthest corner
        dx_lo = re_lo - cr
        dx_hi = re_hi - cr
        dy = 0.0 if im_lo <= ci <= im_hi else min(abs(im_lo - ci), abs(im_hi - ci))
        d_lo = math.hypot(dx_lo, dy)
        d_hi = max(math.hypot(dx, iy - ci) for dx in (dx_lo, dx_hi) for iy in (im_lo, im_hi))
        # |Arg(z - c)| is extremal at the left-edge corners
        amax = max(abs(math.atan2(im_lo - ci, dx_lo)), abs(math.atan2(im_hi - ci, dx_lo)))
        b_re = max(abs(math.log(d_lo) - cr), abs(math.log(d_hi) - cr))
        b = math.hypot(b_re, amax + abs(ci))
        return TailEnvelope(b=b, d_lo=d_lo, d_hi=d_hi, c=c, p_lo=math.log(d_lo) - cr)


def exponential_family(lam=1.0, r0=math.e) -> MapFamily:
    return MapFamily(lam=complex(lam), r0=float(r0))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def normalize_family(family: MapFamily) -> MapFamily:
    """Return a family whose closed tract excludes 0.

    The testable form of the condition is |f(0)| < R0.  A family failing it
    is normalized by enlarging R0 (shrinking the tract), which is always
    admissible and moves the tract boundary to Re z = 1 > 0.
    """
    if abs(family.lam) < family.r0:  # |f(0)| = |lam|
        return family
    return family._replace(r0=abs(family.lam) * math.e)


def inv_branch(family: MapFamily, s: int, zeta):
    """Evaluate the inverse branch with index s and its derivative.

    Defined on the closed half plane Re zeta >= ln R0 (a relative slack
    covers boundary round-off).  Branches differ from the index-0 branch
    by exactly 2*pi*i*s.
    """
    import numpy as np
    zeta = np.asarray(zeta, dtype=complex)
    lo = family.ln_r0 - _BOUNDARY_SLACK * (1.0 + abs(family.ln_r0))
    if np.any(np.real(zeta) < lo):
        re_min = float(np.min(np.real(zeta)))
        raise DomainError(
            f"Re zeta = {re_min:.6g} below the half-plane threshold ln R0 = {family.ln_r0:.6g}")
    point = np.asarray(family.inv0(zeta)) + TWO_PI * 1j * s
    deriv = np.asarray(family.inv0_deriv(zeta))
    if point.ndim == 0:
        return complex(point), complex(deriv)
    return point, deriv


# ---------------------------------------------------------------------------
# Closed-form envelopes over a rectangle
# ---------------------------------------------------------------------------

class TailEnvelope(NamedTuple):
    """Rigorous per-rectangle bounds backing the large-index regime
    (`MapFamily.envelope`).

    The two-level composition at index pair (u, s) has derivative
    1 / (xi_s(z) * (z - c)) with c = Log(lam) and xi_s(z) = Log(z - c) - c
    + 2*pi*i*s, so on a rectangle right of c

        |xi_s(z)| in [2*pi*|s| - b, 2*pi*|s| + b],   |z - c| in [d_lo, d_hi],

    where b bounds |Log(z - c) - c|, and Re xi_s >= p_lo = ln d_lo - Re c.
    Everything downstream (weights, cell enclosures, window solving, run
    sums) is derived from (b, d_lo, d_hi, c, p_lo) alone, as a function of
    sigma = ln(2*pi*|s|).
    """

    b: float
    d_lo: float
    d_hi: float
    c: complex
    p_lo: float

    @property
    def sigma_valid_min(self) -> float:
        """Smallest sigma at which the enclosures are usable (e^sigma > 2b)."""
        return math.log(2.0 * self.b) if self.b > 0 else -math.inf

    # -- per-letter derivative envelopes (vectorized over sigma) ------------

    def log_weight_bounds(self, sigma):
        """Bounds for ln |g'| over the rectangle at sigma = ln(2*pi*|s|).

        |g'| = 1 / (|xi_s| |z - c|), and |xi_s| lies between max(p_lo,
        e^sigma - b) and e^sigma + b.  The upper bound holds at every
        sigma, also below envelope validity and at s = 0 (sigma = -inf),
        where p_lo alone bounds |xi_s|; where e^sigma - b >= p_lo it is the
        envelope value -ln(e^sigma - b) - ln d_lo.  The lower bound holds
        for s != 0.  Neither depends on the first-level index u nor on the
        sign of s.
        """
        import numpy as np
        sigma = np.asarray(sigma, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = self.b * np.exp(-sigma)
            lo = -(sigma + np.log1p(corr)) - math.log(self.d_hi)
            # fmin drops the NaN of log1p(-corr) where e^sigma < b
            hi = np.fmin(-(sigma + np.log1p(-corr)),
                         -math.log(self.p_lo) if self.p_lo > 0.0 else math.inf) \
                - math.log(self.d_lo)
        return lo, hi

    def cell_enclosure(self, u: int, sign: int, sigma: float):
        """Axis-aligned enclosure of the image cell at (u, sign, sigma), for
        one sigma above `sigma_valid_min` (below it log1p(-corr) has no
        value, and math raises).

        Returns (re_lo, re_hi, im_lo, im_hi) covering the full image of the
        rectangle, not just its center.
        """
        corr = self.b * math.exp(-sigma)
        re_lo = sigma + math.log1p(-corr)
        re_hi = sigma + math.log1p(corr)
        dev = math.asin(min(1.0, corr / max(1e-300, 1.0 - corr)))
        mid = TWO_PI * u + sign * 0.5 * math.pi
        return re_lo, re_hi, mid - dev, mid + dev

    # -- run sums ------------------------------------------------------------

    def run_sums(self, ranges):
        """The t-independent data of both envelopes' run sums over |s| ranges.

        The lower envelope ((2 pi s + b) d_hi)^-t is (2 pi d_hi)^-t (s + h)^-t
        with h = b / (2 pi), the upper ((2 pi s - b) d_lo)^-t is
        (2 pi d_lo)^-t (s - h)^-t, which needs s_lo > h: a range with
        s_lo <= h raises DomainError.  G's ranges pass with room: each of
        its windows starts above `sigma_valid_min`, so 2 pi s_lo > 2b >= b +
        p_lo (b >= |ln d_lo - Re c| >= p_lo), and there the upper envelope is
        also the bound of `log_weight_bounds`.  Returns, per envelope (lower,
        upper), the pair (ln(2 pi d), one `RunSum` per range (s_lo, s_hi),
        ints of any size).  A level-1 bound at t is
        `RunSum.log_bound(t, -t ln(2 pi d_hi), 0)` on the lower envelope, or
        `RunSum.log_bound(t, -t ln(2 pi d_lo), 1)` on the upper one.
        """
        h = self.b / TWO_PI
        if any(lo <= h for lo, _ in ranges):
            raise DomainError(f"upper envelope needs every |s| > b / (2 pi) = {h:.6g}")
        lower = tuple(run_sum(lo, hi, h) for lo, hi in ranges)
        upper = tuple(run_sum(lo, hi, -h) for lo, hi in ranges)
        return ((math.log(TWO_PI * self.d_hi), lower), (math.log(TWO_PI * self.d_lo), upper))


def _log_power_integral(log_x1: float, log_x2: float, t: float) -> float:
    """log of integral_{x1}^{x2} x^-t dx given log x1 < log x2, in log domain."""
    if log_x2 <= log_x1:
        return -math.inf
    if t == 1.0:
        return math.log(log_x2 - log_x1)
    tau = t - 1.0
    if tau > 0:
        # (x1^-tau - x2^-tau) / tau
        return -tau * log_x1 + math.log(-math.expm1(-tau * (log_x2 - log_x1))) - math.log(tau)
    # tau < 0: (x2^-tau - x1^-tau) / (-tau)
    return -tau * log_x2 + math.log(-math.expm1(tau * (log_x2 - log_x1))) - math.log(-tau)


# Terms of a run added one by one before its Euler-Maclaurin tail.
_RUN_DIRECT = 64
# Largest float-exact integer index; run sums past it are formed in log form.
_MAX_EXACT_INT = 2 ** 53
# Outward widening of a run sum, in float64 ulps (2^-52) of the largest log
# magnitude entering it: covers the rounding of every log, exp and sum.
_RUN_SUM_ULPS = 64


class RunSum(NamedTuple):
    """The part of a run sum over s in [s1, s2] of (s + h)^-t that does not
    depend on t: built once per run by `run_sum`, evaluated per exponent and
    side by `log_bound`.

    `direct` holds ln(s + h) of the terms added one by one, from s1 on (h
    is -b / (2 pi) for the upper envelope, `TailEnvelope.run_sums`); the
    tail from m on is described by x_m = m + h (inf from m = 2^100 on) and
    its powers, ln x_m, r = ln(x_n / x_m) and, where r is 0, the log of the
    integral ln(n - m).  `magnitude` is the largest |ln(s + h)| at the
    run's ends.
    """

    big: bool
    direct: tuple
    magnitude: float
    tail: Optional[tuple] = None   # (x_m, x_m^3, x_m^5, ln x_m, r, ln(n - m))

    def log_bound(self, t: float, log_c: float, side: int) -> float:
        """One end of the bracket on log(e^log_c * sum_{s=s1}^{s2} (s + h)^-t):
        the lower bound for side 0, the upper for side 1 (see
        `log_run_sum_bounds`).

        The direct terms are added as they are; the tail's Euler-Maclaurin
        value through the B4 term is the lower end, plus the B6 term the
        upper, and only the side asked for is formed.  The result is
        widened outward by `_RUN_SUM_ULPS` ulps of the largest log
        magnitude, lower for side 0 and upper for side 1.
        """
        parts = [log_sum_exp([-t * x for x in self.direct])]
        if self.tail is not None:
            x_m, x_m3, x_m5, log_m, r, log_flat = self.tail
            log_int = log_m + _log_power_integral(0.0, r, t) if r else log_flat

            def drop(p):  # 1 - (x_n / x_m)^-(t + p)
                return -math.expm1(-(t + p) * r)

            poly = t * (t + 1.0) * (t + 2.0)
            ends = (0.5 * (2.0 - drop(0.0)), t / 12.0 / x_m * drop(1.0),
                    -poly / 720.0 / x_m3 * drop(3.0))
            b6 = poly * (t + 3.0) * (t + 4.0) / 30240.0 / x_m5 * drop(5.0) if side else 0.0
            if self.big:
                log_rel = _log_add(log_int, math.log(sum(ends) + b6))
            else:
                rel = math.exp(log_int) + ends[0] + ends[1] + ends[2]
                log_rel = math.log(rel + b6)
            parts.append(-t * log_m + log_rel)
        slack = _RUN_SUM_ULPS * 2.0 ** -52 * (1.0 + abs(log_c) + (1.0 + t) * self.magnitude)
        # past 2^53 the parts are the direct sum (maybe -inf) and a finite tail
        total = reduce(_log_add, parts) if self.big else log_sum_exp(parts)
        return log_c + total + slack if side else log_c + total - slack

    def log_bounds(self, t: float, log_c: float):
        """(lower, upper) bounds on log(e^log_c * sum_{s=s1}^{s2} (s + h)^-t):
        both sides of `log_bound`."""
        return self.log_bound(t, log_c, 0), self.log_bound(t, log_c, 1)


def run_sum(s1: int, s2: int, h: float) -> RunSum:
    """The t-independent data of the run sum over s in [s1, s2] of (s + h)^-t.

    Needs s1 + h > 0.  Every log of the run's ends and of its h-shifts is
    taken here, once; `RunSum.log_bound` then costs a few scalar
    operations per exponent, whatever the size of the ints.
    """
    big = s2 > _MAX_EXACT_INT
    log_1, log_n = (_log_shifted(s, h) if big else math.log(s + h) for s in (s1, s2))
    k = s1 - 1 if s1 > _MAX_EXACT_INT else min(s2, s1 + _RUN_DIRECT - 1)
    direct = tuple(math.log(s + h) for s in range(s1, k + 1))
    magnitude = max(abs(log_1), abs(log_n))
    if s2 <= k:
        return RunSum(big, direct, magnitude)
    m, d = k + 1, s2 - k - 1
    x_m = m + h if m < 2 ** 100 else math.inf
    if not big:
        log_m = math.log(x_m)
        r = math.log1p(d / x_m)  # ln(x_n / x_m), free of cancellation
    else:
        log_m = log_1 if m == s1 else _log_shifted(m, h)
        if d >= m:
            r = log_n - log_m
        elif d << 960 >= m:  # m > 2^52 here: h shifts r by a relative h / m
            r = math.log1p(d / m)
        else:  # x_n / x_m < 1 + 2^-960
            r = 0.0
    # the integral is n - m where r underflows (r is 0 below 2^53 only if d is)
    log_flat = math.log(d) if d else -math.inf
    return RunSum(big, direct, magnitude, (x_m, x_m ** 3, x_m ** 5, log_m, r, log_flat))


def log_run_sum_bounds(s1: int, s2: int, t: float, h: float, log_c: float = 0.0):
    """(lower, upper) bounds on log(e^log_c * sum_{s=s1}^{s2} (s + h)^-t).

    Needs s1 + h > 0 and t >= 0.  The first `_RUN_DIRECT` terms are added
    one by one; the rest, from m to n, by Euler-Maclaurin through the B4
    term, with g(x) = (x + h)^-t:

        sum = int_m^n g + (g(m) + g(n))/2 + (B2/2!) (g'(n) - g'(m))
              + (B4/4!) (g'''(n) - g'''(m)) + R.

    g is completely monotone, so R lies between 0 and the next term
    (B6/6!) (g^(5)(n) - g^(5)(m)) (Graham, Knuth and Patashnik, Concrete
    Mathematics, section 9.5); the two ends of that range give the
    bracket.  The tail terms are taken relative to g(m), so indices up to
    2^53 and every t in [0, 4] stay in range.  The bracket is then widened
    outward by `_RUN_SUM_ULPS` ulps of the largest log magnitude involved.

    Past 2^53, for ints of any size, the bracket is formed in logs:
    ln(s + h) = ln s + log1p(h e^-ln s); r = ln(x_n / x_m) is log1p of the
    rounded quotient (n - m) / m while n - m < m (the integral is n - m
    where r underflows), else ln x_n - ln x_m; the Bernoulli terms are
    dropped from m = 2^100 on, far below the widening; runs past 2^53 add
    no direct terms.

    This builds the run's t-independent data, `run_sum(s1, s2, h)`, and
    evaluates it once; keep that data to evaluate many exponents.
    """
    return run_sum(s1, s2, h).log_bounds(t, log_c)


def _log_shifted(s: int, h: float) -> float:
    """ln(s + h) for an integer s of any size."""
    log_s = math.log(s)
    return log_s + math.log1p(h * math.exp(-log_s))


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b) for finite b; a may be -inf."""
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))
