"""Map families with a logarithmic tract, in logarithmic coordinates.

A family bundles a plane map f having a logarithmic tract T over infinity
with its logarithmic lift F (exp o F = f o exp on the lifted tracts) and
the inverse branches of F defined on the closed half plane
H = {Re z > ln R0}.  All branches are vertical translates of the branch
with index 0:

    F_inv_s(z) = F_inv_0(z) + 2*pi*i*s.

The flagship family is f(z) = lam * e**z, whose lift and branches are in
closed form:

    F(w)       = e**w + Log(lam)
    F_inv_s(z) = Log(z - Log(lam)) + 2*pi*i*s

with Log the principal branch.  The principal branch is safe on H as soon
as ln R0 > Re Log(lam), which is exactly the normalization condition
|f(0)| < R0.  A user-supplied family provides the same surface through
callbacks; callbacks must accept numpy arrays of complex values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import TWO_PI, log_sum_exp

# Relative slack accepted when testing membership of the closed half plane.
_BOUNDARY_SLACK = 1e-12


@dataclass(frozen=True)
class UserCallbacks:
    """Callbacks defining a user-supplied family.

    All of `plane_map`, `lift`, `lift_deriv`, `inv0`, `inv0_deriv` are
    required; each maps complex arrays to complex arrays.
    """

    plane_map: Optional[Callable] = None
    lift: Optional[Callable] = None
    lift_deriv: Optional[Callable] = None
    inv0: Optional[Callable] = None
    inv0_deriv: Optional[Callable] = None

    def missing(self) -> list[str]:
        return [name for name in ("plane_map", "lift", "lift_deriv", "inv0", "inv0_deriv")
                if getattr(self, name) is None]


@dataclass(frozen=True)
class MapFamily:
    """A concrete map with a logarithmic tract plus its computable lift.

    `offset` records the plane translation applied during normalization so
    that projections can restore original coordinates.  `tail_model` (for
    the exponential family) provides the closed-form envelopes used by the
    large-index summation mode.
    """

    kind: str = "exponential"
    lam: complex = 1.0 + 0.0j
    r0: float = math.e
    offset: complex = 0.0 + 0.0j
    callbacks: Optional[UserCallbacks] = None

    def __post_init__(self):
        if self.r0 <= 1.0:
            raise ConfigError(f"tract radius must exceed 1, got {self.r0}")
        if self.kind == "exponential":
            if self.lam == 0:
                raise ConfigError("exponential family needs lam != 0")
        elif self.kind == "user":
            if self.callbacks is None or self.callbacks.missing():
                missing = "all" if self.callbacks is None else ", ".join(self.callbacks.missing())
                raise ConfigError(f"user family is missing lift callbacks: {missing}")
        else:
            raise ConfigError(f"unknown family kind {self.kind!r}")

    # -- basic constants ----------------------------------------------------

    @property
    def ln_r0(self) -> float:
        return math.log(self.r0)

    @property
    def log_lam(self) -> complex:
        return cmath.log(complex(self.lam))

    @property
    def tract_threshold(self) -> float:
        """Left edge of the tract of the exponential family, Re z > this."""
        return math.log(self.r0 / abs(self.lam)) if self.kind == "exponential" else math.nan

    # -- plane map and lift -------------------------------------------------

    def plane_map(self, z):
        if self.kind == "exponential":
            return self.lam * np.exp(z)
        return self.callbacks.plane_map(z)

    def lift(self, w):
        if self.kind == "exponential":
            return np.exp(w) + self.log_lam
        return self.callbacks.lift(w)

    def lift_deriv(self, w):
        if self.kind == "exponential":
            return np.exp(w)
        return self.callbacks.lift_deriv(w)

    def inv0(self, zeta):
        if self.kind == "exponential":
            return np.log(np.asarray(zeta, dtype=complex) - self.log_lam)
        return self.callbacks.inv0(zeta)

    def inv0_deriv(self, zeta):
        if self.kind == "exponential":
            return 1.0 / (np.asarray(zeta, dtype=complex) - self.log_lam)
        return self.callbacks.inv0_deriv(zeta)

    @property
    def has_tail_model(self) -> bool:
        return self.kind == "exponential"

    def tail_model(self) -> "ExpTailModel":
        if not self.has_tail_model:
            raise ConfigError("family provides no tail asymptotics; use enumerate mode")
        return ExpTailModel(self)


def exponential_family(lam=1.0, r0=math.e, offset=0.0) -> MapFamily:
    return MapFamily(kind="exponential", lam=complex(lam), r0=float(r0), offset=complex(offset))


def user_family(callbacks: UserCallbacks, r0: float, offset=0.0) -> MapFamily:
    return MapFamily(kind="user", lam=1.0, r0=float(r0), offset=complex(offset),
                     callbacks=callbacks)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def normalize_family(family: MapFamily) -> MapFamily:
    """Return a family whose closed tract excludes 0.

    The testable form of the condition is |f(0)| < R0.  The exponential
    family can always be normalized by enlarging R0 (shrinking the tract);
    a user-supplied family that fails the test cannot be repaired here and
    is rejected.
    """
    f0 = abs(complex(np.asarray(family.plane_map(0.0 + 0.0j)).item()))
    if f0 < family.r0:
        return family
    if family.kind == "exponential":
        # Enlarging the radius is always admissible and moves the tract
        # boundary to Re z = 1 > 0.
        return replace(family, r0=abs(family.lam) * math.e)
    raise ConfigError(
        f"family cannot be normalized: |f(0)| = {f0:.6g} >= R0 = {family.r0:.6g}")


def eval_lift(family: MapFamily, w):
    """Evaluate the lift F and its derivative at w.

    w must lie in a lifted tract; the check is post hoc, Re F(w) > ln R0.
    """
    w = np.asarray(w, dtype=complex)
    value = np.asarray(family.lift(w))
    deriv = np.asarray(family.lift_deriv(w))
    bad = np.real(value) <= family.ln_r0
    if np.any(bad):
        re_bad = float(np.min(np.real(value)[bad])) if value.ndim else float(np.real(value))
        raise DomainError(
            f"point outside the lifted tracts: Re F(w) = {re_bad:.6g} <= ln R0 = {family.ln_r0:.6g}")
    if value.ndim == 0:
        return complex(value), complex(deriv)
    return value, deriv


def inv_branch(family: MapFamily, s: int, zeta):
    """Evaluate the inverse branch with index s and its derivative.

    Defined on the closed half plane Re zeta >= ln R0 (a relative slack
    covers boundary round-off).  Branches differ from the index-0 branch
    by exactly 2*pi*i*s.
    """
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


@dataclass(frozen=True)
class GrowthReport:
    """Sampled Re F_inv_0 along the positive real axis."""

    xs: tuple
    re_values: tuple
    strictly_increasing: bool
    nondecreasing: bool
    threshold_hits: tuple  # pairs (threshold, first index exceeding it or None)

    def first_exceeding(self, threshold: float):
        for thr, idx in self.threshold_hits:
            if thr == threshold:
                return idx
        return None


def check_growth(family: MapFamily, xs: Sequence[float],
                 thresholds: Sequence[float] = ()) -> GrowthReport:
    """Report Re F_inv_0(x) along an increasing grid of real x > ln R0.

    Report-only: a repeated grid value is flagged as non-strict rather
    than rejected.
    """
    xs = [float(x) for x in xs]
    if any(x <= family.ln_r0 for x in xs):
        raise DomainError("growth grid must stay above ln R0")
    vals = np.real(np.asarray(family.inv0(np.asarray(xs, dtype=complex))))
    diffs = np.diff(vals)
    hits = []
    for thr in thresholds:
        above = np.nonzero(vals > thr)[0]
        hits.append((float(thr), int(above[0]) if above.size else None))
    return GrowthReport(
        xs=tuple(xs),
        re_values=tuple(float(v) for v in vals),
        strictly_increasing=bool(np.all(diffs > 0)) if diffs.size else True,
        nondecreasing=bool(np.all(diffs >= 0)) if diffs.size else True,
        threshold_hits=tuple(hits),
    )


def expansion_margin(family: MapFamily, w):
    """Margin of the lower expansion bound 4*pi*|F'(w)| - (Re F(w) - ln R0).

    Positive at every point of every lifted tract; sampled, not proved.
    """
    w = np.asarray(w, dtype=complex)
    value = np.asarray(family.lift(w))
    deriv = np.asarray(family.lift_deriv(w))
    return 4.0 * math.pi * np.abs(deriv) - (np.real(value) - family.ln_r0)


def branch_growth_bound(family: MapFamily, x):
    """Upper bound 4*pi*ln(x - ln R0) + c0 for Re F_inv_s(x), x >= ln R0 + 1.

    c0 = Re F_inv_0(1 + ln R0) is shared by all branches.  Returns the
    pair (bound values, c0).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < family.ln_r0 + 1.0):
        raise DomainError("growth bound needs x >= ln R0 + 1")
    c0 = float(np.real(np.asarray(family.inv0(complex(1.0 + family.ln_r0)))))
    return 4.0 * math.pi * np.log(x - family.ln_r0) + c0, c0


# ---------------------------------------------------------------------------
# Closed-form tail asymptotics of the exponential family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEnvelope:
    """Rigorous per-rectangle bounds backing the large-index regime.

    For the exponential family the two-level composition at index pair
    (u, s) has derivative 1 / (xi_s(z) * (z - c)) with c = Log(lam) and
    xi_s(z) = Log(z - c) - c + 2*pi*i*s, so on a rectangle right of c

        |xi_s(z)| in [2*pi*|s| - b, 2*pi*|s| + b],   |z - c| in [d_lo, d_hi],

    where b bounds |Log(z - c) - c|.  Everything downstream (weights,
    cell enclosures, window solving, tail integrals) is derived from
    (b, d_lo, d_hi) alone, as a function of sigma = ln(2*pi*|s|).
    """

    b: float
    d_lo: float
    d_hi: float

    @property
    def sigma_valid_min(self) -> float:
        """Smallest sigma at which the enclosures are usable (e^sigma > 2b)."""
        return math.log(2.0 * self.b) if self.b > 0 else -math.inf


class ExpTailModel:
    """Closed-form tail behavior of the exponential family branches."""

    def __init__(self, family: MapFamily):
        if family.kind != "exponential":
            raise ConfigError("tail model is defined for the exponential family only")
        self.family = family
        self.c = family.log_lam

    # rect is (re_lo, re_hi, im_lo, im_hi)

    def envelope(self, rect) -> TailEnvelope:
        re_lo, re_hi, im_lo, im_hi = map(float, rect)
        cr, ci = self.c.real, self.c.imag
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
        return TailEnvelope(b=b, d_lo=d_lo, d_hi=d_hi)

    # -- per-letter derivative envelopes (vectorized over sigma) ------------

    def log_weight_bounds(self, sigma, env: TailEnvelope):
        """Bounds for ln |g'| over the rectangle at sigma = ln(2*pi*|s|).

        Valid for e^sigma > b; the bounds do not depend on the first-level
        index u nor on the sign of s.
        """
        sigma = np.asarray(sigma, dtype=float)
        corr = env.b * np.exp(-sigma)
        lo = -(sigma + np.log1p(corr)) - math.log(env.d_hi)
        hi = -(sigma + np.log1p(-corr)) - math.log(env.d_lo)
        return lo, hi

    def cell_enclosure(self, u: int, sign: int, sigma, env: TailEnvelope):
        """Axis-aligned enclosure of the image cell at (u, sign, sigma).

        Returns (re_lo, re_hi, im_lo, im_hi) arrays covering the full image
        of the rectangle, not just its center.
        """
        sigma = np.asarray(sigma, dtype=float)
        corr = env.b * np.exp(-sigma)
        re_lo = sigma + np.log1p(-corr)
        re_hi = sigma + np.log1p(corr)
        dev = np.arcsin(np.minimum(1.0, corr / np.maximum(1e-300, 1.0 - corr)))
        mid = TWO_PI * u + sign * 0.5 * math.pi
        return re_lo, re_hi, mid - dev, mid + dev

    def center_re(self, sigma, sign: int, anchor_a: complex):
        """Re of the cell center at sigma, via sigma-arithmetic.

        anchor_a = F_inv_0(anchor) - Log(lam), so the center value is
        Log(a + i*sign*e^sigma) + 2*pi*i*u and its real part equals
        sigma + log1p(...)/2 exactly.  Error of the evaluated form stays
        below 1e-9 whenever sigma-arithmetic is engaged (indices past the
        exact-integer float range).
        """
        sigma = np.asarray(sigma, dtype=float)
        e = np.exp(-sigma)
        return sigma + 0.5 * np.log1p(2.0 * sign * anchor_a.imag * e
                                      + (abs(anchor_a) ** 2) * e * e)

    # -- tail sums -----------------------------------------------------------

    def sum_envelope_sandwich(self, sigma_lo: float, sigma_hi: float, t: float,
                              env: TailEnvelope, side: str):
        """Monotone integral sandwich of one envelope sum over a sigma window.

        side "lo" sums the lower per-letter envelope ((2 pi s + b) d_hi)^-t
        over the integers s with sigma(s) in the window, side "hi" the
        upper one ((2 pi s - b) d_lo)^-t.  The integrand is decreasing in
        s, so

            integral_{s1+1}^{s2} <= sum <= first term + integral_{s1}^{s2},

        and both antiderivatives are closed form; the sandwich slack is a
        single endpoint term.  Returns (log lower, log upper) for one
        (u, sign) window.
        """
        if sigma_hi <= sigma_lo:
            return -math.inf, -math.inf
        if side == "lo":
            bb, d = env.b, env.d_hi
        elif side == "hi":
            bb, d = -env.b, env.d_lo
        else:
            raise ConfigError(f"unknown envelope side {side!r}")
        # endpoints of x = 2 pi s + bb in log form
        l1 = sigma_lo + math.log1p(bb * math.exp(-sigma_lo))
        l2 = sigma_hi + math.log1p(bb * math.exp(-sigma_hi))
        l1_shift = sigma_lo + math.log1p((bb + TWO_PI) * math.exp(-sigma_lo))
        log_lower = (-t * math.log(d) - math.log(TWO_PI)
                     + _log_power_integral(min(l1_shift, l2), l2, t))
        log_upper = log_sum_exp([
            -t * (l1 + math.log(d)),
            -t * math.log(d) - math.log(TWO_PI) + _log_power_integral(l1, l2, t),
        ])
        return log_lower, log_upper

    def sum_log_weight_bounds(self, sigma_lo: float, sigma_hi: float, t: float,
                              env: TailEnvelope):
        """Two-sided log bounds on sum over integer |s| of |g'|^t in a window.

        Outer bounds of the two envelope sandwiches: a certified lower
        bound through the lower envelopes and upper bound through the
        upper ones.  Returns (log_lo, log_hi) for one (u, sign) window.
        """
        log_lo = self.sum_envelope_sandwich(sigma_lo, sigma_hi, t, env, "lo")[0]
        log_hi = self.sum_envelope_sandwich(sigma_lo, sigma_hi, t, env, "hi")[1]
        return log_lo, log_hi


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
