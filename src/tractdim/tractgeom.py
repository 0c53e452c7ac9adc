"""Geometric construction over the half plane H = {Re z > ln R0}.

Given an anchor value R deep inside H, the construction takes the square
Q = [R/2, 3R/2] x [-R/2, R/2] centered at R, its inset copy Q' and core
Q'', and studies the two-level inverse images

    cell(u, s) = F_inv_u(F_inv_s(Q)).

The admissible index set G collects the pairs whose cell lands back
inside Q; these cells generate a conformal iterated function system whose
attractor carries the dimension bound certified by the pressure module.

Index magnitudes explode with R (admissible |s| reach exp(3R/2)), so the
large-R regime works in sigma = ln(2*pi*|s|) throughout: windows, weights
and containment certificates are all functions of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ConstructionError, GeometryError, NumericError
from .loglift import ExpTailModel, MapFamily, TailEnvelope
from .numerics import CHUNK, TWO_PI, parallel_map

_MAX_EXACT_INT = float(2 ** 53)  # largest float-exact integer index
# Floats a closed-form window endpoint may move inward to pass the enclosure test.
_ENDPOINT_ULPS = 8


# ---------------------------------------------------------------------------
# Rectangles and budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rect:
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if not (self.re_lo < self.re_hi and self.im_lo < self.im_hi):
            raise GeometryError(f"degenerate rectangle {self.bounds()}")

    def bounds(self):
        return (self.re_lo, self.re_hi, self.im_lo, self.im_hi)

    @property
    def width(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> float:
        return self.im_hi - self.im_lo

    @property
    def min_side(self) -> float:
        return min(self.width, self.height)

    @property
    def diam(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    def shrink(self, d: float) -> "Rect":
        return Rect(self.re_lo + d, self.re_hi - d, self.im_lo + d, self.im_hi - d)

    def contains(self, z, margin: float = 0.0):
        z = np.asarray(z, dtype=complex)
        return ((np.real(z) >= self.re_lo + margin) & (np.real(z) <= self.re_hi - margin)
                & (np.imag(z) >= self.im_lo + margin) & (np.imag(z) <= self.im_hi - margin))

    def contains_rect(self, other: "Rect", margin: float = 0.0) -> bool:
        return (other.re_lo >= self.re_lo + margin and other.re_hi <= self.re_hi - margin
                and other.im_lo >= self.im_lo + margin and other.im_hi <= self.im_hi - margin)

    def dist_to_boundary(self, z):
        """Signed distance to the boundary (positive inside)."""
        z = np.asarray(z, dtype=complex)
        return np.minimum(
            np.minimum(np.real(z) - self.re_lo, self.re_hi - np.real(z)),
            np.minimum(np.imag(z) - self.im_lo, self.im_hi - np.imag(z)))

    def boundary_points(self, n: int) -> np.ndarray:
        """n equally spaced boundary samples, anchored at the lower-left corner."""
        ts = np.arange(n, dtype=float) * (self.perimeter / n)
        w, h = self.width, self.height
        pts = np.empty(n, dtype=complex)
        for i, t in enumerate(ts):
            if t < w:
                pts[i] = complex(self.re_lo + t, self.im_lo)
            elif t < w + h:
                pts[i] = complex(self.re_hi, self.im_lo + (t - w))
            elif t < 2 * w + h:
                pts[i] = complex(self.re_hi - (t - w - h), self.im_hi)
            else:
                pts[i] = complex(self.re_lo, self.im_hi - (t - 2 * w - h))
        return pts


@dataclass(frozen=True)
class GeometryBudget:
    """Tunable constants of the construction.

    epsilon controls the anchor-derivative condition, inset is the width D
    by which the inner square retreats from Q, margin is extra containment
    padding on top of the per-cell analytic padding.
    """

    epsilon: float = 0.1
    inset: float = 0.5
    margin: float = 0.0
    boundary_samples: int = 256

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.inset <= 0.0:
            raise ConfigError(f"inset must be positive, got {self.inset}")
        if self.margin < 0.0:
            raise ConfigError(f"margin must be >= 0, got {self.margin}")
        if self.boundary_samples < 64:
            raise ConfigError(f"need >= 64 boundary samples, got {self.boundary_samples}")


# ---------------------------------------------------------------------------
# Squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareSpec:
    """The nested squares of the construction, centered at the anchor."""

    anchor: float
    outer: Rect   # side R
    inner: Rect   # outer inset by D on all sides
    core: Rect    # half-size square, same center

    @property
    def inner_degenerate(self) -> bool:
        """True when the inset square no longer strictly contains the core."""
        return not (self.inner.re_lo < self.core.re_lo and self.inner.re_hi > self.core.re_hi
                    and self.inner.im_lo < self.core.im_lo and self.inner.im_hi > self.core.im_hi)


def build_squares(anchor: float, inset: float) -> SquareSpec:
    """Nested squares at the anchor; the boundary case inset == anchor/4
    (inner square collapsing onto the core) is allowed but flagged."""
    if not inset > 0.0:
        raise GeometryError(f"inset must be positive, got {inset}")
    if anchor / 4.0 < inset:
        raise GeometryError(
            f"anchor/4 = {anchor / 4.0:.6g} must not be below the inset {inset:.6g}")
    a = float(anchor)
    outer = Rect(a / 2.0, 3.0 * a / 2.0, -a / 2.0, a / 2.0)
    inner = outer.shrink(float(inset))
    core = Rect(3.0 * a / 4.0, 5.0 * a / 4.0, -a / 4.0, a / 4.0)
    return SquareSpec(anchor=a, outer=outer, inner=inner, core=core)


# ---------------------------------------------------------------------------
# Distortion constant
# ---------------------------------------------------------------------------

def _koebe_hi(rho: float) -> float:
    return (1.0 + rho) / (1.0 - rho) ** 3


def _koebe_lo(rho: float) -> float:
    return (1.0 - rho) / (1.0 + rho) ** 3


@dataclass(frozen=True)
class DistortionBound:
    """Distortion constant C for inverse branches on the square Q.

    Any branch is univalent on all of H; C bounds |phi'(z)| / |phi'(R)|
    from above and its reciprocal from below, for every z in Q.
    """

    c: float
    rho: float
    mode: str


def distortion_constant(anchor: float, ln_r0: float, mode: str = "single",
                        subdivisions: int = 4) -> DistortionBound:
    """Koebe-based distortion constant of a branch on Q relative to the anchor.

    single: one application on the disk B(R, R - ln R0), which contains
    the covering disk of Q of radius R/sqrt(2) provided rho < 1.
    chained: a two-step bound through the centers of a subdivision of Q,
    never worse than the single-disk constant.
    """
    a = float(anchor)
    univalence_radius = a - ln_r0
    rho = (a / math.sqrt(2.0)) / univalence_radius
    if rho >= 1.0 or univalence_radius <= 0.0:
        raise GeometryError(
            f"covering-disk ratio rho = {rho:.4f} >= 1; anchor too close to ln R0")
    c_single = _koebe_hi(rho)
    if mode == "single":
        return DistortionBound(c=c_single, rho=rho, mode="single")
    if mode != "chained":
        raise ConfigError(f"unknown distortion mode {mode!r}")
    k = max(2, int(subdivisions))
    outer = build_squares(a, a / 8.0).outer
    side = a / k
    worst = 1.0
    for i in range(k):
        for j in range(k):
            zc = complex(outer.re_lo + (i + 0.5) * side, outer.im_lo + (j + 0.5) * side)
            rho1 = abs(zc - a) / univalence_radius
            rho2 = (side / math.sqrt(2.0)) / (zc.real - ln_r0)
            if rho1 >= 1.0 or rho2 >= 1.0:
                return DistortionBound(c=c_single, rho=rho, mode="single")
            worst = max(worst, _koebe_hi(rho1) * _koebe_hi(rho2))
    return DistortionBound(c=min(worst, c_single), rho=rho, mode="chained")


def universal_cell_diameter_bound(spec: SquareSpec, dist: DistortionBound,
                                  ln_r0: float) -> float:
    """diam(Q) * 4*pi*C / (R - ln R0), the distortion-certified cell bound."""
    return spec.outer.diam * 4.0 * math.pi * dist.c / (spec.anchor - ln_r0)


def _distortion_or_unavailable(anchor: float, ln_r0: float,
                               mode: str = "single") -> DistortionBound:
    """Distortion constant, or an infinite sentinel below the Koebe range.

    Anchors too close to ln R0 admit no covering disk; constructions then
    lean on family-sharp envelopes alone and no universal bound exists.
    """
    try:
        return distortion_constant(anchor, ln_r0, mode=mode)
    except GeometryError:
        return DistortionBound(c=math.inf, rho=math.nan, mode="unavailable")


# ---------------------------------------------------------------------------
# Anchor line and radius search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnchorLine:
    """The vertical line carrying every branch preimage of the anchor."""

    anchor: float
    real_part: float            # shared Re of all preimages v_s
    c0: float                   # Re F_inv_0(1 + ln R0)
    growth_bound: float         # 4*pi*ln(anchor - ln R0) + c0
    cor_margin: float           # growth_bound - real_part (> 0 expected)
    depth_margin: float         # real_part - (ln R0 + 2*inset)
    conj_symmetric: bool        # v_s and v_-s conjugate (real parameter)
    sample_indices: tuple
    sample_points: tuple


def anchor_line(family: MapFamily, anchor: float, inset: float,
                s_check: int = 1000) -> AnchorLine:
    """Locate the line {Re = r} of branch preimages of the anchor.

    Raises if the sampled preimages fail to share one real part, which
    would break the family contract F_inv_s = F_inv_0 + 2*pi*i*s.
    """
    v0 = complex(np.asarray(family.inv0(complex(anchor))).item())
    r = v0.real
    s_sample = sorted({0, 1, -1, 2, -2, 10, -10, s_check, -s_check})
    pts = [v0 + TWO_PI * 1j * s for s in s_sample]
    worst = max(abs(p.real - r) for p in pts)
    if worst > 1e-9 * (1.0 + abs(r)):
        raise ConstructionError(
            f"branch preimages not on one vertical line (spread {worst:.3g})")
    c0 = float(np.real(np.asarray(family.inv0(complex(1.0 + family.ln_r0))).item()))
    bound = 4.0 * math.pi * math.log(anchor - family.ln_r0) + c0
    conj = False
    if abs(complex(family.lam).imag) == 0.0:
        v1 = complex(np.asarray(family.inv0(complex(anchor))).item()) + TWO_PI * 1j
        vm1 = complex(np.asarray(family.inv0(complex(anchor))).item()) - TWO_PI * 1j
        conj = abs(v1 - vm1.conjugate()) <= 1e-9 * (1.0 + abs(v1))
    return AnchorLine(
        anchor=float(anchor), real_part=r, c0=c0, growth_bound=bound,
        cor_margin=bound - r,
        depth_margin=r - (family.ln_r0 + 2.0 * inset),
        conj_symmetric=conj,
        sample_indices=tuple(s_sample), sample_points=tuple(pts))


class RadiusSearchError(GeometryError):
    def __init__(self, message, margins):
        super().__init__(message)
        self.margins = margins


def find_radius(family: MapFamily, budget: GeometryBudget,
                scan_lo: float, scan_hi: float, step: float) -> float:
    """Smallest grid point satisfying the three anchor conditions.

    (1) |F_inv_0'(x)| > 1/x^(1+epsilon); (2) Re F_inv_0(x) > ln R0 +
    2*inset; (3) x/4 > inset.  The grid is scan_lo, scan_lo+step, ...;
    ties break to the smallest passing point by construction.
    """
    if scan_lo <= family.ln_r0 + 1.0:
        raise ConfigError(
            f"scan must start above ln R0 + 1 = {family.ln_r0 + 1.0:.6g}")
    if step <= 0 or scan_hi < scan_lo:
        raise ConfigError("empty or backwards scan grid")
    xs = np.arange(scan_lo, scan_hi + 0.5 * step, step, dtype=float)
    deriv_margin = np.abs(np.asarray(family.inv0_deriv(xs.astype(complex)))) \
        - xs ** (-(1.0 + budget.epsilon))
    depth_margin = np.real(np.asarray(family.inv0(xs.astype(complex)))) \
        - (family.ln_r0 + 2.0 * budget.inset)
    size_margin = xs / 4.0 - budget.inset
    ok = (deriv_margin > 0) & (depth_margin > 0) & (size_margin > 0)
    hits = np.nonzero(ok)[0]
    if hits.size:
        return float(xs[hits[0]])
    margins = {
        "anchor_derivative": float(np.max(deriv_margin)),
        "tract_depth": float(np.max(depth_margin)),
        "square_size": float(np.max(size_margin)),
    }
    raise RadiusSearchError(
        "no grid point satisfies the anchor conditions (worst margins: "
        + ", ".join(f"{k}={v:.4g}" for k, v in margins.items())
        + "); the scan may simply be too short", margins)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass
class CellImage:
    """One two-level image cell(u, s) with certified bounds.

    log_domain marks cells whose index magnitude exceeds the float-exact
    integer range; such cells carry sigma = ln(2*pi*|s|) instead of s and
    no complex center.
    """

    u: int
    s: Optional[int]
    sign: int
    sigma: float
    log_domain: bool
    center: Optional[complex]
    center_re: float
    center_im: float
    diam_bound: float
    diam_bound_universal: float
    anchor_deriv_abs: Optional[float] = None
    verdict: str = "unverified"
    borderline: bool = False
    measured_diam: Optional[float] = None
    enclosure: Optional[tuple] = None
    delta_used: Optional[float] = None


def _cell_sharp_bounds(model: ExpTailModel, env: TailEnvelope, sigma: float):
    """(sup |g'| bound, sharp diameter factor) at sigma, or None below validity."""
    if sigma <= env.sigma_valid_min:
        return None
    _, log_hi = model.log_weight_bounds(sigma, env)
    return float(np.exp(log_hi))


def cell_image(family: MapFamily, u: int, s: int, spec: SquareSpec,
               dist: DistortionBound, budget: Optional[GeometryBudget] = None) -> CellImage:
    """Construct the cell at (u, s): center, diameter bounds, verdict.

    The first-level image must stay in H for the second branch to apply;
    a violation is a construction error, not a containment failure.
    """
    if s == 0:
        sign = 1
        sigma = -math.inf
    else:
        sign = 1 if s > 0 else -1
        sigma = math.log(TWO_PI) + math.log(abs(s))
    log_domain = abs(s) > _MAX_EXACT_INT
    env = None
    model = None
    if family.has_tail_model:
        model = family.tail_model()
        env = model.envelope(spec.outer.bounds())
        if math.log(env.d_lo) <= family.ln_r0:
            raise ConstructionError(
                "first-level image leaves the half plane: ln(min|z - Log lam|) = "
                f"{math.log(env.d_lo):.6g} <= ln R0 = {family.ln_r0:.6g}")
    diam_universal = universal_cell_diameter_bound(spec, dist, family.ln_r0)
    diam_bound = diam_universal
    enclosure = None
    if env is not None and sigma > env.sigma_valid_min:
        sup_g = _cell_sharp_bounds(model, env, sigma)
        diam_bound = min(diam_universal, sup_g * spec.outer.diam)
        re_lo, re_hi, im_lo, im_hi = model.cell_enclosure(u, sign, sigma, env)
        enclosure = (float(re_lo), float(re_hi), float(im_lo), float(im_hi))
    if log_domain:
        if model is None:
            raise ConstructionError("index beyond exact-integer range needs a tail model")
        a = complex(np.asarray(family.inv0(complex(spec.anchor))).item()) - family.log_lam
        center_re = float(model.center_re(sigma, sign, a))
        center_im = TWO_PI * u + sign * 0.5 * math.pi
        center = None
        anchor_deriv = None
    else:
        v_s = complex(np.asarray(family.inv0(complex(spec.anchor))).item()) + TWO_PI * 1j * s
        if v_s.real <= family.ln_r0:
            raise ConstructionError(
                f"anchor preimage leaves the half plane (Re = {v_s.real:.6g})")
        center = complex(np.asarray(family.inv0(v_s)).item()) + TWO_PI * 1j * u
        center_re, center_im = center.real, center.imag
        d1 = complex(np.asarray(family.inv0_deriv(v_s)).item())
        d0 = complex(np.asarray(family.inv0_deriv(complex(spec.anchor))).item())
        anchor_deriv = abs(d1 * d0)
    cell = CellImage(
        u=int(u), s=None if log_domain else int(s), sign=sign, sigma=sigma,
        log_domain=log_domain, center=center, center_re=center_re,
        center_im=center_im, diam_bound=diam_bound,
        diam_bound_universal=diam_universal, anchor_deriv_abs=anchor_deriv,
        enclosure=enclosure)
    if budget is not None:
        containment_test(family, cell, spec, budget, dist)
    return cell


def containment_test(family: MapFamily, cell: CellImage, spec: SquareSpec,
                     budget: GeometryBudget, dist: Optional[DistortionBound] = None) -> str:
    """Decide cell containment in Q; updates and returns the verdict.

    Fast paths: a center outside Q is outside; a certified enclosure (or
    center + diameter bound) inside the margin-shrunk Q is inside.  The
    sampled fallback maps boundary samples of Q and pads them by a
    Lipschitz delta = sup|g'| * sample spacing + margin; samples must
    land in Q shrunk by delta for an "inside" verdict.
    """
    margin = budget.margin
    center_inside = (spec.outer.re_lo <= cell.center_re <= spec.outer.re_hi
                     and spec.outer.im_lo <= cell.center_im <= spec.outer.im_hi)
    if not center_inside:
        cell.verdict = "outside"
        return cell.verdict
    if cell.enclosure is not None:
        enc = Rect(*cell.enclosure)
        if spec.outer.contains_rect(enc, margin):
            cell.verdict = "inside"
            return cell.verdict
    dist_to_edge = float(spec.outer.dist_to_boundary(complex(cell.center_re, cell.center_im)))
    if dist_to_edge - margin > cell.diam_bound:
        cell.verdict = "inside"
        return cell.verdict
    if cell.log_domain:
        # sigma-cells are decided purely by their analytic enclosure
        cell.verdict = "outside"
        cell.borderline = True
        return cell.verdict
    n = budget.boundary_samples
    pts = spec.outer.boundary_points(n)
    first = np.asarray(family.inv0(pts)) + TWO_PI * 1j * cell.s
    if np.any(np.real(first) <= family.ln_r0):
        raise ConstructionError(
            f"first-level boundary image leaves the half plane at (u,s)=({cell.u},{cell.s})")
    imgs = np.asarray(family.inv0(first)) + TWO_PI * 1j * cell.u
    lip = None
    if cell.anchor_deriv_abs is not None and dist is not None:
        lip = cell.anchor_deriv_abs * dist.c
    if cell.enclosure is not None:
        sharp = cell.diam_bound / spec.outer.diam
        lip = sharp if lip is None else min(lip, sharp)
    if lip is None:
        raise ConstructionError("no Lipschitz bound available for sampled containment")
    spacing = spec.outer.perimeter / n
    delta = margin + lip * spacing
    cell.delta_used = delta
    if delta > 0.5 * spec.outer.min_side:
        raise GeometryError(
            f"containment padding {delta:.4g} exceeds half the square side; "
            "cannot certify at this sample count")
    diffs = imgs[:, None] - imgs[None, :]
    cell.measured_diam = float(np.max(np.abs(diffs)))
    inside = bool(np.all(spec.outer.contains(imgs, margin=delta)))
    if inside:
        cell.verdict = "inside"
    else:
        cell.verdict = "outside"
        cell.borderline = bool(np.all(spec.outer.contains(imgs, margin=0.0)))
    return cell.verdict


# ---------------------------------------------------------------------------
# Index windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaWindow:
    """Certified admissible sigma interval for one (u, sign) column."""

    u: int
    sign: int
    sigma_lo: float
    sigma_hi: float

    @property
    def s_bounds(self):
        """Window endpoints in index units (floats; may overflow to inf)."""
        return (math.exp(self.sigma_lo) / TWO_PI if self.sigma_lo < 700 else math.inf,
                math.exp(self.sigma_hi) / TWO_PI if self.sigma_hi < 700 else math.inf)

    @property
    def representable(self) -> bool:
        lo, hi = self.s_bounds
        return hi <= _MAX_EXACT_INT


def solve_s_window(family: MapFamily, u: int, anchor_or_spec, spec: Optional[SquareSpec] = None,
                   budget: Optional[GeometryBudget] = None, sign: int = 1,
                   margin: float = None) -> Optional[SigmaWindow]:
    """Admissible sigma interval of one (u, sign) column, in closed form.

    Accepts either (family, u, anchor, ...) or (family, u, spec, ...).
    With b = env.b, x = re_lo(Q) + margin, y = re_hi(Q) - margin and
    delta the vertical room around mid = 2*pi*u + sign*pi/2, each
    inequality of `ExpTailModel.cell_enclosure` inverts exactly:

        re_lo >= x          <=>  sigma >= ln(e^x + b)
        re_hi <= y          <=>  sigma <= ln(e^y - b)
        arcsin(...) <= delta <=> sigma >= ln b + log1p(1/sin delta),

    the last only for delta < pi/2 (arcsin never exceeds pi/2).  All three
    are evaluated in log form, so anchors past the exp range are fine.
    Returns None when the inequalities leave no room (y <= ln b,
    delta <= 0 or an empty interval).

    Both endpoints are then checked against the enclosure predicate
    itself; an endpoint that fails is moved inward by at most
    `_ENDPOINT_ULPS` floats, never outward, so the returned window is
    certified by the same test a bisection would use.  An endpoint that
    still fails raises NumericError; there is no fallback to enumeration.
    """
    if spec is None:
        if isinstance(anchor_or_spec, SquareSpec):
            spec = anchor_or_spec
        else:
            spec = build_squares(float(anchor_or_spec),
                                 budget.inset if budget else float(anchor_or_spec) / 8.0)
    if margin is None:
        margin = budget.margin if budget is not None else 0.0
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    target = spec.outer

    def admissible(sigma: float) -> bool:
        if sigma <= env.sigma_valid_min:
            return False
        re_lo, re_hi, im_lo, im_hi = model.cell_enclosure(u, sign, sigma, env)
        return (re_lo >= target.re_lo + margin and re_hi <= target.re_hi - margin
                and im_lo >= target.im_lo + margin and im_hi <= target.im_hi - margin)

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
    certified_lo = _certify_endpoint(admissible, sigma_lo, math.inf)
    certified_hi = _certify_endpoint(admissible, sigma_hi, -math.inf)
    if certified_lo is None or certified_hi is None or certified_hi <= certified_lo:
        raise NumericError(
            f"closed-form sigma window [{sigma_lo!r}, {sigma_hi!r}] for u={u}, sign={sign} "
            f"fails the enclosure test within {_ENDPOINT_ULPS} ulps inward")
    return SigmaWindow(u=int(u), sign=int(sign), sigma_lo=certified_lo,
                       sigma_hi=certified_hi)


def _certify_endpoint(admissible, sigma: float, inward: float) -> Optional[float]:
    """First float from sigma towards `inward` passing the predicate, or None."""
    for _ in range(_ENDPOINT_ULPS + 1):
        if admissible(sigma):
            return sigma
        sigma = math.nextafter(sigma, inward)
    return None


# ---------------------------------------------------------------------------
# The admissible set G
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SWindow:
    """A contiguous run of explicit admissible indices at one u (one sign)."""

    u: int
    s_lo: int
    s_hi: int

    @property
    def count(self) -> int:
        return self.s_hi - self.s_lo + 1

    @property
    def sign(self) -> int:
        return 1 if self.s_lo > 0 else -1


@dataclass(frozen=True)
class TailSegment:
    """A sigma interval of admissible indices certified analytically."""

    u: int
    sign: int
    sigma_lo: float
    sigma_hi: float


@dataclass(frozen=True)
class GSet:
    """The admissible index pairs: explicit runs plus analytic tail segments."""

    mode: str
    windows: tuple  # of SWindow, sorted by (u, s_lo)
    segments: tuple  # of TailSegment, sorted by (u, sign, sigma_lo)

    @property
    def n_explicit(self) -> int:
        return sum(w.count for w in self.windows)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def is_empty(self) -> bool:
        return not self.windows and not self.segments

    def cum_counts(self) -> np.ndarray:
        return np.cumsum([w.count for w in self.windows])

    def letters_from_ranks(self, ranks: np.ndarray):
        """Map ranks in [0, n_explicit) to (u, s) arrays, rank order = (u, s_lo)."""
        if not self.windows:
            raise ConstructionError("no explicit letters to index")
        cum = self.cum_counts()
        ranks = np.asarray(ranks, dtype=np.int64)
        win = np.searchsorted(cum, ranks, side="right")
        starts = cum - np.array([w.count for w in self.windows])
        offs = ranks - starts[win]
        u = np.array([w.u for w in self.windows], dtype=np.int64)[win]
        s = np.array([w.s_lo for w in self.windows], dtype=np.int64)[win] + offs
        return u, s

    def letters_by_weight(self, k: int):
        """The k explicit letters of largest derivative (smallest |s|),
        ties broken by (u, s)."""
        cands = []
        for w in self.windows:
            take = min(w.count, k)
            if w.s_lo > 0:
                ss = range(w.s_lo, w.s_lo + take)
            else:
                ss = range(w.s_hi, w.s_hi - take, -1)
            cands.extend((abs(s), w.u, s) for s in ss)
        cands.sort()
        return [(u, s) for _, u, s in cands[:k]]

    def pairs_iter(self):
        for w in self.windows:
            for s in range(w.s_lo, w.s_hi + 1):
                yield (w.u, s)

    def to_json_dict(self, max_pairs: int = 1_000_000) -> dict:
        if self.n_explicit > max_pairs:
            raise ConstructionError(
                f"{self.n_explicit} explicit pairs exceed the serialization "
                f"limit {max_pairs}; serialize windows or raise the limit")
        return {
            "mode": self.mode,
            "pairs": [[u, s] for (u, s) in self.pairs_iter()],
            "segments": [{"u": seg.u, "sign": seg.sign, "sigma_lo": seg.sigma_lo,
                          "sigma_hi": seg.sigma_hi} for seg in self.segments],
        }


def _u_candidates(spec: SquareSpec, margin: float) -> dict:
    """Candidate u ranges per sign from the vertical extent of Q."""
    out = {}
    for sign in (1, -1):
        mid = sign * 0.5 * math.pi
        lo = math.ceil((spec.outer.im_lo + margin - mid) / TWO_PI) - 1
        hi = math.floor((spec.outer.im_hi - margin - mid) / TWO_PI) + 1
        out[sign] = range(lo, hi + 1)
    return out


def _enumerate_window_chunk(args):
    """Worker: verdicts for one contiguous chunk of candidate indices.

    Returns (inside run list, borderline list) with signed indices.
    """
    (family, rect_bounds, margin, u, sign, s_start, s_end) = args
    model = family.tail_model()
    env = model.envelope(rect_bounds)
    rect = Rect(*rect_bounds)
    ss = np.arange(s_start, s_end + 1, dtype=np.int64)
    sigma = np.log(TWO_PI) + np.log(ss.astype(float))
    valid = sigma > env.sigma_valid_min
    with np.errstate(invalid="ignore"):
        re_lo, re_hi, im_lo, im_hi = model.cell_enclosure(u, sign, sigma, env)
        inside = (valid & (re_lo >= rect.re_lo + margin) & (re_hi <= rect.re_hi - margin)
                  & (im_lo >= rect.im_lo + margin) & (im_hi <= rect.im_hi - margin))
    anchor = rect.re_lo + 0.5 * rect.width
    base = complex(np.asarray(family.inv0(complex(anchor))).item())
    w = base + TWO_PI * 1j * (sign * ss.astype(float))
    centers = np.asarray(family.inv0(w)) + TWO_PI * 1j * u
    center_in = rect.contains(centers)
    borderline = np.nonzero(~inside & center_in)[0]
    runs = []
    idx = np.nonzero(inside)[0]
    if idx.size:
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [idx.size - 1]])
        for a, b in zip(starts, ends):
            runs.append((int(sign * ss[idx[a]]), int(sign * ss[idx[b]])))
    return runs, [int(sign * ss[i]) for i in borderline]


def _merge_runs(runs: list) -> list:
    """Merge signed contiguous runs (each run already ordered by |s|...)."""
    if not runs:
        return []
    norm = [(min(a, b), max(a, b)) for a, b in runs]
    norm.sort()
    merged = [norm[0]]
    for a, b in norm[1:]:
        la, lb = merged[-1]
        if a <= lb + 1:
            merged[-1] = (la, max(lb, b))
        else:
            merged.append((a, b))
    return merged


def build_G(family: MapFamily, anchor: float, spec: SquareSpec, budget: GeometryBudget,
            mode: str = "enumerate", dist: Optional[DistortionBound] = None,
            workers: int = 1, collar: int = 32,
            max_explicit: int = 200_000_000) -> GSet:
    """Assemble the admissible set G = {(u, s): cell(u, s) inside Q}.

    enumerate: every candidate integer index is tested individually
    (vectorized enclosure fast path, sampled fallback for borderline
    cells).  tail: per-(u, sign) sigma segments certified analytically.
    Each window whose indices are float-exact keeps one explicit collar
    of `collar` indices at its low edge, where the letters weigh most;
    the segment runs from just past the collar to floor of the window's
    upper endpoint.  The cell enclosure is monotone in sigma, so the
    admissible sigma set is an interval and every index between the two
    solved endpoints is certified without an explicit test.

    An empty G is a reported outcome, not an error: it is returned when
    no column admits a cell, and also when the first-level images leave
    the half plane H (no two-level branch then maps Q back into H).
    """
    if mode not in ("enumerate", "tail"):
        raise ConfigError(f"unknown G mode {mode!r}")
    if not family.has_tail_model:
        raise ConfigError("families without tail asymptotics are not supported by build_G; "
                          "provide tail callbacks or test cells individually")
    if dist is None:
        dist = _distortion_or_unavailable(anchor, family.ln_r0)
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    if math.log(env.d_lo) <= family.ln_r0:
        # first-level images leave the half plane at this anchor/family
        return GSet(mode=mode, windows=(), segments=())
    margin = budget.margin
    windows: list[SWindow] = []
    segments: list[TailSegment] = []
    u_cands = _u_candidates(spec, margin)
    sigma_windows = []
    for sign in (1, -1):
        for u in u_cands[sign]:
            win = solve_s_window(family, u, spec, budget=budget, sign=sign, margin=margin)
            if win is not None:
                sigma_windows.append(win)
    sigma_windows.sort(key=lambda w: (w.u, w.sign, w.sigma_lo))

    if mode == "tail":
        for win in sigma_windows:
            s_lo_f, s_hi_f = win.s_bounds
            if collar > 0 and s_hi_f <= _MAX_EXACT_INT:
                s_lo = math.ceil(s_lo_f - 1e-9)
                s_hi = math.floor(s_hi_f)
                if s_hi - s_lo + 1 <= collar + 4:
                    windows.extend(_explicit_from_range(family, spec, budget, dist,
                                                        win.u, win.sign, s_lo, s_hi, workers))
                    continue
                windows.extend(_explicit_from_range(family, spec, budget, dist, win.u, win.sign,
                                                    s_lo, s_lo + collar - 1, workers))
                seg_lo = math.log(TWO_PI) + math.log(s_lo + collar)
                seg_hi = math.log(TWO_PI) + math.log(s_hi)
                if seg_hi > seg_lo:
                    segments.append(TailSegment(win.u, win.sign, seg_lo, seg_hi))
            else:
                segments.append(TailSegment(win.u, win.sign, win.sigma_lo, win.sigma_hi))
        windows.sort(key=lambda w: (w.u, w.s_lo))
        segments.sort(key=lambda s: (s.u, s.sign, s.sigma_lo))
        return GSet(mode="tail", windows=tuple(windows), segments=tuple(segments))

    # enumerate mode
    total = 0
    widen = int(math.ceil((TWO_PI + 2.0 * env.b) / TWO_PI)) + 2
    for win in sigma_windows:
        s_lo_f, s_hi_f = win.s_bounds
        if s_hi_f > _MAX_EXACT_INT:
            raise ConstructionError(
                f"window for u={win.u} reaches |s| ~ {s_hi_f:.3g}, beyond exact "
                "integer range; use tail mode")
        s_lo = max(1, math.floor(s_lo_f) - widen)
        s_hi = math.ceil(s_hi_f) + widen
        total += s_hi - s_lo + 1
        if total > max_explicit:
            raise ConstructionError(
                f"enumeration would visit more than {max_explicit} cells; use tail mode")
        windows.extend(_explicit_from_range(family, spec, budget, dist,
                                            win.u, win.sign, s_lo, s_hi, workers))
    windows.sort(key=lambda w: (w.u, w.s_lo))
    return GSet(mode="enumerate", windows=tuple(windows), segments=())


def _explicit_from_range(family, spec, budget, dist, u, sign, s_lo, s_hi, workers) -> list:
    """Containment-test the unsigned index range [s_lo, s_hi] at (u, sign)."""
    if s_hi < s_lo:
        return []
    chunks = []
    for start in range(s_lo, s_hi + 1, CHUNK):
        chunks.append((family, spec.outer.bounds(), budget.margin, u, sign,
                       start, min(start + CHUNK - 1, s_hi)))
    results = parallel_map(_enumerate_window_chunk, chunks, workers=workers)
    runs: list = []
    borderline: list = []
    for r, b in results:
        runs.extend(r)
        borderline.extend(b)
    # sampled verdicts for borderline candidates (rare)
    for s in borderline:
        cell = cell_image(family, u, s, spec, dist, budget=None)
        if containment_test(family, cell, spec, budget, dist) == "inside":
            runs.append((s, s))
    return [SWindow(u=u, s_lo=a, s_hi=b) for a, b in _merge_runs(runs)]


# ---------------------------------------------------------------------------
# Pairwise separation of cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    min_gap: float
    n_adjacent_checked: int
    column_separation: float  # min gap between distinct (u, sign) columns


def min_cell_gap(family: MapFamily, gset: GSet, spec: SquareSpec) -> GapReport:
    """Lower bound the pairwise separation of the enumerated cells.

    Each cell g(Q) is enclosed in the disk of radius sup_Q |g'| * diam(Q)/2
    around g(R): Q is convex and centred at the anchor R, so the segment
    from R to any z in Q stays in Q and |g(z) - g(R)| <= sup_Q |g'| * |z - R|
    <= sup_Q |g'| * diam(Q)/2.  Within one (u, sign) run, consecutive
    indices give the closest pairs; across runs, the vertical extents of
    whole columns are compared.  Since the disks enclose the cells,
    min_gap is a lower bound on the true separation of consecutive cells
    (it may be negative even when the cells are disjoint).
    """
    if not gset.windows:
        raise ConstructionError("gap report needs explicit cells")
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    base = complex(np.asarray(family.inv0(complex(spec.anchor))).item())
    half_diam = 0.5 * spec.outer.diam
    min_gap = math.inf
    checked = 0
    columns = []
    for w in gset.windows:
        lo, hi = (w.s_lo, w.s_hi)
        col_im_lo, col_im_hi = math.inf, -math.inf
        max_rad = 0.0
        for start in range(lo, hi + 1, CHUNK):
            end = min(start + CHUNK - 1, hi)
            ss = np.arange(start, end + 1, dtype=np.int64)
            v = base + TWO_PI * 1j * ss.astype(float)
            centers = np.asarray(family.inv0(v)) + TWO_PI * 1j * w.u
            sigma = np.log(TWO_PI) + np.log(np.abs(ss).astype(float))
            _, log_hi_w = model.log_weight_bounds(sigma, env)
            radius = np.exp(log_hi_w) * half_diam
            if end + 1 <= hi:
                nxt = complex(np.asarray(family.inv0(base + TWO_PI * 1j * float(end + 1))).item()) \
                    + TWO_PI * 1j * w.u
                centers_ext = np.concatenate([centers, [nxt]])
                sig_n = math.log(TWO_PI) + math.log(abs(end + 1))
                radius_ext = np.concatenate(
                    [radius, [math.exp(model.log_weight_bounds(sig_n, env)[1]) * half_diam]])
            else:
                centers_ext, radius_ext = centers, radius
            if centers_ext.size >= 2:
                d = np.abs(np.diff(centers_ext))
                g = d - radius_ext[:-1] - radius_ext[1:]
                min_gap = min(min_gap, float(np.min(g)))
                checked += g.size
            col_im_lo = min(col_im_lo, float(np.min(np.imag(centers) - radius)))
            col_im_hi = max(col_im_hi, float(np.max(np.imag(centers) + radius)))
            max_rad = max(max_rad, float(np.max(radius)))
        columns.append((col_im_lo, col_im_hi))
    columns.sort()
    col_sep = math.inf
    for (a_lo, a_hi), (b_lo, b_hi) in zip(columns, columns[1:]):
        col_sep = min(col_sep, b_lo - a_hi)
    return GapReport(min_gap=min_gap, n_adjacent_checked=checked,
                     column_separation=col_sep)


# ---------------------------------------------------------------------------
# Level lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTrace:
    """One traced branch preimage of the anchor line, clipped to Q'."""

    u: int
    points: np.ndarray
    components: tuple         # polylines inside Q' that meet Q''
    arclengths: tuple
    min_re: float
    meets_core: bool
    aborted: bool = False
    diagnostic: str = ""


@dataclass(frozen=True)
class LevelLineReport:
    traces: tuple
    curve_count: int
    required_count: int         # floor(R / (4 pi))
    min_component_length: float
    required_length: float      # R/4 - inset
    growth_bound: float         # 4 pi ln(r - ln R0) + c0
    min_re_margins: tuple       # per trace: growth_bound - min Re


def trace_level_lines(family: MapFamily, spec: SquareSpec, budget: GeometryBudget,
                      step_fraction: float = 0.02) -> LevelLineReport:
    """Trace the branch preimages of the anchor line by continuation.

    Follows each curve {F_inv_u(r + iy)} outward from y = 0 with steps
    adapted to the local branch derivative, clips the polyline to the
    inner square, and keeps components meeting the core square.  Only
    meaningful in the small-anchor regime where the curves are few.
    """
    if spec.anchor > 2000:
        raise GeometryError("level-line tracing is restricted to small anchors")
    line = anchor_line(family, spec.anchor, budget.inset)
    r = line.real_part
    inner, core = spec.inner, spec.core
    required_length = spec.anchor / 4.0 - budget.inset
    step = max(1e-6, step_fraction * max(required_length, 1e-3))
    traces = []
    margins = []
    u_lo = math.floor((inner.im_lo - 1.0) / TWO_PI) - 1
    u_hi = math.ceil((inner.im_hi + 1.0) / TWO_PI) + 1
    for u in range(u_lo, u_hi + 1):
        pts, aborted, diag = _march_curve(family, r, u, inner.re_hi + 1.0, step)
        if pts.size == 0:
            continue
        comps, lens = _clip_components(pts, inner, core)
        meets = len(comps) > 0
        trace = CurveTrace(
            u=u, points=pts, components=tuple(comps), arclengths=tuple(lens),
            min_re=float(np.min(np.real(pts))), meets_core=meets,
            aborted=aborted, diagnostic=diag)
        if meets or inner.im_lo <= TWO_PI * u <= inner.im_hi:
            traces.append(trace)
            margins.append(line.growth_bound - trace.min_re)
    count = sum(1 for t in traces if t.meets_core)
    lengths = [l for t in traces for l in t.arclengths]
    return LevelLineReport(
        traces=tuple(traces), curve_count=count,
        required_count=int(math.floor(spec.anchor / (4.0 * math.pi))),
        min_component_length=min(lengths) if lengths else math.inf,
        required_length=required_length,
        growth_bound=line.growth_bound,
        min_re_margins=tuple(margins))


def _march_curve(family: MapFamily, r: float, u: int, re_stop: float, step: float):
    """Continuation of F_inv_u along the vertical line {Re = r}."""
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


def _clip_components(pts: np.ndarray, inner: Rect, core: Rect):
    """Split a polyline at the inner-square boundary; keep core-meeting parts."""
    comps, lens = [], []
    cur = []

    def crossing(a, b):
        # linear parameter where the segment [a, b] crosses the inner boundary
        ts = [1.0]
        for lo, hi, get in ((inner.re_lo, inner.re_hi, np.real), (inner.im_lo, inner.im_hi, np.imag)):
            va, vb = float(get(a)), float(get(b))
            for edge in (lo, hi):
                if (va - edge) * (vb - edge) < 0:
                    ts.append((edge - va) / (vb - va))
        return min(t for t in ts if t > 0)

    inside_flags = inner.contains(pts)
    for i in range(len(pts)):
        p = pts[i]
        if inside_flags[i]:
            if not cur and i > 0:
                t = crossing(pts[i - 1], p)
                cur.append(pts[i - 1] + t * (p - pts[i - 1]) if t < 1.0 else pts[i - 1])
            cur.append(p)
        else:
            if cur:
                t = crossing(cur[-1], p)
                cur.append(cur[-1] + t * (p - cur[-1]))
                comps.append(np.asarray(cur))
                cur = []
    if cur:
        comps.append(np.asarray(cur))
    kept, lengths = [], []
    for comp in comps:
        if comp.size >= 2 and bool(np.any(core.contains(comp))):
            kept.append(comp)
            lengths.append(float(np.sum(np.abs(np.diff(comp)))))
    return kept, lengths
