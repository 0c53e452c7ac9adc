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

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConfigError, ConstructionError, GeometryError, NumericError
from .loglift import _MAX_EXACT_INT, ExpTailModel, MapFamily, TailEnvelope
from .numerics import TWO_PI

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
        edges = [ts < w, ts < w + h, ts < 2 * w + h]  # bottom, right, top; else left
        pts = np.empty(n, dtype=complex)
        pts.real = np.select(edges, [self.re_lo + ts, self.re_hi, self.re_hi - (ts - w - h)],
                             self.re_lo)
        pts.imag = np.select(edges, [self.im_lo, self.im_lo + (ts - w), self.im_hi],
                             self.im_hi - (ts - 2 * w - h))
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

@dataclass(frozen=True)
class DistortionBound:
    """Koebe distortion constant C for inverse branches on the square Q.

    Any branch is univalent on all of H; C bounds |phi'(z)| / |phi'(R)|
    from above and its reciprocal from below, for every z in Q.  It enters
    neither G, nor the pressure bounds, which use the exact derivative of
    the two-level branches, nor any oracle: it is only reported (the
    certificate's `C` and `sum_over_c`, the lemma report's
    `distortion_c`).
    """

    c: float
    rho: float


def distortion_constant(anchor: float, ln_r0: float) -> DistortionBound:
    """Koebe distortion constant of a branch on Q relative to the anchor:
    one application on the disk B(R, R - ln R0), which contains the
    covering disk of Q of radius R/sqrt(2) provided rho < 1."""
    a = float(anchor)
    univalence_radius = a - ln_r0
    rho = (a / math.sqrt(2.0)) / univalence_radius
    if rho >= 1.0 or univalence_radius <= 0.0:
        raise GeometryError(
            f"covering-disk ratio rho = {rho:.4f} >= 1; anchor too close to ln R0")
    return DistortionBound(c=(1.0 + rho) / (1.0 - rho) ** 3, rho=rho)


def _distortion_or_unavailable(anchor: float, ln_r0: float) -> DistortionBound:
    """Distortion constant, or an infinite sentinel below the Koebe range,
    where no covering disk of Q fits in H."""
    try:
        return distortion_constant(anchor, ln_r0)
    except GeometryError:
        return DistortionBound(c=math.inf, rho=math.nan)


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

def cell_verdicts(family: MapFamily, spec: SquareSpec, budget: GeometryBudget, u: int, ss):
    """Containment verdicts of the cells g_{u,s}(Q) for the signed indices
    ss of one column u: an array of "inside", "borderline" or "outside",
    one per index, and the sampled padding delta (NaN where no sample was
    taken).

    With c = Log(lam), the branch g_{u,s} has |g'(z)| = 1 / (|xi_s(z)| *
    |z - c|), xi_s(z) = Log(z - c) - c + 2*pi*i*s.  On Q, |z - c| >= d_lo
    and |xi_s| >= max(p_lo, 2*pi*|s| - b) with p_lo = ln d_lo - Re c, so
    lip = 1 / (max(p_lo, 2*pi*|s| - b) * d_lo), e^hi of
    `ExpTailModel.log_weight_bounds`, bounds sup_Q |g'| at every index,
    also below envelope validity (e^sigma <= 2b) and at s = 0.  A cell is
    decided by the first of these that applies:

    1. inside if its enclosure lies in Q shrunk by the budget margin
       (`_enclosed`, the test the sigma windows use; it fails below
       envelope validity);
    2. outside if its center g_{u,s}(R) is not in Q;
    3. inside if the center is farther than margin + lip * diam(Q) from
       the boundary of Q;
    4. by the images of `budget.boundary_samples` boundary samples of Q,
       padded by delta = max(margin + lip * spacing, ulp of Q's largest
       coordinate): inside if every image lies in Q shrunk by delta,
       borderline if every image lies in Q but not in the shrunk Q, and
       also if delta exceeds half the side of Q (no sample can certify
       the cell), else outside.

    The ulp floor keeps a cell narrower than an ulp, whose samples round
    onto the edge of Q, from being admitted by rounding.  The anchor and
    the samples lie in Q, so their first-level images lie in H once ln d_lo
    > ln R0.  Raises ConstructionError where the first-level images leave
    H (ln d_lo <= ln R0), since the second branch then does not apply, and
    for an index past 2^53, which is no longer float-exact.  Families
    without tail asymptotics have no cells.
    """
    ss = np.atleast_1d(ss)
    if ss.size and max(abs(int(s)) for s in ss) > _MAX_EXACT_INT:
        raise ConstructionError("an index lies beyond the float-exact range 2^53")
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    if math.log(env.d_lo) <= family.ln_r0:
        raise ConstructionError(
            "first-level image leaves the half plane: ln(min|z - Log lam|) = "
            f"{math.log(env.d_lo):.6g} <= ln R0 = {family.ln_r0:.6g}")
    ss = ss.astype(np.int64)
    verdicts, delta = np.full(ss.shape, "outside", dtype="<U10"), np.full(ss.shape, math.nan)
    for sign, pick in ((1, ss >= 0), (-1, ss < 0)):
        with np.errstate(divide="ignore"):  # s = 0: sigma = -inf
            inside, borderline, delta[pick] = _cell_verdicts(
                family, model, env, spec, budget, int(u), sign, np.abs(ss[pick]))
        verdicts[pick] = np.where(inside, "inside", np.where(borderline, "borderline", "outside"))
    return verdicts, delta


def _cell_verdicts(family, model, env, spec, budget, u, sign, ss: np.ndarray):
    """`cell_verdicts` of the column (u, sign) at the unsigned int64
    indices ss, with the tail model and the envelope of Q given: the masks
    inside and borderline, and the paddings.  Only the cells the enclosure
    rejects whose center lies in Q get a Lipschitz bound, and only those
    near the boundary get their samples, mapped as one (cells x samples)
    array."""
    rect, margin = spec.outer, budget.margin
    sigma = np.log(TWO_PI) + np.log(ss.astype(float))
    inside = _enclosed(model, env, rect, margin, u, sign, sigma)
    base = complex(np.asarray(family.inv0(complex(spec.anchor))).item())
    centers = np.asarray(family.inv0(base + TWO_PI * 1j * (sign * ss.astype(float)))) \
        + TWO_PI * 1j * u
    borderline = np.zeros(ss.shape, dtype=bool)
    delta = np.full(ss.shape, math.nan)
    cand = (~inside & rect.contains(centers)).nonzero()[0]
    if not cand.size:
        return inside, borderline, delta
    lip = np.exp(model.log_weight_bounds(sigma[cand], env)[1])
    near = ~(rect.dist_to_boundary(centers[cand]) - margin > lip * rect.diam)
    inside[cand[~near]] = True
    cand, lip = cand[near], lip[near]
    if not cand.size:
        return inside, borderline, delta
    n = budget.boundary_samples
    first = np.asarray(family.inv0(rect.boundary_points(n)))
    imgs = np.asarray(family.inv0(first + TWO_PI * 1j * (sign * ss[cand, None].astype(float)))) \
        + TWO_PI * 1j * u
    pad = np.maximum(margin + lip * (rect.perimeter / n), math.ulp(max(map(abs, rect.bounds()))))
    delta[cand] = pad
    inside[cand] = rect.contains(imgs, margin=pad[:, None]).all(axis=1)
    borderline[cand] = ~inside[cand] & (rect.contains(imgs).all(axis=1)
                                        | (pad > 0.5 * rect.min_side))
    return inside, borderline, delta


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


def solve_s_window(family: MapFamily, u: int, spec: SquareSpec,
                   budget: Optional[GeometryBudget] = None, sign: int = 1,
                   margin: float = None) -> Optional[SigmaWindow]:
    """Admissible sigma interval of one (u, sign) column, in closed form.

    The one-column view of `_sigma_windows`, the solve `build_G` runs
    once per sign over blocks of columns; see there for the formulas and
    the endpoint certification.  `margin` defaults to the budget's, else
    0.  Returns None when the column has no room; raises NumericError when
    an endpoint fails its certification.
    """
    if margin is None:
        margin = budget.margin if budget is not None else 0.0
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    for u_lo, u_hi, lo, hi in _sigma_windows(model, env, spec.outer, margin, sign):
        if u_lo <= u <= u_hi:
            return SigmaWindow(u=int(u), sign=int(sign), sigma_lo=lo, sigma_hi=hi)
    return None


def _sigma_windows(model: ExpTailModel, env: TailEnvelope, target: Rect, margin: float,
                   sign: int) -> list:
    """Admissible sigma windows of the columns (u, sign), as blocks (u_lo,
    u_hi, sigma_lo, sigma_hi) of adjacent columns sharing one window.

    With b = env.b, x = re_lo(Q) + margin, y = re_hi(Q) - margin and
    delta the vertical room around mid = 2*pi*u + sign*pi/2, each
    inequality of `ExpTailModel.cell_enclosure` inverts exactly:

        re_lo >= x          <=>  sigma >= ln(e^x + b)
        re_hi <= y          <=>  sigma <= ln(e^y - b)
        arcsin(...) <= delta <=> sigma >= ln b + log1p(1/sin delta),

    the last only for delta < pi/2 (arcsin never exceeds pi/2), all in log
    form, so anchors past the exp range are fine.  Column mids are 2*pi
    apart, so only the first and the last column with room can have
    delta < pi/2; each is solved on its own, and the block between them
    shares [max(sigma_valid_min, ln(e^x + b)), ln(e^y - b)].  A column
    without room (y <= ln b, delta <= 0 or an empty interval) has none.

    Each block's endpoints are checked against the enclosure predicate at
    its two extreme columns, all blocks in one `_enclosed` call, and an
    endpoint failing at either moves inward by one float, at most
    `_ENDPOINT_ULPS` times and never outward: the test a bisection would
    use.  An enclosure's imaginary part is mid -/+ at most pi/2, mid
    increasing in u in float, so a window passing at both extremes passes
    between them; the block lies more than 2*pi inside Q, where that test
    cannot fail, so each of its columns gets the window its own solve
    gives.  A failing endpoint raises NumericError; there is no fallback.
    """
    ln_b = math.log(env.b)
    x = target.re_lo + margin
    y = target.re_hi - margin
    if y <= ln_b:
        return []
    sigma_hi = y + math.log1p(-env.b * math.exp(-y))
    shared_lo = max(env.sigma_valid_min, float(np.logaddexp(x, ln_b)))

    def closed_lo(u):  # None without room
        mid = TWO_PI * u + sign * 0.5 * math.pi
        delta = min(mid - (target.im_lo + margin), (target.im_hi - margin) - mid)
        if delta <= 0.0:
            return None
        sigma_lo = shared_lo
        if delta < 0.5 * math.pi:
            sigma_lo = max(sigma_lo, ln_b + math.log1p(1.0 / math.sin(delta)))
        return sigma_lo if sigma_hi > sigma_lo else None

    mid0 = sign * 0.5 * math.pi  # candidates: the columns whose mid is in Q, one more each side
    us = range(math.ceil((target.im_lo + margin - mid0) / TWO_PI) - 1,
               math.floor((target.im_hi - margin - mid0) / TWO_PI) + 2)
    first = next((u for u in us if closed_lo(u) is not None), None)
    if first is None:
        return []
    last = next(u for u in reversed(us) if closed_lo(u) is not None)
    blocks = [(u, u, closed_lo(u)) for u in sorted({first, last})]
    if last - first >= 2:
        blocks.append((first + 1, last - 1, shared_lo))
    extremes = np.array([[blk[0] for blk in blocks], [blk[1] for blk in blocks]])[:, None]
    sigma = np.array([[blk[2] for blk in blocks], [sigma_hi] * len(blocks)])
    for step in range(_ENDPOINT_ULPS + 1):
        ok = _enclosed(model, env, target, margin, extremes, sign, sigma).all(axis=0)
        if ok.all() or step == _ENDPOINT_ULPS:
            break
        sigma = np.where(ok, sigma, np.nextafter(sigma, [[math.inf], [-math.inf]]))  # inward
    for j, (u_lo, u_hi, closed) in enumerate(blocks):
        if not (ok[:, j].all() and sigma[1, j] > sigma[0, j]):
            raise NumericError(
                f"closed-form sigma window [{closed!r}, {sigma_hi!r}] for u={u_lo}..{u_hi}, "
                f"sign={sign} fails the enclosure test within {_ENDPOINT_ULPS} ulps inward")
    return sorted((u_lo, u_hi, float(sigma[0, j]), float(sigma[1, j]))
                  for j, (u_lo, u_hi, _) in enumerate(blocks))


def _enclosed(model: ExpTailModel, env: TailEnvelope, rect: Rect, margin: float, u, sign: int,
              sigma: np.ndarray) -> np.ndarray:
    """Whether the cell enclosures at (u, sign, sigma) lie in rect shrunk by
    margin; False below envelope validity."""
    with np.errstate(invalid="ignore"):
        re_lo, re_hi, im_lo, im_hi = model.cell_enclosure(u, sign, sigma, env)
        return ((sigma > env.sigma_valid_min)
                & (re_lo >= rect.re_lo + margin) & (re_hi <= rect.re_hi - margin)
                & (im_lo >= rect.im_lo + margin) & (im_hi <= rect.im_hi - margin))


# ---------------------------------------------------------------------------
# The admissible set G
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class RunBlock:
    """The letters (u, s) with u_lo <= u <= u_hi and s_lo <= s <= s_hi:
    one signed index run (ints of any size) shared by adjacent columns."""

    u_lo: int
    u_hi: int
    s_lo: int
    s_hi: int

    @property
    def n_columns(self) -> int:
        return self.u_hi - self.u_lo + 1

    @property
    def length(self) -> int:
        return self.s_hi - self.s_lo + 1


@dataclass(frozen=True)
class GSet:
    """The admissible index pairs: every letter of G, as maximal signed
    runs in `runs`, each with the block of adjacent columns sharing it.

    Ranks in [0, n_letters) order G by run, column, then s (`letters`,
    `random_ranks`).  `n_explicit` (0) and `windows` (empty) are
    constants kept for readers of the former listing."""

    runs: tuple  # of RunBlock, sorted

    n_explicit = 0
    windows = ()

    @property
    def n_letters(self) -> int:
        return sum(run.n_columns * run.length for run in self.runs)

    @property
    def n_segments(self) -> int:  # the number of runs
        return len(self.runs)

    def is_empty(self) -> bool:
        return not self.runs

    def __contains__(self, letter) -> bool:
        u, s = letter
        return any(r.u_lo <= u <= r.u_hi and r.s_lo <= s <= r.s_hi for r in self.runs)

    def max_abs_index(self) -> int:
        return max(max(abs(r.s_lo), abs(r.s_hi)) for r in self.runs)

    def letters(self, ranks):
        """The letters (u, s) at ranks in [0, n_letters): int64 arrays below
        2^63, else object arrays of Python ints, by the same arithmetic."""
        dtype = np.int64 if max(self.n_letters, self.max_abs_index()) < 2 ** 63 else object
        ranks = np.asarray(ranks, dtype=dtype)
        cum = list(itertools.accumulate(r.n_columns * r.length for r in self.runs))
        k = np.searchsorted(np.array(cum, dtype=dtype), ranks, side="right")
        offset = ranks - np.array([0] + cum[:-1], dtype=dtype)[k]
        length = np.array([r.length for r in self.runs], dtype=dtype)[k]
        u = np.array([r.u_lo for r in self.runs], dtype=dtype)[k] + offset // length
        s = np.array([r.s_lo for r in self.runs], dtype=dtype)[k] + offset % length
        return u, s

    def random_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` ranks drawn uniformly from [0, n_letters): int64 draws
        below 2^63, else Python ints, each a random integer 64 bits longer
        than n_letters reduced mod n_letters (uniform within 2^-64)."""
        n = self.n_letters
        if n <= 2 ** 63:
            return rng.integers(0, n, size=size, dtype=np.int64)
        width = (n.bit_length() + 64 + 7) // 8
        buf = rng.bytes(width * size)
        return np.array([int.from_bytes(buf[i:i + width], "little") % n
                         for i in range(0, width * size, width)], dtype=object)

    def letters_by_weight(self, k: int):
        """The k letters of largest derivative (smallest |s|), ties broken
        by (u, s): taken from the small-|s| ends of the runs."""
        cands = []
        for r in self.runs:
            take = min(r.length, k)
            ss = range(r.s_lo, r.s_lo + take) if r.s_lo > 0 else range(r.s_hi, r.s_hi - take, -1)
            cands.extend((abs(s), u, s) for u in range(r.u_lo, r.u_hi + 1) for s in ss)
        cands.sort()
        return [(u, s) for _, u, s in cands[:k]]


def _merge_runs(runs: list) -> list:
    """Merge signed index runs (a, b) into disjoint maximal runs, sorted."""
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
            workers: int = 1, collar: int = 32) -> GSet:
    """Assemble the admissible set G = {(u, s): cell(u, s) inside Q}.

    The columns (u, sign) of one sign get their closed-form sigma windows
    from one solve (`_sigma_windows`), in blocks of adjacent columns
    sharing a window; the tail model and envelope are computed once per
    call.  A window past 2^53 becomes one run of its whole block, its
    integer bounds converted once per distinct window (`_sigma_run`).  In
    a float-exact window the cell enclosure is monotone in sigma, so every
    integer in [ceil(s_lo), floor(s_hi)] is certified without a per-index
    test.  Only the two edge bands just outside it, ceil((2*pi + 2b) /
    (2*pi)) + 2 indices deep, are tested, with one verdict array per
    column (`cell_verdicts`, the same decisions on the model and envelope
    held here): first by the enclosure test the windows use, then, for
    the cells it rejects whose center lies in Q, by their closed-form
    Lipschitz bound and the sampled fallback, which rescue a few cells.
    The high band stops at 2^53, the last float-exact index.

    `mode` (enumerate or tail), `dist`, `collar` and `workers` are
    accepted for compatibility and have no effect: every sampled cell is
    padded by its own closed-form Lipschitz bound, not by the distortion
    constant.

    An empty G is a reported outcome, not an error: it is returned when
    no column admits a cell, and also when the first-level images leave
    the half plane H (no two-level branch then maps Q back into H).
    """
    if mode not in ("enumerate", "tail"):
        raise ConfigError(f"unknown G mode {mode!r}")
    if not family.has_tail_model:
        raise ConfigError("families without tail asymptotics are not supported by build_G; "
                          "provide tail callbacks or test cells individually")
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    if math.log(env.d_lo) <= family.ln_r0:
        # first-level images leave the half plane at this anchor/family
        return GSet(runs=())
    widen = int(math.ceil((TWO_PI + 2.0 * env.b) / TWO_PI)) + 2
    columns: dict = {}  # signed run (s_lo, s_hi) -> column blocks (u_lo, u_hi) holding it
    sigma_runs: dict = {}  # sigma window -> its integer bounds
    for sign in (1, -1):
        for u_lo, u_hi, sigma_lo, sigma_hi in _sigma_windows(model, env, spec.outer,
                                                             budget.margin, sign):
            if sigma_hi >= 700.0 or math.exp(sigma_hi) / TWO_PI > _MAX_EXACT_INT:
                key = (sigma_lo, sigma_hi)
                s1, s2 = sigma_runs[key] = sigma_runs.get(key) or _sigma_run(*key)
                if s1 <= s2:
                    columns.setdefault(tuple(sorted((sign * s1, sign * s2))), []).append(
                        (u_lo, u_hi))
                continue
            s_lo_f, s_hi_f = math.exp(sigma_lo) / TWO_PI, math.exp(sigma_hi) / TWO_PI
            lo, hi = math.ceil(s_lo_f), math.floor(s_hi_f)
            bands = np.r_[max(1, math.floor(s_lo_f) - widen):lo,
                          hi + 1:min(math.ceil(s_hi_f) + widen, _MAX_EXACT_INT) + 1]
            for u in range(u_lo, u_hi + 1):
                inside = _cell_verdicts(family, model, env, spec, budget, u, sign, bands)[0]
                edge = [(sign * s, sign * s) for s in bands[inside].tolist()]
                for run in _merge_runs(edge + [(sign * lo, sign * hi)] if hi >= lo else edge):
                    columns.setdefault(run, []).append((u, u))
    return GSet(runs=tuple(sorted(
        RunBlock(u_lo, u_hi, s_lo, s_hi) for (s_lo, s_hi), blocks in columns.items()
        for u_lo, u_hi in _merge_runs(blocks))))


def _sigma_run(sigma_lo: float, sigma_hi: float):
    """Integer bounds (s1, s2) of the |s| with ln(2*pi*|s|) in a sigma window.

    Each end is trimmed inward by a relative 2^-30, far above the error of
    e^x formed as a 53-bit mantissa times 2^k (about 1e-12 at sigma =
    6000), and checked with math.log on the ints.
    """
    def exp_int(x, rounding):
        e = x / math.log(2.0)
        k = math.floor(e) - 52
        return rounding(int(2.0 ** (e - k)) * Fraction(2) ** k)

    log_two_pi = math.log(TWO_PI)
    s1 = exp_int(sigma_lo - log_two_pi + 2.0 ** -30, math.ceil)
    s2 = exp_int(sigma_hi - log_two_pi - 2.0 ** -30, math.floor)
    if log_two_pi + math.log(s1) < sigma_lo or log_two_pi + math.log(s2) > sigma_hi:
        raise NumericError(f"integer bounds of sigma window [{sigma_lo!r}, {sigma_hi!r}] fail")
    return s1, s2


# ---------------------------------------------------------------------------
# Pairwise separation of cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    min_gap: float              # consecutive cells of one run (inf: no run of two)
    n_adjacent_checked: int     # sum over the runs of n_columns * (length - 1)
    column_separation: float    # gap between adjacent runs' imaginary extents


def min_cell_gap(family: MapFamily, gset: GSet, spec: SquareSpec) -> GapReport:
    """Closed-form lower bounds on the separation of the cells of G.

    With c = Log(lam), the first-level image of Q minus c is the set of
    w = p + i*(q + 2*pi*s): p = ln|z - c| - Re c lies in [ln d_lo - Re c,
    ln d_hi - Re c] and is > 0 whenever G is non-empty; q = arg(z - c) -
    Im c lies in [theta_lo, theta_hi] - Im c, arg's extremes over the four
    corners of Q.  Consecutive images are 2*pi translates of a set of
    height < pi, hence at least 2*pi - (theta_hi - theta_lo) apart.  The
    cell is Log(w) + 2*pi*i*u, and |e^h1 - e^h2| <= |h1 - h2| *
    max(|e^h1|, |e^h2|), so Log shrinks distances by at most max|w| <=
    hypot(p_hi, |q + 2*pi*s|): a run's least bound is at its largest |s|,
    the same for every column of its block.  A run's imaginary extent is
    that of atan2(q + 2*pi*s, p) + 2*pi*u over the same rectangle, which
    is monotone in q, s and p and so extremal at the run's end indices.
    The bounds are formed in float, so a G whose 2*pi*|s| passes the
    float range raises ConstructionError.
    """
    if gset.is_empty():
        raise ConstructionError("gap report needs a non-empty G")
    if gset.max_abs_index() > sys.float_info.max / TWO_PI:
        raise ConstructionError("gap report: 2*pi*|s| passes the float range")
    c = family.log_lam
    env = family.tail_model().envelope(spec.outer.bounds())
    p_lo, p_hi = math.log(env.d_lo) - c.real, math.log(env.d_hi) - c.real
    if p_lo <= 0.0:
        raise ConstructionError("first-level images of Q reach Re <= Re Log(lam)")
    rect = spec.outer
    thetas = [math.atan2(y - c.imag, x - c.real)
              for x in (rect.re_lo, rect.re_hi) for y in (rect.im_lo, rect.im_hi)]
    q_lo, q_hi = min(thetas) - c.imag, max(thetas) - c.imag
    room = TWO_PI - (q_hi - q_lo)
    min_gap = math.inf
    columns = []
    for run in gset.runs:
        sign = 1 if run.s_lo > 0 else -1
        m, n = sorted((abs(run.s_lo), abs(run.s_hi)))
        if n > m:
            top = max(abs(q_lo + sign * TWO_PI * n), abs(q_hi + sign * TWO_PI * n))
            min_gap = min(min_gap, room / math.hypot(p_hi, top))
        if sign > 0:
            lo, hi = math.atan2(q_lo + TWO_PI * m, p_hi), math.atan2(q_hi + TWO_PI * n, p_lo)
        else:
            lo, hi = math.atan2(q_lo - TWO_PI * n, p_lo), math.atan2(q_hi - TWO_PI * m, p_hi)
        columns.extend((lo + TWO_PI * u, hi + TWO_PI * u) for u in range(run.u_lo, run.u_hi + 1))
    columns.sort()
    col_sep = math.inf
    for (a_lo, a_hi), (b_lo, b_hi) in zip(columns, columns[1:]):
        col_sep = min(col_sep, b_lo - a_hi)
    return GapReport(min_gap=min_gap, column_separation=col_sep,
                     n_adjacent_checked=sum(run.n_columns * (run.length - 1)
                                            for run in gset.runs))


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

    The branches are vertical translates, F_inv_u = F_inv_0 + 2*pi*i*u,
    so the continuation is marched once for all of them (`_march_curve`)
    and each branch is the shared march shifted by 2*pi*i*u, cut where its
    own residual check first fails.
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
    march = _march_curve(family, r, inner.re_hi + 1.0, step)
    for u in range(u_lo, u_hi + 1):
        pts, aborted, diag = _branch_points(family, march, u)
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


def _march_curve(family: MapFamily, r: float, re_stop: float, step: float) -> list:
    """Continuation of F_inv_0 along the vertical line {Re = r}, shared by
    every branch.

    Nothing in the march depends on the branch index u: the zeta sequence,
    the step |inv0'(zeta)| and the stop test Re w > re_stop, because adding
    2*pi*i*u to w adds +-0.0 to its real part, which leaves Re w the same
    bit for bit.  Returns, for the directions up and down, the ys, the
    zetas and w0 = inv0(zeta) up to the stop (or 500,000 points).
    """
    march = []
    for direction in (1.0, -1.0):
        ys, zetas, ws = [], [], []
        y = 0.0
        while len(ys) < 500_000:
            zeta = complex(r, y)
            w = complex(np.asarray(family.inv0(zeta)).item())
            ys.append(y)
            zetas.append(zeta)
            ws.append(w)
            if w.real > re_stop:
                break
            dw = abs(complex(np.asarray(family.inv0_deriv(zeta)).item()))
            dy = step / max(dw, 1e-300)
            y += direction * dy
        march.append((ys, np.array(zetas, dtype=complex), np.array(ws, dtype=complex)))
    return march


def _branch_points(family: MapFamily, march: list, u: int):
    """Branch u of the shared march: the points w0 + 2*pi*i*u, each
    direction cut before its first point whose lift misses zeta by more than
    1e-9 relative (one array `family.lift` call per direction).  The moduli
    are taken by hypot, as complex abs takes them.  Returns the points along
    the curve from its upper end, the abort flag and the last diagnostic."""
    shift = TWO_PI * 1j * u
    pieces = []
    aborted = False
    diag = ""
    for direction, (ys, zetas, w0) in zip((1.0, -1.0), march):
        w = w0 + shift
        d = np.asarray(family.lift(w), dtype=complex) - zetas
        res = np.hypot(d.real, d.imag)
        bad = np.flatnonzero(res > 1e-9 * (1.0 + np.hypot(zetas.real, zetas.imag)))
        if bad.size:
            k = int(bad[0])
            aborted = True
            diag = (f"continuation residual {float(res[k]):.3g} at y={ys[k]:.6g} "
                    f"for u={u}")
            w = w[:k]
        pieces.append(w[::-1] if direction > 0 else w[1:])
    return np.concatenate(pieces), aborted, diag


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
