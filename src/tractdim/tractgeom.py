"""Geometric construction over the half plane H = {Re z > ln R0}.

Given an anchor value R deep inside H, the construction takes the square
Q = [R/2, 3R/2] x [-R/2, R/2] centered at R, its inset copy Q' and core
Q'', and studies the two-level inverse images

    cell(u, s) = F_inv_u(F_inv_s(Q)).

The admissible index set G collects the pairs whose cell provably lands
back inside Q: per column u, the indices whose sigma = ln(2*pi*|s|) lies
in a closed-form window where the cell's enclosure does.  These cells
generate a conformal iterated function system whose attractor carries
the dimension bound certified by the pressure module.

Index magnitudes explode with R (admissible |s| reach exp(3R/2)), so the
large-R regime works in sigma throughout: windows, weights and
containment certificates are all functions of sigma, and G is built
without evaluating a branch.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConstructionError, GeometryError, NumericError
from .loglift import _MAX_EXACT_INT, MapFamily, TailEnvelope
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

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        return ((np.real(z) >= self.re_lo) & (np.real(z) <= self.re_hi)
                & (np.imag(z) >= self.im_lo) & (np.imag(z) <= self.im_hi))

    def boundary_points(self, n: int) -> np.ndarray:
        """n equally spaced boundary samples, anchored at the lower-left corner.

        The arc lengths ts rise with the index, so each edge (bottom, right,
        top, left) takes the contiguous slice of the samples with ts below
        its end and not below the previous edge's, filled edge by edge."""
        ts = np.arange(n, dtype=float) * (self.perimeter / n)
        w, h = self.width, self.height
        a, b, c = np.searchsorted(ts, [w, w + h, 2 * w + h])  # where each edge ends
        pts = np.empty(n, dtype=complex)
        re, im = pts.real, pts.imag  # views: writing them fills pts
        re[:a], im[:a] = self.re_lo + ts[:a], self.im_lo
        re[a:b], im[a:b] = self.re_hi, self.im_lo + (ts[a:b] - w)
        re[b:c], im[b:c] = self.re_hi - (ts[b:c] - w - h), self.im_hi
        re[c:], im[c:] = self.re_lo, self.im_hi - (ts[c:] - 2 * w - h)
        return pts


@dataclass(frozen=True)
class GeometryBudget:
    """Tunable constants of the construction.

    epsilon controls the anchor-derivative condition, and inset is the
    width D by which the inner square retreats from Q.  G asks only that
    each cell's enclosure lie in the closed square Q, which is the
    containment hypothesis of a conformal IFS; it samples nothing.
    """

    epsilon: float = 0.1
    inset: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.inset <= 0.0:
            raise ConfigError(f"inset must be positive, got {self.inset}")


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


def build_squares(anchor: float, inset: float) -> SquareSpec:
    """Nested squares at the anchor; the boundary case inset == anchor/4
    (inner square collapsing onto the core) is allowed."""
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
    certificate's `C`, the lemma report's `distortion_c`).
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


def anchor_line(family: MapFamily, anchor: float, inset: float) -> AnchorLine:
    """Locate the line {Re = r} of branch preimages of the anchor.

    The preimages are v_s = F_inv_0(R) + 2*pi*i*s, so all of them have
    the real part r of F_inv_0(R) exactly.
    """
    r = complex(np.asarray(family.inv0(complex(anchor))).item()).real
    c0 = float(np.real(np.asarray(family.inv0(complex(1.0 + family.ln_r0))).item()))
    bound = 4.0 * math.pi * math.log(anchor - family.ln_r0) + c0
    return AnchorLine(
        anchor=float(anchor), real_part=r, c0=c0, growth_bound=bound,
        cor_margin=bound - r,
        depth_margin=r - (family.ln_r0 + 2.0 * inset))


def anchor_derivative(family: MapFamily, anchor: float) -> float:
    """|F_inv_0'(R)| = 1 / |R - Log(lam)| at R = anchor.

    One scalar expression in Python floats for every reader (the margins
    of eq1, in `anchor_derivative_margin`, and of eq4, in the lemma
    report's `anchor_derivative_upper`), so that all of them see the same
    float.
    """
    return 1.0 / abs(float(anchor) - family.log_lam)


def anchor_derivative_margin(family: MapFamily, anchor: float, epsilon: float) -> float:
    """Margin |F_inv_0'(R)| - R^-(1+epsilon) of the anchor-derivative
    condition (eq1) at R = anchor, for `find_radius`, the certificate's
    `eq1_margin` and the lemma report's `anchor_derivative_lower`."""
    anchor = float(anchor)
    return anchor_derivative(family, anchor) - anchor ** (-(1.0 + epsilon))


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
    deriv_margin = np.array([anchor_derivative_margin(family, x, budget.epsilon)
                             for x in xs.tolist()])
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
# Index windows
# ---------------------------------------------------------------------------

def _sigma_windows(env: TailEnvelope, target: Rect, sign: int) -> list:
    """Admissible sigma windows of the columns (u, sign), as blocks (u_lo,
    u_hi, sigma_lo, sigma_hi) of adjacent columns sharing one window, for
    cell enclosures inside the closed rectangle `target` (Q for G; a
    smaller target such as Q.shrink(m) asks for room m on every side).

    With b = env.b, x = re_lo(target), y = re_hi(target) and delta the
    vertical room around mid = 2*pi*u + sign*pi/2, each
    inequality of `TailEnvelope.cell_enclosure` inverts exactly:

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
    x, y = target.re_lo, target.re_hi
    if y <= ln_b:
        return []
    sigma_hi = y + math.log1p(-env.b * math.exp(-y))
    shared_lo = max(env.sigma_valid_min, float(np.logaddexp(x, ln_b)))

    def closed_lo(u):  # None without room
        mid = TWO_PI * u + sign * 0.5 * math.pi
        delta = min(mid - target.im_lo, target.im_hi - mid)
        if delta <= 0.0:
            return None
        sigma_lo = shared_lo
        if delta < 0.5 * math.pi:
            sigma_lo = max(sigma_lo, ln_b + math.log1p(1.0 / math.sin(delta)))
        return sigma_lo if sigma_hi > sigma_lo else None

    mid0 = sign * 0.5 * math.pi  # candidates: the columns whose mid is in Q, one more each side
    us = range(math.ceil((target.im_lo - mid0) / TWO_PI) - 1,
               math.floor((target.im_hi - mid0) / TWO_PI) + 2)
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
        ok = _enclosed(env, target, extremes, sign, sigma).all(axis=0)
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


def _enclosed(env: TailEnvelope, rect: Rect, u, sign: int, sigma: np.ndarray) -> np.ndarray:
    """Whether the cell enclosures at (u, sign, sigma) lie in the closed
    rect; False below envelope validity."""
    with np.errstate(invalid="ignore"):
        re_lo, re_hi, im_lo, im_hi = env.cell_enclosure(u, sign, sigma)
        return ((sigma > env.sigma_valid_min)
                & (re_lo >= rect.re_lo) & (re_hi <= rect.re_hi)
                & (im_lo >= rect.im_lo) & (im_hi <= rect.im_hi))


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
    constants that nothing in the package reads; they stay because
    `perfbench/workloads.py` and `perfbench/layers.py` read them."""

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
    """Assemble the admissible set G: the letters of the sigma windows.

    The columns (u, sign) of one sign get their closed-form sigma windows
    from one solve (`_sigma_windows`), in blocks of adjacent columns
    sharing a window; the envelope of Q is computed once per call.  The
    cell enclosure is monotone in sigma, so each letter whose sigma = ln
    2*pi + ln|s| lies in a certified window has its cell inside Q, without
    a per-index test.  Each distinct window becomes one integer run
    (`_sigma_run`), shared by the columns of every block holding it.
    Cells outside the windows are left out, also where another test could
    place them in Q: any subset of the admissible cells generates a
    compact invariant Cantor set, whose Bowen root is still a lower bound.

    `anchor` and `budget` are unused, and `mode` (enumerate or tail),
    `dist`, `collar` and `workers` have no effect; they stay because
    `perfbench/workloads.py` passes them (the first two positionally).

    An empty G is a reported outcome, not an error: it is returned when
    no column admits a cell, and also when the first-level images leave
    the half plane H (no two-level branch then maps Q back into H).
    """
    if mode not in ("enumerate", "tail"):
        raise ConfigError(f"unknown G mode {mode!r}")
    env = family.envelope(spec.outer.bounds())
    if math.log(env.d_lo) <= family.ln_r0:
        # first-level images leave the half plane at this anchor/family
        return GSet(runs=())
    columns: dict = {}  # signed run (s_lo, s_hi) -> column blocks (u_lo, u_hi) holding it
    sigma_runs: dict = {}  # sigma window -> its integer bounds
    for sign in (1, -1):
        for u_lo, u_hi, sigma_lo, sigma_hi in _sigma_windows(env, spec.outer, sign):
            key = (sigma_lo, sigma_hi)
            s1, s2 = sigma_runs[key] = sigma_runs.get(key) or _sigma_run(*key)
            if s1 <= s2:
                columns.setdefault(tuple(sorted((sign * s1, sign * s2))), []).append(
                    (u_lo, u_hi))
    return GSet(runs=tuple(sorted(
        RunBlock(u_lo, u_hi, s_lo, s_hi) for (s_lo, s_hi), blocks in columns.items()
        for u_lo, u_hi in _merge_runs(blocks))))


def _exp_int(x: float, up: bool) -> int:
    """The float e^x, formed as a 53-bit mantissa m times 2^k, rounded up
    (`up`) or down to an int by exact integer shifts."""
    e = x / math.log(2.0)
    k = math.floor(e) - 52
    m = int(2.0 ** (e - k))
    if k >= 0:
        return m << k
    return -(-m >> -k) if up else m >> -k


def _sigma_run(sigma_lo: float, sigma_hi: float):
    """Integer bounds (s1, s2) of the |s| whose float sigma, ln(2*pi) +
    math.log(|s|), lies in the sigma window [sigma_lo, sigma_hi]; s1 > s2
    where it holds no int.

    Each end is handled on its own.  An end below 2^53 is tight: s1 is
    the least and s2 the greatest int passing that test, each found from a
    float candidate by steps of one.  An end past 2^53 is trimmed inward,
    from x = sigma - ln(2*pi) to x +- max(2^-30, 16 ulp(x)), and its int
    (`_exp_int`) checked by the same test.  With u = 2^-53, ulp(x) > u*x,
    and the trim covers each rounding between x and that test: `_exp_int`
    divides x by the float ln 2, which moves e^x by a relative 2u*x < 2
    ulp(x), its power and truncation add about 3u; the float log of the
    int is within 3 ulps (past the float range it is ln m + k ln 2, k ln 2
    off by u*x < 1 ulp); forming x, x +- trim and sigma adds 2 ulps.  Below
    x = 2^18 the trim is the fixed 2^-30, larger still; from x = 2^24 on,
    a fixed 2^-30 would round back to x.
    """
    log_two_pi = math.log(TWO_PI)
    log_exact = math.log(_MAX_EXACT_INT)

    def sigma(s):
        return log_two_pi + math.log(s) if s >= 1 else -math.inf

    def trim(x):
        return max(2.0 ** -30, 16.0 * math.ulp(x))

    x_lo, x_hi = sigma_lo - log_two_pi, sigma_hi - log_two_pi
    if x_lo < log_exact:
        s1 = max(1, math.ceil(math.exp(x_lo)))
        while sigma(s1 - 1) >= sigma_lo:
            s1 -= 1
        while sigma(s1) < sigma_lo:
            s1 += 1
    else:
        s1 = _exp_int(x_lo + trim(x_lo), up=True)
    if x_hi < log_exact:
        s2 = math.floor(math.exp(x_hi))
        while sigma(s2 + 1) <= sigma_hi:
            s2 += 1
        while sigma(s2) > sigma_hi:
            s2 -= 1
    else:
        s2 = _exp_int(x_hi - trim(x_hi), up=False)
    if sigma(s1) < sigma_lo or sigma(s2) > sigma_hi:
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
    log_min_gap: float          # ln min_gap, finite where min_gap underflows


def min_cell_gap(family: MapFamily, gset: GSet, spec: SquareSpec) -> GapReport:
    """Closed-form lower bounds on the separation of the cells of G.

    With c = Log(lam), the first-level image of Q minus c is the set of
    w = p + i*(q + 2*pi*s): p = ln|z - c| - Re c lies in [ln d_lo - Re c,
    ln d_hi - Re c] and is > 0 whenever G is non-empty; q = arg(z - c) -
    Im c lies in [theta_lo, theta_hi] - Im c, arg's extremes over the four
    corners of Q.  Consecutive images are 2*pi translates of a set of
    height < pi, hence at least room = 2*pi - (theta_hi - theta_lo) apart.
    The cell is Log(w) + 2*pi*i*u, and |e^h1 - e^h2| <= |h1 - h2| *
    max(|e^h1|, |e^h2|), so Log shrinks distances by at most max|w| <=
    hypot(p_hi, top), top = max|q + 2*pi*s| = 2*pi*n + q_hi for s = +n and
    2*pi*n - q_lo for s = -n (|q| < 3*pi/2): a run's least bound is at its
    largest |s|, the same for every column of its block.  The bound is
    formed in logs, ln room - ln hypot(p_hi, top) with ln top = ln(2*pi*n)
    + log1p(+-q / (2*pi*n)), so it stays finite for indices of any size;
    `min_gap` is its exp and may underflow to 0.  A run's imaginary extent
    is that of atan2(q + 2*pi*s, p) + 2*pi*u over the same rectangle,
    which is monotone in q, s and p and so extremal at the run's end
    indices; where 2*pi*|s| passes the float range, atan2 takes its limit
    +-pi/2.
    """
    if gset.is_empty():
        raise ConstructionError("gap report needs a non-empty G")
    env = family.envelope(spec.outer.bounds())
    c = env.c
    p_lo, p_hi = env.p_lo, math.log(env.d_hi) - c.real
    if p_lo <= 0.0:
        raise ConstructionError("first-level images of Q reach Re <= Re Log(lam)")
    rect = spec.outer
    thetas = [math.atan2(y - c.imag, x - c.real)
              for x in (rect.re_lo, rect.re_hi) for y in (rect.im_lo, rect.im_hi)]
    q_lo, q_hi = min(thetas) - c.imag, max(thetas) - c.imag
    log_room = math.log(TWO_PI - (q_hi - q_lo))
    log_p_hi = math.log(p_hi)

    def two_pi_times(n):  # inf past the float range, where atan2 is at its limit
        return math.inf if n > sys.float_info.max / TWO_PI else TWO_PI * n

    log_min_gap = math.inf
    columns = []
    for run in gset.runs:
        sign = 1 if run.s_lo > 0 else -1
        m, n = sorted((abs(run.s_lo), abs(run.s_hi)))
        if n > m:
            log_scale = math.log(TWO_PI) + math.log(n)
            log_top = log_scale + math.log1p((q_hi if sign > 0 else -q_lo)
                                             * math.exp(-log_scale))
            log_hypot = log_top + 0.5 * math.log1p(math.exp(2.0 * (log_p_hi - log_top)))
            log_min_gap = min(log_min_gap, log_room - log_hypot)
        y_m, y_n = two_pi_times(m), two_pi_times(n)
        if sign > 0:
            lo, hi = math.atan2(q_lo + y_m, p_hi), math.atan2(q_hi + y_n, p_lo)
        else:
            lo, hi = math.atan2(q_lo - y_n, p_lo), math.atan2(q_hi - y_m, p_hi)
        columns.extend((lo + TWO_PI * u, hi + TWO_PI * u) for u in range(run.u_lo, run.u_hi + 1))
    columns.sort()
    col_sep = math.inf
    for (a_lo, a_hi), (b_lo, b_hi) in zip(columns, columns[1:]):
        col_sep = min(col_sep, b_lo - a_hi)
    return GapReport(min_gap=math.exp(log_min_gap), column_separation=col_sep,
                     n_adjacent_checked=sum(run.n_columns * (run.length - 1)
                                            for run in gset.runs),
                     log_min_gap=log_min_gap)


# ---------------------------------------------------------------------------
# Level lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTrace:
    """One branch preimage of the anchor line: the arclengths of its
    components in Q' that meet Q''."""

    u: int
    arclengths: tuple
    meets_core: bool


@dataclass(frozen=True)
class LevelLineReport:
    traces: tuple
    curve_count: int
    required_count: int         # floor(R / (4 pi))
    min_component_length: float
    required_length: float      # R/4 - inset
    growth_bound: float         # 4 pi ln(r - ln R0) + c0
    min_re: float               # ln a, the least Re of every branch
    min_re_margin: float        # growth_bound - min_re


def trace_level_lines(family: MapFamily, spec: SquareSpec,
                      budget: GeometryBudget) -> LevelLineReport:
    """The branch preimages of the anchor line {Re zeta = r}, in closed form.

    With c = Log(lam), a = r - Re c and y = Im zeta - Im c, branch u maps
    the line to F_inv_u(r + i*Im zeta) = Log(a + iy) + 2*pi*i*u.  For a > 0
    the curve has its least real part ln a at its vertex y = 0, and with
    l = Re w - ln a >= 0 its half with h = sign(y) is

        Im w = 2*pi*u + h*arccos(e^-l),

    of arclength A(l) = l + log1p(sqrt(-expm1(-2l))) = asinh(|y|/a) from
    the vertex.  Re w and Im w are monotone in l along a half, so a
    rectangle cuts it in one l-interval (`_half_interval`).  A component
    of the curve in Q' is such an interval, or both halves' intervals
    joined at the vertex when both start at l = 0; it is kept if it
    overlaps the core's interval on one of its halves, and its length is
    A(l2) - A(l1) summed over its halves.  Every quantity stays finite at
    any anchor.

    Every branch is a vertical translate of branch 0, so all of them share
    the least real part min_re = ln a.  Where a <= 0 the anchor line is not
    right of Log(lam): it meets the branch cut of Log, so no branch maps it
    to a curve.  Each trace then has no components, and min_re and its
    margin are NaN.
    """
    line = anchor_line(family, spec.anchor, budget.inset)
    a = line.real_part - family.log_lam.real
    ln_a = math.log(a) if a > 0.0 else math.nan
    inner, core = spec.inner, spec.core
    traces = []
    u_lo = math.floor((inner.im_lo - 1.0) / TWO_PI) - 1
    u_hi = math.ceil((inner.im_hi + 1.0) / TWO_PI) + 1
    for u in range(u_lo, u_hi + 1):
        lens = _branch_components(ln_a, u, inner, core) if a > 0.0 else []
        if lens or inner.im_lo <= TWO_PI * u <= inner.im_hi:
            traces.append(CurveTrace(u=u, arclengths=tuple(lens), meets_core=bool(lens)))
    lengths = [l for t in traces for l in t.arclengths]
    return LevelLineReport(
        traces=tuple(traces), curve_count=sum(1 for t in traces if t.meets_core),
        required_count=int(math.floor(spec.anchor / (4.0 * math.pi))),
        min_component_length=min(lengths) if lengths else math.inf,
        required_length=spec.anchor / 4.0 - budget.inset,
        growth_bound=line.growth_bound, min_re=ln_a, min_re_margin=line.growth_bound - ln_a)


def _branch_components(ln_a: float, u: int, inner: Rect, core: Rect) -> list:
    """Arclengths of the components in inner of branch u's curve that meet
    core (see `trace_level_lines`)."""
    def arclength(l):
        return l + math.log1p(math.sqrt(-math.expm1(-2.0 * l)))

    halves = [(cut, _half_interval(ln_a, u, h, core)) for h in (1, -1)
              if (cut := _half_interval(ln_a, u, h, inner)) is not None]
    comps = [[half] for half in halves]
    if len(halves) == 2 and halves[0][0][0] == halves[1][0][0] == 0.0:
        comps = [halves]  # both halves start at the vertex: one component
    lengths = []
    for comp in comps:
        if any(core_cut is not None and max(l1, core_cut[0]) <= min(l2, core_cut[1])
               for (l1, l2), core_cut in comp):
            lengths.append(sum(arclength(l2) - arclength(l1) for (l1, l2), _ in comp))
    return lengths


def _half_interval(ln_a: float, u: int, h: int, rect: Rect):
    """The l-interval (l1, l2), l1 < l2, of the half h of branch u's curve
    inside rect, or None.  The real bounds give [re_lo - ln a, re_hi - ln
    a]; on the half, arccos(e^-l) = h*(Im w - 2*pi*u), so each imaginary
    bound, as theta = h*(bound - 2*pi*u) clipped to [0, pi/2), gives
    l = -ln cos(theta)."""
    th_lo, th_hi = sorted((h * (rect.im_lo - TWO_PI * u), h * (rect.im_hi - TWO_PI * u)))
    if th_hi < 0.0 or th_lo >= 0.5 * math.pi:
        return None
    l1 = max(0.0, rect.re_lo - ln_a, -math.log(math.cos(th_lo)) if th_lo > 0.0 else 0.0)
    l2 = min(rect.re_hi - ln_a, -math.log(math.cos(th_hi)) if th_hi < 0.5 * math.pi else math.inf)
    return (l1, l2) if l1 < l2 else None
