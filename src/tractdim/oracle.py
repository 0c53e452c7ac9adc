"""Independent brute-force verifiers backing the acceptance suite.

Nothing here reuses the main pipeline's evaluation paths: complex
logarithms are assembled from ln|.| and atan2.  The brute-force pressure
composes branches on complex scalars in plain loops.  The containment
recheck is array-based: it evaluates its letters as numpy arrays, in
blocks over shared boundary samples of Q.  Box counting sees only point
clouds, and the middle-thirds sample is drawn in numpy blocks.
Disagreement between an oracle and the pipeline is a failure of the run,
not of the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .loglift import MapFamily
from .numerics import TWO_PI
from .tractgeom import GSet, GeometryBudget, SquareSpec

# Letters whose margin `recheck_gset` evaluates at each end of a run at first.
_END_BLOCK = 64
# Points per block of `cantor_middle_thirds`, which bounds its memory.
_DIGIT_ROWS = 4096
# Boundary points per block of the dense recheck: 8 letters at the default
# 2,560 samples (density 10 x 256).
_DENSE_BLOCK = 20_480

# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCountEstimate:
    scales: tuple
    counts: tuple
    slope: float
    residual: float


def box_counting_dim(points, scales: Sequence[float]) -> BoxCountEstimate:
    """Least-squares box-counting dimension of a 2-d point cloud.

    The grid is anchored at the origin, with boxes [i*eps, (i+1)*eps) x
    [j*eps, (j+1)*eps), so the estimate is deterministic; a self-similar
    set with a fixed point at 0 (the middle-thirds set at triadic scales)
    meets exactly its own boxes.  Needs at least 1e4 points and 5 scales
    spanning two decades relative to the cloud diameter.
    """
    pts = np.asarray(points)
    if np.iscomplexobj(pts):
        xy = np.column_stack([pts.real, pts.imag])
    else:
        xy = np.asarray(pts, dtype=float).reshape(-1, 2)
    if xy.shape[0] < 10_000:
        raise ConfigError(f"box counting needs >= 1e4 points, got {xy.shape[0]}")
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    diam = float(np.hypot(*(hi - lo)))
    if diam == 0.0:
        raise ConfigError("degenerate point cloud (zero diameter)")
    scales = sorted(float(s) for s in scales)
    if len(scales) < 5:
        raise ConfigError("need at least 5 scales")
    if scales[-1] / scales[0] < 100.0:
        raise ConfigError("scales must span at least two decades")
    counts = []
    for eps in scales:
        ij = np.floor(xy / eps).astype(np.int64)
        ij -= ij.min(axis=0)  # non-negative box indices give collision-free keys
        counts.append(int(np.unique(ij[:, 0] * (2 ** 31) + ij[:, 1]).size))
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return BoxCountEstimate(scales=tuple(scales), counts=tuple(counts),
                            slope=float(slope), residual=resid)


def cantor_middle_thirds(count: int = 100_000, depth: int = 35,
                         seed: int = 7) -> np.ndarray:
    """Random points of the middle-thirds set on [0, 1], as complex values.

    Each point is sum_k d_k 3^-k over k = 1..depth with digits d_k drawn
    uniformly from {0, 2}, formed as the exact int64 numerator
    sum_k d_k 3^(depth - k) (an integer product, no BLAS) over 3^depth, so
    the points do not depend on the numerical library.  The digits are
    drawn and weighted in blocks of `_DIGIT_ROWS` points, so memory does
    not grow with `count`; the draws are the same as for one count x depth
    matrix, so the points are too.
    """
    if depth > 39:
        raise ConfigError(f"depth {depth} > 39 overflows the int64 numerators")
    rng = np.random.default_rng(seed)
    powers = 3 ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    xs = np.empty(count)
    for lo in range(0, count, _DIGIT_ROWS):
        hi = min(lo + _DIGIT_ROWS, count)
        xs[lo:hi] = (2 * rng.integers(0, 2, size=(hi - lo, depth)) @ powers) / 3 ** depth
    return xs.astype(complex)


# ---------------------------------------------------------------------------
# Brute-force pressure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrutePressure:
    n: int
    t: float
    value: float            # (1/n) log sum over words of |word derivative|^t
    slack_log: float        # per-level distortion allowance ln C
    n_words: int


def brute_force_pressure_similarity(weights: Sequence[float], n: int, t: float) -> float:
    """(1/n) log sum over n-words of similarity systems (exact ratios).

    Similarities have no distortion, so the value is independent of n.
    """
    weights = [float(w) for w in weights]
    if len(weights) ** n > 1_000_000:
        raise ConfigError(f"{len(weights)}^{n} words exceed the brute-force budget")
    terms = []
    for word in itertools.product(weights, repeat=n):
        prod = 1.0
        for w in word:
            prod *= w
        terms.append(prod ** t)
    return math.log(math.fsum(terms)) / n


def _branch_point(family: MapFamily, s: int, zeta: complex) -> complex:
    # independent principal log: ln|.| + i atan2
    w = zeta - family.log_lam
    return complex(math.log(abs(w)), math.atan2(w.imag, w.real)) + TWO_PI * 1j * s


def _branch_deriv(family: MapFamily, zeta: complex) -> complex:
    return 1.0 / (zeta - family.log_lam)


def brute_force_pressure(family: MapFamily, letters: Sequence, spec: SquareSpec,
                         n: int, t: float, distortion_c: float = 1.0) -> BrutePressure:
    """(1/n) log sum over all n-words of |(g^word)'(center Q)|^t.

    The word norm is approximated by the derivative at the center of Q;
    the distortion slack C^n is returned separately, never folded in.
    Refuses budgets beyond 1e6 words.
    """
    letters = [(int(u), int(s)) for (u, s) in letters]
    if len(letters) ** n > 1_000_000:
        raise ConfigError(f"{len(letters)}^{n} words exceed the brute-force budget")
    if family.kind != "exponential":
        raise ConfigError("the brute-force oracle covers the exponential family")
    z0 = spec.outer.center
    terms = []
    for word in itertools.product(letters, repeat=n):
        z = z0
        deriv = complex(1.0)
        for (u, s) in reversed(word):
            first = _branch_point(family, s, z)
            d = _branch_deriv(family, z) * _branch_deriv(family, first)
            z = _branch_point(family, u, first)
            deriv *= d
        terms.append(abs(deriv) ** t)
    total = math.fsum(terms)
    return BrutePressure(n=n, t=t, value=math.log(total) / n,
                         slack_log=math.log(distortion_c), n_words=len(terms))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_derivative_check(op: Callable, samples: Sequence[complex],
                        rel_step: float = 1e-5) -> float:
    """Worst relative error of closed-form derivatives against central differences.

    op maps a complex point to (value, derivative).  The step is relative
    to the sample magnitude.  Raises if op is undefined at a perturbed
    point.
    """
    worst = 0.0
    for z in samples:
        z = complex(z)
        h = rel_step * max(1.0, abs(z))
        _, d_closed = op(z)
        vp, _ = op(z + h)
        vm, _ = op(z - h)
        d_fd = (vp - vm) / (2.0 * h)
        denom = max(abs(d_closed), 1e-300)
        worst = max(worst, abs(d_fd - d_closed) / denom)
    return worst


# ---------------------------------------------------------------------------
# Containment recheck
# ---------------------------------------------------------------------------

def _recheck_boundary(family: MapFamily, spec: SquareSpec, budget: GeometryBudget,
                      density: int):
    """What a dense recheck shares across letters: at density x boundary
    samples z of Q, the first-level logs ln|z - c| + i*atan2 and |z - c|."""
    w = spec.outer.boundary_points(budget.boundary_samples * density) - family.log_lam
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    return log_first, np.abs(w)


def _recheck_cells(family: MapFamily, us, ss, spec: SquareSpec, budget: GeometryBudget,
                   boundary):
    """Dense containment verdicts of the cells (us[i], ss[i]) from the shared
    boundary work; `us` may be one column for all letters.

    Letters are evaluated in blocks of about `_DENSE_BLOCK` boundary points,
    as (letters x samples) arrays.  The second level is w2 = log_first +
    2*pi*i*s - c, whose real part does not depend on the letter, and the
    images are 0.5*ln(re^2 + im^2) + i*atan2 + 2*pi*i*u.  The Lipschitz
    padding is the sampled sup of 1/(|w2| * |z - c|), padded by 25% and
    raised to at least an ulp of Q's largest coordinate, so a cell
    narrower than an ulp is not rated "inside" by rounding.  The
    images enter the verdict only through their extremes: all samples lie
    in Q shrunk by delta exactly when the least and greatest real and
    imaginary parts do, and a NaN fails both forms.  Division and adding a
    constant are monotone in float, so the sup is 1 / min and 2*pi*u is
    added after the reduction, both exactly.

    Returns the verdicts ("inside", "borderline" or "outside"), the
    paddings delta and the image extents (re_min, re_max, im_min, im_max),
    one row per letter.
    """
    log_first, d_first = boundary
    c = family.log_lam
    rect = spec.outer
    ss = np.asarray(ss, dtype=float)
    us = np.broadcast_to(np.asarray(us, dtype=float), ss.shape)
    n = log_first.size
    step = max(1, _DENSE_BLOCK // n)
    re_w2 = log_first.real - c.real
    re_w2_sq = re_w2 ** 2
    lip = np.empty(ss.size)
    ext = np.empty((ss.size, 4))
    for i in range(0, ss.size, step):
        im_w2 = log_first.imag + (TWO_PI * ss[i:i + step])[:, None]
        im_w2 -= c.imag
        w2 = np.empty(im_w2.shape, dtype=complex)
        w2.real = re_w2
        w2.imag = im_w2
        re = np.log(re_w2_sq + im_w2 * im_w2)
        re *= 0.5
        im = np.arctan2(im_w2, re_w2)
        d = np.abs(w2)
        d *= d_first
        lip[i:i + step] = 1.0 / d.min(axis=1) * 1.25
        ext[i:i + step] = np.column_stack([re.min(axis=1), re.max(axis=1),
                                           im.min(axis=1), im.max(axis=1)])
    ext[:, 2:] += TWO_PI * us[:, None]
    delta = np.maximum(budget.margin + lip * (rect.perimeter / n),
                       math.ulp(max(map(abs, rect.bounds()))))

    def within(pad):
        return ((ext[:, 0] >= rect.re_lo + pad) & (ext[:, 1] <= rect.re_hi - pad)
                & (ext[:, 2] >= rect.im_lo + pad) & (ext[:, 3] <= rect.im_hi - pad))

    verdicts = np.where(within(delta), "inside",
                        np.where(within(0.0), "borderline", "outside"))
    return verdicts, delta, ext


def containment_recheck(family: MapFamily, u: int, s: int, spec: SquareSpec,
                        budget: GeometryBudget, density: int = 10,
                        recorded_verdict: Optional[str] = None) -> str:
    """Repeat one containment decision at density x boundary sampling.

    Uses an independent evaluation path and its own Lipschitz padding: the
    one-letter view of the batched dense recheck of `recheck_gset`, on
    freshly built boundary work.
    When a recorded verdict is supplied, disagreement raises NumericError.
    """
    if family.kind != "exponential":
        raise ConfigError("the recheck oracle covers the exponential family")
    boundary = _recheck_boundary(family, spec, budget, density)
    verdict = str(_recheck_cells(family, u, [s], spec, budget, boundary)[0][0])
    if recorded_verdict is not None:
        agree = (verdict == recorded_verdict
                 or (verdict == "borderline" and recorded_verdict == "outside"))
        if not agree:
            raise NumericError(
                f"containment recheck disagrees at (u,s)=({u},{s}): "
                f"recorded {recorded_verdict}, recheck {verdict}")
    return verdict


@dataclass(frozen=True)
class RecheckReport:
    n_checked: int
    n_densely_sampled: int
    n_flagged: int
    flagged: tuple
    min_margin: float          # worst enclosure margin over cells where it is defined


def recheck_gset(family: MapFamily, gset: GSet, spec: SquareSpec,
                 budget: GeometryBudget, density: int = 10,
                 dense_sample: int = 2000, seed: int = 20210) -> RecheckReport:
    """Recheck every explicit member of G with independent evaluations.

    Each letter's cell has an independent interval enclosure, recomputed
    with atan2/hypot arithmetic and its own envelope constant b_ind.  With
    T = 2*pi*|s| its margin against Q is the least of ln(T - b_ind) - x
    and the two vertical margins mid -/+ arcsin(b_ind / (T - b_ind)),
    which rise with T, and y - ln(T + b_ind), which falls.  So within one
    run of G the letters with margin >= 0 form one interval, the least
    margin over any stretch of the run sits at its two ends, and undefined
    margins (T <= b_ind) only occur at the small-|s| end.  The margin is
    therefore evaluated on `_END_BLOCK` letters at each end of a run; when
    the inner letter of either block fails, the blocks grow eightfold,
    up to the whole run.  Every letter whose margin is negative or
    undefined gets the dense recheck, one batch per run, in (run, s)
    order.  `n_checked` counts every letter the runs cover; `min_margin`
    is the least defined margin, which the end blocks always contain.

    A deterministic subsample of `dense_sample` letters additionally gets
    the full density x boundary-sampled recheck.  All dense rechecks share
    one evaluation of the boundary samples of Q, their first-level logs
    and |z - c|, which do not depend on the letter, and evaluate the
    second level and the padding in blocks of letters (`_recheck_cells`).
    """
    if family.kind != "exponential":
        raise ConfigError("the recheck oracle covers the exponential family")
    flagged = []
    n_checked = 0
    min_margin = math.inf
    c = family.log_lam
    rect = spec.outer
    # independent envelope constants from a dense boundary grid of Q
    bpts = rect.boundary_points(4096)
    w = bpts - c
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    b_ind = float(np.max(np.abs(log_first - c))) * (1.0 + 1e-9)
    boundary = _recheck_boundary(family, spec, budget, density)

    def margins(u: int, ss: np.ndarray) -> np.ndarray:
        two_pi_s = TWO_PI * np.abs(ss).astype(float)
        # below 2*pi*|s| = b_ind the enclosure is undefined (NaN margin)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo_re = np.log(two_pi_s - b_ind)
            dev = np.arcsin(np.minimum(1.0, b_ind / (two_pi_s - b_ind)))
        hi_re = np.log(two_pi_s + b_ind)
        mid = TWO_PI * u + np.sign(ss) * 0.5 * math.pi
        return np.minimum.reduce([
            lo_re - (rect.re_lo + budget.margin),
            (rect.re_hi - budget.margin) - hi_re,
            (mid - dev) - (rect.im_lo + budget.margin),
            (rect.im_hi - budget.margin) - (mid + dev),
        ])

    for win in gset.windows:
        n_checked += win.count
        block = _END_BLOCK
        while 2 * block < win.count:
            ss = np.r_[win.s_lo:win.s_lo + block, win.s_hi - block + 1:win.s_hi + 1]
            margin = margins(win.u, ss)
            if margin[block - 1] >= 0 and margin[block] >= 0:
                break
            block *= 8
        else:
            ss = np.arange(win.s_lo, win.s_hi + 1, dtype=np.int64)
            margin = margins(win.u, ss)
        min_margin = min(min_margin, float(np.fmin.reduce(margin, initial=math.inf)))
        # enclosure inconclusive or undefined: fall through to dense sampling
        bad = ss[~(margin >= 0)]
        outside = _recheck_cells(family, win.u, bad, spec, budget, boundary)[0] == "outside"
        flagged.extend((win.u, int(s)) for s in bad[outside])
    # deterministic dense-sampled subsample
    rng = np.random.default_rng(seed)
    n_dense = 0
    if gset.n_explicit:
        take = min(dense_sample, gset.n_explicit)
        ranks = np.sort(rng.choice(gset.n_explicit, size=take, replace=False))
        us, ss = gset.letters_from_ranks(ranks)
        outside = _recheck_cells(family, us, ss, spec, budget, boundary)[0] == "outside"
        flagged.extend((int(u), int(s)) for u, s in zip(us[outside], ss[outside]))
        n_dense = take
    return RecheckReport(n_checked=n_checked, n_densely_sampled=n_dense,
                         n_flagged=len(flagged), flagged=tuple(flagged[:64]),
                         min_margin=min_margin)
