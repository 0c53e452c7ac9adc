"""Independent brute-force verifiers backing the acceptance suite.

Nothing here reuses the main pipeline's evaluation paths: complex
logarithms are assembled from ln|.| and atan2.  The brute-force pressure
steps letters of any size from their logs in plain loops.  The containment
recheck is array-based.  One `recheck_gset` call builds the boundary
object once (`_Boundary`: the first-level logs of the boundary samples of
Q, sorted, with every key order and maximum that does not depend on the
letter) and sends every letter it rechecks densely through one batched
pass (`_recheck_cells`).  That pass forms ln T with one map of math.log
over the indices, everything else in array passes over the letters, and
evaluates each letter, in blocks, only on the samples that can hold one
of its float extremes.  At a sample z, with x =
1/(2*pi*|s|), each extreme (least and greatest image real and imaginary
part, least padding term) is a letter-independent key (q = arg(z - c) -
Im c, or ln|z - c|) plus a perturbation bounded in x.  With the samples
sorted by the keys, a letter needs only the prefix and suffix of each
order whose keys lie within that bound, plus a rounding slack, of the
extreme key: the float extreme is no worse than the float value at the
extreme key's sample, so its own sample lies inside (`_recheck_cells`
gives the bounds).  At x = 0 one sample serves; where x is not small
every sample is evaluated.  Either way the verdicts, paddings and extents
are those of evaluating every sample, bit for bit.  Box counting sees
only point clouds: it counts the distinct boxes at each scale with one
sort, and skips a coordinate whose span fits in one box at that scale.
The middle-thirds sample takes one draw per point.
`compare_window_modes` checks the run sum alone: it sums one sigma
window of the pipeline's per-letter envelopes letter by letter, which the
run sum's Euler-Maclaurin bracket must enclose.
Disagreement between an oracle and the pipeline is a failure of the run,
not of the oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .loglift import MapFamily, log_run_sum_bounds
from .numerics import TWO_PI, log_sum_exp
from .tractgeom import GSet, GeometryBudget, Rect

# Boundary samples of Q per unit of `density` in the dense recheck.
_BOUNDARY_SAMPLES = 256
# Letters whose margin `recheck_gset` evaluates at each end of a run at first.
_END_BLOCK = 64
# Boundary points per block of the dense recheck: 8 letters at the default
# 2,560 samples (density 10 x _BOUNDARY_SAMPLES).
_DENSE_BLOCK = 20_480
# Rounding slack E of the dense recheck's float images (`_recheck_cells`).
_ROUNDING = 32 * 2.0 ** -53
# (letter, sample) pairs up to which candidate buckets fold into one
# block-loop call: about what the call's own overhead costs (about 20 us
# on a 2-core x86 VM, at about 9 ns per pair).
_FOLD_PAIRS = 2048

# ---------------------------------------------------------------------------
# Box counting
# ---------------------------------------------------------------------------


class BoxCountEstimate(NamedTuple):
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

    Each scale costs one sort of the box keys of the two coordinate
    columns, read as views of the input.  Division by eps > 0 and floor
    are monotone, so a column's least and greatest box index are
    floor(min / eps) and floor(max / eps), taken from the cloud's extremes
    computed once.  Where the two are equal, every point has that index:
    the column is skipped at that scale (no divide, floor or cast), and
    the key is the other column's index.  A real cloud, such as the
    middle-thirds set, skips its imaginary column at every scale.
    Otherwise, with the indices shifted to start at 0, the key
    i*(span_j + 1) + j numbers the boxes of the cloud's bounding grid one
    to one.  The count is the number of steps in the sorted keys plus one.
    A grid of 2**63 boxes or more has no int64 key, and there the index
    pairs are sorted lexicographically instead.  Box indices past the
    int64 range raise `ConfigError`.  Every scale divides, floors and
    casts into the same three buffers (one float64, two int64), allocated
    once per call, and forms its key in place.
    """
    pts = np.asarray(points)
    if np.iscomplexobj(pts):
        cols = (pts.real.reshape(-1), pts.imag.reshape(-1))
    else:
        xy = np.asarray(pts, dtype=float).reshape(-1, 2)
        cols = (xy[:, 0], xy[:, 1])
    n = cols[0].size
    if n < 10_000:
        raise ConfigError(f"box counting needs >= 1e4 points, got {n}")
    lo = [c.min() for c in cols]
    hi = [c.max() for c in cols]
    if not all(math.isfinite(v) for v in lo + hi):
        raise ConfigError("point cloud has non-finite coordinates")
    diam = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    if diam == 0.0:
        raise ConfigError("degenerate point cloud (zero diameter)")
    scales = sorted(float(s) for s in scales)
    if len(scales) < 5:
        raise ConfigError("need at least 5 scales")
    if not all(0.0 < s < math.inf for s in scales):
        raise ConfigError("scales must be positive and finite")
    if scales[-1] / scales[0] < 100.0:
        raise ConfigError("scales must span at least two decades")
    f = np.empty(n)
    i, j = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    counts = []
    for eps in scales:
        (i_lo, i_hi), (j_lo, j_hi) = ((math.floor(a / eps), math.floor(b / eps))
                                      for a, b in zip(lo, hi))
        if min(i_lo, j_lo) < -2 ** 63 or max(i_hi, j_hi) >= 2 ** 63:
            raise ConfigError(f"box indices at scale {eps!r} exceed the int64 range")
        # a column whose extremes share a box has that index at every point
        split = [(c, k) for c, k, a, b in zip(cols, (i, j), (i_lo, j_lo), (i_hi, j_hi))
                 if a != b]
        for c, k in split:
            np.floor(np.divide(c, eps, out=f), out=f)
            k[...] = f
        rows = j_hi - j_lo + 1
        if not split:  # one box
            steps = 0
        elif len(split) == 2 and (i_hi - i_lo + 1) * rows >= 2 ** 63:
            # more boxes than int64 keys: sort the index pairs instead
            order = np.lexsort((j, i))
            i_s, j_s = i[order], j[order]
            steps = np.count_nonzero((i_s[1:] != i_s[:-1]) | (j_s[1:] != j_s[:-1]))
        else:
            if len(split) == 2:
                i -= i_lo
                i *= rows
                j -= j_lo
                i += j
            key = split[0][1]  # the merged key in i, or the one split column's index
            key.sort()
            steps = np.count_nonzero(key[1:] != key[:-1])
        counts.append(int(steps) + 1)
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return BoxCountEstimate(scales=tuple(scales), counts=tuple(counts),
                            slope=float(slope), residual=resid)


def cantor_middle_thirds(count: int = 100_000, depth: int = 35,
                         seed: int = 7) -> np.ndarray:
    """Random points of the middle-thirds set on [0, 1], as complex values.

    Each point is sum_k d_k 3^-k over k = 1..depth with digits d_k in
    {0, 2}, from one uniform draw in [0, 2^depth) per point: digit k is 2
    times bit depth - k of the draw.  So the numerator sum_k d_k
    3^(depth - k) is sum_j 2 bit_j 3^j, which is summed exactly in int64
    from one 256-entry table per byte of the draw (at most 5 bytes), and
    divided by 3^depth.  No BLAS, so the points do not depend on the
    numerical library.  Memory is O(count): each byte of the draws is
    shifted and masked into one reused uint8 buffer, the draws are dropped
    before the output is allocated, and the numerators are divided
    straight into the output's real part.
    """
    if depth > 39:
        raise ConfigError(f"depth {depth} > 39 overflows the int64 numerators")
    draws = np.random.default_rng(seed).integers(0, 2 ** depth, size=count, dtype=np.int64)
    numer = np.zeros(count, dtype=np.int64)
    byte = np.empty(count, dtype=np.uint8)
    for lo in range(0, depth, 8):
        table = [0]  # table[v]: sum of 2 * 3^(lo + i) over the set bits i of v
        for i in range(lo, min(lo + 8, depth)):  # the draw has no bit past depth
            table += [x + 2 * 3 ** i for x in table]
        # the cast to uint8 keeps bits lo to lo + 7 of the shifted draw: the mask
        np.right_shift(draws, lo, out=byte, casting="unsafe")
        numer += np.array(table, dtype=np.int64)[byte]
    del draws
    points = np.zeros(count, dtype=complex)
    np.divide(numer, 3 ** depth, out=points.real)
    return points


# ---------------------------------------------------------------------------
# Brute-force pressure
# ---------------------------------------------------------------------------

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


def brute_force_pressure(family: MapFamily, letters: Sequence, square: Rect,
                         n: int, t: float) -> float:
    """(1/n) log sum over all n-words of |(g^word)'(center Q)|^t.

    For letters of G every intermediate point of a word lies in Q, where
    each letter's |g'| lies between its level-1 weight bounds, so the
    value lies between the letters' level-1 pressure bounds at every n.
    Each letter (u, s) steps in the scalar, scale-free form of
    `_recheck_cells`, with ln T = ln(2*pi*|s|) taken on the int
    (`_index_logs`), so no float 2*pi*s is formed: the image is (ln T +
    half) + i*(atan2(Y, X) + 2*pi*u), and ln|g'(z)| = -(ln|z - c| + ln T +
    half).  Each word's ln|derivative| is summed letter by letter and the
    words are added by `log_sum_exp`, so no derivative underflows.
    Refuses budgets beyond 1e6 words.
    """
    letters = [(int(u), int(s)) for (u, s) in letters]
    if len(letters) ** n > 1_000_000:
        raise ConfigError(f"{len(letters)}^{n} words exceed the brute-force budget")
    ln_ts, signs = _index_logs([s for _, s in letters])
    steps = [(TWO_PI * u, ln_t, math.exp(-ln_t), sign)
             for (u, _), ln_t, sign in zip(letters, ln_ts.tolist(), signs.tolist())]
    c = family.log_lam
    z0 = square.center
    log_terms = []
    for word in itertools.product(steps, repeat=n):
        z = z0
        log_deriv = 0.0
        for two_pi_u, ln_t, x, sign in reversed(word):
            w = z - c
            log_r = math.log(abs(w))
            big_x = (log_r - c.real) * x
            big_y = sign + (math.atan2(w.imag, w.real) - c.imag) * x
            half = 0.5 * math.log(big_x * big_x + big_y * big_y)
            log_deriv -= log_r + ln_t + half
            z = complex(ln_t + half, math.atan2(big_y, big_x) + two_pi_u)
        log_terms.append(t * log_deriv)
    return log_sum_exp(log_terms) / n


# ---------------------------------------------------------------------------
# Cross-mode agreement (enumeration vs the run sum on one window)
# ---------------------------------------------------------------------------

class WindowComparison(NamedTuple):
    t: float
    sigma_lo: float
    sigma_hi: float
    enum_lo: float
    enum_hi: float
    tail_lo_bounds: tuple   # run-sum bracket of the lower-envelope sum
    tail_hi_bounds: tuple   # run-sum bracket of the upper-envelope sum
    rel_width_lo: float
    rel_width_hi: float

    @property
    def consistent(self) -> bool:
        return (self.tail_lo_bounds[0] <= self.enum_lo <= self.tail_lo_bounds[1]
                and self.tail_hi_bounds[0] <= self.enum_hi <= self.tail_hi_bounds[1])


def compare_window_modes(family: MapFamily, square: Rect, sigma_lo: float,
                         sigma_hi: float, t: float = 1.0) -> WindowComparison:
    """Sum one sigma window by explicit enumeration and by the run sum.

    Both target the same per-letter envelopes, so the enumerated value
    must fall inside the bracket of `log_run_sum_bounds`.
    """
    env = family.envelope(square)
    # the size test comes first, in log form, so that no exp overflows
    if (max(sigma_lo, sigma_hi) - math.log(TWO_PI) > 54 * math.log(2.0)
            or math.floor(math.exp(sigma_hi) / TWO_PI) > 2 ** 53):
        raise ConfigError("window too large to enumerate; shrink sigma_hi")
    s1 = math.ceil(math.exp(sigma_lo) / TWO_PI)
    s2 = math.floor(math.exp(sigma_hi) / TWO_PI)
    if s2 < s1:
        raise ConfigError("empty comparison window")
    # fixed chunk length of the per-letter sums: bounds their memory and
    # pins their evaluation order
    chunk = 1 << 20
    parts_lo, parts_hi = [], []
    for start in range(s1, s2 + 1, chunk):
        ss = np.arange(start, min(start + chunk - 1, s2) + 1, dtype=np.int64)
        sigma = np.log(TWO_PI) + np.log(ss.astype(float))
        lo, hi = env.log_weight_bounds(sigma)
        parts_lo.append(float(np.sum(np.exp(t * lo))))
        parts_hi.append(float(np.sum(np.exp(t * hi))))
    enum_lo = math.fsum(parts_lo)
    enum_hi = math.fsum(parts_hi)
    sig_a = math.log(TWO_PI) + math.log(s1)
    sig_b = math.log(TWO_PI) + math.log(s2)
    h = env.b / TWO_PI
    lo_pair = log_run_sum_bounds(s1, s2, t, h, -t * math.log(TWO_PI * env.d_hi))
    hi_pair = log_run_sum_bounds(s1, s2, t, -h, -t * math.log(TWO_PI * env.d_lo))

    def span(pair):
        return (math.exp(pair[0]), math.exp(pair[1]))

    tl, th = span(lo_pair), span(hi_pair)
    return WindowComparison(
        t=t, sigma_lo=sig_a, sigma_hi=sig_b, enum_lo=enum_lo, enum_hi=enum_hi,
        tail_lo_bounds=tl, tail_hi_bounds=th,
        rel_width_lo=(tl[1] - tl[0]) / enum_lo if enum_lo else math.inf,
        rel_width_hi=(th[1] - th[0]) / enum_hi if enum_hi else math.inf)


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

class _Boundary(NamedTuple):
    """What every dense recheck of one `recheck_gset` call shares: the
    first-level logs ln|z - c| + i*arg(z - c) at the boundary samples z of
    Q, sorted by ln|z - c| (stably, so ties keep the order along the
    boundary), and the letter-independent parts of the prefix rule of
    `_recheck_cells`: the keys p = ln|z - c| - Re c and q = arg(z - c) -
    Im c in that order, a stable sort order of q and q sorted by it, and
    max|p|, max|q| and max|ln|z - c||."""

    logs: np.ndarray
    lr: np.ndarray        # ln|z - c|
    p: np.ndarray
    q: np.ndarray
    q_order: np.ndarray
    qs: np.ndarray        # q[q_order]
    big_p: float
    big_q: float
    big_lr: float

    @classmethod
    def from_logs(cls, family: MapFamily, logs: np.ndarray) -> "_Boundary":
        """The boundary of the first-level logs `logs`, sorted by ln|z - c|."""
        c = family.log_lam
        lr = logs.real
        p, q = lr - c.real, logs.imag - c.imag
        q_order = np.argsort(q, kind="stable")
        return cls(logs=logs, lr=lr, p=p, q=q, q_order=q_order, qs=q[q_order],
                   big_p=float(np.max(np.abs(p))), big_q=float(np.max(np.abs(q))),
                   big_lr=float(np.max(np.abs(lr))))


def _recheck_boundary(family: MapFamily, square: Rect, density: int) -> _Boundary:
    """The shared boundary work of the dense recheck at density x
    `_BOUNDARY_SAMPLES` boundary samples of Q."""
    w = square.boundary_points(_BOUNDARY_SAMPLES * density) - family.log_lam
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    return _Boundary.from_logs(family, log_first[np.argsort(log_first.real, kind="stable")])


def _index_logs(ss):
    """ln(2*pi*|s|) and sign(s) as float arrays, for indices s of any size
    (an int64 or object array, or a sequence of ints).  ln|s| is math.log
    of each int, mapped over the array's list of ints: np.log of a float
    need not match it bit for bit, and past 2^1024 there is no float."""
    ss = ss if isinstance(ss, np.ndarray) else np.array(ss, dtype=object)
    ints = ss.tolist()
    ln_t = math.log(TWO_PI) + np.fromiter(map(math.log, map(abs, ints)), float, len(ints))
    return ln_t, np.where(ss > 0, 1.0, -1.0)


def _dense_ranks(gset: GSet, dense_sample: int, seed: int) -> np.ndarray:
    """The ranks of the deterministic dense subsample, sorted: all of G when
    it holds no more than `dense_sample` letters, else `dense_sample`
    distinct ranks drawn uniformly, the repeats drawn again.  Distinct
    ranks come from one sort and a comparison of neighbours (np.unique
    first hashes int64, ten times slower on 2,000 ranks)."""
    if gset.n_letters <= dense_sample:
        return np.arange(gset.n_letters)
    rng = np.random.default_rng(seed)
    ranks = np.empty(0, dtype=np.int64)
    while ranks.size < dense_sample:
        ranks = np.sort(np.concatenate([ranks, gset.random_ranks(rng, dense_sample - ranks.size)]))
        ranks = ranks[np.concatenate(([True], ranks[1:] != ranks[:-1]))]
    return ranks


def _sample_extremes(p, q, lr, x, sign) -> np.ndarray:
    """The block loop of the dense recheck: for letters (x[i], sign[i]) at
    the samples (p, q, lr), the least and greatest half = 0.5*ln(X^2 +
    Y^2) and im = atan2(Y, X), with X = p*x and Y = sign + q*x, and the
    least half + lr, as the rows of a (5 x letters) array.

    Letters are evaluated in blocks of about `_DENSE_BLOCK` (letter,
    sample) pairs, in one reused buffer.  A block with fewer samples than
    letters is laid out samples x letters, so that each reduction over
    the samples is one elementwise pass across the letters: numpy reduces
    the short rows of a letters x samples block one row at a time, 30
    times slower at 1,990 letters x 7 samples.  The layout moves no bit:
    min and max are exact, and no value reduced here is -0.0 (Y = sign +
    q*x never is, so atan2(Y, X) is not, and no log or sum of logs is), so
    no tie between signed zeros depends on the order.
    """
    n = p.size
    step = max(1, _DENSE_BLOCK // n)
    axis = 0 if n < min(step, x.size) else 1  # the axis of the samples
    if axis == 0:
        p, q, lr = p[:, None], q[:, None], lr[:, None]
    out = np.empty((5, x.size))
    buf = np.empty(4 * n * min(step, x.size))  # reused by every block
    for i in range(0, x.size, step):
        xs, sg = x[i:i + step], sign[i:i + step]
        k = xs.size
        if axis == 1:
            xs, sg = xs[:, None], sg[:, None]
        y, xx, half, im = buf[:4 * n * k].reshape((4, n, k) if axis == 0 else (4, k, n))
        np.multiply(q, xs, out=y)
        y += sg
        np.multiply(p, xs, out=xx)
        np.arctan2(y, xx, out=im)
        np.multiply(y, y, out=half)
        xx *= xx
        half += xx
        np.log(half, out=half)
        half *= 0.5
        out[0, i:i + k], out[1, i:i + k] = half.min(axis=axis), half.max(axis=axis)
        out[2, i:i + k], out[3, i:i + k] = im.min(axis=axis), im.max(axis=axis)
        half += lr
        out[4, i:i + k] = half.min(axis=axis)
    return out


def _candidate_samples(boundary: _Boundary, x):
    """Buckets (letters, samples) of the letters x = e^-ln T by the prefix
    rule of `_recheck_cells`: each bucket's samples hold, for each of its
    letters, a sample of every float extreme of `_sample_extremes`.  The
    sort orders and maxima come from the shared `boundary`.

    Letters are bucketed by the bit length of their longest prefix, and
    each bucket takes the longest prefix of each order over its letters.
    Taken in order of their prefix lengths, buckets then fold into the
    previous one while the folded bucket holds at most `_FOLD_PAIRS`
    letters x prefix samples: a few letters on a few samples cost less
    than a block-loop call of their own.  A folded bucket's prefixes are
    the longest of its parts', a superset of each letter's candidates."""
    p, lr, qs, q_order = boundary.p, boundary.lr, boundary.qs, boundary.q_order
    big_p, big_q = boundary.big_p, boundary.big_q
    n = p.size
    with np.errstate(divide="ignore", over="ignore"):  # x = 0 or subnormal
        w_half = np.where(x > 0, 1.25 * big_p ** 2 * x + 2.5 * _ROUNDING / x, -np.inf)
        w_angle = np.where(x > 0, 8 / 3 * big_p * big_q * x + 2.5 * _ROUNDING / x, -np.inf)
    w_pad = (8 / 3 * big_q * x + (big_p * x) ** 2
             + np.where(x > 0, 2 * _ROUNDING * (1 + boundary.big_lr), 0.0))
    far = x * max(big_p, big_q) > 0.25
    w_half[far] = w_angle[far] = w_pad[far] = np.inf
    lengths = np.array([
        np.searchsorted(qs, qs[0] + w_half, "right"),
        n - np.searchsorted(qs, qs[-1] - w_half, "left"),
        np.maximum(np.searchsorted(p, p[0] + w_angle, "right"),
                   np.searchsorted(lr, lr[0] + w_pad, "right")),
        n - np.searchsorted(p, p[-1] - w_angle, "left"),
    ])
    # the bit length of each letter's longest prefix
    bucket = np.searchsorted(1 << np.arange(n.bit_length()), lengths.max(axis=0), "right")
    folded = []  # (letters, longest prefixes)
    for b in sorted(set(bucket.tolist())):
        letters = np.nonzero(bucket == b)[0]
        prefixes = lengths[:, letters].max(axis=1)
        if folded:
            both = np.maximum(folded[-1][1], prefixes)
            if (folded[-1][0].size + letters.size) * int(both.sum()) <= _FOLD_PAIRS:
                folded[-1] = (np.concatenate([folded[-1][0], letters]), both)
                continue
        folded.append((letters, prefixes))
    for letters, (lo_q, hi_q, lo_p, hi_p) in folded:
        samples = np.zeros(n, dtype=bool)
        samples[q_order[:lo_q]] = samples[q_order[n - hi_q:]] = True
        samples[:lo_p] = samples[n - hi_p:] = True
        yield letters, np.nonzero(samples)[0]


def _recheck_cells(us, ss, square: Rect, boundary: _Boundary):
    """Dense containment verdicts of the cells (us[i], ss[i]) from the shared
    boundary work (`_recheck_boundary`), in one batch whatever the number
    of letters; `us` may be one column for all letters, and the indices
    `ss` are ints of any size (`_index_logs`).  Apart from one map of
    math.log over the indices, the work is array passes over the letters.

    The second level is w2 = log_first - c + 2*pi*i*s = p + i*(q + 2*pi*s),
    in a scale-free form.  With T = 2*pi*|s|, x = e^-ln T and sigma =
    sign(s), w2 / T = X + i*Y with X = p*x and Y = sigma + q*x, so the
    image Log(w2) + 2*pi*i*u has real part re = ln T + half, half =
    0.5*ln(X^2 + Y^2), and imaginary part atan2(Y, X) + 2*pi*u.  The
    Lipschitz padding is the sampled sup of 1/(|w2| * |z - c|) =
    e^-(ln T + half + ln|z - c|), padded by 25% and raised to at least an
    ulp of Q's largest coordinate, so a cell narrower than an ulp is not
    rated "inside" by rounding.  The images enter the verdict only through
    their extremes: all samples lie in Q shrunk by delta exactly when the
    least and greatest real and imaginary parts do, and a NaN fails both
    forms.  Adding a constant is monotone in float, so ln T and 2*pi*u are
    added after the reductions, with the same result as before them.

    Candidate samples.  The five float extremes (least and greatest half
    and atan2, least half + ln|z - c|) are reduced by the block loop
    `_sample_extremes` over each letter's candidate samples only; with
    every sample as candidates that loop is the reference.  With k =
    sigma*q, P = max|p| and Q = max|q| over the samples, and while x *
    max(P, Q) <= 1/4 (so 3/4 <= 1 + k*x <= 5/4), the exact values are a
    letter-independent order plus a perturbation bounded in x:
    - half = ln(1 + k*x) + D with 0 <= D <= P^2 x^2: ordered by k, and
      ln(1 + k*x) - ln(1 + k'*x) >= 0.8 (k - k') x for k >= k';
    - atan2 = sigma*(pi/2 - atan(g)), g = p*x / (1 + k*x), |g - p*x| <=
      4/3 P Q x^2 and |g| <= 1/3: ordered by p, with atan's slope >= 0.9;
    - half + ln|z - c|: ordered by ln|z - c|, with half within
      [-4/3 Q x, 4/3 Q x + P^2 x^2].
    Rounding slack: each float expression lies within E of its exact
    value, E = `_ROUNDING` = 32 * 2^-53 for half and atan2 (at least three
    times what the float chain costs when np.log and np.arctan2 err by up
    to four ulps), and E * (1 + max|ln|z - c||) for half + ln|z - c|,
    whose sum rounds at ln|z - c|'s scale.  Prefix rule: the float extreme
    is no worse than the float value at the sample of the extreme key, so
    the exact value at its sample is within the perturbation plus 2 E of
    the extreme key's, and its key lies within
    - 1.25 P^2 x + 2.5 E / x of the least or greatest k (half);
    - 8/3 P Q x + 2.5 E / x of the least or greatest p (atan2);
    - 8/3 Q x + P^2 x^2 + 2 E (1 + max|ln|z - c||) of the least
      ln|z - c| (half + ln|z - c|).
    Those prefixes and suffixes of the samples sorted by q and by
    ln|z - c| (p = ln|z - c| - Re c has the same order; the boundary
    comes sorted by it) hold a sample of every float extreme, so the
    reductions over them equal the reductions over all samples, bit for
    bit.  E is at least three times the error it covers, and its excess
    also covers the float evaluation of the widths and of the thresholds
    key + width, so no sample the bound admits is dropped.  At x = 0 (ln T
    past the underflow of exp) every expression is exact: Y = sigma, X =
    +-0, half = 0 and atan2 = sigma*pi/2 at every sample, so the least
    ln|z - c| (and its exact ties) is the only candidate.  Where x *
    max(P, Q) > 1/4 every sample is a candidate.  Letters are bucketed by
    the bit length of their longest prefix, small buckets folded together
    (`_candidate_samples`), and each bucket is evaluated on the union of
    its letters' prefixes.

    Returns the verdicts ("inside", "borderline" or "outside"), the
    paddings delta and the image extents (re_min, re_max, im_min, im_max),
    one row per letter.
    """
    p, q, lr = boundary.p, boundary.q, boundary.lr
    ln_t, sign = _index_logs(ss)
    x = np.exp(-ln_t)
    us = np.broadcast_to(np.asarray(us, dtype=float), ln_t.shape)
    extremes = np.empty((5, ln_t.size))
    for letters, samples in _candidate_samples(boundary, x):
        extremes[:, letters] = _sample_extremes(p[samples], q[samples], lr[samples],
                                             x[letters], sign[letters])
    ext, low = extremes[:4], extremes[4]  # low: least re + ln|z - c| - ln T
    ext[:2] += ln_t
    ext[2:] += TWO_PI * us
    lip = np.exp(-(ln_t + low)) * 1.25
    delta = np.maximum(lip * (square.perimeter / boundary.logs.size),
                       math.ulp(max(map(abs, square))))

    def within(pad):
        return ((ext[0] >= square.re_lo + pad) & (ext[1] <= square.re_hi - pad)
                & (ext[2] >= square.im_lo + pad) & (ext[3] <= square.im_hi - pad))

    verdicts = np.where(within(delta), "inside",
                        np.where(within(0.0), "borderline", "outside"))
    return verdicts, delta, ext.T


def containment_recheck(family: MapFamily, u: int, s: int, square: Rect,
                        density: int = 10) -> str:
    """Repeat one containment decision at density x boundary sampling.

    Uses an independent evaluation path and its own Lipschitz padding: the
    one-letter view of the batched dense recheck of `recheck_gset`, on
    freshly built boundary work.
    """
    boundary = _recheck_boundary(family, square, density)
    return str(_recheck_cells(u, [s], square, boundary)[0][0])


class RecheckReport(NamedTuple):
    n_checked: int
    n_densely_sampled: int
    n_flagged: int
    flagged: tuple
    min_margin: float          # worst enclosure margin over cells where it is defined


def recheck_gset(family: MapFamily, gset: GSet, square: Rect,
                 budget: GeometryBudget, density: int = 10,
                 dense_sample: int = 2000, seed: int = 20210) -> RecheckReport:
    """Recheck every letter of G with independent evaluations.

    Each letter's cell has an independent interval enclosure, recomputed
    with atan2/hypot arithmetic and its own envelope constant b_ind.  With
    T = 2*pi*|s| and x = e^-ln T, its margin against Q is the least of
    ln T + log1p(-b_ind*x) - x_lo and the two vertical margins mid -/+
    arcsin(b_ind*x / (1 - b_ind*x)), which rise with T, and
    y_hi - ln T - log1p(b_ind*x), which falls.  In this log form it takes
    indices of any size.  So within one run of G the letters with margin
    >= 0 form one interval, the least margin over any stretch of the run
    sits at its two ends, and undefined margins (T <= b_ind) only occur at
    the small-|s| end.  The vertical margins are monotone in the column u,
    one rising and one falling, so a run's columns do no worse than the
    two extreme columns of its block.  The margin is therefore evaluated
    on `_END_BLOCK` letters at each end of a run, at those two columns;
    when the inner letter of either end fails, the ends grow eightfold, up
    to the whole run.  Every letter whose margin is negative or undefined
    there gets the dense recheck at every column of its block, in (run,
    u, s) order.  `n_checked` counts every letter of G; `min_margin` is
    the least defined margin, which the ends always hold.

    A deterministic subsample of `dense_sample` distinct letters, drawn
    uniformly over G through its ranks (all of G when it holds no more,
    `_dense_ranks`), additionally gets the full density x boundary-sampled
    recheck.  The dense recheck is one batch: the runs' inconclusive
    letters, then the subsample, through a single `_recheck_cells` call on
    the boundary object built once here (`_recheck_boundary`), and no call
    when there is no such letter.  Each letter's verdict is the same in
    any batch, so the flagged letters come in the order of one call per
    run and one for the subsample.

    Both tests ask for containment in the closed square Q.  `density` is
    the one sample-count knob: the dense recheck samples density x
    `_BOUNDARY_SAMPLES` (256) boundary points of Q.  `budget` is unused;
    it stays because `perfbench/workloads.py` passes it positionally.
    """
    n_checked = 0
    min_margin = math.inf
    c = family.log_lam
    # independent envelope constants from a dense boundary grid of Q
    w = square.boundary_points(4096) - c
    log_first = 0.5 * np.log(w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, w.real)
    b_ind = float(np.max(np.abs(log_first - c))) * (1.0 + 1e-9)
    boundary = _recheck_boundary(family, square, density)

    def margins(u: int, ln_t: np.ndarray, sign: int) -> np.ndarray:
        # below 2*pi*|s| = b_ind the enclosure is undefined (NaN margin)
        bx = b_ind * np.exp(-ln_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo_re = ln_t + np.log1p(-bx)
            dev = np.arcsin(np.minimum(1.0, bx / (1.0 - bx)))
        hi_re = ln_t + np.log1p(bx)
        mid = TWO_PI * u + sign * 0.5 * math.pi
        return np.minimum.reduce([
            lo_re - square.re_lo,
            square.re_hi - hi_re,
            (mid - dev) - square.im_lo,
            square.im_hi - (mid + dev),
        ])

    run_u, run_s = [], []  # the runs' inconclusive letters, in (run, u, s) order
    for run in gset.runs:
        n_checked += run.n_columns * run.length
        sign = 1 if run.s_lo > 0 else -1
        block = _END_BLOCK
        while True:
            whole = 2 * block >= run.length
            ss = (list(range(run.s_lo, run.s_hi + 1)) if whole else
                  [*range(run.s_lo, run.s_lo + block), *range(run.s_hi - block + 1, run.s_hi + 1)])
            ln_t = _index_logs(ss)[0]
            margin = np.minimum(margins(run.u_lo, ln_t, sign), margins(run.u_hi, ln_t, sign))
            if whole or (margin[block - 1] >= 0 and margin[block] >= 0):
                break
            block *= 8
        min_margin = min(min_margin, float(np.fmin.reduce(margin, initial=math.inf)))
        # enclosure inconclusive or undefined: fall through to dense sampling
        bad = [ss[i] for i in np.flatnonzero(~(margin >= 0))]
        for u in range(run.u_lo, run.u_hi + 1):
            run_u += [u] * len(bad)
            run_s += bad
    ranks = _dense_ranks(gset, dense_sample, seed)
    us, ss = gset.letters(ranks) if ranks.size else (np.empty(0, dtype=np.int64),) * 2
    if run_s:  # one batch: the runs' letters, then the subsample
        us = np.concatenate([np.array(run_u, dtype=object), us])
        ss = np.concatenate([np.array(run_s, dtype=object), ss])
    flagged = []
    if ss.size:
        outside = np.flatnonzero(_recheck_cells(us, ss, square, boundary)[0] == "outside")
        flagged = list(zip(us[outside].tolist(), ss[outside].tolist()))
    return RecheckReport(n_checked=n_checked, n_densely_sampled=ranks.size,
                         n_flagged=len(flagged), flagged=tuple(flagged[:64]),
                         min_margin=min_margin)
