"""Geometric construction over the half plane H = {Re z > ln R0}.

Given an anchor value R deep inside H, the construction takes the square
Q = [R/2, 3R/2] x [-R/2, R/2] centered at R, and nothing else, and
studies the two-level inverse images

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

import heapq
import itertools
import math
import sys
from typing import NamedTuple

from .errors import ConfigError, ConstructionError, GeometryError, NumericError
from .loglift import _MAX_EXACT_INT, MapFamily, TailEnvelope, _log_add
from .numerics import TWO_PI

# Floats a closed-form window endpoint may move inward to pass the enclosure test.
_ENDPOINT_ULPS = 8


# ---------------------------------------------------------------------------
# Rectangles, budgets and the square Q
# ---------------------------------------------------------------------------

class _RectFields(NamedTuple):
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float


class Rect(_RectFields):
    __slots__ = ()

    def __new__(cls, re_lo: float, re_hi: float, im_lo: float, im_hi: float):
        if not (re_lo < re_hi and im_lo < im_hi):
            raise GeometryError(f"degenerate rectangle {(re_lo, re_hi, im_lo, im_hi)}")
        return super().__new__(cls, re_lo, re_hi, im_lo, im_hi)

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
        import numpy as np
        z = np.asarray(z, dtype=complex)
        return ((np.real(z) >= self.re_lo) & (np.real(z) <= self.re_hi)
                & (np.imag(z) >= self.im_lo) & (np.imag(z) <= self.im_hi))

    def boundary_points(self, n: int) -> np.ndarray:
        """n equally spaced boundary samples, anchored at the lower-left corner.

        The arc lengths ts rise with the index, so each edge (bottom, right,
        top, left) takes the contiguous slice of the samples with ts below
        its end and not below the previous edge's, filled edge by edge."""
        import numpy as np
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


class _GeometryBudgetFields(NamedTuple):
    epsilon: float
    inset: float


class GeometryBudget(_GeometryBudgetFields):
    """Tunable constants of the lemma checks.

    epsilon controls the anchor-derivative condition, and inset is the
    width D by which Q' retreats from Q; `lemmas` reads both, and
    `build_squares` checks the inset.  G asks only that each cell's
    enclosure lie in the closed square Q, the containment hypothesis of a
    conformal IFS, and neither G nor the certificate reads the budget.
    """

    __slots__ = ()

    def __new__(cls, epsilon: float = 0.1, inset: float = 0.5):
        if not 0.0 < epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0,1), got {epsilon}")
        if inset <= 0.0:
            raise ConfigError(f"inset must be positive, got {inset}")
        return super().__new__(cls, epsilon, inset)


def build_squares(anchor: float, inset: float) -> Rect:
    """Q = [R/2, 3R/2] x [-R/2, R/2], R = anchor.  The inset must be
    positive and at most anchor/4, so that the lemma squares Q' and Q''
    exist (`lemmas`); at anchor/4 Q' collapses onto Q''."""
    if not inset > 0.0:
        raise GeometryError(f"inset must be positive, got {inset}")
    if anchor / 4.0 < inset:
        raise GeometryError(
            f"anchor/4 = {anchor / 4.0:.6g} must not be below the inset {inset:.6g}")
    a = float(anchor)
    return Rect(a / 2.0, 3.0 * a / 2.0, -a / 2.0, a / 2.0)


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

    Each block's endpoints are checked against the enclosure predicate
    `_enclosed` at its two extreme columns, one sigma and one column per
    call, and an endpoint failing at either moves inward by one float, at
    most `_ENDPOINT_ULPS` times and never outward: the test a bisection
    would use.  An enclosure's imaginary part is mid -/+ at most pi/2, mid
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
    # ln(e^x + b) by the formula of numpy's logaddexp, bit for bit
    shared_lo = max(env.sigma_valid_min, _log_add(x, ln_b))

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

    def certified(sigma, inward, columns):  # None if no float within the ulps passes
        for _ in range(_ENDPOINT_ULPS + 1):
            if all(_enclosed(env, target, u, sign, sigma) for u in columns):
                return sigma
            sigma = math.nextafter(sigma, inward)
        return None

    windows = []
    for u_lo, u_hi, closed in blocks:
        lo = certified(closed, math.inf, {u_lo, u_hi})
        hi = certified(sigma_hi, -math.inf, {u_lo, u_hi})
        if lo is None or hi is None or not hi > lo:
            raise NumericError(
                f"closed-form sigma window [{closed!r}, {sigma_hi!r}] for u={u_lo}..{u_hi}, "
                f"sign={sign} fails the enclosure test within {_ENDPOINT_ULPS} ulps inward")
        windows.append((u_lo, u_hi, lo, hi))
    return sorted(windows)


def _enclosed(env: TailEnvelope, rect: Rect, u: int, sign: int, sigma: float) -> bool:
    """Whether the cell enclosure at (u, sign, sigma) lies in the closed
    rect; False at or below envelope validity, tested first, where the
    enclosure has no value."""
    if not sigma > env.sigma_valid_min:
        return False
    re_lo, re_hi, im_lo, im_hi = env.cell_enclosure(u, sign, sigma)
    return re_lo >= rect.re_lo and re_hi <= rect.re_hi and im_lo >= rect.im_lo \
        and im_hi <= rect.im_hi


# ---------------------------------------------------------------------------
# The admissible set G
# ---------------------------------------------------------------------------

class RunBlock(NamedTuple):
    """The letters (u, s) with u_lo <= u <= u_hi and s_lo <= s <= s_hi:
    one signed index run (ints of any size) shared by adjacent columns.
    Runs sort as the tuples (u_lo, u_hi, s_lo, s_hi)."""

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


class GSet(NamedTuple):
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

    def min_abs_index(self) -> int:
        return min(min(abs(r.s_lo), abs(r.s_hi)) for r in self.runs)

    def max_abs_index(self) -> int:
        return max(max(abs(r.s_lo), abs(r.s_hi)) for r in self.runs)

    def letters(self, ranks):
        """The letters (u, s) at an array of ranks in [0, n_letters): int64
        arrays below 2^63, else object arrays of Python ints, by the same
        arithmetic.

        A rank's run is the number of run ends (cumulative letter counts)
        at or below it, summed over one comparison per run end but the
        last.  `build_G` gives at most three column blocks per sign, so at
        most 6 runs and 5 comparisons.  Within the run the offset splits
        into (column, s) by one `np.divmod` on the int64 path, in place;
        numpy has no object divmod, so object ranks take `//` and `%`."""
        import numpy as np
        dtype = np.int64 if max(self.n_letters, self.max_abs_index()) < 2 ** 63 else object
        ranks = np.asarray(ranks, dtype=dtype)
        cum = list(itertools.accumulate(r.n_columns * r.length for r in self.runs))
        k = np.zeros(ranks.shape, dtype=np.intp)
        for end in cum[:-1]:
            k += ranks >= end
        u = np.array([0] + cum[:-1], dtype=dtype)[k]  # the run's first rank
        np.subtract(ranks, u, out=u)  # the offset in the run
        s = np.array([r.length for r in self.runs], dtype=dtype)[k]
        if dtype is object:
            u, s = u // s, u % s
        else:
            np.divmod(u, s, out=(u, s))
        u += np.array([r.u_lo for r in self.runs], dtype=dtype)[k]
        s += np.array([r.s_lo for r in self.runs], dtype=dtype)[k]
        return u, s

    def random_ranks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` ranks drawn uniformly from [0, n_letters): int64 draws
        below 2^63, else Python ints, each a random integer 64 bits longer
        than n_letters reduced mod n_letters (uniform within 2^-64)."""
        import numpy as np
        n = self.n_letters
        if n <= 2 ** 63:
            return rng.integers(0, n, size=size, dtype=np.int64)
        width = (n.bit_length() + 64 + 7) // 8
        buf = rng.bytes(width * size)
        return np.array([int.from_bytes(buf[i:i + width], "little") % n
                         for i in range(0, width * size, width)], dtype=object)

    def letters_by_weight(self, k: int):
        """The k letters of largest derivative (smallest |s|), ties broken
        by (u, s).  Each run yields its letters in that order, from its
        small-|s| end, s by s and column by column, and one merge of the
        runs stops after k letters."""
        def ordered(r):
            ss = range(r.s_lo, r.s_hi + 1) if r.s_lo > 0 else range(r.s_hi, r.s_lo - 1, -1)
            for s in ss:
                size = abs(s)
                for u in range(r.u_lo, r.u_hi + 1):
                    yield size, u, s

        merged = heapq.merge(*map(ordered, self.runs))
        return [(u, s) for _, u, s in itertools.islice(merged, k)]


def build_G(family: MapFamily, anchor: float, square: Rect, budget: GeometryBudget,
            mode: str = "enumerate", dist=None, workers: int = 1, collar: int = 32) -> GSet:
    """Assemble the admissible set G: the letters of the sigma windows.

    The columns (u, sign) of one sign get their closed-form sigma windows
    from one solve (`_sigma_windows`), in at most three blocks of adjacent
    columns sharing a window; the envelope of Q is computed once per call.
    The cell enclosure is monotone in sigma, so each letter whose sigma =
    ln 2*pi + ln|s| lies in a certified window has its cell inside Q,
    without a per-index test.  The blocks are walked once, in order: each
    window becomes one integer run (`_sigma_run`, not called again for the
    previous block's window), and a block whose signed run equals the
    previous block's, in the adjacent columns, extends that `RunBlock`.
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
    env = family.envelope(square)
    if math.log(env.d_lo) <= family.ln_r0:
        # first-level images leave the half plane at this anchor/family
        return GSet(runs=())
    runs = []
    window = None
    for sign in (1, -1):
        for u_lo, u_hi, sigma_lo, sigma_hi in _sigma_windows(env, square, sign):
            if (sigma_lo, sigma_hi) != window:
                window = (sigma_lo, sigma_hi)
                s1, s2 = _sigma_run(sigma_lo, sigma_hi)
            if s1 > s2:
                continue
            s_lo, s_hi = sorted((sign * s1, sign * s2))
            last = runs[-1] if runs else None
            if last and (last.s_lo, last.s_hi, last.u_hi + 1) == (s_lo, s_hi, u_lo):
                runs[-1] = RunBlock(last.u_lo, u_hi, s_lo, s_hi)
            else:
                runs.append(RunBlock(u_lo, u_hi, s_lo, s_hi))
    return GSet(runs=tuple(sorted(runs)))


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
# Bounded distortion
# ---------------------------------------------------------------------------

def log_distortion_bound(family: MapFamily, gset: GSet, square: Rect) -> float:
    """ln K: |ln|phi_w'(x)| - ln|phi_w'(y)|| <= ln K for all x, y in Q and
    every word w = w_1...w_n of G, phi_w = g_{w_1} o ... o g_{w_n}: the
    bounded distortion that Bowen's formula for a conformal IFS needs
    (Mauldin and Urbanski 1996; each branch is conformal on H, which
    contains Q, and a square satisfies the cone condition).

    With c = Log(lam), g_{u,s}'(z) = 1 / (xi_s(z) (z - c)), xi_s(z) =
    Log(z - c) - c + 2*pi*i*s.  On Q, |z - c| >= d_lo and |xi_s| >= 2*pi*|s|
    - b > 0 (`TailEnvelope`), so log g' is holomorphic there, (log g')' =
    -(1 + 1/xi_s) / (z - c), and with s_min the least |s| of G

        |(log g')'| <= L = (1 + 1/(2*pi*s_min - b)) / d_lo,
        |g'| <= kappa = 1 / ((2*pi*s_min - b) d_lo).

    Q is convex and every cell lies in Q, so the orbits x_n = x, x_{k-1} =
    g_{w_k}(x_k) and likewise y_k stay in Q with |x_k - y_k| <= kappa^(n-k)
    diam Q; summing L |x_k - y_k| over k gives ln K = L diam Q / (1 -
    kappa).  G's windows start at ln(e^(R/2) + b), so 2*pi*s_min - b >
    1, and a non-empty G has d_lo > R0 > 1: kappa < 1 (else
    ConstructionError).  1/(2*pi*s_min - b) is x / (1 - b x), x = e^-sigma
    with sigma = ln 2*pi + ln s_min, so s_min is an int of any size; past
    the float range x = 0 and ln K = diam Q / d_lo.  An empty G leaves
    only the empty word, whose ratio is 1: ln K = 0.
    """
    if gset.is_empty():
        return 0.0
    env = family.envelope(square)
    x = math.exp(-(math.log(TWO_PI) + math.log(gset.min_abs_index())))
    room = 1.0 - env.b * x
    if not x < room * env.d_lo:
        raise ConstructionError("branch derivatives on Q reach 1: no distortion bound")
    inv = x / room  # 1 / (2*pi*s_min - b)
    return (1.0 + inv) / env.d_lo * square.diam / (1.0 - inv / env.d_lo)


def distortion_constant(anchor: float, ln_r0: float) -> None:
    """None, for `perfbench/workloads.py`, which passes it to parameters that
    ignore it (`build_G(dist=)`, `build_weighted_system(dist)`); ROADMAP
    item 1 deletes it."""
    return None


# ---------------------------------------------------------------------------
# Pairwise separation of cells
# ---------------------------------------------------------------------------

class GapReport(NamedTuple):
    min_gap: float              # consecutive cells of one run (inf: no run of two)
    column_separation: float    # gap between adjacent runs' imaginary extents
    log_min_gap: float          # ln min_gap, finite where min_gap underflows


def min_cell_gap(family: MapFamily, gset: GSet, square: Rect) -> GapReport:
    """Closed-form lower bounds on the separation of the cells of G.

    With c = Log(lam), the first-level image of Q minus c is the set of
    w = p + i*(q + 2*pi*s): p = ln|z - c| - Re c lies in [ln d_lo - Re c,
    ln d_hi - Re c] and is > 0 whenever G is non-empty; q = arg(z - c) -
    Im c lies in [arg_lo, arg_hi] - Im c, arg's range over Q, from the
    envelope (`MapFamily.envelope`).  Consecutive images are 2*pi
    translates of a set of height < pi, hence at least room = 2*pi -
    (arg_hi - arg_lo) apart.
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
    env = family.envelope(square)
    c = env.c
    p_lo, p_hi = env.p_lo, math.log(env.d_hi) - c.real
    if p_lo <= 0.0:
        raise ConstructionError("first-level images of Q reach Re <= Re Log(lam)")
    q_lo, q_hi = env.arg_lo - c.imag, env.arg_hi - c.imag
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
                     log_min_gap=log_min_gap)
