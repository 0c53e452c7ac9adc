"""Thermodynamic formalism: pressure bounds, Bowen root, dimension certificate.

The pressure of the cell system at exponent t is estimated through
level-1 derivative sums with two-sided weight envelopes: for every
admissible letter the quantities inf_Q |g'| and sup_Q |g'| are bracketed
in closed form by the family's tail envelopes, giving

    P_lo(t) = ln sum(inf-weights^t)  <=  P(t)  <=  ln sum(sup-weights^t).

Bounded distortion makes the level-1 infimum a valid lower bound for the
limit pressure, which is the paper-level reduction this module encodes.
The dimension of the constructed subsystem lies between the Bowen roots
of the two bounds; dimension > 1 is certified by P_lo(1) > 0.

Each envelope's sum over G is a run sum per distinct |s| range.  What
does not depend on t (the logs of the run ends, of their h-shifts and of
the run ratios) is built once per system, `WeightedSystem.envelope_sums`;
a sum at one exponent then evaluates that data, and a Bowen root
evaluates only the envelope whose root it seeks, at few exponents.  Sums
are evaluated in log domain in a fixed order, so certificates are
reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ConstructionError
from .loglift import MapFamily, TailEnvelope, log_run_sum_bounds, normalize_family
from .numerics import TWO_PI, weighted_log_sum_exp
from .tractgeom import (DistortionBound, GeometryBudget, GSet, SquareSpec,
                        _distortion_or_unavailable, anchor_derivative_margin, anchor_line,
                        build_G, build_squares)

# The largest exponent: sums are taken at t in [0, _T_MAX], and the Bowen
# root is capped there (dim <= 2 < _T_MAX for any planar set).
_T_MAX = 4.0

# ---------------------------------------------------------------------------
# Weighted systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedSystem:
    """Letters with two-sided log-weight bounds.

    Synthetic systems and letter subsystems list their weights (log_lo /
    log_hi arrays).  Systems built from an admissible set hold the envelope
    `env` of Q and G as `runs`: each distinct |s| range (lo, hi), ints of
    any size, with its multiplicity k, since the envelopes depend on |s|
    alone.  The envelopes' run-sum data over those ranges is built on first
    use and kept (`envelope_sums`).
    """

    log_lo: Optional[np.ndarray] = None
    log_hi: Optional[np.ndarray] = None
    runs: tuple = ()     # of ((s_lo, s_hi), k), 0 < s_lo <= s_hi
    env: Optional[TailEnvelope] = None

    @classmethod
    def from_uniform(cls, weights: Sequence[float]):
        """Synthetic system of similarity letters with exact weights."""
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0) or np.any(w >= 1):
            raise ConfigError("synthetic weights must lie in (0, 1)")
        logs = np.log(w)
        return cls(log_lo=logs.copy(), log_hi=logs.copy())

    @cached_property
    def n_letters(self) -> int:
        n = 0 if self.log_lo is None else int(self.log_lo.size)
        return n + sum(k * (hi - lo + 1) for (lo, hi), k in self.runs)

    def is_empty(self) -> bool:
        return self.n_letters == 0

    @cached_property
    def envelope_sums(self) -> tuple:
        """Per envelope (lower, upper): ln(2 pi d) and the t-independent
        run-sum data of every range in `runs`, in order
        (`TailEnvelope.run_sums`)."""
        return self.env.run_sums([lo_hi for lo_hi, _ in self.runs])


def build_weighted_system(family: MapFamily, gset: GSet, spec: SquareSpec,
                          dist: Optional[DistortionBound] = None) -> WeightedSystem:
    """Weight envelopes for an admissible set.

    The per-letter bounds are the closed-form envelopes of |g'| over Q,
    which depend on sigma = ln(2*pi*|s|) alone.  So G's runs reduce to
    distinct |s| ranges, each with the number of columns holding it (at
    the default anchor-4000 certificate, one range for 1,274 columns).
    `dist` has no effect, since no distortion constant enters the bounds;
    it stays because `perfbench/workloads.py` passes it.
    """
    runs = Counter()
    for run in gset.runs:
        runs[tuple(sorted((abs(run.s_lo), abs(run.s_hi))))] += run.n_columns
    return WeightedSystem(runs=tuple(runs.items()), env=family.envelope(spec.outer.bounds()))


# ---------------------------------------------------------------------------
# Level-1 sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level1Sum:
    """Two-sided level-1 sum at one exponent, kept in log domain."""

    t: float
    log_lo: float
    log_hi: float
    n_letters: int


def level1_sum(system: WeightedSystem, t: float) -> Level1Sum:
    """Two-sided level-1 sum sum_{letters} weight^t over the inf/sup
    envelopes of |g'| on Q; listed weights are used as given.

    Each distinct run range is summed in closed form by Euler-Maclaurin,
    from the run-sum data the system keeps (`WeightedSystem.envelope_sums`).
    The parts are combined with their multiplicities k by
    `weighted_log_sum_exp`: the sum of k * e^(x - m) is exact and rounded
    once, so the bounds are bit-identical to adding every run as a term of
    its own.
    """
    _check_exponent(t)
    return Level1Sum(t=t, log_lo=_envelope_log_sum(system, t, 0),
                     log_hi=_envelope_log_sum(system, t, 1),
                     n_letters=system.n_letters)


def _check_exponent(t: float) -> None:
    if not 0.0 <= t <= _T_MAX:
        raise ConfigError(f"exponent t = {t} outside [0, {_T_MAX:g}]")


def _envelope_log_sum(system: WeightedSystem, t: float, side: int) -> float:
    """One side of the level-1 sum at t: ln of the lower bound on the
    lower-envelope sum (side 0) or of the upper bound on the upper-envelope
    sum (side 1), over the system's run-sum data."""
    parts = []
    if system.log_lo is not None and system.log_lo.size:
        parts.append((_materialized_log_sum((system.log_lo, system.log_hi)[side], t), 1))
    if system.runs:
        log_scale, data = system.envelope_sums[side]
        log_c = -t * log_scale
        parts.extend((run.log_bound(t, log_c, side), k)
                     for run, (_, k) in zip(data, system.runs))
    return weighted_log_sum_exp(parts)


def _materialized_log_sum(logs: np.ndarray, t: float) -> float:
    scaled = t * logs
    m = float(np.max(scaled))
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum([float(np.sum(np.exp(scaled - m)))]))


# ---------------------------------------------------------------------------
# Bowen root
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BowenInterval:
    """Conservative enclosure of the dimension of the constructed subsystem.

    `evaluations` counts the one-sided pressure evaluations the root made
    per bound (lower, upper)."""

    t_lo: float
    t_hi: float
    lo_capped: bool = False
    hi_capped: bool = False
    evaluations: tuple = (0, 0)


def bowen_root(system: WeightedSystem, tol: float = 1e-3) -> BowenInterval:
    """Roots of the decreasing pressure bounds on [0, 4] (`_T_MAX`), with
    the bisection's final bracket.

    The reported t_lo is the left end of the final bracket of the lower
    bound's root and t_hi the right end of the upper bound's, so the true
    Bowen interval is contained in [t_lo, t_hi].  Without a sign change
    up to the cap the corresponding end is capped and flagged.  Each root
    evaluates only its own envelope (the lower bound's side of the level-1
    sum for t_lo, the upper's for t_hi), over the run-sum data the system
    keeps.

    The search keeps two points: the largest evaluated t with f(t) > 0 and
    the smallest with f(t) <= 0.  It evaluates f(1) first, then runs the
    bisection on [0, 4] (f(0) <= 0 gives 0, f(4) > 0 the cap), which
    stops once the bracket is within `tol`, a finite positive number, or
    once its midpoint is no longer strictly inside it.  A point whose sign
    the two points imply is not evaluated.  Otherwise the search
    alternates between evaluating the midpoint and evaluating a secant
    probe between the two points, placed on the bisection's final grid
    (the current bracket halved until it is within `tol`, or down to
    adjacent floats): the end nearer the secant's zero of the final
    bracket around it whose sign is not implied, else the midpoint.

    Every probe is a point of that grid, the multiples of the final width
    4 / 2^k, and so is the start 1 whenever tol < 1 (then 4 / 2^k < 1).
    So wherever the computed bound changes sign once over the grid and
    the start, each implied sign is the one the bisection computes, and
    the result equals the bisection's bit for bit.  A bisection step
    costs at most a probe and a midpoint, so the search makes at most
    about twice the bisection's evaluations; at the default certificate
    it makes 13 (8 + 5) where the bisection makes 2 x 18.  The result is
    sound whatever the signs: t_lo is at most an evaluated t with
    P_lo(t) > 0, and t_hi at least an evaluated t with P_hi(t) <= 0 (or
    0, or the flagged cap), so with P_lo <= P <= P_hi and P decreasing
    the root of P lies in [t_lo, t_hi].
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"bisection tolerance must be positive and finite, got {tol!r}")
    if system.is_empty():
        raise ConstructionError("Bowen root of an empty system")

    def root(side: int):
        pos, neg = -math.inf, math.inf   # largest t with f > 0, smallest with f <= 0
        f_pos = f_neg = 0.0
        count = 0

        def positive(t):
            """The sign of f(t) > 0, implied or else evaluated."""
            nonlocal pos, neg, f_pos, f_neg, count
            if t <= pos or t >= neg:
                return t <= pos
            value = _envelope_log_sum(system, t, side)
            count += 1
            if value > 0.0:
                pos, f_pos = t, value
            else:
                neg, f_neg = t, value
            return value > 0.0

        def probe(lo, hi):
            """The final-grid point nearest the secant's zero in [lo, hi]
            whose sign is not implied, else the midpoint."""
            x = pos + f_pos * (neg - pos) / (f_pos - f_neg)
            mid = 0.5 * (lo + hi)
            while hi - lo > tol:
                half = 0.5 * (lo + hi)
                if not lo < half < hi:
                    break
                if x < half:
                    hi = half
                else:
                    lo = half
            for p in ((lo, hi) if x - lo <= hi - x else (hi, lo)):
                if pos < p < neg:
                    return p
            return mid

        positive(1.0)
        if not positive(0.0):
            # single-letter systems: pressure vanishes exactly at t = 0
            return 0.0, False, count
        if positive(_T_MAX):
            return _T_MAX, True, count
        lo, hi = 0.0, _T_MAX
        secant = True   # the next evaluation: a secant probe, else the midpoint
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if pos < mid < neg:
                positive(probe(lo, hi) if secant else mid)
                secant = not secant
            elif mid <= pos:
                lo = mid
            else:
                hi = mid
        return (lo if side == 0 else hi), False, count

    t_lo, lo_capped, n_lo = root(0)
    t_hi, hi_capped, n_hi = root(1)
    return BowenInterval(t_lo=t_lo, t_hi=t_hi, lo_capped=lo_capped,
                         hi_capped=hi_capped, evaluations=(n_lo, n_hi))


# ---------------------------------------------------------------------------
# The dimension certificate
# ---------------------------------------------------------------------------

@dataclass
class DimensionCertificate:
    """The results of one dimension-greater-than-one run, and nothing it
    was given: the verdict (`certify_dim_gt_one`), P_lo(1), the Bowen
    bracket [t_lo, t_hi], the Koebe constant `c` and the growth bound's c0.
    """

    c: float
    p1_lo: float
    t_lo: float
    t_hi: float
    verdict: str
    runtime_ms: float
    constants: dict
    diagnostics: dict
    reasons: tuple = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "C": self.c,
            "P1_lo": self.p1_lo,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "verdict": self.verdict,
            # timing is volatile; kept out of byte-compared reports by default
            "runtime_ms": self.runtime_ms if include_timing else None,
            "constants": dict(self.constants),
            "diagnostics": dict(self.diagnostics),
            "reasons": list(self.reasons),
        }


def certify_dim_gt_one(family: MapFamily, anchor: float, budget: GeometryBudget, *,
                       bisect_tol: float = 1e-4) -> DimensionCertificate:
    """Run the full construction and certify dim > 1 via the pressure bound.

    The verdict is "certified" exactly when P_lo(1) > 0.  That suffices:
    P_lo <= P and P decreases, so P_lo(1) > 0 puts the Bowen root above 1.
    `bowen_root` evaluates t = 1 first, and for `bisect_tol` < 1 (the CLI
    takes no other) 1 is a point of its bisection grid on [0, 4], so
    t_lo >= 1 on every certified result (tol 2 gives t_lo = 0).  Where
    the root lies within `bisect_tol` of 1, t_lo reads 1.0; the verdict
    does not depend on the tolerance.

    The anchor-derivative and tract-depth conditions, when they fail, and
    an empty admissible set G are listed in `reasons`.  For an empty G the
    result has P1_lo = -inf, t_lo = t_hi = 0 and only the diagnostics
    n_segments, eq1_margin and depth_margin.
    """
    start = time.perf_counter()
    family = normalize_family(family)
    reasons = []
    spec = build_squares(anchor, budget.inset)
    dist = _distortion_or_unavailable(anchor, family.ln_r0)
    line = anchor_line(family, anchor, budget.inset)
    eq1_margin = anchor_derivative_margin(family, anchor, budget.epsilon)
    if eq1_margin <= 0:
        reasons.append(f"anchor-derivative condition fails (margin {eq1_margin:.3g})")
    if line.depth_margin <= 0:
        reasons.append(f"tract-depth condition fails (margin {line.depth_margin:.3g})")
    gset = build_G(family, anchor, spec, budget)
    diagnostics = {"n_segments": gset.n_segments, "eq1_margin": eq1_margin,
                   "depth_margin": line.depth_margin}
    p1_lo, t_lo, t_hi = -math.inf, 0.0, 0.0
    if gset.is_empty():
        reasons.append("admissible set G is empty at this configuration")
    else:
        system = build_weighted_system(family, gset, spec)
        p1_lo = level1_sum(system, 1.0).log_lo
        roots = bowen_root(system, tol=bisect_tol)
        t_lo, t_hi = roots.t_lo, roots.t_hi
        diagnostics.update(cor_margin=line.cor_margin,
                           bowen_capped=roots.lo_capped or roots.hi_capped,
                           bowen_evaluations=roots.evaluations)
        if p1_lo <= 0:
            reasons.append(f"P_lo(1) = {p1_lo:.6g} <= 0")
    return DimensionCertificate(
        c=dist.c, p1_lo=p1_lo, t_lo=t_lo, t_hi=t_hi,
        verdict="certified" if p1_lo > 0 else "not-certified",
        runtime_ms=1000.0 * (time.perf_counter() - start),
        constants={"c0": line.c0}, diagnostics=diagnostics, reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# Cross-mode agreement (enumeration vs the run sum on one window)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowComparison:
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


def compare_window_modes(family: MapFamily, spec: SquareSpec, sigma_lo: float,
                         sigma_hi: float, t: float = 1.0) -> WindowComparison:
    """Sum one sigma window by explicit enumeration and by the run sum.

    Both target the same per-letter envelopes, so the enumerated value
    must fall inside the bracket of `log_run_sum_bounds`.
    """
    env = family.envelope(spec.outer.bounds())
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
