"""Thermodynamic formalism: pressure bounds, Bowen root, dimension certificate.

The pressure of the cell system at exponent t is estimated through
level-1 derivative sums with two-sided weight envelopes: for every
admissible letter the quantities inf_Q |g'| and sup_Q |g'| are bracketed
in closed form by the family's tail envelopes, giving

    P_lo(t) = ln sum(inf-weights^t)  <=  P(t)  <=  ln sum(sup-weights^t).

Bounded distortion, with one constant K for every word
(`tractgeom.log_distortion_bound`), makes the level-1 infimum a valid
lower bound for the limit pressure, which is the paper-level reduction
this module encodes.
The dimension of the constructed subsystem lies between the Bowen roots
of the two bounds; dimension > 1 is certified by P_lo(1) > 0.

Each envelope's sum over G is a run sum per distinct |s| range.  What
does not depend on t (the logs of the run ends, of their h-shifts and of
the run ratios) is built once per system, `WeightedSystem.envelope_sums`;
a sum at one exponent then evaluates that data, and a Bowen root
evaluates only the envelope whose root it seeks, at few exponents.  A sum
is one `log_sum_exp`, in a fixed order, of a term t * x per listed
log-weight x and a term ln(run sum) + ln k per range of multiplicity k,
so certificates are reproducible bit for bit (the ln k term is within a
few ulp of adding the run's sum k times, `level1_sum`).  Sums and roots
use `math` alone.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import NamedTuple, Sequence

from .errors import ConfigError, ConstructionError
from .loglift import MapFamily, normalize_family
from .numerics import log_sum_exp
from .tractgeom import GSet, Rect, build_G, log_distortion_bound

# The largest exponent: sums are taken at t in [0, _T_MAX], and the Bowen
# root is capped there (dim <= 2 < _T_MAX for any planar set).
_T_MAX = 4.0

# ---------------------------------------------------------------------------
# Weighted systems
# ---------------------------------------------------------------------------

class WeightedSystem(NamedTuple):
    """Letters with two-sided log-weight bounds.

    Synthetic systems and letter subsystems list their log-weights
    (log_lo / log_hi, sequences of floats).  Systems built from an
    admissible set hold `runs`: each distinct |s| range (lo, hi), ints of
    any size, with its multiplicity k, since the envelopes depend on |s|
    alone; and `envelope_sums`, per envelope (lower, upper), ln(2 pi d)
    and the t-independent run-sum data of every range in `runs`, in order
    (`TailEnvelope.run_sums`).
    """

    log_lo: Sequence[float] = ()
    log_hi: Sequence[float] = ()
    runs: tuple = ()  # of ((s_lo, s_hi), k), 0 < s_lo <= s_hi
    envelope_sums: tuple = ()

    @classmethod
    def from_uniform(cls, weights: Sequence[float]):
        """Synthetic system of similarity letters with exact weights."""
        if not all(0.0 < w < 1.0 for w in weights):
            raise ConfigError("synthetic weights must lie in (0, 1)")
        logs = tuple(map(math.log, weights))
        return cls(log_lo=logs, log_hi=logs)

    @property
    def n_letters(self) -> int:
        return len(self.log_lo) + sum(k * (hi - lo + 1) for (lo, hi), k in self.runs)

    def is_empty(self) -> bool:
        return self.n_letters == 0


def build_weighted_system(family: MapFamily, gset: GSet, square: Rect,
                          dist=None) -> WeightedSystem:
    """Weight envelopes for an admissible set.

    The per-letter bounds are the closed-form envelopes of |g'| over Q,
    which depend on sigma = ln(2*pi*|s|) alone.  So G's runs reduce to
    distinct |s| ranges, each with the number of columns holding it (at
    the default anchor-4000 certificate, one range for 1,274 columns),
    whose run-sum data is built here, once per system; a range at or
    below h = b / (2 pi) raises DomainError (`TailEnvelope.run_sums`).
    `dist` has no effect, since no distortion constant enters the bounds;
    it stays because `perfbench/workloads.py` passes it.
    """
    runs = Counter()
    for run in gset.runs:
        runs[tuple(sorted((abs(run.s_lo), abs(run.s_hi))))] += run.n_columns
    env = family.envelope(square)
    return WeightedSystem(runs=tuple(runs.items()), envelope_sums=env.run_sums(list(runs)))


# ---------------------------------------------------------------------------
# Level-1 sums
# ---------------------------------------------------------------------------

class Level1Sum(NamedTuple):
    """Two-sided level-1 sum at one exponent, kept in log domain."""

    log_lo: float
    log_hi: float


def level1_sum(system: WeightedSystem, t: float) -> Level1Sum:
    """Two-sided level-1 sum sum_{letters} weight^t over the inf/sup
    envelopes of |g'| on Q; listed weights are used as given.

    Each distinct run range is summed in closed form by Euler-Maclaurin,
    from the run-sum data the system keeps (`WeightedSystem.envelope_sums`),
    and enters with its multiplicity k as the one term ln(run sum) + ln k.
    Each listed log-weight x enters as the term t * x.  One `log_sum_exp`
    adds every term.  Against adding a run's sum k times, the ln k term
    leaves the bounds of a system with one range unchanged, bit for bit,
    and moves those of a system with several ranges by a few ulp of the
    largest term (at most 2 where checked), far inside each run sum's
    widening of 64 ulp of at least 1 (`loglift._RUN_SUM_ULPS`).
    """
    _check_exponent(t)
    return Level1Sum(log_lo=_envelope_log_sum(system, t, 0),
                     log_hi=_envelope_log_sum(system, t, 1))


def _check_exponent(t: float) -> None:
    if not 0.0 <= t <= _T_MAX:
        raise ConfigError(f"exponent t = {t} outside [0, {_T_MAX:g}]")


def _envelope_log_sum(system: WeightedSystem, t: float, side: int) -> float:
    """One side of the level-1 sum at t: ln of the lower bound on the
    lower-envelope sum (side 0) or of the upper bound on the upper-envelope
    sum (side 1), over the listed log-weights and the run-sum data."""
    terms = [t * x for x in (system.log_lo, system.log_hi)[side]]
    if system.runs:
        log_scale, data = system.envelope_sums[side]
        log_c = -t * log_scale
        terms.extend(run.log_bound(t, log_c, side) + math.log(k)
                     for run, (_, k) in zip(data, system.runs))
    return log_sum_exp(terms)


# ---------------------------------------------------------------------------
# Bowen root
# ---------------------------------------------------------------------------

class BowenInterval(NamedTuple):
    """Conservative enclosure of the dimension of the constructed subsystem.

    `evaluations` counts the one-sided pressure evaluations the root made
    per bound (lower, upper); `p1_lo` is P_lo(1), the lower root's first."""

    t_lo: float
    t_hi: float
    lo_capped: bool = False
    hi_capped: bool = False
    evaluations: tuple = (0, 0)
    p1_lo: float = math.nan


def bowen_root(system: WeightedSystem, tol=None) -> BowenInterval:
    """Roots of the decreasing pressure bounds on [0, 4] (`_T_MAX`), each
    bracketed to within 4 ulp.

    t_lo is an evaluated t with P_lo(t) > 0 and t_hi one with P_hi(t) <= 0,
    each within 4 ulp (of the larger) of an evaluated t of the opposite
    sign; or 0 for one letter where the bound is <= 0 at its start (P(0) =
    ln 1 = 0 is then the root), or the cap, flagged, where it is > 0 at 4.
    As P_lo <= P <= P_hi and P decreases, the root of P lies in [t_lo,
    t_hi] whatever the bounds do between the evaluated points: soundness
    needs no convexity.  Each root evaluates only its own envelope, over
    the run-sum data the system keeps.  `tol` has no effect; it stays
    because `perfbench/workloads.py` passes it.

    Convexity of pressure in t (Przytycki and Urbanski, Conformal Fractals,
    2010) only makes the search fast.  For the bound f, the lower root
    from t = 1 and the upper from t_lo (1 where t_lo = 0) step along the
    secant through the two latest points with f > 0, first through the
    exact, unevaluated P(0) = ln #letters; past its points the secant of a
    convex decreasing f lies below it, so its zero stays left of the root.
    A probe keeps k ulp inside the bracket [pos, neg] of the largest
    evaluated t with f > 0 and the smallest with f <= 0 (before one, a
    probe at or past the cap is the cap); k starts at 4 and doubles each
    time that moves the probe, so near the root the search steps by
    doubling ulps.  With no secant (f(start) <= 0, where (0, ln #letters)
    is the only point) or a bracket under 2k ulp wide the probe is the
    midpoint; no root evaluates t = 0.  Every evaluation shrinks the
    bracket, so the search ends, with no iteration cap: 15 evaluations
    (8 + 7) at the default certificate.
    """
    if system.is_empty():
        raise ConstructionError("Bowen root of an empty system")
    log_n = math.log(system.n_letters)

    def root(side: int, start: float):
        left = [(0.0, log_n)]    # the two latest (t, f(t)) with f > 0, latest last
        neg = math.inf           # the smallest evaluated t with f <= 0
        values = []              # f at every evaluated t, in order

        def positive(t):
            nonlocal left, neg
            value = _envelope_log_sum(system, t, side)
            values.append(value)
            if value > 0.0:
                left = [left[-1], (t, value)]
            else:
                neg = t
            return value > 0.0

        if not positive(start) and log_n == 0.0:
            return 0.0, False, values   # one letter: P(0) = ln 1 = 0 is the root
        k = 4
        while left[-1][0] < _T_MAX and neg - left[-1][0] > 4 * math.ulp(min(neg, _T_MAX)):
            pos, f_pos = left[-1]
            x = math.nan
            if len(left) == 2:   # the secant's zero; no step where f did not decrease
                t0, f0 = left[0]
                x = pos + f_pos * (pos - t0) / (f0 - f_pos) if f0 > f_pos else pos
            lo = pos + k * math.ulp(pos)
            hi = neg - k * math.ulp(neg) if neg < math.inf else _T_MAX
            if x < lo:
                x, k = lo, 2 * k
            elif x > hi:
                x, k = hi, 2 * k
            if not lo <= x <= hi:
                x = 0.5 * (pos + min(neg, _T_MAX))
            positive(x)
        pos = left[-1][0]
        return (pos if side == 0 or pos == _T_MAX else neg), pos == _T_MAX, values

    t_lo, lo_capped, lo_values = root(0, 1.0)
    t_hi, hi_capped, hi_values = root(1, t_lo or 1.0)
    return BowenInterval(t_lo=t_lo, t_hi=t_hi, lo_capped=lo_capped, hi_capped=hi_capped,
                         evaluations=(len(lo_values), len(hi_values)), p1_lo=lo_values[0])


# ---------------------------------------------------------------------------
# The dimension certificate
# ---------------------------------------------------------------------------

class DimensionCertificate(NamedTuple):
    """The results of one dimension-greater-than-one run, and nothing it
    was given: P_lo(1), the Bowen bracket [t_lo, t_hi], the distortion
    constant `c` = K of every word (`log_distortion_bound`) and the reasons
    against certifying (`certify_dim_gt_one`), which decide the verdict.
    """

    c: float
    p1_lo: float
    t_lo: float
    t_hi: float
    runtime_ms: float
    diagnostics: dict
    reasons: tuple = ()

    @property
    def certified(self) -> bool:
        return not self.reasons

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "not-certified"

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "C": self.c,
            "P1_lo": self.p1_lo,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "verdict": self.verdict,
            # timing is volatile; kept out of byte-compared reports by default
            "runtime_ms": self.runtime_ms if include_timing else None,
            "diagnostics": dict(self.diagnostics),
            "reasons": list(self.reasons),
        }


def certify_dim_gt_one(family: MapFamily, square: Rect) -> DimensionCertificate:
    """Run the full construction on the square Q (`build_squares`) and certify
    dim > 1 via the pressure bound.

    The certificate reads Q alone: the cells of G lie in Q, so they form a
    conformal IFS on Q, whose limit set has dimension above 1 where its
    pressure at t = 1 is positive (Bowen's formula; Mauldin and Urbanski
    1996; C reports its distortion constant K, `log_distortion_bound`).
    P_lo <= P and P decreases, so P_lo(1) > 0 puts the Bowen root above 1.
    The verdict is "certified" exactly when `reasons` is empty; the two
    reasons are an empty admissible set G and P_lo(1) <= 0.  The paper's
    anchor-derivative (eq1) and tract-depth conditions, which show that
    such cells exist, and the inset enter neither G nor the bounds, so
    they are `lemmas` checks, not read here.  `build_G` reads Q alone, so
    it gets no anchor and no budget.

    P1_lo is `bowen_root`'s first evaluation, so t_lo >= 1 on every
    certified result, and t_lo is within 4 ulp of an evaluated t with
    P_lo(t) <= 0.  So t_lo reads 1.0 only where P_lo changes sign within 4
    ulp of 1, and then 1.0 is the bracket's sound lower end.  For an empty
    G the result has C = 1, P1_lo = -inf, t_lo = t_hi = 0 and only the
    diagnostic n_segments.
    """
    start = time.perf_counter()
    family = normalize_family(family)
    gset = build_G(family, None, square, None)
    diagnostics = {"n_segments": gset.n_segments}
    p1_lo, t_lo, t_hi = -math.inf, 0.0, 0.0
    if gset.is_empty():
        reasons = ["admissible set G is empty at this configuration"]
    else:
        system = build_weighted_system(family, gset, square)
        roots = bowen_root(system)
        p1_lo, t_lo, t_hi = roots.p1_lo, roots.t_lo, roots.t_hi
        diagnostics.update(bowen_capped=roots.lo_capped or roots.hi_capped,
                           bowen_evaluations=roots.evaluations)
        reasons = [] if p1_lo > 0 else [f"P_lo(1) = {p1_lo:.6g} <= 0"]
    return DimensionCertificate(
        c=math.exp(log_distortion_bound(family, gset, square)), p1_lo=p1_lo,
        t_lo=t_lo, t_hi=t_hi, runtime_ms=1000.0 * (time.perf_counter() - start),
        diagnostics=diagnostics, reasons=tuple(reasons))
