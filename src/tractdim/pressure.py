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
evaluates only the envelope whose root it bisects.  Sums are evaluated in
log domain in a fixed order, so certificates are reproducible bit for
bit.
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
from .numerics import CHUNK, TWO_PI, weighted_log_sum_exp
from .tractgeom import (DistortionBound, GeometryBudget, GSet, SquareSpec,
                        _distortion_or_unavailable, anchor_line, build_G, build_squares,
                        find_radius)


# ---------------------------------------------------------------------------
# Weighted systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedSystem:
    """Letters with two-sided log-weight bounds.

    Synthetic systems and letter subsystems list their weights (log_lo /
    log_hi arrays).  Systems built from an admissible set hold G as `runs`:
    each distinct |s| range (lo, hi), ints of any size, with its
    multiplicity k, since the envelopes depend on |s| alone.  The
    envelopes' run-sum data over those ranges is built on first use and
    kept (`envelope_sums`).
    """

    log_lo: Optional[np.ndarray] = None
    log_hi: Optional[np.ndarray] = None
    runs: tuple = ()     # of ((s_lo, s_hi), k), 0 < s_lo <= s_hi
    family: Optional[MapFamily] = None
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
        (`ExpTailModel.envelope_run_sums` over `env`)."""
        return self.family.tail_model().envelope_run_sums(
            [lo_hi for lo_hi, _ in self.runs], self.env)

    def scaled(self, factor: float) -> "WeightedSystem":
        """All weights multiplied by a factor (synthetic systems only)."""
        if self.runs:
            raise ConfigError("scaling is defined for materialized systems only")
        shift = math.log(factor)
        return WeightedSystem(log_lo=self.log_lo + shift, log_hi=self.log_hi + shift)


def build_weighted_system(family: MapFamily, gset: GSet, spec: SquareSpec,
                          dist: Optional[DistortionBound] = None) -> WeightedSystem:
    """Weight envelopes for an admissible set.

    The per-letter bounds are the closed-form envelopes of |g'| over Q,
    which depend on sigma = ln(2*pi*|s|) alone.  So G's runs reduce to
    distinct |s| ranges, each with the number of columns holding it (at
    the default anchor-4000 certificate, one range for 1,274 columns).
    `dist` is accepted for compatibility and has no effect: no distortion
    constant enters the bounds.
    """
    if not family.has_tail_model:
        raise ConfigError("weighted systems need tail asymptotics in this version")
    env = family.tail_model().envelope(spec.outer.bounds())
    runs = Counter()
    for run in gset.runs:
        runs[tuple(sorted((abs(run.s_lo), abs(run.s_hi))))] += run.n_columns
    return WeightedSystem(runs=tuple(runs.items()), family=family, env=env)


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

    @property
    def lo(self) -> float:
        return math.exp(self.log_lo) if self.log_lo < 709 else math.inf

    @property
    def hi(self) -> float:
        return math.exp(self.log_hi) if self.log_hi < 709 else math.inf


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
    if not 0.0 <= t <= 4.0:
        raise ConfigError(f"exponent t = {t} outside [0, 4]")


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
        parts.extend((run.log_bounds(t, log_c)[side], k)
                     for run, (_, k) in zip(data, system.runs))
    return weighted_log_sum_exp(parts)


def _materialized_log_sum(logs: np.ndarray, t: float) -> float:
    scaled = t * logs
    m = float(np.max(scaled))
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum([float(np.sum(np.exp(scaled - m)))]))


def pressure_bounds(system: WeightedSystem, t: float):
    """[P_lo, P_hi] at one exponent; empty systems give (-inf, -inf)."""
    if system.is_empty():
        return (-math.inf, -math.inf)
    s = level1_sum(system, t)
    return (s.log_lo, s.log_hi)


@dataclass(frozen=True)
class PressureReport:
    t_grid: tuple
    p_lo: tuple
    p_hi: tuple
    mode: str
    strictly_decreasing_lo: bool
    strictly_decreasing_hi: bool
    two_sided_consistent: bool    # p_lo <= p_hi pointwise


def pressure_report(system: WeightedSystem, t_grid: Sequence[float]) -> PressureReport:
    grid = [float(t) for t in t_grid]
    lows, highs = [], []
    for t in grid:
        lo, hi = pressure_bounds(system, t)
        lows.append(lo)
        highs.append(hi)
    dec_lo = all(b < a for a, b in zip(lows, lows[1:]))
    dec_hi = all(b < a for a, b in zip(highs, highs[1:]))
    consistent = all(lo <= hi for lo, hi in zip(lows, highs))
    return PressureReport(t_grid=tuple(grid), p_lo=tuple(lows), p_hi=tuple(highs),
                          mode="bounds", strictly_decreasing_lo=dec_lo,
                          strictly_decreasing_hi=dec_hi, two_sided_consistent=consistent)


# ---------------------------------------------------------------------------
# Bowen root
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BowenInterval:
    """Conservative enclosure of the dimension of the constructed subsystem."""

    t_lo: float
    t_hi: float
    tol: float
    lo_capped: bool = False
    hi_capped: bool = False


def bowen_root(system: WeightedSystem, tol: float = 1e-3,
               t_cap: float = 4.0) -> BowenInterval:
    """Roots of the decreasing pressure bounds by bisection on [0, t_cap].

    The reported t_lo is the left end of the final bracket of the lower
    bound's root and t_hi the right end of the upper bound's, so the true
    Bowen interval is contained in [t_lo, t_hi].  Without a sign change
    up to the cap the corresponding end is capped and flagged.

    Each bisection evaluates only the envelope whose root it seeks (the
    lower bound's side of the level-1 sum for t_lo, the upper's for t_hi),
    over the run-sum data the system keeps, at the points a two-sided
    evaluation would visit.  It stops once the bracket is within `tol`, a
    finite positive number, or once its midpoint is no longer strictly
    inside it, so a `tol` below the float spacing gives the tightest float
    bracket.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"bisection tolerance must be positive and finite, got {tol!r}")
    if system.is_empty():
        raise ConstructionError("Bowen root of an empty system")

    def root(side: int, conservative_left: bool):
        def f(t):
            _check_exponent(t)
            return _envelope_log_sum(system, t, side)
        f0 = f(0.0)
        if f0 <= 0.0:
            # single-letter systems: pressure vanishes exactly at t = 0
            return 0.0, False
        if f(t_cap) > 0.0:
            return t_cap, True
        lo, hi = 0.0, t_cap
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return (lo if conservative_left else hi), False

    t_lo, lo_capped = root(0, conservative_left=True)
    t_hi, hi_capped = root(1, conservative_left=False)
    return BowenInterval(t_lo=t_lo, t_hi=t_hi, tol=tol,
                         lo_capped=lo_capped, hi_capped=hi_capped)


# ---------------------------------------------------------------------------
# The dimension certificate
# ---------------------------------------------------------------------------

@dataclass
class DimensionCertificate:
    """Everything needed to reproduce one dimension-greater-than-one run."""

    family_kind: str
    lam: complex
    r0: float
    anchor: float
    epsilon: float
    inset: float
    c: float
    mode: str
    sigma_sum_t1_lo: float
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
            "family": self.family_kind,
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
            "R0": self.r0,
            "R": self.anchor,
            "epsilon": self.epsilon,
            "D": self.inset,
            "C": self.c,
            "mode": self.mode,
            "sigma_sum_t1_lo": self.sigma_sum_t1_lo,
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


def certify_dim_gt_one(family: MapFamily, *, anchor="auto", epsilon: float = 0.1,
                       inset="auto", margin: float = 0.0, boundary_samples: int = 256,
                       mode: str = "tail", bisect_tol: float = 1e-4,
                       scan=(1000.0, 20000.0, 100.0),
                       workers: int = 1) -> DimensionCertificate:
    """Run the full construction and certify dim > 1 via the pressure bound.

    The verdict is "certified" exactly when P_lo(1) > 0 and the lower
    Bowen root exceeds 1; every constant entering the computation is
    recorded so the run is reproducible bit for bit.  `mode` is echoed in
    the certificate; it and `workers` have no effect.
    """
    start = time.perf_counter()
    family = normalize_family(family)
    reasons = []
    if inset == "auto":
        if anchor == "auto":
            raise ConfigError("at most one of anchor and inset may be 'auto'")
        inset_val = _auto_inset(family, float(anchor))
    else:
        inset_val = float(inset)
    budget = GeometryBudget(epsilon=epsilon, inset=inset_val, margin=margin,
                            boundary_samples=boundary_samples)
    if anchor == "auto":
        anchor_val = find_radius(family, budget, *scan)
    else:
        anchor_val = float(anchor)
    spec = build_squares(anchor_val, inset_val)
    dist = _distortion_or_unavailable(anchor_val, family.ln_r0)
    line = anchor_line(family, anchor_val, inset_val)
    eq1_margin = float(np.abs(np.asarray(family.inv0_deriv(complex(anchor_val)))).item()
                       - anchor_val ** (-(1.0 + epsilon)))
    if eq1_margin <= 0:
        reasons.append(f"anchor-derivative condition fails (margin {eq1_margin:.3g})")
    if line.depth_margin <= 0:
        reasons.append(f"tract-depth condition fails (margin {line.depth_margin:.3g})")
    gset = build_G(family, anchor_val, spec, budget, mode=mode)
    if gset.is_empty():
        reasons.append("admissible set G is empty at this configuration")
        elapsed = 1000.0 * (time.perf_counter() - start)
        return DimensionCertificate(
            family_kind=family.kind, lam=complex(family.lam), r0=family.r0,
            anchor=anchor_val, epsilon=epsilon, inset=inset_val, c=dist.c, mode=mode,
            sigma_sum_t1_lo=0.0, p1_lo=-math.inf, t_lo=0.0, t_hi=0.0,
            verdict="not-certified", runtime_ms=elapsed,
            constants=_constants(line, epsilon, None),
            diagnostics={"n_explicit": 0, "n_segments": 0,
                         "eq1_margin": eq1_margin, "depth_margin": line.depth_margin},
            reasons=tuple(reasons))
    system = build_weighted_system(family, gset, spec)
    s1 = level1_sum(system, 1.0)
    p1_lo = s1.log_lo
    roots = bowen_root(system, tol=bisect_tol)
    if p1_lo <= 0:
        reasons.append(f"P_lo(1) = {p1_lo:.6g} <= 0")
    if roots.t_lo <= 1.0:
        reasons.append(f"lower Bowen root {roots.t_lo:.6g} <= 1")
    verdict = "certified" if (p1_lo > 0 and roots.t_lo > 1.0) else "not-certified"
    c1 = math.exp(p1_lo - (1.0 - epsilon) * math.log(anchor_val))
    elapsed = 1000.0 * (time.perf_counter() - start)
    return DimensionCertificate(
        family_kind=family.kind, lam=complex(family.lam), r0=family.r0,
        anchor=anchor_val, epsilon=epsilon, inset=inset_val, c=dist.c, mode=mode,
        sigma_sum_t1_lo=s1.lo, p1_lo=p1_lo, t_lo=roots.t_lo, t_hi=roots.t_hi,
        verdict=verdict, runtime_ms=elapsed,
        constants=_constants(line, epsilon, c1),
        diagnostics={
            "n_explicit": gset.n_explicit,
            "n_segments": gset.n_segments,
            "eq1_margin": eq1_margin,
            "depth_margin": line.depth_margin,
            "cor_margin": line.cor_margin,
            "sum_over_c": s1.lo / dist.c if s1.log_lo < 700 else math.inf,
            "bowen_capped": roots.lo_capped or roots.hi_capped,
            "bisect_tol": roots.tol,
        },
        reasons=tuple(reasons))


def _auto_inset(family: MapFamily, anchor: float) -> float:
    spec = build_squares(anchor, anchor / 8.0)
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    first_level_diam = spec.outer.diam / env.d_lo
    line = anchor_line(family, anchor, inset=anchor / 8.0)
    depth_room = (line.real_part - family.ln_r0) / 4.0
    return max(min(1.05 * first_level_diam, depth_room, anchor / 8.0), 1e-3)


def _constants(line, epsilon, c1) -> dict:
    return {
        "c0": line.c0,
        "a": 4.0 * math.pi,
        "b": line.c0,
        "C1_empirical": c1,
    }


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
    model = family.tail_model()
    env = model.envelope(spec.outer.bounds())
    # the size test comes first, in log form, so that no exp overflows
    if (max(sigma_lo, sigma_hi) - math.log(TWO_PI) > 54 * math.log(2.0)
            or math.floor(math.exp(sigma_hi) / TWO_PI) > 2 ** 53):
        raise ConfigError("window too large to enumerate; shrink sigma_hi")
    s1 = math.ceil(math.exp(sigma_lo) / TWO_PI)
    s2 = math.floor(math.exp(sigma_hi) / TWO_PI)
    if s2 < s1:
        raise ConfigError("empty comparison window")
    parts_lo, parts_hi = [], []
    for start in range(s1, s2 + 1, CHUNK):
        ss = np.arange(start, min(start + CHUNK - 1, s2) + 1, dtype=np.int64)
        sigma = np.log(TWO_PI) + np.log(ss.astype(float))
        lo, hi = model.log_weight_bounds(sigma, env)
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
