"""The paper's lemma conditions at an anchor, checked in closed form.

These back the `lemmas` command and an "auto" anchor, not the
certificate: the anchor-derivative (eq1) and tract-depth conditions and
the level lines show that admissible cells exist, but neither G nor the
pressure bounds read them, so `tractdim dim` at a numeric anchor never
imports this module.  It runs on `math` and `cmath` alone.

`lemmas` traces the level lines in closed form at any anchor: at anchor
4000, inset 3 it exits 0 with `all_pass` true.  Its other margins are
closed forms too, not samples, so no lemma depends on the seed.  With c
= Log(lam), the expansion margin is the infimum 4*pi*(ln R0 - Re c) of
4*pi*|F'| - (Re F - ln R0) = 4*pi*|zeta - c| - Re zeta + ln R0, zeta =
F(w), at zeta = ln R0 + i*Im c on every branch; the growth margin is the
excess 0 of Re F_inv_s over the growth bound, at x = ln R0 + 1.  Where
the anchor line is not right of c (lam = 3, R0 = e, anchor 3), the lines
are not branch preimages, and `level_lines` fails with
`min_inf_re_margin` NaN.  Re F_inv_0(x) = ln|x - c| rises for every x >
Re c, so along the powers of ten from the first above ln R0 to 1e12,
`first_past_threshold` is the first index where it passes ln R0 +
2*inset, and `branch_growth_to_infinity` also passes at |lam| past e^9
(lam = 1e4, anchor 100).

The level lines live in two squares that only this module builds, from
the anchor R and inset D (`_level_line_squares`): Q' = Q shrunk by D on
all sides, and the core Q'' = [3R/4, 5R/4] x [-R/4, R/4], which Q'
contains (D <= R/4, `build_squares`) and equals at D = R/4.

`geometry.anchor` may be "auto": `find_radius`'s first passing point of
`geometry.scan`, which the report's config echoes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple

from .errors import ConfigError, GeometryError
from .loglift import MapFamily
from .numerics import TWO_PI
from .tractgeom import GeometryBudget, Rect, build_squares


# ---------------------------------------------------------------------------
# Anchor line and radius search
# ---------------------------------------------------------------------------

class AnchorLine(NamedTuple):
    """The vertical line carrying every branch preimage of the anchor."""

    real_part: float            # shared Re of all preimages v_s
    growth_bound: float         # 4*pi*ln(anchor - ln R0) + Re F_inv_0(1 + ln R0)
    depth_margin: float         # real_part - (ln R0 + 2*inset)


def anchor_line(family: MapFamily, anchor: float, inset: float) -> AnchorLine:
    """Locate the line {Re = r} of branch preimages of the anchor.

    The preimages are v_s = F_inv_0(R) + 2*pi*i*s, so all of them have
    the real part r of F_inv_0(R) exactly.
    """
    r = cmath.log(anchor - family.log_lam).real
    c0 = cmath.log(1.0 + family.ln_r0 - family.log_lam).real
    bound = 4.0 * math.pi * math.log(anchor - family.ln_r0) + c0
    return AnchorLine(
        real_part=r, growth_bound=bound, depth_margin=r - (family.ln_r0 + 2.0 * inset))


def anchor_derivative(family: MapFamily, anchor: float) -> float:
    """|F_inv_0'(R)| = 1 / |R - Log(lam)| at R = anchor: the one float that
    the margins of eq1 (`anchor_derivative_margin`) and eq4 read."""
    return 1.0 / abs(float(anchor) - family.log_lam)


def anchor_derivative_margin(family: MapFamily, anchor: float, epsilon: float) -> float:
    """Margin |F_inv_0'(R)| - R^-(1+epsilon) of the anchor-derivative
    condition (eq1) at R = anchor, for `find_radius` and the lemma
    report's `anchor_derivative_lower`."""
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
    2*inset; (3) x/4 > inset.  The grid is numpy's arange(scan_lo, stop,
    step), stop = scan_hi + step/2: x_i = scan_lo + i*((scan_lo + step) -
    scan_lo) for i < n = ceil((stop - scan_lo) / step).  A scan starting
    at or below ln R0 + 1, an empty or backwards grid and a non-finite n
    are ConfigErrors.

    Each condition fails below some x and holds above it, as x > ln R0 +
    1 > max(1, Re c + 1), c = Log(lam): (1) holds where x^(1+epsilon) -
    |x - c| > 0, whose derivative is at least (1+epsilon)*x^epsilon - 1 >
    0; (2) ln|x - c| and (3) x/4 rise.  So the first passing index is a
    bisection over i, after the last point: at most 1 + ceil(log2 n)
    evaluations.  Where eq1's float margin flips sign within a few ulps of
    its threshold, the result still passes and its predecessor fails.
    Where the last point fails, RadiusSearchError carries its margins: a
    condition whose margin is <= 0 there fails at every grid point.
    """
    if scan_lo <= family.ln_r0 + 1.0:
        raise ConfigError(f"scan must start above ln R0 + 1 = {family.ln_r0 + 1.0:.6g}")
    stop = scan_hi + 0.5 * step
    if step <= 0 or scan_hi < scan_lo or stop <= scan_lo:
        raise ConfigError("empty or backwards scan grid")
    count = (stop - scan_lo) / step
    if not math.isfinite(count):
        raise ConfigError(f"scan grid of {count} points: step {step!r} is too small "
                          f"for [{scan_lo!r}, {scan_hi!r}]")
    delta = (scan_lo + step) - scan_lo

    def margins(i):
        x = scan_lo + i * delta
        return (anchor_derivative_margin(family, x, budget.epsilon),
                anchor_line(family, x, budget.inset).depth_margin, x / 4.0 - budget.inset)

    lo, hi = -1, math.ceil(count) - 1  # hi passes; lo fails, or lies before the grid
    last = margins(hi)
    if not all(m > 0 for m in last):
        named = dict(zip(("anchor_derivative", "tract_depth", "square_size"), last))
        shown = ", ".join(f"{k}={v:.4g}" for k, v in named.items())
        raise RadiusSearchError(f"no grid point satisfies the anchor conditions (margins at the "
                                f"last point: {shown}); the scan may simply be too short", named)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if all(m > 0 for m in margins(mid)):
            hi = mid
        else:
            lo = mid
    return scan_lo + hi * delta


# ---------------------------------------------------------------------------
# Level lines
# ---------------------------------------------------------------------------

class LevelLineReport(NamedTuple):
    curve_count: int
    required_count: int         # floor(R / (4 pi))
    min_component_length: float
    required_length: float      # R/4 - inset
    min_re_margin: float        # growth bound - ln a, ln a the least Re of every branch


def trace_level_lines(family: MapFamily, anchor: float,
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

    Branch u's curve lies within 2*pi*u +- pi/2 in imaginary part, and the
    core's imaginary range within Q''s (inset <= anchor/4).  A column whose
    strip misses the core's range has no component meeting it.  One whose
    strip lies inside it reaches the clipped branch of `_half_interval` on
    both halves, for Q' and the core, where l1 = max(0, re_lo - ln a) and
    l2 = re_hi - ln a whatever u, bit for bit.  So only the columns within
    two of the core's horizontal edges (two cover the rounding of 2*pi*u)
    and one for the block between them are evaluated.

    Every branch is a vertical translate of branch 0, so all of them share
    the least real part ln a, and `min_re_margin` is the anchor line's
    growth bound minus ln a.
    Where a <= 0 the anchor line is not right of Log(lam): it meets the
    branch cut of Log, so no branch maps it to a curve, no column has
    components, and the margin is NaN.
    """
    line = anchor_line(family, anchor, budget.inset)
    a = line.real_part - family.log_lam.real
    ln_a = math.log(a) if a > 0.0 else math.nan
    inner, core = _level_line_squares(anchor, budget.inset)

    def near(y):  # the columns within two of those whose strip meets Im = y
        return range(math.floor((y - 0.5 * math.pi) / TWO_PI) - 2,
                     math.ceil((y + 0.5 * math.pi) / TWO_PI) + 3)

    below, above = near(core.im_lo), near(core.im_hi)
    block = range(below.stop, above.start)
    columns = sorted(set(below) | set(above)) + list(block[:1])
    comps = [_branch_components(ln_a, u, inner, core) if a > 0.0 else [] for u in columns]
    return LevelLineReport(
        curve_count=sum(len(block) if u in block else 1
                        for u, lens in zip(columns, comps) if lens),
        required_count=int(math.floor(anchor / (4.0 * math.pi))),
        min_component_length=min((x for lens in comps for x in lens), default=math.inf),
        required_length=anchor / 4.0 - budget.inset,
        min_re_margin=line.growth_bound - ln_a)


def _level_line_squares(anchor: float, inset: float) -> tuple:
    """Q' and Q'' (module docstring), after `build_squares`' inset check."""
    a = float(anchor)
    core = Rect(3.0 * a / 4.0, 5.0 * a / 4.0, -a / 4.0, a / 4.0)
    return build_squares(a, inset).shrink(float(inset)), core


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


# ---------------------------------------------------------------------------
# The checks of the lemma report
# ---------------------------------------------------------------------------

def lemma_checks(family: MapFamily, anchor: float, budget: GeometryBudget) -> dict:
    """Pass/fail with numeric margins for every verifiable growth, expansion
    and level-line statement at the anchor, by the lemma report's names."""
    def check(margin, **extra):
        return {"margin": margin, "pass": margin > 0, **extra}

    line = anchor_line(family, anchor, budget.inset)
    eq4 = 4.0 * math.pi / (anchor - family.ln_r0) - anchor_derivative(family, anchor)
    k0 = next(k for k in itertools.count(1) if 10.0 ** k > family.ln_r0)
    first = next((i for i, x in enumerate(10.0 ** k for k in range(k0, 13))
                  if math.log(abs(x - family.log_lam)) > family.ln_r0 + 2.0 * budget.inset), None)
    lines = trace_level_lines(family, anchor, budget)
    return {
        "anchor_derivative_lower": check(anchor_derivative_margin(family, anchor, budget.epsilon)),
        "anchor_derivative_upper": check(eq4),
        "tract_depth": check(line.depth_margin, real_part=line.real_part),
        "expansion_margin": check(4.0 * math.pi * (family.ln_r0 - family.log_lam.real)),
        "branch_growth_to_infinity": {"first_past_threshold": first, "pass": first is not None},
        "level_lines": {
            "curve_count": lines.curve_count, "required_count": lines.required_count,
            "min_component_length": lines.min_component_length,
            "required_length": lines.required_length, "min_inf_re_margin": lines.min_re_margin,
            "pass": (lines.curve_count >= lines.required_count
                     and lines.min_component_length >= lines.required_length
                     and lines.min_re_margin > 0)}}
