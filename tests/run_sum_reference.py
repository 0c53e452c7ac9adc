"""Per-call references for the run sum, the level-1 sum and the Bowen root.

`log_run_sum_bounds` here forms every log of a run anew on each call, as
the run sum did before its t-independent data was split off
(`tractdim.loglift.run_sum`); `level1_log_bounds` sums both envelopes at
every exponent and `bowen_root` bisects on that two-sided sum, evaluating
every midpoint.  The tests compare the library with them hex for hex.
"""

import math
from functools import reduce


from tractdim.loglift import (_MAX_EXACT_INT, _RUN_DIRECT, _RUN_SUM_ULPS, _log_add,
                              _log_power_integral, _log_shifted)
from tractdim.numerics import TWO_PI, log_sum_exp


def log_run_sum_bounds(s1, s2, t, h, log_c=0.0):
    """(lower, upper) bounds on log(e^log_c * sum_{s=s1}^{s2} (s + h)^-t)."""
    big = s2 > _MAX_EXACT_INT
    log_1, log_n = (_log_shifted(s, h) if big else math.log(s + h) for s in (s1, s2))
    k = s1 - 1 if s1 > _MAX_EXACT_INT else min(s2, s1 + _RUN_DIRECT - 1)
    parts_lo = [log_sum_exp([-t * math.log(s + h) for s in range(s1, k + 1)])]
    parts_hi = list(parts_lo)
    if s2 > k:
        m, d = k + 1, s2 - k - 1
        x_m = m + h if m < 2 ** 100 else math.inf
        if not big:
            log_m = math.log(x_m)
            r = math.log1p(d / x_m)
            log_int = log_m + _log_power_integral(0.0, r, t)
        else:
            log_m = log_1 if m == s1 else _log_shifted(m, h)
            if d >= m:
                r = log_n - log_m
            elif d << 960 >= m:
                r = math.log1p(d / m)
            else:
                r = 0.0
            log_int = (log_m + _log_power_integral(0.0, r, t) if r
                       else math.log(d) if d else -math.inf)

        def drop(p):
            return -math.expm1(-(t + p) * r)

        poly = t * (t + 1.0) * (t + 2.0)
        ends = (0.5 * (2.0 - drop(0.0)), t / 12.0 / x_m * drop(1.0),
                -poly / 720.0 / x_m ** 3 * drop(3.0))
        b6 = poly * (t + 3.0) * (t + 4.0) / 30240.0 / x_m ** 5 * drop(5.0)
        if big:
            log_rel = [_log_add(log_int, math.log(sum(ends) + x)) for x in (0.0, b6)]
        else:
            rel = math.exp(log_int) + ends[0] + ends[1] + ends[2]
            log_rel = [math.log(rel), math.log(rel + b6)]
        parts_lo.append(-t * log_m + log_rel[0])
        parts_hi.append(-t * log_m + log_rel[1])
    magnitude = (1.0 + t) * max(abs(log_1), abs(log_n))
    slack = _RUN_SUM_ULPS * 2.0 ** -52 * (1.0 + abs(log_c) + magnitude)
    lo, hi = (reduce(_log_add, p) if big else log_sum_exp(p) for p in (parts_lo, parts_hi))
    return log_c + lo - slack, log_c + hi + slack


def envelope_run_sum(s_lo, s_hi, t, env):
    """(lower bound of the lower-envelope sum, upper bound of the
    upper-envelope sum) over |s| in [s_lo, s_hi], for ranges from s* =
    ceil((b + p_lo) / (2 pi)) on, where the upper envelope is the run sum
    itself."""
    h = env.b / TWO_PI
    log_lo = log_run_sum_bounds(s_lo, s_hi, t, h, -t * math.log(TWO_PI * env.d_hi))[0]
    return log_lo, log_run_sum_bounds(s_lo, s_hi, t, -h, -t * math.log(TWO_PI * env.d_lo))[1]


def _listed_log_sum(logs, t):
    """ln sum(w^t) over listed log-weights, in the library's order."""
    return log_sum_exp([t * x for x in logs])


def level1_log_bounds(system, t, env=None):
    """(ln lower, ln upper) level-1 sum of a system: its listed weights
    summed as they are, and each distinct range of a system built from G
    summed once over the envelope `env` of Q and taken k times, both
    envelopes."""
    listed = ([(_listed_log_sum(system.log_lo, t), _listed_log_sum(system.log_hi, t))]
              if len(system.log_lo) else [])
    parts = [(envelope_run_sum(lo, hi, t, env), k) for (lo, hi), k in system.runs]
    return tuple(log_sum_exp([pair[side] for pair in listed]
                             + [pair[side] for pair, k in parts for _ in range(k)])
                 for side in (0, 1))


def bowen_root(system, tol, env=None):
    """(t_lo, t_hi, lo_capped, hi_capped) by bisection on [0, 4] on the
    two-sided reference sum, each side read from a sum of both envelopes;
    it stops once the bracket is within tol or its midpoint is no longer
    strictly inside it."""
    def root(side, conservative_left):
        def f(t):
            return level1_log_bounds(system, t, env)[side]
        if f(0.0) <= 0.0:
            return 0.0, False
        if f(4.0) > 0.0:
            return 4.0, True
        lo, hi = 0.0, 4.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # below the float spacing
                break
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return (lo if conservative_left else hi), False

    (t_lo, lo_capped), (t_hi, hi_capped) = root(0, True), root(1, False)
    return t_lo, t_hi, lo_capped, hi_capped
