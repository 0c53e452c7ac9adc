"""The inspection commands: lemmas, sample, oracle {box-dim, brute-pressure,
recheck}.

`cli.main` imports this module only for a command other than `dim`, so
the certificate path compiles none of it.  The reports, exit codes and
config are those of `cli`; the lemma checks are `lemmas`'.

`oracle brute-pressure` needs no distortion constant: every
intermediate point of a word lies in Q, so its brute value must lie in
the level-1 bracket [P_lo, P_hi] of its letters, up to a float-rounding
slack 1e-12 * (1 + |value|) (the report's `slack_log`); outside it, the
command exits 3.  It exits 2 when G lists fewer letters than its
subsystem (it says how many).  At lam = 0.01, R0 = e, anchor 3.3 it
exits 0.  It sums each word's derivative in logs, so it also exits 0
where the derivatives underflow as floats, as at anchor 800, inset 3
(value -404.42 in [-405.06, -403.91]).  It and its bracket take
ln(2*pi*|s|) on the int, so it exits 0 at the default certificate
(-2006.04 in [-2006.67, -2005.52]) and at the anchor cap.

`sample` and `oracle recheck` draw letters uniformly over all of G: at
lam = 1, R0 = e, inset 0.5, anchor 30 they and `oracle brute-pressure`
exit 0.  Words are int64 below 2^63 and Python ints past it; `sample`
exits 2 only where 2*pi*|s| passes the float range, from anchor 474 at
inset 3 and at the default certificate, which `oracle recheck` and
`oracle brute-pressure` check.

`sample` writes a CSV with the header `re,im,space`, then
`sampling.count` rows of space `lifted`, the sampled points in Q, and
as many rows of their exp projections to the plane, of space `plane`
(`plane_logpolar`, as ln|.| and arg, for a point past the exp range),
each part in the order the words were drawn (`sample_limit_set`).

`sample` checks the conjugacy on the lift, for any lam: on every row in
the exp range (Re z <= 700), F z = e^z + Log(lam) must equal the row's
first-level point to relative tolerance 1e-9.  Its stderr line says on
how many rows: all 10,000 up to anchor 400 (lam = 1, i, 0.5+0.5i or -2),
292 at anchor 469, inset 3, where the other rows lie past Re 700 and go
log-polar.  With no row in the exp range, as at anchor 472, it exits 3.
"""

from __future__ import annotations

import math
import sys
import warnings

from .cli import SCHEMA_VERSION, RunConfig
from .errors import ConfigError, ConstructionError
from .lemmas import lemma_checks
from .numerics import TWO_PI, write_csv, write_json
from .pressure import level1_sum
from .tractgeom import build_G, build_squares, log_distortion_bound


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def cmd_lemmas(cfg: RunConfig, out_path: str) -> int:
    """Write the lemma report: `lemma_checks`, whether the first-level
    images of Q lie in H, and the distortion constant on Q."""
    fam = cfg.family
    square = build_squares(cfg.anchor, cfg.budget.inset)
    checks = lemma_checks(fam, cfg.anchor, cfg.budget)
    depth_direct = math.log(fam.envelope(square).d_lo) - fam.ln_r0
    checks["first_level_in_half_plane"] = {"margin": depth_direct, "pass": depth_direct > 0}
    log_k = log_distortion_bound(fam, build_G(fam, cfg.anchor, square, cfg.budget), square)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lemmas",
        "config": cfg.resolved,
        "distortion_c": math.exp(log_k),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
    write_json(out_path, report)
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_path: str) -> int:
    import numpy as np

    from .cantor_ifs import project_to_plane, sample_limit_set
    fam = cfg.family
    square = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, square)
    sample = sample_limit_set(fam, gset, square, depth=cfg.depth, count=cfg.count,
                              seed=cfg.seed)
    proj = project_to_plane(fam, sample)

    points = np.concatenate([sample.points, proj.points])  # lifted rows, then plane rows
    spaces = ["lifted"] * sample.count + [
        "plane_logpolar" if lp else "plane" for lp in proj.log_polar.tolist()]
    n = write_csv(out_path, ["re", "im", "space"], [points.real, points.imag, spaces])
    print(f"wrote {n} rows; conjugacy checked on {proj.conjugacy_checked} of {sample.count} rows",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_box_dim(cfg: RunConfig, out_path: str) -> int:
    import numpy as np

    from . import oracle as oracle_mod
    source = cfg.oracle["source"]
    if source == "middle-thirds":
        pts = oracle_mod.cantor_middle_thirds(count=100_000, depth=35, seed=cfg.seed)
        scales = [3.0 ** -k for k in range(1, 8)]
        expected, tol = math.log(2.0) / math.log(3.0), 0.05
    elif source == "csv":
        path = cfg.oracle.get("path")
        if not path:
            raise ConfigError("oracle.source=csv needs oracle.path")
        space = cfg.oracle.get("space", "lifted")
        scales = cfg.oracle.get("scales")
        if scales is not None and not (isinstance(scales, list) and all(
                isinstance(s, (int, float)) and not isinstance(s, bool) for s in scales)):
            raise ConfigError(f"oracle.scales must be a list of numbers, got {scales!r}")
        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.filterwarnings("ignore", "genfromtxt: Empty input file")
                data = np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                                     encoding="utf-8")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read oracle.path: {exc}") from exc
        except IndexError as exc:  # genfromtxt on a file with no header line
            raise ConfigError("oracle.path is empty") from exc
        columns = data.dtype.names or ()
        for name, kinds, what in (("re", "iuf", "numeric"), ("im", "iuf", "numeric"),
                                  ("space", "U", "text")):
            if name not in columns or data[name].dtype.kind not in kinds:
                raise ConfigError(f"oracle.path needs a {what} column {name!r}")
        mask = data["space"] == space
        pts = data["re"][mask] + 1j * data["im"][mask]
        if pts.size == 0:
            raise ConfigError(f"oracle.path has no rows of oracle.space {space!r}")
        if scales is None:
            diam = float(np.hypot(np.ptp(pts.real), np.ptp(pts.imag)))
            scales = [diam * (10.0 ** -k) for k in np.linspace(0.5, 3.0, 6)]
        expected, tol = None, None
    else:
        raise ConfigError(f"unknown oracle source {source!r}")
    est = oracle_mod.box_counting_dim(pts, scales)
    report = {
        "schema_version": SCHEMA_VERSION, "command": "oracle box-dim",
        "config": cfg.resolved,
        "slope": est.slope, "counts": list(est.counts), "scales": list(est.scales),
        "residual": est.residual, "expected": expected, "tolerance": tol,
    }
    ok = expected is None or abs(est.slope - expected) <= tol
    report["pass"] = bool(ok)
    write_json(out_path, report)
    return 0 if ok else 3


def _oracle_brute_pressure(cfg: RunConfig, out_path: str) -> int:
    from . import oracle as oracle_mod
    fam = cfg.family
    square = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, square)
    k = cfg.oracle["subsystem"]
    letters = gset.letters_by_weight(k)
    if len(letters) < k:
        raise ConstructionError(f"G holds {gset.n_letters} letters; the subsystem needs {k}")
    sub = _subsystem(fam, letters, square)
    t = float(cfg.oracle["t"])
    n = cfg.oracle["word_length"]
    brute = oracle_mod.brute_force_pressure(fam, letters, square, n=n, t=t)
    bracket = level1_sum(sub, t)
    p_lo, p_hi = bracket.log_lo, bracket.log_hi
    # the brute value lies in [p_lo, p_hi] exactly; eps covers float rounding
    eps = 1e-12 * (1.0 + abs(brute))
    ok = (p_lo - eps) <= brute <= (p_hi + eps)
    report = {
        "schema_version": SCHEMA_VERSION, "command": "oracle brute-pressure",
        "config": cfg.resolved, "letters": [list(l) for l in letters],
        "brute_value": brute,
        "level1_lo": p_lo, "level1_hi": p_hi, "slack_log": eps,
        "pass": bool(ok),
    }
    write_json(out_path, report)
    return 0 if ok else 3


def _nonempty_G(fam, cfg: RunConfig, square):
    """The admissible set a command works on; an empty G is a negative outcome."""
    gset = build_G(fam, cfg.anchor, square, cfg.budget)
    if gset.is_empty():
        raise ConstructionError("admissible set G is empty at this configuration")
    return gset


def _subsystem(fam, letters, square):
    import numpy as np

    from .pressure import WeightedSystem
    # sigma = ln(2*pi*|s|) from the int, finite for indices of any size
    sigma = np.array([math.log(TWO_PI) + math.log(abs(s)) for (_, s) in letters])
    lo, hi = fam.envelope(square).log_weight_bounds(sigma)
    return WeightedSystem(log_lo=lo, log_hi=hi)


def _oracle_recheck(cfg: RunConfig, out_path: str) -> int:
    from . import oracle as oracle_mod
    fam = cfg.family
    square = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, square)
    rep = oracle_mod.recheck_gset(fam, gset, square, cfg.budget,
                                  density=cfg.oracle["density"],
                                  seed=cfg.seed)
    report = {
        "schema_version": SCHEMA_VERSION, "command": "oracle recheck",
        "config": cfg.resolved,
        "n_checked": rep.n_checked, "n_densely_sampled": rep.n_densely_sampled,
        "n_flagged": rep.n_flagged, "flagged": [list(f) for f in rep.flagged],
        "min_margin": rep.min_margin,
        "pass": rep.n_flagged == 0,
    }
    write_json(out_path, report)
    return 0 if rep.n_flagged == 0 else 3


# oracle subcommand -> its command, for `cli.main`
ORACLES = {"box-dim": _oracle_box_dim,
           "brute-pressure": _oracle_brute_pressure,
           "recheck": _oracle_recheck}
