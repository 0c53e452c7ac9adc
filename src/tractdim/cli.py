"""Command-line front end.

Subcommands: lemmas, dim, sample, oracle {box-dim, brute-pressure,
recheck}.  All reports are canonical JSON (sorted keys, repr floats) and
embed the fully resolved configuration plus a schema version, so a rerun
with the same config is byte-identical.  Exit codes: 0 success or
certified, 1 configuration error, 2 negative construction/certification
outcome, 3 numeric or oracle failure.

Anchors below the Koebe range (no covering disk of Q inside H) are not
configuration errors.  The Koebe distortion constant C enters neither G,
nor the pressure bounds, nor any oracle, so only `lemmas` and `dim`
compute it: `lemmas` writes its report with `distortion_c` = "Infinity"
and exits 0 like any other lemma report (the failing lemmas show in
`checks` and `all_pass`), and `dim` reports `C` = "Infinity".  Every
G-based command exits 2 on an empty admissible set G; the two oracles say
"admissible set G is empty".  `oracle brute-pressure` needs no C: every
intermediate point of a word lies in Q, so its brute value must lie in
the level-1 bracket [P_lo, P_hi] of its letters, up to a float-rounding
slack 1e-12 * (1 + |value|) (the report's `slack_log`); outside it, the
command exits 3.  It exits 2 when G lists fewer letters than its
subsystem (it says how many).  At lam = 0.01, R0 = e, anchor 3.3, below
the Koebe range, it exits 0.  It sums each word's derivative in logs, so
it also exits 0 where the derivatives underflow as floats, as at anchor
800, inset 3 (value -404.42 in [-405.06, -403.91]).

`lemmas` traces the level lines in closed form at any anchor: at the
certificate's config (anchor 4000, inset 3) it exits 0 with `all_pass`
true.  Where the anchor line is not right of Log(lam) (lam = 3, R0 = e,
anchor 3), the lines are not branch preimages, and `level_lines` fails
with `min_inf_re_margin` NaN.  Its growth grid runs over the powers of
ten from the first above ln R0 to 1e12, so it also exits 0 at |lam| past
e^9 (lam = 1e4, anchor 100).

G is the ints of its closed-form sigma windows; a cell outside them is
left out, not decided by sampling.  At lam = 0.01, R0 = e, anchor 4, G
holds |s| = 4..63 at u = 0 for each sign, and none of the cells (0, +-1)
and (0, +-2), whose 2*pi*|s| lies below the envelope constant b: `dim`
reports not-certified with the Bowen bracket [0.6438, 0.7088] and exits
2; `sample`, `oracle recheck`, `oracle brute-pressure` and `lemmas` exit
0.

A config that is not a JSON object, a section that is not one, a
non-numeric `oracle.t` and an unreadable config or `oracle.path` file are
configuration errors (exit 1).  So are, for `oracle box-dim` from a CSV,
a file without numeric `re` and `im` and a text `space` column, one with
no rows of `oracle.space`, and an `oracle.scales` that is not a list of
numbers.

Every command reads G from its runs of indices shared by blocks of
columns, so `pressure.mode` and `pressure.collar` are validated (enumerate
or tail, a finite number) and have no effect, like `workers` and the
`--mode` and `--workers` options.  They stay because
`perfbench/workloads.py` passes them.  `sample`
and `oracle recheck` draw letters uniformly over all of G: at lam = 1,
R0 = e, inset 0.5, anchor 30 they and `oracle brute-pressure` exit 0.
Words are int64, so `sample` exits 2 where G has letters past 2^63, as at
the default certificate, which `oracle recheck` checks.

For a non-real or negative lam, `sample` writes its rows and exits 0 as
for lam > 0.  Its conjugacy check f(exp z) = exp(F z) leaves out the rows
where the rounding of F z = e^z + Log(lam) alone can reach the check's
1e-9 tolerance: for such lam, the rows whose first letter has |s| past
about 1e7, most rows at anchors 20 and 30 (lam = i, -2 or 0.5+0.5i).
Its stderr line says on how many rows the check compared two nonzero,
finite sides: at lam = 1, seed 42, all 10,000 at anchor 12, 1,224 at
anchor 30.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import oracle as oracle_mod
from .cantor_ifs import project_to_plane, sample_limit_set
from .errors import (ConfigError, ConstructionError, DomainError, GeometryError,
                     NumericError, TractdimError)
from .loglift import (MapFamily, branch_growth_bound, check_growth, expansion_margin,
                      exponential_family, normalize_family)
from .numerics import TWO_PI, write_csv, write_json
from .pressure import certify_dim_gt_one, pressure_bounds
from .tractgeom import (GeometryBudget, _distortion_or_unavailable, anchor_derivative_margin,
                        anchor_line, build_G, build_squares, find_radius, trace_level_lines)

SCHEMA_VERSION = 1

DEFAULT_SMALL_CONFIG = {
    "family": {"kind": "exponential", "lambda_re": 1.0, "lambda_im": 0.0, "r0": math.e},
    "geometry": {"epsilon": 0.1, "inset": 0.5, "anchor": 12.0,
                 "scan": [8.0, 4000.0, 1.0], "margin": 0.0, "boundary_samples": 256},
    "pressure": {"mode": "enumerate", "bisect_tol": 1e-3, "collar": 32},
    "sampling": {"depth": 8, "count": 10000, "seed": 42},
    "oracle": {"source": "middle-thirds", "density": 10, "subsystem": 8,
               "word_length": 2, "t": 1.0},
    "workers": 1,
    "timing": False,
}

# Certificate scale: at anchor 4000, inset 3, the verdict's two tests pass,
# P_lo(1) = 4.85 > 0 and the lower Bowen root t_lo = 1.00146 > 1.
DEFAULT_CERTIFICATE_CONFIG = {
    "family": {"kind": "exponential", "lambda_re": 1.0, "lambda_im": 0.0, "r0": math.e},
    "geometry": {"epsilon": 0.1, "inset": 3.0, "anchor": 4000.0,
                 "scan": [1000.0, 20000.0, 100.0], "margin": 0.0,
                 "boundary_samples": 256},
    "pressure": {"mode": "tail", "bisect_tol": 1e-4, "collar": 32},
    "sampling": {"depth": 8, "count": 10000, "seed": 42},
    "oracle": {"source": "middle-thirds", "density": 10, "subsystem": 8,
               "word_length": 2, "t": 1.0},
    "workers": 1,
    "timing": False,
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _require_finite(name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(float(value)):
        raise ConfigError(f"config field {name} must be a finite number, got {value!r}")
    return float(value)


def _require_positive(name, value):
    value = _require_finite(name, value)
    if value <= 0:
        raise ConfigError(f"config field {name} must be positive, got {value!r}")
    return value


def _require_seed(value):
    """A random seed: a finite number >= 0, truncated to an int."""
    seed = _require_finite("seed", value)
    if seed < 0:
        raise ConfigError(f"config field seed must be >= 0, got {value!r}")
    return int(seed)


def _require_count(name, value):
    """Reject all but an integer >= 1 (an integral float counts)."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 1:
        raise ConfigError(f"config field {name} must be an integer >= 1, got {value!r}")


@dataclass
class RunConfig:
    family: MapFamily
    budget: GeometryBudget
    anchor: float            # resolved, never "auto" after load
    mode: str
    bisect_tol: float
    collar: int
    depth: int
    count: int
    seed: int
    oracle: dict
    timing: bool
    resolved: dict = field(default_factory=dict)


def load_config(raw: dict) -> RunConfig:
    """Validate a raw config dict and resolve every "auto" before computing."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for section in ("family", "geometry", "pressure", "sampling", "oracle"):
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"config section {section} must be a JSON object")
    fam = dict(DEFAULT_SMALL_CONFIG["family"], **raw.get("family", {}))
    geo = dict(DEFAULT_SMALL_CONFIG["geometry"], **raw.get("geometry", {}))
    prs = dict(DEFAULT_SMALL_CONFIG["pressure"], **raw.get("pressure", {}))
    smp = dict(DEFAULT_SMALL_CONFIG["sampling"], **raw.get("sampling", {}))
    orc = dict(DEFAULT_SMALL_CONFIG["oracle"], **raw.get("oracle", {}))
    if fam["kind"] != "exponential":
        raise ConfigError(f"family.kind must be exponential, got {fam['kind']!r}")
    lam = complex(_require_finite("lambda_re", fam["lambda_re"]),
                  _require_finite("lambda_im", fam["lambda_im"]))
    r0 = _require_finite("r0", fam["r0"])
    family = normalize_family(exponential_family(lam=lam, r0=r0))
    epsilon = _require_finite("epsilon", geo["epsilon"])
    scan = geo["scan"]
    if (not isinstance(scan, (list, tuple))) or len(scan) != 3:
        raise ConfigError("geometry.scan must be [lo, hi, step]")
    scan = tuple(_require_finite(f"scan[{i}]", v) for i, v in enumerate(scan))
    inset = geo["inset"]
    anchor = geo["anchor"]
    if inset == "auto" and anchor == "auto":
        raise ConfigError("at most one of geometry.inset and geometry.anchor may be 'auto'")
    if inset == "auto":
        from .pressure import _auto_inset
        inset = _auto_inset(family, _require_finite("anchor", anchor))
    inset = _require_finite("inset", inset)
    budget = GeometryBudget(
        epsilon=epsilon, inset=inset,
        margin=_require_finite("margin", geo["margin"]),
        boundary_samples=int(_require_finite("boundary_samples", geo["boundary_samples"])))
    if anchor == "auto":
        anchor = find_radius(family, budget, *scan)
    anchor = _require_finite("anchor", anchor)
    mode = prs["mode"]
    if mode not in ("enumerate", "tail"):
        raise ConfigError(f"pressure.mode must be enumerate or tail, got {mode!r}")
    seed = _require_seed(smp["seed"])
    depth = int(_require_finite("depth", smp["depth"]))
    count = int(_require_finite("count", smp["count"]))
    if depth < 1 or count < 1:
        raise ConfigError("sampling depth and count must be positive")
    for key in ("density", "subsystem", "word_length"):
        _require_count(f"oracle.{key}", orc[key])
    _require_finite("oracle.t", orc["t"])
    # no effect: every computation runs in one process
    _require_finite("workers", raw.get("workers", 1))
    resolved = {
        "family": {"kind": "exponential", "lambda_re": lam.real, "lambda_im": lam.imag,
                   "r0": family.r0},
        "geometry": {"epsilon": epsilon, "inset": inset, "anchor": anchor,
                     "scan": list(scan), "margin": budget.margin,
                     "boundary_samples": budget.boundary_samples},
        "pressure": {"mode": mode,
                     "bisect_tol": _require_positive("bisect_tol", prs["bisect_tol"]),
                     "collar": int(_require_finite("collar", prs["collar"]))},
        "sampling": {"depth": depth, "count": count, "seed": seed},
        "oracle": orc,
        "timing": bool(raw.get("timing", False)),
        "schema_version": SCHEMA_VERSION,
    }
    return RunConfig(
        family=family, budget=budget, anchor=anchor, mode=mode,
        bisect_tol=resolved["pressure"]["bisect_tol"],
        collar=resolved["pressure"]["collar"], depth=depth, count=count,
        seed=seed, oracle=orc,
        timing=resolved["timing"], resolved=resolved)


def _read_config(path, base: dict) -> RunConfig:
    raw = dict(base)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, val in user.items():
            if isinstance(val, dict) and isinstance(raw.get(key), dict):
                raw[key] = dict(raw[key], **val)
            else:
                raw[key] = val
    return load_config(raw)


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------

def cmd_lemmas(cfg: RunConfig, out_path: str) -> int:
    """Write the lemma report: pass/fail with numeric margins for every
    verifiable growth, expansion and level-line statement."""
    fam = cfg.family
    budget = cfg.budget
    spec = build_squares(cfg.anchor, budget.inset)
    dist = _distortion_or_unavailable(cfg.anchor, fam.ln_r0)
    line = anchor_line(fam, cfg.anchor, budget.inset)
    checks = {}

    eq1_margin = anchor_derivative_margin(fam, cfg.anchor, budget.epsilon)
    checks["anchor_derivative_lower"] = {"margin": eq1_margin, "pass": eq1_margin > 0}

    eq4_margin = float(4.0 * math.pi / (cfg.anchor - fam.ln_r0)
                       - abs(complex(np.asarray(fam.inv0_deriv(complex(cfg.anchor))).item())))
    checks["anchor_derivative_upper"] = {"margin": eq4_margin, "pass": eq4_margin > 0}

    checks["tract_depth"] = {"margin": line.depth_margin, "pass": line.depth_margin > 0,
                             "real_part": line.real_part}

    rng = np.random.default_rng(cfg.seed)
    n_samples = 10_000
    zeta = (fam.ln_r0 + 0.1 + 29.9 * rng.random(n_samples)
            + 1j * (rng.random(n_samples) * 100.0 - 50.0))
    s_cycle = np.arange(n_samples) % 7 - 3
    w = np.asarray(fam.inv0(zeta)) + TWO_PI * 1j * s_cycle
    exp_margin = float(np.min(expansion_margin(fam, w)))
    checks["expansion_margin"] = {"margin": exp_margin, "pass": exp_margin > 0,
                                  "samples": n_samples}

    xs = np.geomspace(fam.ln_r0 + 1.0, 1e6, 200)
    bound, c0 = branch_growth_bound(fam, xs)
    re_vals = np.real(np.asarray(fam.inv0(xs.astype(complex))))
    growth_slack = float(np.max(re_vals - bound))
    checks["branch_growth_bound"] = {
        "max_excess": growth_slack, "pass": growth_slack <= 1e-9, "c0": c0}

    # powers of ten from the first above ln R0 (10 for |lam| < e^9) to 1e12
    k0 = next(k for k in itertools.count(1) if 10.0 ** k > fam.ln_r0)
    grid = [10.0 ** k for k in range(k0, 13)]
    rep = check_growth(fam, grid, thresholds=[fam.ln_r0 + 2.0 * budget.inset])
    checks["branch_growth_to_infinity"] = {
        "strictly_increasing": rep.strictly_increasing,
        "first_past_threshold": rep.threshold_hits[0][1],
        "pass": rep.strictly_increasing and rep.threshold_hits[0][1] is not None}

    lines = trace_level_lines(fam, spec, budget)
    min_margin = min(lines.min_re_margins) if lines.min_re_margins else math.inf
    checks["level_lines"] = {
        "curve_count": lines.curve_count,
        "required_count": lines.required_count,
        "min_component_length": lines.min_component_length,
        "required_length": lines.required_length,
        "min_inf_re_margin": min_margin,
        "pass": (lines.curve_count >= lines.required_count
                 and lines.min_component_length >= lines.required_length
                 and min_margin > 0)}

    depth_direct = math.log(fam.envelope(spec.outer.bounds()).d_lo) - fam.ln_r0
    checks["first_level_in_half_plane"] = {"margin": depth_direct, "pass": depth_direct > 0}

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lemmas",
        "config": cfg.resolved,
        "distortion_c": dist.c,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }
    write_json(out_path, report)
    return 0


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------

def cmd_dim(cfg: RunConfig, out_path: str) -> int:
    cert = certify_dim_gt_one(cfg.family, cfg.anchor, cfg.budget, bisect_tol=cfg.bisect_tol)
    payload = cert.to_json_dict(include_timing=cfg.timing)
    payload["schema_version"] = SCHEMA_VERSION
    payload["command"] = "dim"
    payload["config"] = cfg.resolved
    write_json(out_path, payload)
    if cfg.timing:
        print(f"certificate: {cert.verdict} in {cert.runtime_ms:.1f} ms", file=sys.stderr)
    return 0 if cert.certified else 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_path: str) -> int:
    fam = cfg.family
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, spec)
    sample = sample_limit_set(fam, gset, spec, depth=cfg.depth, count=cfg.count,
                              seed=cfg.seed)
    proj = project_to_plane(fam, sample)

    lifted, plane = sample.points, proj.points
    spaces = ["plane_logpolar" if lp else "plane" for lp in proj.log_polar.tolist()]
    n = write_csv(out_path, ["re", "im", "space", "depth", "word_rank"], [
        lifted.real.tolist() + plane.real.tolist(), lifted.imag.tolist() + plane.imag.tolist(),
        ["lifted"] * sample.count + spaces, [cfg.depth] * (2 * sample.count),
        sample.word_ranks.tolist() * 2])
    print(f"wrote {n} rows; conjugacy checked on {proj.conjugacy_checked} of {sample.count} rows",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_box_dim(cfg: RunConfig, out_path: str) -> int:
    source = cfg.oracle.get("source", "middle-thirds")
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
    fam = cfg.family
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, spec)
    k = int(cfg.oracle.get("subsystem", 8))
    letters = gset.letters_by_weight(k)
    if len(letters) < k:
        raise ConstructionError(f"G holds {gset.n_letters} letters; the subsystem needs {k}")
    if max(abs(s) for _, s in letters) > sys.float_info.max / TWO_PI:
        raise ConstructionError("the subsystem's letters pass the float range")
    sub = _subsystem(fam, letters, spec)
    t = float(cfg.oracle.get("t", 1.0))
    n = int(cfg.oracle.get("word_length", 2))
    brute = oracle_mod.brute_force_pressure(fam, letters, spec, n=n, t=t)
    p_lo, p_hi = pressure_bounds(sub, t)
    # the brute value lies in [p_lo, p_hi] exactly; eps covers float rounding
    eps = 1e-12 * (1.0 + abs(brute.value))
    ok = (p_lo - eps) <= brute.value <= (p_hi + eps)
    report = {
        "schema_version": SCHEMA_VERSION, "command": "oracle brute-pressure",
        "config": cfg.resolved, "letters": [list(l) for l in letters],
        "word_length": n, "t": t, "brute_value": brute.value,
        "level1_lo": p_lo, "level1_hi": p_hi, "slack_log": eps,
        "pass": bool(ok),
    }
    write_json(out_path, report)
    return 0 if ok else 3


def _nonempty_G(fam, cfg: RunConfig, spec):
    """The admissible set a command works on; an empty G is a negative outcome."""
    gset = build_G(fam, cfg.anchor, spec, cfg.budget)
    if gset.is_empty():
        raise ConstructionError("admissible set G is empty at this configuration")
    return gset


def _subsystem(fam, letters, spec):
    from .pressure import WeightedSystem
    sigma = np.log(TWO_PI) + np.log(np.abs(np.asarray([s for (_, s) in letters], dtype=float)))
    lo, hi = fam.envelope(spec.outer.bounds()).log_weight_bounds(sigma)
    return WeightedSystem(log_lo=lo, log_hi=hi)


def _oracle_recheck(cfg: RunConfig, out_path: str) -> int:
    fam = cfg.family
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, spec)
    rep = oracle_mod.recheck_gset(fam, gset, spec, cfg.budget,
                                  density=int(cfg.oracle.get("density", 10)),
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


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for every later
    `main` call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config path")
    common.add_argument("--out", default=None, help="output report path")
    common.add_argument("--mode", choices=["enumerate", "tail"], default=None,
                        help="accepted and echoed; no effect")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--workers", type=int, default=None, help="accepted; no effect")
    p = argparse.ArgumentParser(prog="tractdim",
                                description="dimension certificates for Cantor "
                                            "repellers over logarithmic tracts")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("lemmas", "dim", "sample"):
        sub.add_parser(name, parents=[common])
    so = sub.add_parser("oracle", parents=[common])
    so.add_argument("oracle_command", choices=["box-dim", "brute-pressure", "recheck"])
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        base = DEFAULT_CERTIFICATE_CONFIG if args.command == "dim" else DEFAULT_SMALL_CONFIG
        cfg = _read_config(args.config, base)
        if args.mode is not None:
            cfg.mode = args.mode
            cfg.resolved["pressure"]["mode"] = args.mode
        if args.seed is not None:
            cfg.seed = _require_seed(args.seed)
            cfg.resolved["sampling"]["seed"] = args.seed
        out = args.out or f"tractdim_{args.command.replace(' ', '_')}.json"
        if args.command == "lemmas":
            return cmd_lemmas(cfg, out)
        if args.command == "dim":
            return cmd_dim(cfg, out)
        if args.command == "sample":
            out = args.out or "tractdim_sample.csv"
            return cmd_sample(cfg, out)
        if args.command == "oracle":
            sub = {"box-dim": _oracle_box_dim,
                   "brute-pressure": _oracle_brute_pressure,
                   "recheck": _oracle_recheck}[args.oracle_command]
            return sub(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, GeometryError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"construction: {exc}", file=sys.stderr)
        return 2
    except (NumericError,) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except TractdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
