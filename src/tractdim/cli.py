"""Command-line front end.

Subcommands: lemmas, dim, sample, oracle {box-dim, brute-pressure,
recheck}.  All reports are canonical JSON (sorted keys, repr floats) with
`schema_version` (5), `command` and the fully resolved `config`, so a
rerun with the same config is byte-identical.  Beside these a report
carries results only, never a copy of its config or a constant.  `dim`
writes C, P1_lo, the Bowen bracket t_lo and t_hi, verdict, runtime_ms
(null unless `timing`), diagnostics (n_segments, bowen_capped and
bowen_evaluations) and reasons; for an empty G, C = 1.0, P1_lo = -inf,
t_lo = t_hi = 0 and the diagnostics are only n_segments.  It certifies
exactly when it lists no reason; the two reasons are an empty G and
P_lo(1) <= 0 (P_lo <= P and P decreases, so P_lo(1) > 0 puts the root
above 1).  Each end of the Bowen bracket is an evaluated point within 4
ulp of one of the opposite sign (`bowen_root`), so t_lo >= 1 on every
certified report, and it reads 1.0 only where the root lies within 4
ulp of 1, where the bracket itself shows it.  The certificate reads Q
alone: the anchor-derivative (eq1) and tract-depth conditions,
`geometry.epsilon` and `geometry.inset` enter neither G nor the bounds,
so they are `lemmas` checks and change no `dim` result it writes.  But
every command builds its squares from the inset, which rejects an
anchor/4 below it (`build_squares`): at the default inset 0.5 `dim`
exits 1 at anchor 1.5 ("anchor/4 = 0.375 must not be below the inset
0.5"), and 2, on an empty G, at anchor 2.  Exit codes: 0
success or certified, 1 configuration error, 2 negative
construction/certification outcome, 3 numeric or oracle failure.  A
report that cannot be written (an `--out` in a missing directory, or a
directory) exits 1 for every command, with one stderr line
`cannot write report: <reason>`.  `--out /dev/null`, and `--out
/dev/stdout` into a pipe, exit 0.

Only `sample` and the three `oracle` commands load numpy, through
`cantor_ifs` and `oracle`.  `dim` and `lemmas` run on `math` and `cmath`
at any anchor, an "auto" one too (`load_config`, `find_radius`,
`build_G`, `build_weighted_system`, `bowen_root`, `trace_level_lines`,
`write_json`); a function taking numpy arrays imports it when called.

`dim`'s C and `lemmas`' `distortion_c` are K = exp(`log_distortion_bound`),
one bounded-distortion constant for every word of G on Q (16.92 at the
default certificate): finite wherever G is non-empty, 1.0 for an empty
G.  `lemmas` builds G for K alone, which enters neither G, nor the
pressure bounds, nor any oracle.  Every G-based command exits 2 on
an empty admissible set G; the two oracles say "admissible set G is
empty".  `oracle brute-pressure` needs no distortion constant: every
intermediate point of a word lies in Q, so its brute value must lie in
the level-1 bracket [P_lo, P_hi] of its letters, up to a float-rounding
slack 1e-12 * (1 + |value|) (the report's `slack_log`); outside it, the
command exits 3.  It exits 2 when G lists fewer letters than its
subsystem (it says how many).  At lam = 0.01, R0 = e, anchor 3.3 it
exits 0.  It sums each word's derivative in logs, so it also exits 0
where the derivatives underflow as floats, as at anchor 800, inset 3
(value -404.42 in [-405.06, -403.91]).  It and its bracket take
ln(2*pi*|s|) on the int, so it exits 0 at the default certificate
(-2006.04 in [-2006.67, -2005.52]) and at the anchor cap.  Reports write
ints past 4,300 digits as hex strings, `hex(n)` (`n_checked` from anchor
about 8000, brute-pressure's letters from about 19,800).

`lemmas` traces the level lines in closed form at any anchor: at anchor
4000, inset 3 it exits 0 with `all_pass` true.  Its expansion and growth
margins are closed forms too, not samples: the infimum 4*pi*(ln R0 - Re
Log(lam)) of 4*pi*|F'| - (Re F - ln R0), and the excess 0 of Re F_inv_s
over the growth bound, attained at x = ln R0 + 1.  So no lemma depends on
the seed.  Where the anchor line is not right of Log(lam) (lam = 3, R0 =
e, anchor 3), the lines are not branch preimages, and `level_lines`
fails with `min_inf_re_margin` NaN.  Its growth to infinity is a closed
form as well: Re F_inv_0(x) = ln|x - Log(lam)| rises for every x > Re
Log(lam), so along its grid, the powers of ten from the first above ln
R0 to 1e12, it is strictly increasing, and `first_past_threshold` is the
first grid index where ln|x - Log(lam)| passes ln R0 + 2*inset.  So it
also exits 0 at |lam| past e^9 (lam = 1e4, anchor 100).

G is the ints of its closed-form sigma windows; a cell outside them is
left out, not decided by sampling.  At lam = 0.01, R0 = e, anchor 4, G
holds |s| = 4..63 at u = 0 for each sign, and none of the cells (0, +-1)
and (0, +-2), whose 2*pi*|s| lies below the envelope constant b: `dim`
reports not-certified with the Bowen bracket [0.6438, 0.7088] and exits
2; `sample`, `oracle recheck`, `oracle brute-pressure` and `lemmas` exit
0.

The config (schema 5) sets `family` (kind, lambda_re, lambda_im, r0),
`geometry` (anchor, epsilon, inset, scan), `pressure` (collar, mode),
`sampling` (count, depth, seed), `oracle` (density, source, subsystem,
t, word_length; path, space and scales for a CSV), `timing` and
`schema_version`.  Commands start from `DEFAULT_SMALL_CONFIG`, `dim`
with `DEFAULT_CERTIFICATE_CONFIG`'s overrides: anchor 4000 and its scan,
and tail mode (the inset stays 0.5).  G's cells lie in the closed square
Q, and `oracle.density` is the one sample count: `oracle recheck`
samples density x 256 boundary points of Q.  Schema 5 dropped the
Bowen root's tolerance from `pressure`, as the root brackets to within 4
ulp; ROADMAP items 9 and 11 extend schema 5 rather than bumping it again.

`geometry.anchor` may be "auto": `find_radius`'s first passing point of
`geometry.scan`, which the report's config echoes.  `geometry.inset` is a
number.  A config that is not a JSON object, a section that is not one, a
non-numeric `oracle.t` or inset, and an unreadable config or
`oracle.path` file are configuration errors (exit 1).  So are a key no
reader knows, named in the message (each section takes the keys of
`DEFAULT_SMALL_CONFIG`, `oracle` also path, space and scales, the top
level also schema_version), a `schema_version` other than the integer
`SCHEMA_VERSION` (5; a config without one is read as 5, and "x", 4, 6 or
true are rejected), a `geometry.anchor` at or below ln R0 of the
normalized family (which lifts R0 to e|lam| where |lam| >= R0; the
message names ln R0), since the anchor must lie in H, an anchor above
2^23 / 3 (about 2,796,202.67; the message names the cap), where Q
reaches Re = 1.5 * anchor > 2^22 (`MAX_Q_RE`), a `timing` that is
not a JSON bool, a count (`sampling.count` and `depth`, `oracle.density`,
`subsystem` and `word_length`) that is not an integer >= 1, and a
`sampling.seed` that is not an integer >= 0: 2.5 is rejected, not
truncated, and an integral float such as 1e4 is taken as an int, which
the report's config echoes.
So are, for `oracle box-dim` from a CSV, a file without numeric `re` and
`im` and a text `space` column, one with no rows of `oracle.space`, and
an `oracle.scales` that is not a list of numbers.  The `--seed` and `--mode` options are merged
into the config before it is loaded, so they are validated and echoed
as if the config file held them.  A seed never passes through a float:
`--seed 9007199254740993` (2^53 + 1) runs and echoes that seed.

That cap is the documented outcome for huge indices.  G's |s| reach
about e^(1.5 * anchor) / (2 pi), ints of any size, and the certificate's
cost grows with them without bound (0.7 s and a 200 MB peak at anchor
1e8, on a 2-core x86-64 VM).  Up to the cap it stays small: at anchor
2.79e6 `dim` certifies in about 20 ms and 21 MB, and `lemmas` exits 0
with `all_pass` true in about 1 ms; a larger anchor exits 1.

Every command reads G from its runs of indices shared by blocks of
columns, so `pressure.mode` and `pressure.collar` are validated (enumerate
or tail, a finite number) and have no effect, like the `--mode` and
`--workers` options.  They stay because `perfbench/workloads.py` passes
them.  `sample` and `oracle recheck` draw letters uniformly over all of
G: at lam = 1, R0 = e, inset 0.5, anchor 30 they and
`oracle brute-pressure` exit 0.
Words are int64 below 2^63 and Python ints past it; `sample` exits 2
only where 2*pi*|s| passes the float range, from anchor 474 at inset 3
and at the default certificate, which `oracle recheck` and
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

import argparse
import functools
import itertools
import json
import math
import sys
import warnings
from typing import NamedTuple

from .errors import (ConfigError, ConstructionError, DomainError, GeometryError,
                     NumericError, TractdimError)
from .loglift import MapFamily, exponential_family, normalize_family
from .numerics import TWO_PI, write_csv, write_json
from .pressure import certify_dim_gt_one, level1_sum
from .tractgeom import (GeometryBudget, anchor_derivative, anchor_derivative_margin,
                        anchor_line, build_G, build_squares, find_radius,
                        log_distortion_bound, trace_level_lines)

SCHEMA_VERSION = 5

# The largest Re of Q = [R/2, 3R/2] x [-R/2, R/2] a config may ask for,
# so anchors up to 2^23 / 3: the cap on huge indices (module docstring).
MAX_Q_RE = 2.0 ** 22

DEFAULT_SMALL_CONFIG = {
    "family": {"kind": "exponential", "lambda_re": 1.0, "lambda_im": 0.0, "r0": math.e},
    "geometry": {"epsilon": 0.1, "inset": 0.5, "anchor": 12.0, "scan": [8.0, 4000.0, 1.0]},
    "pressure": {"mode": "enumerate", "collar": 32},
    "sampling": {"depth": 8, "count": 10000, "seed": 42},
    "oracle": {"source": "middle-thirds", "density": 10, "subsystem": 8,
               "word_length": 2, "t": 1.0},
    "timing": False,
}

# Certificate scale, as overrides of DEFAULT_SMALL_CONFIG: at anchor 4000,
# P_lo(1) = 4.85 > 0, and the Bowen bracket is [1.0015175, 1.0019642].
DEFAULT_CERTIFICATE_CONFIG = {
    "geometry": {"anchor": 4000.0, "scan": [1000.0, 20000.0, 100.0]},
    "pressure": {"mode": "tail"},
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _require_finite(name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(float(value)):
        raise ConfigError(f"config field {name} must be a finite number, got {value!r}")
    return float(value)


def _require_count(name, value, least: int = 1) -> int:
    """An integer >= `least` (an integral float counts, as an int); anything
    else is rejected, not truncated."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < least:
        raise ConfigError(f"config field {name} must be an integer >= {least}, got {value!r}")
    return int(value)


_SECTIONS = ("family", "geometry", "pressure", "sampling", "oracle")


def _require_known_keys(raw: dict) -> None:
    """Reject a key that nothing reads.  A section takes the keys of its
    DEFAULT_SMALL_CONFIG section, and `oracle` also path, space and scales
    (box-dim from a CSV); the top level takes the sections, timing and
    schema_version, which every report's config echoes."""
    for key, value in raw.items():
        if key not in DEFAULT_SMALL_CONFIG and key != "schema_version":
            raise ConfigError(f"unknown config key {key!r}")
        if key in _SECTIONS:
            known = DEFAULT_SMALL_CONFIG[key].keys() | (
                {"path", "space", "scales"} if key == "oracle" else set())
            for sub in value:
                if sub not in known:
                    raise ConfigError(f"unknown config key '{key}.{sub}'")


class RunConfig(NamedTuple):
    family: MapFamily
    budget: GeometryBudget
    anchor: float            # resolved, never "auto" after load
    mode: str
    collar: int
    depth: int
    count: int
    seed: int
    oracle: dict
    timing: bool
    resolved: dict           # the config as every report echoes it
    bisect_tol: None = None  # read by perfbench/workloads.py alone; no effect


def load_config(raw: dict) -> RunConfig:
    """Validate a raw config dict and resolve an "auto" anchor before computing."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for section in _SECTIONS:
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"config section {section} must be a JSON object")
    _require_known_keys(raw)
    version = raw.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"config field schema_version must be {SCHEMA_VERSION}, "
                          f"got {version!r}")
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
    inset = _require_finite("inset", geo["inset"])
    anchor = geo["anchor"]
    budget = GeometryBudget(epsilon=epsilon, inset=inset)
    if anchor == "auto":
        anchor = find_radius(family, budget, *scan)
    anchor = _require_finite("anchor", anchor)
    if anchor <= family.ln_r0:
        # the anchor, Q's center, must lie in H = {Re z > ln R0}
        raise ConfigError(f"config field geometry.anchor must exceed ln R0 = "
                          f"{family.ln_r0!r}, got {anchor!r}")
    if 3.0 * anchor / 2.0 > MAX_Q_RE:
        # Q = [R/2, 3R/2] x [-R/2, R/2] reaches Re = 3R/2
        raise ConfigError(f"config field geometry.anchor must be at most 2^23 / 3 = "
                          f"{2.0 * MAX_Q_RE / 3.0:.2f}, where Q reaches Re = 1.5 * anchor = "
                          f"2^22, got {anchor!r}")
    mode = prs["mode"]
    if mode not in ("enumerate", "tail"):
        raise ConfigError(f"pressure.mode must be enumerate or tail, got {mode!r}")
    seed = _require_count("sampling.seed", smp["seed"], least=0)
    depth = _require_count("sampling.depth", smp["depth"])
    count = _require_count("sampling.count", smp["count"])
    for key in ("density", "subsystem", "word_length"):
        orc[key] = _require_count(f"oracle.{key}", orc[key])
    _require_finite("oracle.t", orc["t"])
    timing = raw.get("timing", False)
    if not isinstance(timing, bool):
        raise ConfigError(f"config field timing must be true or false, got {timing!r}")
    resolved = {
        "family": {"kind": "exponential", "lambda_re": lam.real, "lambda_im": lam.imag,
                   "r0": family.r0},
        "geometry": {"epsilon": epsilon, "inset": inset, "anchor": anchor,
                     "scan": list(scan)},
        "pressure": {"mode": mode, "collar": int(_require_finite("collar", prs["collar"]))},
        "sampling": {"depth": depth, "count": count, "seed": seed},
        "oracle": orc,
        "timing": timing,
        "schema_version": SCHEMA_VERSION,
    }
    return RunConfig(
        family=family, budget=budget, anchor=anchor, mode=mode,
        collar=resolved["pressure"]["collar"], depth=depth, count=count, seed=seed,
        oracle=orc, timing=timing, resolved=resolved)


def _read_config(path, base: dict, mode=None, seed=None) -> RunConfig:
    """`load_config` of `base`, merged with the file at `path`, then `--mode`
    and `--seed`."""
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
    for section, key, value in (("pressure", "mode", mode), ("sampling", "seed", seed)):
        # a section that is not an object is load_config's error to report
        if value is not None and isinstance(raw.get(section), dict):
            raw[section] = dict(raw[section], **{key: value})
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
    line = anchor_line(fam, cfg.anchor, budget.inset)
    checks = {}

    eq1_margin = anchor_derivative_margin(fam, cfg.anchor, budget.epsilon)
    checks["anchor_derivative_lower"] = {"margin": eq1_margin, "pass": eq1_margin > 0}

    eq4_margin = 4.0 * math.pi / (cfg.anchor - fam.ln_r0) - anchor_derivative(fam, cfg.anchor)
    checks["anchor_derivative_upper"] = {"margin": eq4_margin, "pass": eq4_margin > 0}

    checks["tract_depth"] = {"margin": line.depth_margin, "pass": line.depth_margin > 0,
                             "real_part": line.real_part}

    # 4 pi |F'(w)| - (Re F(w) - ln R0) = 4 pi |zeta - c| - Re zeta + ln R0 at
    # zeta = F(w), on every branch; its infimum over Re zeta > ln R0 is at
    # zeta = ln R0 + i Im c
    exp_margin = 4.0 * math.pi * (fam.ln_r0 - fam.log_lam.real)
    checks["expansion_margin"] = {"margin": exp_margin, "pass": exp_margin > 0}

    # Re F_inv_0(x) = ln|x - c| rises for every x > Re c, so along the powers
    # of ten from the first above ln R0 > Re c (10 for |lam| < e^9) to 1e12
    k0 = next(k for k in itertools.count(1) if 10.0 ** k > fam.ln_r0)
    grid = [10.0 ** k for k in range(k0, 13)]
    threshold = fam.ln_r0 + 2.0 * budget.inset
    first = next((i for i, x in enumerate(grid)
                  if math.log(abs(x - fam.log_lam)) > threshold), None)
    checks["branch_growth_to_infinity"] = {"first_past_threshold": first,
                                           "pass": first is not None}

    lines = trace_level_lines(fam, spec, budget)
    checks["level_lines"] = {
        "curve_count": lines.curve_count,
        "required_count": lines.required_count,
        "min_component_length": lines.min_component_length,
        "required_length": lines.required_length,
        "min_inf_re_margin": lines.min_re_margin,
        "pass": (lines.curve_count >= lines.required_count
                 and lines.min_component_length >= lines.required_length
                 and lines.min_re_margin > 0)}

    depth_direct = math.log(fam.envelope(spec.outer).d_lo) - fam.ln_r0
    checks["first_level_in_half_plane"] = {"margin": depth_direct, "pass": depth_direct > 0}
    log_k = log_distortion_bound(fam, build_G(fam, cfg.anchor, spec, budget), spec)

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
# dim
# ---------------------------------------------------------------------------

def cmd_dim(cfg: RunConfig, out_path: str) -> int:
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    cert = certify_dim_gt_one(cfg.family, spec)
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
    import numpy as np

    from .cantor_ifs import project_to_plane, sample_limit_set
    fam = cfg.family
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, spec)
    sample = sample_limit_set(fam, gset, spec, depth=cfg.depth, count=cfg.count,
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
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, spec)
    k = cfg.oracle["subsystem"]
    letters = gset.letters_by_weight(k)
    if len(letters) < k:
        raise ConstructionError(f"G holds {gset.n_letters} letters; the subsystem needs {k}")
    sub = _subsystem(fam, letters, spec)
    t = float(cfg.oracle["t"])
    n = cfg.oracle["word_length"]
    brute = oracle_mod.brute_force_pressure(fam, letters, spec, n=n, t=t)
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


def _nonempty_G(fam, cfg: RunConfig, spec):
    """The admissible set a command works on; an empty G is a negative outcome."""
    gset = build_G(fam, cfg.anchor, spec, cfg.budget)
    if gset.is_empty():
        raise ConstructionError("admissible set G is empty at this configuration")
    return gset


def _subsystem(fam, letters, spec):
    import numpy as np

    from .pressure import WeightedSystem
    # sigma = ln(2*pi*|s|) from the int, finite for indices of any size
    sigma = np.array([math.log(TWO_PI) + math.log(abs(s)) for (_, s) in letters])
    lo, hi = fam.envelope(spec.outer).log_weight_bounds(sigma)
    return WeightedSystem(log_lo=lo, log_hi=hi)


def _oracle_recheck(cfg: RunConfig, out_path: str) -> int:
    from . import oracle as oracle_mod
    fam = cfg.family
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    gset = _nonempty_G(fam, cfg, spec)
    rep = oracle_mod.recheck_gset(fam, gset, spec, cfg.budget,
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
        cfg = _read_config(args.config, base, mode=args.mode, seed=args.seed)
        out = args.out or f"tractdim_{args.command}.json"
        if args.command == "lemmas":
            return cmd_lemmas(cfg, out)
        if args.command == "dim":
            return cmd_dim(cfg, out)
        if args.command == "sample":
            return cmd_sample(cfg, args.out or "tractdim_sample.csv")
        sub = {"box-dim": _oracle_box_dim,
               "brute-pressure": _oracle_brute_pressure,
               "recheck": _oracle_recheck}[args.oracle_command]
        return sub(cfg, out)
    except (ConfigError, GeometryError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"construction: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except TractdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the report write: reading a file raises ConfigError
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
