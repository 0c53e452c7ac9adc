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
every command builds Q with `build_squares`, which rejects an anchor/4
below the inset: at the default inset 0.5 `dim` exits 1 at anchor 1.5
("anchor/4 = 0.375 must not be below the inset 0.5"), and 2, on an
empty G, at anchor 2.  Exit codes: 0 success or certified, 1
configuration error, 2 negative construction/certification outcome, 3
numeric or oracle failure.  A report that cannot be written (an `--out`
in a missing directory, or a directory) exits 1 for every command,
with one stderr line `cannot write report: <reason>`.  `--out
/dev/null`, and `--out /dev/stdout` into a pipe, exit 0.

Only `sample` and the three `oracle` commands load numpy, through
`cantor_ifs` and `oracle`.  `dim` and `lemmas` run on `math` and `cmath`
at any anchor, an "auto" one too (`load_config`, `find_radius`,
`build_G`, `build_weighted_system`, `bowen_root`, `trace_level_lines`,
`write_json`); a function taking numpy arrays imports it when called.
Every command but `dim` runs from `commands`, which `main` imports for
it, and `load_config` imports `lemmas` for an "auto" anchor alone, so
`dim` at a numeric anchor compiles neither.

`dim`'s C and `lemmas`' `distortion_c` are K = exp(`log_distortion_bound`),
one bounded-distortion constant for every word of G on Q (16.92 at the
default certificate): finite wherever G is non-empty, 1.0 for an empty
G.  `lemmas` builds G for K alone, which enters neither G, nor the
pressure bounds, nor any oracle.  Every G-based command exits 2 on
an empty admissible set G; the two oracles say "admissible set G is
empty".  Reports write ints past 4,300 digits as hex strings, `hex(n)`
(`n_checked` from anchor about 8000, brute-pressure's letters from about
19,800).

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

`geometry.anchor` is a number or "auto" (`lemmas.find_radius`), and
`geometry.inset` is a number.  A config that is not a JSON object, a
section that is not one, a non-numeric `oracle.t` or inset, and an
unreadable config or `oracle.path` file are configuration errors (exit
1).  So are a key no
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
them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

from .errors import (ConfigError, ConstructionError, DomainError, GeometryError,
                     NumericError, TractdimError)
from .loglift import MapFamily, exponential_family, normalize_family
from .numerics import write_json
from .pressure import certify_dim_gt_one
from .tractgeom import GeometryBudget, build_squares

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
        from .lemmas import find_radius
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
# dim
# ---------------------------------------------------------------------------

def cmd_dim(cfg: RunConfig, out_path: str) -> int:
    cert = certify_dim_gt_one(cfg.family, build_squares(cfg.anchor, cfg.budget.inset))
    payload = cert.to_json_dict(include_timing=cfg.timing)
    payload["schema_version"] = SCHEMA_VERSION
    payload["command"] = "dim"
    payload["config"] = cfg.resolved
    write_json(out_path, payload)
    if cfg.timing:
        print(f"certificate: {cert.verdict} in {cert.runtime_ms:.1f} ms", file=sys.stderr)
    return 0 if cert.certified else 2


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
        if args.command == "dim":
            return cmd_dim(cfg, out)
        from . import commands
        if args.command == "lemmas":
            return commands.cmd_lemmas(cfg, out)
        if args.command == "sample":
            return commands.cmd_sample(cfg, args.out or "tractdim_sample.csv")
        return commands.ORACLES[args.oracle_command](cfg, out)
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
