"""The benchmark's workloads.

One op is one full pass of a workload.  `op(step)` runs it and passes
each timed piece of work through `step(fn, *args)`.  `check` lists the
documented outcomes or invariants an op's output breaks (an empty list
means the op is correct); `digest` is the bytes every op of a run must
reproduce; `bounds` gives the four certificate-bound metrics, computed
once after timing.

Each workload resolves its configuration from the CLI's own defaults
(`setup_config`), which is also what the set-up probe times.  The
`tractdim` modules are imported lazily so that importing this file costs
nothing the set-up probe would count.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path


def _cli():
    from tractdim import cli
    return cli


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _read_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _small_config(mode: str):
    """The CLI's small (anchor-12) config in the given pressure mode."""
    cli = _cli()
    raw = copy.deepcopy(cli.DEFAULT_SMALL_CONFIG)
    raw["pressure"]["mode"] = mode
    return cli.load_config(raw)


def bound_metrics(cfg, with_root: bool) -> dict:
    """Level-1 sum at t=1 and (optionally) the Bowen root for one config,
    through the library API: the reference for the bound metrics."""
    from tractdim.pressure import bowen_root, build_weighted_system, level1_sum
    from tractdim.tractgeom import build_G, build_squares, distortion_constant
    spec = build_squares(cfg.anchor, cfg.budget.inset)
    dist = distortion_constant(cfg.anchor, cfg.family.ln_r0)
    gset = build_G(cfg.family, cfg.anchor, spec, cfg.budget, mode=cfg.mode, dist=dist,
                   collar=cfg.collar, workers=1)
    system = build_weighted_system(cfg.family, gset, spec, dist)
    s1 = level1_sum(system, 1.0)
    out = {"p1_lo": s1.log_lo, "p1_hi": s1.log_hi}
    if with_root:
        roots = bowen_root(system, tol=cfg.bisect_tol)
        out.update(t_lo=roots.t_lo, t_hi=roots.t_hi)
    return out


def _bound_problems(b: dict) -> list:
    problems = []
    if not b["p1_lo"] <= b["p1_hi"]:
        problems.append(f"P_lo(1) = {b['p1_lo']!r} > P_hi(1) = {b['p1_hi']!r}")
    if "t_lo" in b and not b["t_lo"] <= b["t_hi"]:
        problems.append(f"Bowen t_lo = {b['t_lo']!r} > t_hi = {b['t_hi']!r}")
    return problems


def _metrics_from(b: dict) -> dict:
    return {"t_lo": b["t_lo"], "bowen_width": b["t_hi"] - b["t_lo"],
            "sum1_lo": math.exp(b["p1_lo"]), "p1_width": b["p1_hi"] - b["p1_lo"]}


class Cert4000:
    """`tractdim dim` with its default config (anchor 4000, tail mode).

    The certificate has no random input, so this workload does not
    depend on the seed.
    """

    name = "cert-4000"

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "dim.json"

    @staticmethod
    def setup_config():
        cli = _cli()
        return cli.load_config(copy.deepcopy(cli.DEFAULT_CERTIFICATE_CONFIG))

    def op(self, step):
        rc = step(_cli().main, ["dim", "--workers", "1", "--out", str(self.out)])
        return {"rc": rc, "report": self.out.read_bytes()}

    def check(self, out) -> list:
        if out["rc"] != 0:
            return [f"dim exit code {out['rc']}, want 0 (certified)"]
        rep = _read_json(out["report"])
        problems = []
        if rep["verdict"] != "certified":
            problems.append(f"verdict {rep['verdict']!r}")
        if not rep["t_lo"] >= 1.001:
            problems.append(f"t_lo = {rep['t_lo']!r} < 1.001")
        if not rep["t_lo"] <= rep["t_hi"]:
            problems.append(f"t_lo = {rep['t_lo']!r} > t_hi = {rep['t_hi']!r}")
        return problems

    def digest(self, out) -> bytes:
        return out["report"]

    def bounds(self, out):
        rep = _read_json(out["report"])
        ref = bound_metrics(self.setup_config(), with_root=False)
        b = {"t_lo": rep["t_lo"], "t_hi": rep["t_hi"], "p1_lo": rep["P1_lo"],
             "p1_hi": ref["p1_hi"]}
        return _metrics_from(b), _bound_problems(b)


class Enum12:
    """The anchor-12 enumerate construction through the library API."""

    name = "enum-12"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = self.setup_config()

    @staticmethod
    def setup_config():
        return _small_config("enumerate")

    def op(self, step):
        from tractdim.oracle import recheck_gset
        from tractdim.pressure import build_weighted_system, level1_sum
        from tractdim.tractgeom import build_G, build_squares, distortion_constant, min_cell_gap
        cfg = self.cfg
        fam = cfg.family

        def construct():
            spec = build_squares(cfg.anchor, cfg.budget.inset)
            dist = distortion_constant(cfg.anchor, fam.ln_r0)
            return spec, dist, build_G(fam, cfg.anchor, spec, cfg.budget, mode="enumerate",
                                       dist=dist, workers=1)

        spec, dist, gset = step(construct)
        s1 = step(lambda: level1_sum(build_weighted_system(fam, gset, spec, dist), 1.0))
        gap = step(min_cell_gap, fam, gset, spec)
        rep = step(recheck_gset, fam, gset, spec, cfg.budget,
                   density=int(cfg.oracle.get("density", 10)), seed=self.seed)
        return {"letters": gset.n_explicit, "windows": len(gset.windows),
                "p1_lo": s1.log_lo, "p1_hi": s1.log_hi,
                "min_gap": gap.min_gap, "column_separation": gap.column_separation,
                "n_checked": rep.n_checked, "n_densely_sampled": rep.n_densely_sampled,
                "n_flagged": rep.n_flagged, "min_margin": rep.min_margin}

    def check(self, out) -> list:
        problems = _bound_problems(out)
        if out["n_flagged"] != 0:
            problems.append(f"recheck flagged {out['n_flagged']} cells")
        return problems

    def digest(self, out) -> bytes:
        return _canonical(out)

    def bounds(self, out):
        b = dict(bound_metrics(_small_config("tail"), with_root=True),
                 p1_lo=out["p1_lo"], p1_hi=out["p1_hi"])
        return _metrics_from(b), _bound_problems(b)


class Inspect12:
    """The small-config inspection commands in tail mode, through the CLI."""

    name = "inspect-12"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.paths = {k: workdir / f"{k}.{ext}" for k, ext in
                      (("lemmas", "json"), ("sample", "csv"), ("recheck", "json"),
                       ("box-dim", "json"))}
        self.count = self.setup_config().count

    @staticmethod
    def setup_config():
        return _small_config("tail")

    def _commands(self) -> dict:
        main = _cli().main
        common = ["--seed", str(self.seed), "--workers", "1"]
        argv = {"lemmas": ["lemmas"],
                "sample": ["sample", "--mode", "tail"],
                "recheck": ["oracle", "recheck", "--mode", "tail"],
                "box-dim": ["oracle", "box-dim"]}
        return {key: main(args + common + ["--out", str(self.paths[key])])
                for key, args in argv.items()}

    def op(self, step):
        rcs = step(self._commands)
        return {key: (rc, self.paths[key].read_bytes()) for key, rc in rcs.items()}

    def check(self, out) -> list:
        problems = [f"{k} exit code {rc}, want 0" for k, (rc, _) in out.items()
                    if rc != 0 and k != "box-dim"]
        if problems:
            return problems
        if not _read_json(out["lemmas"][1])["all_pass"]:
            problems.append("lemmas: all_pass is false")
        rows = out["sample"][1].count(b"\n") - 1
        if rows != 2 * self.count:
            problems.append(f"sample: {rows} rows, want {2 * self.count}")
        if not _read_json(out["recheck"][1])["pass"]:
            problems.append("recheck: pass is false")
        # box-dim's verdict is statistical: the slope of one random sample
        # misses the fixed tolerance for some seeds (6, 13, 16, ...), so a
        # correct counter may report "pass": false.  Check instead that the
        # verdict and exit code are the documented ones for the slope found.
        rc, box = out["box-dim"][0], _read_json(out["box-dim"][1])
        within = abs(box["slope"] - box["expected"]) <= box["tolerance"]
        if box["pass"] != within or rc != (0 if within else 3):
            problems.append(f"box-dim: pass={box['pass']} and exit code {rc} "
                            f"for slope {box['slope']!r}")
        return problems

    def digest(self, out) -> bytes:
        return b"\0".join(data for _, data in out.values())

    def bounds(self, out):
        b = bound_metrics(self.setup_config(), with_root=True)
        return _metrics_from(b), _bound_problems(b)


WORKLOADS = {w.name: w for w in (Cert4000, Enum12, Inspect12)}
