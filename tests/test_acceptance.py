"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with -s to see the lines; every tolerance is pinned here, nothing is
deferred to calibration.  The heavyweight small-instance construction
(the fully enumerated admissible set at anchor 12) is built once per
module and shared between the criteria that need it.
"""

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tractdim as td
from conftest import column_window, window_s_bounds
from tractdim.cli import main as cli_main
from tractdim.numerics import TWO_PI
from tractdim.pressure import WeightedSystem, build_weighted_system


def _line(num: int, ok: bool, text: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {text}", flush=True)
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def full12(fam):
    """The fully enumerated admissible set at anchor 12 (criterion 4/5 scale)."""
    budget = td.GeometryBudget(epsilon=0.1, inset=0.5)
    spec = td.build_squares(12.0, 0.5)
    dist = td.distortion_constant(12.0, fam.ln_r0)
    t0 = time.perf_counter()
    gset = td.build_G(fam, 12.0, spec, budget, mode="enumerate", dist=dist)
    build_seconds = time.perf_counter() - t0
    return SimpleNamespace(family=fam, budget=budget, spec=spec, dist=dist,
                           gset=gset, build_seconds=build_seconds)


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_conjugacy_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (1.0, 2.5):
        f = td.normalize_family(td.exponential_family(lam, math.e))
        rng = np.random.default_rng(101)
        for s in range(-3, 4):
            zeta = f.ln_r0 + 0.2 + 19.8 * rng.random(1000) \
                + 1j * (rng.random(1000) * 60.0 - 30.0)
            w, _ = td.inv_branch(f, s, zeta)
            lhs = f.plane_map(np.exp(w))
            rhs = np.exp(np.asarray(f.lift(w)))
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    elapsed = time.perf_counter() - t0
    _line(1, worst <= 1e-9 and elapsed < 1.0,
          f"conjugacy residual {worst:.3g} <= 1e-9 on 1e3 pts/tract, |s|<=3, "
          f"lam in {{1, 2.5}} in {elapsed:.2f}s < 1s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_derivative_suite(fam, mini):
    rng = np.random.default_rng(102)
    zeta = fam.ln_r0 + 0.5 + 25.0 * rng.random(1000) \
        + 1j * (rng.random(1000) * 40.0 - 20.0)
    worst_branch = max(
        td.fd_derivative_check(lambda z: td.inv_branch(fam, s, z), zeta)
        for s in (-2, 0, 3))
    letters = mini.gset.letters_by_weight(4)
    word = [letters[0], letters[2], letters[1]]
    z0 = mini.spec.outer.center
    samples = z0 + 0.4 * (rng.random(60) - 0.5) + 0.4j * (rng.random(60) - 0.5)
    worst_cyl = td.fd_derivative_check(
        lambda z: td.cylinder_eval(mini.family, word, z), samples)
    _line(2, worst_branch <= 1e-6 and worst_cyl <= 1e-5,
          f"finite differences: branches {worst_branch:.2g} <= 1e-6, "
          f"depth-3 cylinders {worst_cyl:.2g} <= 1e-5")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_lemma_margins(fam, fam25, tmp_path):
    """The lemma report's expansion and growth margins are closed forms;
    samples of the lift on 1e4 points of H over branches |s| <= 3, and of
    Re F_inv_s up to x = 1e6, never pass them (within 1e-9)."""
    out = tmp_path / "lemmas.json"
    assert cli_main(["lemmas", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]

    rng = np.random.default_rng(103)
    zeta = fam.ln_r0 + 0.1 + 30.0 * rng.random(10_000) \
        + 1j * (rng.random(10_000) * 100.0 - 50.0)
    w = np.asarray(fam.inv0(zeta)) + TWO_PI * 1j * (np.arange(10_000) % 7 - 3)
    sampled = 4.0 * math.pi * np.abs(fam.lift_deriv(w)) - (np.real(fam.lift(w)) - fam.ln_r0)
    closed = 4.0 * math.pi * (fam.ln_r0 - fam.log_lam.real)
    lemma2_ok = (checks["expansion_margin"]["margin"] == closed > 0
                 and bool(np.all(sampled >= closed - 1e-9)))

    max_excess = -math.inf
    for f in (fam, fam25):
        xs = np.geomspace(f.ln_r0 + 1.0, 1e6, 500)
        c0 = td.anchor_line(f, 12.0, 0.5).c0
        re_vals = np.real(np.asarray(f.inv0(xs.astype(complex))))  # same for every branch
        bound = 4.0 * math.pi * np.log(xs - f.ln_r0) + c0
        max_excess = max(max_excess, float(np.max(re_vals - bound)))
    cor_ok = max_excess <= 1e-9

    eq1_margins = []
    for r in (12.0, 4000.0):
        eq1_margins.append(
            float(abs(complex(np.asarray(fam.inv0_deriv(complex(r))).item()))
                  - r ** (-1.1)))
    _line(3, lemma2_ok and cor_ok and all(m > 0 for m in eq1_margins),
          f"expansion margin {closed:.3g} > 0 in closed form, sampled minimum "
          f"{float(np.min(sampled)):.3g} at 1e4 points; growth excess "
          f"{max_excess:.2g} <= 1e-9 to x = 1e6; anchor-derivative margins "
          f"{[f'{m:.3g}' for m in eq1_margins]} > 0")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_small_instance_construction(full12):
    t0 = time.perf_counter()
    g, fam, spec, budget, dist = (full12.gset, full12.family, full12.spec,
                                  full12.budget, full12.dist)
    nonempty = g.n_letters > 0

    recheck = td.recheck_gset(fam, g, spec, budget, density=10, dense_sample=2000)
    all_recheck = recheck.n_flagged == 0 and recheck.n_checked == g.n_letters

    # measured diameters against the distortion-certified bound, on a
    # deterministic stratified subsample
    eq5_bound = spec.outer.diam * 4.0 * math.pi * dist.c / (12.0 - fam.ln_r0)
    pts = spec.outer.boundary_points(256)
    base = np.asarray(fam.inv0(pts))
    diam_ok = True
    ranks = np.unique(np.geomspace(1, g.n_letters - 1, 200).astype(np.int64))
    us, ss = g.letters(ranks)
    for u, s in zip(us.tolist(), ss.tolist()):
        imgs = np.asarray(fam.inv0(base + TWO_PI * 1j * s)) + TWO_PI * 1j * u
        measured = float(np.max(np.abs(imgs[:, None] - imgs[None, :])))
        diam_ok = diam_ok and measured <= eq5_bound
    gaps = td.min_cell_gap(fam, g, spec)
    gaps_ok = gaps.min_gap > 0 and gaps.column_separation > 0

    # analytic windows bracket every column's run within one index
    bracket_ok = True
    for run in g.runs:
        s_min, s_max = sorted((abs(run.s_lo), abs(run.s_hi)))
        for u in range(run.u_lo, run.u_hi + 1):
            lo, hi = window_s_bounds(column_window(fam, u, spec,
                                                   sign=1 if run.s_lo > 0 else -1))
            bracket_ok = bracket_ok and abs(s_min - math.ceil(lo - 1e-9)) <= 1 \
                and abs(s_max - math.floor(hi + 1e-9)) <= 1
    elapsed = time.perf_counter() - t0 + full12.build_seconds
    _line(4, nonempty and all_recheck and diam_ok and gaps_ok and bracket_ok
          and elapsed < 60.0,
          f"anchor-12 construction: {g.n_letters} cells, recheck flags "
          f"{recheck.n_flagged}, diameters within {eq5_bound:.4g}, min gap "
          f"{gaps.min_gap:.3g} > 0, windows bracket enumeration, "
          f"{elapsed:.1f}s < 60s")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_cross_mode_sum_agreement(full12):
    win = column_window(full12.family, 0, full12.spec, sign=1)
    cmp = td.compare_window_modes(full12.family, full12.spec, *win, t=1.0)
    ok = (cmp.consistent and cmp.rel_width_lo <= 0.01 and cmp.rel_width_hi <= 0.01)
    _line(5, ok,
          f"level-1 sums at t=1 on the shared sigma window: enumerated "
          f"{cmp.enum_lo:.6g}/{cmp.enum_hi:.6g} inside the run-sum brackets, "
          f"relative widths {cmp.rel_width_lo:.2%}/{cmp.rel_width_hi:.2%} <= 1%")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_certificate_run(fam, tmp_path):
    t0 = time.perf_counter()
    cert = td.certify_dim_gt_one(fam, 4000.0, td.GeometryBudget(epsilon=0.1, inset=3.0),
                                 bisect_tol=1e-4)
    elapsed = time.perf_counter() - t0
    out = str(tmp_path / "cert.json")
    code = cli_main(["dim", "--out", out])
    tuning = math.exp(cert.p1_lo) / cert.c
    ok = (cert.verdict == "certified" and cert.p1_lo > 0 and cert.t_lo >= 1.001
          and tuning >= 1.1 and code == 0 and elapsed < 60.0)
    _line(6, ok,
          f"certificate at anchor 4000: P_lo(1) = {cert.p1_lo:.4f} > 0, "
          f"t_lo = {cert.t_lo:.6f} >= 1.001, sum/C = {tuning:.2f} >= 1.1, "
          f"exit 0, {elapsed:.1f}s < 60s")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_bowen_solver_oracles():
    single = td.bowen_root(WeightedSystem.from_uniform([0.6]))
    quarters = td.bowen_root(WeightedSystem.from_uniform([0.25, 0.25]))
    thirds = td.bowen_root(WeightedSystem.from_uniform([1 / 3, 1 / 3]))
    t3 = math.log(2) / math.log(3)
    ok = (single.t_lo == 0.0 and single.t_hi == 0.0
          and abs(quarters.t_lo - 0.5) <= 1e-3 and abs(quarters.t_hi - 0.5) <= 1e-3
          and abs(thirds.t_lo - t3) <= 1e-3 and abs(thirds.t_hi - t3) <= 1e-3)
    _line(7, ok,
          f"Bowen roots: single -> 0 exactly, quarters -> "
          f"[{quarters.t_lo:.5f}, {quarters.t_hi:.5f}] ~ 0.5, thirds -> "
          f"[{thirds.t_lo:.6f}, {thirds.t_hi:.6f}] ~ 0.630930, all within 1e-3")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_dimension_cross_check(small):
    fam, spec, dist = small.family, small.spec, small.dist
    letters = small.gset.letters_by_weight(8)
    env = fam.envelope(spec.outer.bounds())
    sigma = np.log(TWO_PI) + np.log(np.abs(np.array([s for _, s in letters], dtype=float)))
    lo, hi = env.log_weight_bounds(sigma)
    sub = WeightedSystem(log_lo=lo, log_hi=hi)
    roots = td.bowen_root(sub, tol=1e-4)

    from tractdim.tractgeom import GSet, RunBlock
    g8 = GSet(runs=tuple(sorted(RunBlock(u, u, s, s) for (u, s) in letters)))
    sample = td.sample_limit_set(fam, g8, spec, depth=10, count=60_000, seed=7)

    # oracle-side contraction scale from the letters' return multipliers
    rats = [1.0 / abs(td.cylinder_fixed_point(fam, [l], spec)[1]) for l in letters]
    rbar = float(np.exp(np.mean(np.log(rats))))
    pts = sample.points
    diam = float(np.hypot(np.ptp(pts.real), np.ptp(pts.imag)))
    scales = [diam * rbar ** k for k in (1, 1.5, 2, 2.5, 3, 3.5, 4)]
    est = td.box_counting_dim(pts, scales)
    lo_win, hi_win = roots.t_lo - 0.07, roots.t_hi + 0.07
    ok = lo_win <= est.slope <= hi_win
    _line(8, ok,
          f"box-counting slope {est.slope:.4f} of the depth-10 sample lies in "
          f"[{lo_win:.4f}, {hi_win:.4f}] around Bowen interval "
          f"[{roots.t_lo:.4f}, {roots.t_hi:.4f}]")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_pressure_monotonicity(fam, small):
    grid = [0.5 + 0.05 * k for k in range(21)]
    systems = {}
    budget = td.GeometryBudget(epsilon=0.1, inset=3.0)
    spec4000 = td.build_squares(4000.0, 3.0)
    dist4000 = td.distortion_constant(4000.0, fam.ln_r0)
    g4000 = td.build_G(fam, 4000.0, spec4000, budget, mode="tail", dist=dist4000)
    systems["tail@4000"] = build_weighted_system(fam, g4000, spec4000, dist4000)
    systems["mixed@12"] = build_weighted_system(small.family, small.gset,
                                                small.spec, small.dist)
    letters = small.gset.letters_by_weight(8)
    env = fam.envelope(small.spec.outer.bounds())
    sigma = np.log(TWO_PI) + np.log(np.abs(np.array([s for _, s in letters], dtype=float)))
    lo, hi = env.log_weight_bounds(sigma)
    systems["subsystem8"] = WeightedSystem(log_lo=lo, log_hi=hi)
    systems["synthetic"] = WeightedSystem.from_uniform([0.25, 0.25, 0.125])
    ok = True
    detail = []
    for name, system in systems.items():
        sums = [td.level1_sum(system, t) for t in grid]
        lows, highs = [s.log_lo for s in sums], [s.log_hi for s in sums]
        good = (all(b < a for a, b in zip(lows, lows[1:]))
                and all(b < a for a, b in zip(highs, highs[1:]))
                and all(lo <= hi for lo, hi in zip(lows, highs)))
        ok = ok and good
        detail.append(f"{name}:{'ok' if good else 'BAD'}")
    _line(9, ok, "both pressure bounds strictly decreasing on t in "
          f"{{0.5..1.5}} for every constructed system ({', '.join(detail)})")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    small_cfg = tmp_path / "small.json"
    small_cfg.write_text(json.dumps({
        "geometry": {"anchor": 12.0, "inset": 0.5},
        "pressure": {"mode": "tail"},
        "sampling": {"count": 2000, "depth": 5, "seed": 42}}))

    def run_bytes(args, out_name):
        out = str(tmp_path / out_name)
        code = cli_main(args + ["--out", out])
        assert code in (0, 2)
        return Path(out).read_bytes()

    dim_runs = [run_bytes(["dim"], f"cert_{w}.json") if w == 0 else
                run_bytes(["dim", "--workers", str(w)], f"cert_{w}.json")
                for w in (0, 1, 4, 8)]
    lemmas_runs = [run_bytes(["lemmas"], f"lem_{i}.json") for i in range(2)]
    sample_runs = [run_bytes(["sample", "--config", str(small_cfg),
                              "--workers", str(w)], f"s_{w}.csv") for w in (1, 4, 8)]
    box_runs = [run_bytes(["oracle", "box-dim"], f"box_{i}.json") for i in range(2)]
    ok = (len(set(dim_runs)) == 1 and len(set(lemmas_runs)) == 1
          and len(set(sample_runs)) == 1 and len(set(box_runs)) == 1)
    _line(10, ok, "reports and CSVs byte-identical across reruns and worker "
          "counts 1/4/8 (dim, lemmas, sample, oracle box-dim)")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_level_line_suite(fam):
    results = []
    for anchor, inset in ((12.0, 0.5), (100.0, 5.0)):
        budget = td.GeometryBudget(epsilon=0.1, inset=inset)
        spec = td.build_squares(anchor, inset)
        rep = td.trace_level_lines(fam, spec, budget)
        need_len = anchor / 4.0 - inset
        need_cnt = int(math.floor(anchor / (4.0 * math.pi)))
        results.append((anchor, rep.min_component_length, need_len,
                        rep.curve_count, need_cnt,
                        rep.min_component_length >= need_len
                        and rep.curve_count >= need_cnt))
    ok = all(r[-1] for r in results)
    detail = "; ".join(f"R={r[0]:g}: min len {r[1]:.2f} >= {r[2]:.2f}, "
                       f"count {r[3]} >= {r[4]}" for r in results)
    _line(11, ok, f"level-line components long enough and plentiful ({detail})")
