import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tractdim as td
from tractdim import cli, commands, tractgeom
from tractdim.cli import (DEFAULT_CERTIFICATE_CONFIG, DEFAULT_SMALL_CONFIG, _build_parser,
                          load_config, main)
from tractdim.tractgeom import RunBlock


def run(args):
    return main(args)


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_json(path):
    return json.loads(Path(path).read_text())


# the `dim` report: results beside the command, schema and config
DIM_KEYS = {"C", "P1_lo", "t_lo", "t_hi", "verdict", "runtime_ms", "diagnostics",
            "reasons", "schema_version", "command", "config"}

SMALL_TAIL = {"geometry": {"anchor": 12.0, "inset": 0.5},
              "pressure": {"mode": "tail"},
              "sampling": {"count": 2000, "depth": 5, "seed": 42}}


def test_lemmas_default_all_pass(tmp_path):
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--out", out]) == 0
    rep = read_json(out)
    assert rep["all_pass"] is True
    assert rep["schema_version"] == 5
    assert "config" in rep
    for check in rep["checks"].values():
        assert check["pass"]


def test_lemmas_rerun_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["lemmas", "--out", a]) == 0
    assert run(["lemmas", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("lam", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.01, 0.0), (-2.0, 0.0)])
def test_lemmas_margins_are_closed_forms_free_of_the_seed(tmp_path, lam):
    """The expansion margin is 4 pi (ln R0 - Re Log(lam)), and no check
    depends on the seed.  The growth bound, whose excess is the closed form
    0, is not reported.  The growth to infinity passes ln R0 + 2 inset
    where Re F_inv_0 does along the powers of ten (at inset 3, from 1e4
    on)."""
    cfg = write_cfg(tmp_path, "c.json", {"family": {"lambda_re": lam[0], "lambda_im": lam[1]}})
    checks = []
    for seed in ("0", "1"):
        out = str(tmp_path / f"lemmas-{seed}.json")
        assert run(["lemmas", "--config", cfg, "--out", out, "--seed", seed]) == 0
        checks.append(read_json(out)["checks"])
    assert checks[0] == checks[1]
    fam = load_config(json.loads(Path(cfg).read_text())).family
    assert checks[0]["expansion_margin"] == {
        "margin": 4.0 * math.pi * (fam.ln_r0 - fam.log_lam.real), "pass": True}
    assert "branch_growth_bound" not in checks[0]
    deep = write_cfg(tmp_path, "d.json", {"family": {"lambda_re": lam[0], "lambda_im": lam[1]},
                                          "geometry": {"inset": 3.0}})
    out = str(tmp_path / "deep.json")
    assert run(["lemmas", "--config", deep, "--out", out]) == 0
    re_vals = np.real(fam.inv0(10.0 ** np.arange(1, 13) + 0j))
    assert read_json(out)["checks"]["branch_growth_to_infinity"] == {
        "pass": True, "first_past_threshold": int(np.flatnonzero(re_vals > fam.ln_r0 + 6.0)[0])}


def test_module_entry_point_runs_lemmas(tmp_path):
    """`python -m tractdim lemmas` exits 0 and writes the in-process report."""
    out = tmp_path / "lemmas.json"
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-m", "tractdim", "lemmas", "--out", str(out)],
                          cwd=Path(__file__).resolve().parents[1], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert run(["lemmas", "--out", str(tmp_path / "in.json")]) == 0
    assert out.read_bytes() == (tmp_path / "in.json").read_bytes()


@pytest.mark.parametrize("command", ["dim", "sample"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_exit_1_with_one_line(tmp_path, capsys, command, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert run([command, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write report: ") and err.count("\n") == 1
    assert str(out) in err


def test_dim_to_dev_null_exit_0():
    assert run(["dim", "--out", os.devnull]) == 0


def test_dim_to_dev_stdout_into_a_pipe_prints_the_report(tmp_path):
    """/dev/stdout into a pipe takes the report uncut: truncating a pipe
    would raise ESPIPE."""
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-m", "tractdim", "dim", "--out", "/dev/stdout"],
                          cwd=Path(__file__).resolve().parents[1], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    assert run(["dim", "--out", str(tmp_path / "dim.json")]) == 0
    assert done.stdout == (tmp_path / "dim.json").read_bytes()


@pytest.mark.parametrize("command", ["lemmas", "dim"])
def test_lemmas_geometry_error_exit_1(tmp_path, command):
    """The inset enters no `dim` result, but an anchor/4 below it is
    rejected by every command."""
    cfg = write_cfg(tmp_path, "bad.json",
                    {"geometry": {"anchor": 12.0, "inset": 4.0}})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


def test_dim_certificate_exit_0(tmp_path):
    out = str(tmp_path / "cert.json")
    assert run(["dim", "--out", out]) == 0
    cert = read_json(out)
    assert cert["verdict"] == "certified"
    assert cert["P1_lo"] > 0
    assert cert["t_lo"] >= 1.001
    assert cert["runtime_ms"] is None
    assert set(cert) == DIM_KEYS
    # C = K = exp(diam Q / d_lo) = e^(2 sqrt 2): G's least |s| is past the float range
    assert (cert["C"], cert["P1_lo"], cert["t_lo"], cert["t_hi"]) == (
        16.9188286785579, 4.853894403614564, 1.0015174776166387, 1.0019642360507377)
    assert cert["reasons"] == [] and cert["diagnostics"]["n_segments"] == 2
    # one-sided pressure evaluations of the Bowen root, (lower, upper)
    assert cert["diagnostics"]["bowen_evaluations"] == [8, 7]


@pytest.mark.parametrize("anchor, least", [(2e6, 1.0), (1e5, 1.0001)])
def test_dim_at_large_anchors_certifies_with_t_lo_above_1(tmp_path, anchor, least):
    """The bracket ends near its root, not on a tolerance grid: at inset 3
    a bisection to 1e-4 read t_lo = 1.0 at anchor 2e6 and 1.00006103515625
    at 1e5, although P_lo(1) > 0; the roots lie near 1.0000083 and
    1.0001129."""
    cfg = write_cfg(tmp_path, "c.json", {"geometry": {"anchor": anchor, "inset": 3.0}})
    out = str(tmp_path / "dim.json")
    assert run(["dim", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["verdict"] == "certified" and least < rep["t_lo"] < rep["t_hi"]


def test_dim_small_anchor_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "small.json", SMALL_TAIL)
    out = str(tmp_path / "cert12.json")
    assert run(["dim", "--config", cfg, "--out", out]) == 2
    cert = read_json(out)
    assert cert["verdict"] == "not-certified"
    assert cert["reasons"]


def test_dim_invalid_config_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "neg.json", {"geometry": {"epsilon": -0.5}})
    assert run(["dim", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


def test_dim_double_auto_rejected(tmp_path, capsys):
    """The inset is a number: "auto" is rejected like any other non-number."""
    cfg = write_cfg(tmp_path, "auto.json",
                    {"geometry": {"anchor": "auto", "inset": "auto"}})
    assert run(["dim", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == \
        "config error: config field inset must be a finite number, got 'auto'\n"


def test_dim_timing_writes_the_runtime(tmp_path, capsys):
    """`timing: true` prints the verdict and its runtime to stderr and
    writes a numeric `runtime_ms`; the rest of the report is the
    timing-off report but for `config.timing`."""
    off, on = tmp_path / "off.json", tmp_path / "on.json"
    assert run(["dim", "--out", str(off)]) == 0
    assert capsys.readouterr().err == ""
    cfg = write_cfg(tmp_path, "t.json", {"timing": True})
    assert run(["dim", "--config", cfg, "--out", str(on)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("certificate: certified in ") and err.endswith(" ms\n")
    rep_off, rep_on = read_json(off), read_json(on)
    assert isinstance(rep_on["runtime_ms"], float) and rep_on["runtime_ms"] > 0
    assert rep_on["config"].pop("timing") is True and rep_off["config"].pop("timing") is False
    rep_on["runtime_ms"] = None
    assert rep_on == rep_off


def test_auto_anchor_resolves_to_the_first_passing_grid_point(tmp_path):
    """`geometry.anchor: "auto"` is `find_radius`'s first passing point of
    the scan, 8.0 at the small defaults, and the report echoes it."""
    cfg = write_cfg(tmp_path, "a.json", {"geometry": {"anchor": "auto"}})
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    assert read_json(out)["config"]["geometry"]["anchor"] == 8.0
    loaded = load_config({"geometry": {"anchor": "auto"}})
    assert loaded.anchor == td.find_radius(loaded.family, loaded.budget, 8.0, 4000.0, 1.0) == 8.0


def test_sample_rows_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", SMALL_TAIL)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["sample", "--config", cfg, "--out", a]) == 0
    assert run(["sample", "--config", cfg, "--out", b, "--workers", "4"]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    lines = Path(a).read_text().splitlines()
    assert lines[0] == "re,im,space"
    assert len(lines) == 1 + 2 * 2000  # lifted rows, then plane rows
    spaces = [ln.split(",")[2] for ln in lines[1:]]
    assert set(spaces[:2000]) == {"lifted"}
    assert set(spaces[2000:]) <= {"plane", "plane_logpolar"}


@pytest.mark.parametrize("lam", [1.0, 0.5 + 0.5j])
def test_sample_csv_rows_are_the_sample_then_its_projection(tmp_path, lam):
    """Row k parses back, bit for bit, to the k-th sample point, and row
    count + k to its plane projection, with the projection's log-polar
    flag as its space."""
    raw = dict(SMALL_TAIL, family={"lambda_re": lam.real, "lambda_im": lam.imag})
    out = tmp_path / "s.csv"
    assert run(["sample", "--config", write_cfg(tmp_path, "s.json", raw), "--out", str(out)]) == 0
    cfg = load_config(raw)
    spec = td.build_squares(cfg.anchor, cfg.budget.inset)
    sample = td.sample_limit_set(cfg.family, commands._nonempty_G(cfg.family, cfg, spec), spec,
                                 depth=cfg.depth, count=cfg.count, seed=cfg.seed)
    proj = td.project_to_plane(cfg.family, sample)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    got = np.array([complex(float(re_), float(im_)) for re_, im_, _ in rows])
    assert got.tobytes() == np.concatenate([sample.points, proj.points]).tobytes()
    assert [space for *_, space in rows] == ["lifted"] * cfg.count + [
        "plane_logpolar" if lp else "plane" for lp in proj.log_polar.tolist()]


def test_sample_seed_changes_words_not_statistics(tmp_path):
    cfg1 = write_cfg(tmp_path, "s1.json",
                     dict(SMALL_TAIL, sampling={"count": 10000, "depth": 4, "seed": 1}))
    cfg2 = write_cfg(tmp_path, "s2.json",
                     dict(SMALL_TAIL, sampling={"count": 10000, "depth": 4, "seed": 2}))
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["sample", "--config", cfg1, "--out", a]) == 0
    assert run(["sample", "--config", cfg2, "--out", b]) == 0
    assert Path(a).read_bytes() != Path(b).read_bytes()

    def lifted_upper_fraction(path):
        rows = [ln.split(",") for ln in Path(path).read_text().splitlines()[1:]]
        ims = [float(r[1]) for r in rows if r[2] == "lifted"]
        return sum(1 for v in ims if v > 0) / len(ims)

    fa, fb = lifted_upper_fraction(a), lifted_upper_fraction(b)
    assert abs(fa - fb) / fa <= 0.05


def test_sample_empty_g_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "tiny.json",
                    {"geometry": {"anchor": 3.0, "inset": 0.5},
                     "pressure": {"mode": "enumerate"}})
    assert run(["sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("oracle", ["recheck", "brute-pressure"])
def test_oracle_empty_g_exit_2(tmp_path, capsys, oracle):
    cfg = write_cfg(tmp_path, "tiny.json",
                    {"geometry": {"anchor": 3.0, "inset": 0.5},
                     "pressure": {"mode": "enumerate"}})
    out = str(tmp_path / "o.json")
    assert run(["oracle", oracle, "--config", cfg, "--out", out]) == 2
    assert "admissible set G is empty" in capsys.readouterr().err


KOEBE = {"family": {"lambda_re": 0.01}, "geometry": {"anchor": 3.3, "inset": 0.5},
         "pressure": {"mode": "enumerate"}}


def test_oracle_brute_pressure_below_the_koebe_range_exit_0(tmp_path):
    # below the Koebe range (rho > 1) yet with a non-empty G of 14 letters,
    # |s| = 15..21 at u = 0: the brute value needs no distortion constant, it
    # lies in the level-1 bracket itself; the values are those of a 40-digit
    # mpmath evaluation over the 8 letters |s| = 15..18
    cfg = write_cfg(tmp_path, "koebe.json", KOEBE)
    out = str(tmp_path / "o.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["pass"] is True
    assert rep["level1_lo"] <= rep["brute_value"] <= rep["level1_hi"]
    assert rep["brute_value"] == pytest.approx(-4.711, abs=1e-3)
    assert (rep["level1_lo"], rep["level1_hi"]) == pytest.approx((-4.894, -4.321), abs=1e-3)
    assert rep["slack_log"] == pytest.approx(1e-12 * (1.0 + abs(rep["brute_value"])), rel=1e-15)


@pytest.mark.parametrize("shift, code", [(-2.0, 3), (-0.5, 0), (0.5, 0), (2.0, 3)])
def test_oracle_brute_pressure_fails_outside_the_level1_bracket(tmp_path, monkeypatch,
                                                                 shift, code):
    """A brute value planted `shift` float-rounding slacks past either end of
    the bracket: within the slack it passes, beyond it the oracle exits 3."""
    cfg = write_cfg(tmp_path, "koebe.json", KOEBE)
    out = str(tmp_path / "o.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    lo, hi = read_json(out)["level1_lo"], read_json(out)["level1_hi"]
    end = lo if shift < 0 else hi
    planted = end + shift * 1e-12 * (1.0 + abs(end))
    monkeypatch.setattr(td.oracle, "brute_force_pressure", lambda *a, **k: planted)
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == code
    rep = read_json(out)
    assert rep["brute_value"] == planted and rep["pass"] is (code == 0)


@pytest.mark.parametrize("r0", [1.2, math.e])
def test_oracle_brute_pressure_with_letters_below_envelope_validity_exit_0(tmp_path,
                                                                         monkeypatch, r0):
    # lam = 0.01, anchor 4: a planted G holding (0, +-1), where 2*pi*|s| <=
    # b = 6.99 and the envelope e^sigma - b bounds nothing (G itself starts
    # at |s| = 4, inside its sigma windows); the letters' upper weights come
    # from |xi_s| >= p_lo = ln d_lo - Re c there
    planted = td.GSet(runs=(RunBlock(0, 0, -64, -1), RunBlock(0, 0, 1, 64)))
    monkeypatch.setattr(commands, "build_G", lambda *args, **kwargs: planted)
    cfg = write_cfg(tmp_path, "low.json",
                    {"family": {"lambda_re": 0.01, "r0": r0},
                     "geometry": {"anchor": 4.0, "inset": 0.5}})
    out = str(tmp_path / "o.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["pass"] is True
    assert [0, 1] in rep["letters"] and [0, -1] in rep["letters"]
    assert rep["level1_lo"] <= rep["brute_value"] <= rep["level1_hi"]


@pytest.mark.parametrize("mode", ["enumerate", "tail"])
def test_unsampleable_cells_do_not_stop_the_run(tmp_path, mode):
    # lam = 0.01, anchor 4: G holds |s| = 4..63 at u = 0, none of the cells
    # below envelope validity; every command gives its documented outcome
    cfg = write_cfg(tmp_path, "pad.json",
                    {"family": {"lambda_re": 0.01},
                     "geometry": {"anchor": 4.0, "inset": 0.5},
                     "pressure": {"mode": mode},
                     "sampling": {"count": 2000, "depth": 5}})
    out = str(tmp_path / "o")
    assert run(["dim", "--config", cfg, "--out", out + ".json"]) == 2
    assert run(["sample", "--config", cfg, "--out", out + ".csv"]) == 0
    assert run(["oracle", "recheck", "--config", cfg, "--out", out + ".json"]) == 0


def test_sub_ulp_edge_cells_are_decided_at_anchor_24(tmp_path):
    # lam = 1, R0 = e, inset 0.5, anchor 24: the cells at the large-|s| ends
    # of the windows, sigma ~ 36, are narrower than an ulp of sigma; G takes
    # them from the windows alone, and every command is decided
    cfg = write_cfg(tmp_path, "a24.json",
                    {"geometry": {"anchor": 24.0, "inset": 0.5},
                     "pressure": {"mode": "enumerate"},
                     "sampling": {"count": 2000, "depth": 5}})
    out = str(tmp_path / "o")
    assert run(["dim", "--config", cfg, "--out", out + ".json"]) == 2
    assert run(["sample", "--config", cfg, "--out", out + ".csv"]) == 0
    assert run(["oracle", "recheck", "--config", cfg, "--out", out + ".json"]) == 0


A30 = {"geometry": {"anchor": 30.0, "inset": 0.5}}


@pytest.mark.parametrize("config", ["anchor-30-enumerate", "anchor-30-tail", "certificate"])
def test_oracle_recheck_past_2_53_exit_0(tmp_path, config):
    # lam = 1, R0 = e, inset 0.5, anchor 30: every run of G passes 2^53;
    # at the default certificate its indices have 2,600 digits
    raw = (DEFAULT_CERTIFICATE_CONFIG if config == "certificate"
           else dict(A30, pressure={"mode": config.rsplit("-", 1)[1]}))
    cfg = write_cfg(tmp_path, "big.json", raw)
    out = str(tmp_path / "o.json")
    assert run(["oracle", "recheck", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["pass"] is True and rep["n_flagged"] == 0
    assert isinstance(rep["min_margin"], float) and math.isfinite(rep["min_margin"])
    assert rep["n_densely_sampled"] == 2000
    # every letter of G: the sum over its runs of n_columns * (s_hi - s_lo + 1)
    c = load_config(raw)
    spec = td.build_squares(c.anchor, c.budget.inset)
    runs = td.build_G(c.family, c.anchor, spec, c.budget).runs
    assert rep["n_checked"] == sum(r.n_columns * (r.s_hi - r.s_lo + 1) for r in runs)
    if config != "certificate":
        assert rep["n_checked"] == 55_599_619_169_322_300_560


def test_oracle_recheck_past_the_int_digit_limit_exit_0(tmp_path):
    # at anchor 8000 G holds more letters than an int of 4,300 digits (the
    # interpreter's default int-to-string limit): the report writes
    # n_checked as the hex string that int(x, 16) reads back
    raw = dict(DEFAULT_CERTIFICATE_CONFIG,
               geometry=dict(DEFAULT_CERTIFICATE_CONFIG["geometry"], anchor=8000.0))
    cfg = write_cfg(tmp_path, "a8000.json", raw)
    out = str(tmp_path / "o.json")
    limit = sys.get_int_max_str_digits()
    assert run(["oracle", "recheck", "--config", cfg, "--out", out]) == 0
    assert sys.get_int_max_str_digits() == limit
    rep = read_json(out)
    assert rep["pass"] is True
    c = load_config(raw)
    spec = td.build_squares(c.anchor, c.budget.inset)
    n = sum(r.n_columns * r.length for r in td.build_G(c.family, c.anchor, spec, c.budget).runs)
    assert n >= 10 ** limit
    assert rep["n_checked"] == hex(n) and int(rep["n_checked"], 16) == n


def test_sample_past_2_63_exit_0_and_past_the_float_range_exit_2(tmp_path, capsys):
    """Words past 2^63 are Python ints (anchor 30); from anchor 474 on
    (inset 3) 2*pi*|s| passes the float range, and only there `sample`
    refuses, as at the default certificate."""
    cfg = write_cfg(tmp_path, "a30.json", dict(A30, sampling={"count": 2000, "depth": 5}))
    out = str(tmp_path / "o.csv")
    assert run(["sample", "--config", cfg, "--out", out]) == 0
    assert len(Path(out).read_text().splitlines()) == 1 + 2 * 2000
    for config in ({"geometry": {"anchor": 474.0, "inset": 3.0}}, DEFAULT_CERTIFICATE_CONFIG):
        capsys.readouterr()
        assert run(["sample", "--config", write_cfg(tmp_path, "big.json", config),
                    "--out", out]) == 2
        assert capsys.readouterr().err == (
            "construction: cannot sample: G has letters with 2*pi*|s| past the float range\n")


@pytest.mark.parametrize("lam, anchor", [
    ((0.0, 1.0), 20.0), ((0.0, 1.0), 30.0), ((-2.0, 0.0), 12.0), ((-2.0, 0.0), 20.0),
    ((-2.0, 0.0), 30.0), ((0.5, 0.5), 20.0), ((0.5, 0.5), 30.0)],
    ids=lambda v: f"{complex(*v)}" if isinstance(v, tuple) else f"anchor{v:g}")
def test_sample_non_real_lambda_exit_0(tmp_path, capsys, lam, anchor):
    """For a non-real or negative lam the conjugacy is checked on the
    lift, where adding Log(lam) to e^z rounds at the relative size of an
    ulp, so every row is compared."""
    cfg = write_cfg(tmp_path, "c.json", {"family": {"lambda_re": lam[0], "lambda_im": lam[1]},
                                         "geometry": {"anchor": anchor, "inset": 0.5}})
    out = tmp_path / "s.csv"
    assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 20_000
    assert capsys.readouterr().err.endswith("conjugacy checked on 10000 of 10000 rows\n")


@pytest.mark.parametrize("anchor", [50.0, 100.0, 400.0])
@pytest.mark.parametrize("lam", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (-2.0, 0.0)],
                         ids=lambda v: f"{complex(*v)}")
def test_sample_up_to_anchor_400_checks_every_row(tmp_path, capsys, lam, anchor):
    """Past 2^63 and up to anchor 400 every sampled point lies in the exp
    range, and every row is compared on the lift."""
    cfg = write_cfg(tmp_path, "c.json", {
        "family": {"lambda_re": lam[0], "lambda_im": lam[1]},
        "geometry": {"anchor": anchor, "inset": 0.5 if anchor == 50.0 else 3.0}})
    out = tmp_path / "s.csv"
    assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "wrote 20000 rows; conjugacy checked on 10000 of 10000 rows\n")
    assert "plane_logpolar" not in out.read_text()


def test_sample_writes_log_polar_rows_at_anchor_469(tmp_path, capsys):
    """Q reaches Re = 1.5 * anchor = 703.5 > 700: most sampled points lie
    past the exp range and are written in log-polar form; the others are
    checked."""
    cfg = write_cfg(tmp_path, "c.json", {"geometry": {"anchor": 469.0, "inset": 3.0}})
    out = tmp_path / "s.csv"
    assert run(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "wrote 20000 rows; conjugacy checked on 292 of 10000 rows\n")
    spaces = [line.rpartition(",")[2] for line in out.read_text().splitlines()[1:]]
    assert spaces.count("plane_logpolar") == 9708 and spaces.count("plane") == 292


def test_sample_with_no_row_in_the_exp_range_exit_3(tmp_path, capsys):
    """A row lands at Re z <= 700 with probability about e^(700 - 1.5 *
    anchor); at anchor 473, seed 0, none of 100 rows does, so nothing is
    checked and `sample` fails instead of reporting a vacuous check."""
    cfg = write_cfg(tmp_path, "c.json", {"geometry": {"anchor": 473.0, "inset": 3.0},
                                         "sampling": {"count": 100, "seed": 0}})
    assert run(["sample", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: no sampled point lies in the exp range")


def test_parser_is_built_on_first_use_and_kept():
    code = ("from tractdim import cli; n = cli._build_parser.cache_info().currsize; "
            "print(n, cli._build_parser() is cli._build_parser())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0", "True"]


def test_oracle_brute_pressure_past_2_53_exit_0(tmp_path):
    # anchor 30: the eight heaviest letters sit at |s| = 520,281, the low
    # ends of the two runs; at the default certificate they pass the float
    # range (868 digits), and the letters step from their logs all the same
    cfg = write_cfg(tmp_path, "a30.json", A30)
    out = str(tmp_path / "o.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["pass"] is True
    assert {abs(s) for _, s in rep["letters"]} == {520281}
    assert rep["level1_lo"] - rep["slack_log"] <= rep["brute_value"] \
        <= rep["level1_hi"] + rep["slack_log"]
    cfg = write_cfg(tmp_path, "cert.json", DEFAULT_CERTIFICATE_CONFIG)
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["pass"] is True
    assert {len(str(abs(s))) for _, s in rep["letters"]} == {868}
    assert rep["level1_lo"] <= rep["brute_value"] <= rep["level1_hi"]
    assert rep["brute_value"] == pytest.approx(-2006.0399, abs=1e-4)


def test_oracle_brute_pressure_at_the_anchor_cap_exit_0(tmp_path, monkeypatch):
    """At the anchor cap the subsystem's letters have about 607,000 digits:
    brute-pressure passes in under a second, and the report writes them
    as hex strings that int(x, 16) reads back, with
    `sys.set_int_max_str_digits` raising: no report changes the
    interpreter-wide int-to-string limit."""
    def refuse(_):
        raise AssertionError("set_int_max_str_digits called")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    cfg = write_cfg(tmp_path, "cap.json", {"geometry": {"anchor": 2.0 ** 23 / 3.0, "inset": 3.0}})
    out = str(tmp_path / "o.json")
    start = time.perf_counter()
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    assert time.perf_counter() - start < 1.0
    rep = read_json(out)
    assert rep["pass"] is True
    assert rep["level1_lo"] <= rep["brute_value"] <= rep["level1_hi"]
    ss = [int(s, 16) for _, s in rep["letters"]]
    assert len(ss) == 8 and all(abs(s).bit_length() > 2_000_000 for s in ss)


@pytest.mark.parametrize("pressure", [{"collar": -5}, {"mode": "tail"}, {"collar": 0}])
def test_mode_and_collar_have_no_effect(tmp_path, pressure):
    """`pressure.mode` and `pressure.collar` are validated and otherwise
    ignored: `sample` and `oracle recheck` give the default's payload,
    apart from the echoed config."""
    base = {"sampling": {"count": 2000, "depth": 5}}
    payloads = []
    for name, raw in (("default", base), ("changed", dict(base, pressure=pressure))):
        cfg = write_cfg(tmp_path, f"{name}.json", raw)
        csv, rc = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert run(["sample", "--config", cfg, "--out", str(csv)]) == 0
        assert run(["oracle", "recheck", "--config", cfg, "--out", str(rc)]) == 0
        report = read_json(rc)
        report.pop("config")
        payloads.append((csv.read_bytes(), report))
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("anchor, inset", [(30.0, 0.5), (4000.0, 3.0)])
def test_dim_report_does_not_depend_on_mode(tmp_path, anchor, inset):
    """`dim --mode enumerate` and `dim --mode tail` certify with the same
    report, apart from the echoed `config.pressure.mode`."""
    cfg = write_cfg(tmp_path, "c.json", {"geometry": {"anchor": anchor, "inset": inset}})
    reports = {}
    for mode in ("enumerate", "tail"):
        out = tmp_path / f"{mode}.json"
        assert run(["dim", "--config", cfg, "--mode", mode, "--out", str(out)]) == 0
        reports[mode] = read_json(out)
        assert reports[mode]["config"]["pressure"].pop("mode") == mode
    assert reports["enumerate"] == reports["tail"]


@pytest.mark.parametrize("collar", [float("nan"), float("inf"), "32"])
def test_non_finite_collar_exit_1(tmp_path, collar):
    cfg = write_cfg(tmp_path, "c.json", {"pressure": {"collar": collar}})
    assert run(["sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


def test_oracle_box_dim(tmp_path):
    out = str(tmp_path / "box.json")
    assert run(["oracle", "box-dim", "--out", out]) == 0
    rep = read_json(out)
    assert abs(rep["slope"] - math.log(2) / math.log(3)) <= 0.05
    assert rep["pass"] is True


def test_oracle_box_dim_from_a_sample_csv(tmp_path):
    """`source: csv` on a `sample` CSV: the default scales are the lifted
    points' diameter times 10^-k, k = 0.5 .. 3 (reported in increasing
    order), and no slope is expected."""
    csv_path = tmp_path / "s.csv"
    assert run(["sample", "--out", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    re_, im_ = (np.array([float(r[k]) for r in rows if r[2] == "lifted"]) for k in (0, 1))
    diam = float(np.hypot(np.ptp(re_), np.ptp(im_)))
    cfg = write_cfg(tmp_path, "b.json", {"oracle": {"source": "csv", "path": str(csv_path)}})
    out = str(tmp_path / "box.json")
    assert run(["oracle", "box-dim", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["scales"] == sorted(diam * 10.0 ** -k for k in np.linspace(0.5, 3.0, 6))
    assert rep["expected"] is None and rep["tolerance"] is None
    assert rep["pass"] is True


def test_oracle_brute_pressure(tmp_path):
    cfg = write_cfg(tmp_path, "bp.json", SMALL_TAIL)
    out = str(tmp_path / "bp_out.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["pass"] is True
    assert rep["level1_lo"] - rep["slack_log"] <= rep["brute_value"] \
        <= rep["level1_hi"] + rep["slack_log"]


def test_oracle_recheck_clean(tmp_path):
    cfg = write_cfg(tmp_path, "rc.json", SMALL_TAIL)
    out = str(tmp_path / "rc_out.json")
    assert run(["oracle", "recheck", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["n_flagged"] == 0
    assert rep["pass"] is True


def test_config_merging_preserves_defaults(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", {"sampling": {"seed": 9}})
    out = str(tmp_path / "m_out.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["config"]["sampling"]["seed"] == 9
    assert rep["config"]["geometry"]["anchor"] == 12.0


@pytest.mark.parametrize("command, config, flags", [
    pytest.param(command, config, flags, id=f"{command}-{name}")
    for command, name, config, flags in [
        ("sample", "flag-seed", {}, ["--seed", "-1"]),
        ("oracle recheck", "flag-seed", {}, ["--seed", "-1"]),
        ("oracle box-dim", "flag-seed", {}, ["--seed", "-1"]),
        ("sample", "seed", {"sampling": {"seed": -1}}, []),
        ("oracle recheck", "seed", {"sampling": {"seed": -1}}, []),
        ("oracle box-dim", "seed", {"sampling": {"seed": -1}}, []),
        ("oracle recheck", "density-0", {"oracle": {"density": 0}}, []),
        ("oracle recheck", "density-x", {"oracle": {"density": "x"}}, []),
        ("oracle brute-pressure", "word_length-0", {"oracle": {"word_length": 0}}, []),
        ("oracle brute-pressure", "subsystem-0", {"oracle": {"subsystem": 0}}, []),
    ]])
def test_invalid_seed_and_oracle_counts_exit_1(tmp_path, capsys, command, config, flags):
    """A negative seed, and an oracle density, subsystem or word length that
    is not an integer >= 1, are configuration errors, not tracebacks."""
    cfg = write_cfg(tmp_path, "c.json", config)
    argv = command.split() + ["--config", cfg, "--out", str(tmp_path / "x")] + flags
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command, text", [
    ("oracle brute-pressure", json.dumps({"oracle": {"t": "x"}})),
    ("oracle box-dim", json.dumps({"oracle": {"source": "csv", "path": "no-such/x.csv"}})),
    ("dim", "[1, 2]"),
    ("sample", json.dumps({"family": 3})),
    ("dim", json.dumps({"family": {"kind": "user"}})),
    ("oracle recheck", json.dumps({"oracle": [1]})),
    ("lemmas", None),
], ids=["oracle-t", "csv-path", "array", "family-section", "family-kind", "oracle-section",
        "no-file"])
def test_malformed_config_exit_1(tmp_path, capsys, command, text):
    """A non-numeric oracle.t, an unreadable oracle.path, a config that is
    not a JSON object, a section that is not one, a family kind other than
    exponential and a missing config file are configuration errors, not
    tracebacks."""
    cfg = tmp_path / "c.json"
    if text is not None:
        cfg.write_text(text)
    argv = command.split() + ["--config", str(cfg), "--out", str(tmp_path / "x")]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("config, field, value", [
    ({"sampling": {"count": 2.5}}, "sampling.count", "2.5"),
    ({"sampling": {"depth": 3.7}}, "sampling.depth", "3.7"),
    ({"oracle": {"density": 300.9}}, "oracle.density", "300.9"),
    ({"sampling": {"count": 0}}, "sampling.count", "0"),
    ({"sampling": {"depth": True}}, "sampling.depth", "True"),
    ({"sampling": {"count": "10"}}, "sampling.count", "'10'"),
    ({"sampling": {"seed": 2.7}}, "sampling.seed", "2.7"),
], ids=["count-2.5", "depth-3.7", "density-300.9", "count-0", "depth-true", "count-text",
        "seed-2.7"])
def test_counts_are_integers_not_truncated(tmp_path, capsys, config, field, value):
    """`sampling.count`, `sampling.depth` and `oracle.density` take an
    integer >= 1, as the other oracle counts do, and `sampling.seed` an
    integer >= 0: a fractional value is a configuration error, not
    truncated.  An integral float such as 1e4 is taken as its int."""
    cfg = write_cfg(tmp_path, "c.json", config)
    assert run(["sample", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    least = 0 if field == "sampling.seed" else 1
    assert capsys.readouterr().err == \
        f"config error: config field {field} must be an integer >= {least}, got {value}\n"
    c = load_config({"sampling": {"count": 1e4, "depth": 8.0, "seed": 9.0},
                     "oracle": {"density": 300.0}})
    assert (c.count, c.depth, c.seed, c.oracle["density"]) == (10000, 8, 9, 300)
    assert c.resolved["sampling"]["count"] == 10000
    assert type(c.resolved["sampling"]["count"]) is int


@pytest.mark.parametrize("timing", ["no", 0, 1, None, "true"])
def test_timing_must_be_a_json_bool(tmp_path, capsys, timing):
    """A `timing` that is not true or false would put `runtime_ms` into
    reports that reruns compare byte for byte: it is a configuration error."""
    cfg = write_cfg(tmp_path, "t.json", {"timing": timing})
    assert run(["dim", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == \
        f"config error: config field timing must be true or false, got {timing!r}\n"


@pytest.mark.parametrize("config, key", [
    ({"geometry": {"anchr": 5}}, "'geometry.anchr'"),
    ({"sampling": {"seeds": 3}}, "'sampling.seeds'"),
    ({"family": {"path": "x.csv"}}, "'family.path'"),
    ({"oracle": {"paths": "x.csv"}}, "'oracle.paths'"),
    ({"timng": True}, "'timng'"),
    ({"geometry": {"margin": 0.0}}, "'geometry.margin'"),
    ({"geometry": {"boundary_samples": 256}}, "'geometry.boundary_samples'"),
    ({"workers": 1}, "'workers'"),
    ({"pressure": {"bisect_tol": 1e-4}}, "'pressure.bisect_tol'"),
], ids=["geometry", "sampling", "family-path", "oracle", "top-level", "schema-2-margin",
        "schema-2-boundary-samples", "schema-2-workers", "schema-4-bisect-tol"])
def test_unknown_config_key_exit_1(tmp_path, capsys, config, key):
    """A key no reader knows is a configuration error naming it, where it
    used to run silently on the default (anchor 12 for `anchr`).  So are
    the schema-2 keys that schema 3 deleted and the tolerance schema 5
    deleted, even at their old defaults."""
    cfg = write_cfg(tmp_path, "c.json", config)
    assert run(["lemmas", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"config error: unknown config key {key}\n"


@pytest.mark.parametrize("version", ["x", 1, 2, 3, 4, 6, True, 1.5, None])
def test_schema_version_other_than_current_exit_1(tmp_path, capsys, version):
    """A config of another schema is a configuration error naming the field,
    not read as the current one; a missing schema_version or 5 loads."""
    cfg = write_cfg(tmp_path, "c.json", {"schema_version": version})
    assert run(["lemmas", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == \
        f"config error: config field schema_version must be 5, got {version!r}\n"
    assert load_config({"schema_version": 5}).resolved == load_config({}).resolved


def test_schema_5_config_keys():
    """The resolved config holds exactly the schema-5 keys: the schema-3
    keys, which schema 4 kept (it changed the `dim` report), less
    `pressure.bisect_tol`.  `geometry` has no margin or boundary_samples,
    and there is no top-level `workers`."""
    resolved = load_config({}).resolved
    assert {key: sorted(value) if isinstance(value, dict) else value
            for key, value in resolved.items()} == {
        "family": ["kind", "lambda_im", "lambda_re", "r0"],
        "geometry": ["anchor", "epsilon", "inset", "scan"],
        "pressure": ["collar", "mode"],
        "sampling": ["count", "depth", "seed"],
        "oracle": ["density", "source", "subsystem", "t", "word_length"],
        "timing": False,
        "schema_version": 5,
    }


@pytest.mark.parametrize("command", ["oracle recheck", "oracle brute-pressure"])
def test_integral_float_oracle_counts_echo_as_ints(tmp_path, command):
    """density, subsystem and word_length given as 10.0, 8.0 and 2.0 are the
    ints 10, 8 and 2: the reports are byte-identical to those of the ints."""
    outs = []
    for name, num in (("int", int), ("float", float)):
        cfg = write_cfg(tmp_path, f"{name}.json", dict(SMALL_TAIL, oracle={
            "density": num(10), "subsystem": num(8), "word_length": num(2)}))
        outs.append(tmp_path / f"{name}.json.out")
        assert run(command.split() + ["--config", cfg, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert read_json(outs[1])["config"]["oracle"]["density"] == 10


@pytest.mark.parametrize("command, config", [
    ("lemmas", {}),
    ("dim", {}),
    ("lemmas", {"geometry": {"anchor": "auto"}, "timing": True}),
    ("lemmas", {"family": {"lambda_re": 10.0, "lambda_im": -1.0}}),
    ("dim", {"sampling": {"count": 1e4}, "pressure": {"mode": "enumerate"}}),
], ids=["lemmas", "dim", "auto-anchor", "normalized-r0", "integral-float-count"])
def test_report_config_loads_back_unchanged(tmp_path, command, config):
    """The `config` block of a report is a config: `load_config` takes it
    back, schema_version included, and resolves it to itself."""
    cfg = write_cfg(tmp_path, "c.json", config)
    out = str(tmp_path / "r.json")
    assert run([command, "--config", cfg, "--out", out]) in (0, 2)
    echoed = read_json(out)["config"]
    assert load_config(echoed).resolved == echoed
    csv = {"oracle": {"source": "csv", "path": "points.csv", "space": "plane",
                      "scales": [1.0, 0.1, 0.01, 0.001, 0.0001]}}
    resolved = load_config(csv).resolved
    assert load_config(json.loads(json.dumps(resolved))).resolved == resolved


_ONE_ROW = "re,im,space\n1.0,2.0,lifted\n"


@pytest.mark.parametrize("csv, oracle, names", [
    ("re,im\n1.0,2.0\n", {}, "'space'"),
    ("re,space\n1.0,lifted\n", {}, "'im'"),
    ("re,im,space\nx,2.0,lifted\n", {}, "'re'"),
    ("re,im,space\n", {}, "'re'"),
    ("", {}, "empty"),
    ("re,im,space\n1.0,2.0,plane\n", {"space": "lifted"}, "oracle.space"),
    (_ONE_ROW, {"scales": "abcde"}, "oracle.scales"),
    (_ONE_ROW, {"scales": [1, 2, "x", 4, 5]}, "oracle.scales"),
    (_ONE_ROW, {"scales": 5}, "oracle.scales"),
    (_ONE_ROW, {"scales": [1, 2, True, 4, 5]}, "oracle.scales"),
], ids=["no-space", "no-im", "text-re", "header-only", "empty-file", "no-rows-of-space",
        "scales-string", "scales-mixed", "scales-number", "scales-bool"])
def test_box_dim_malformed_csv_exit_1(tmp_path, capsys, csv, oracle, names):
    """`oracle box-dim` from a CSV without a numeric re or im or a text space
    column, with no rows of oracle.space, or with oracle.scales that is not
    a list of numbers, is a configuration error naming the field, not a
    traceback."""
    (tmp_path / "points.csv").write_text(csv)
    cfg = write_cfg(tmp_path, "c.json", {"oracle": dict(
        {"source": "csv", "path": str(tmp_path / "points.csv")}, **oracle)})
    assert run(["oracle", "box-dim", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err


def test_malformed_json_exit_1(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["lemmas", "--config", str(p), "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("family, anchor, failing", [
    ({"lambda_re": 1.0}, 3.0, {"first_level_in_half_plane", "tract_depth"}),
    ({"lambda_re": 0.01}, 3.3, {"anchor_derivative_lower"}),
])
def test_lemmas_below_koebe_range_report_exit_0(tmp_path, family, anchor, failing):
    """Below the Koebe range (no covering disk of Q fits in H) the report
    is written with the failing lemmas, not a config error, and with the
    finite distortion constant K of G: 1.0 for the empty G at lam = 1,
    anchor 3, and 2.13 at lam = 0.01, anchor 3.3."""
    cfg = write_cfg(tmp_path, "koebe.json",
                    {"family": family, "geometry": {"anchor": anchor, "inset": 0.5}})
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    fam = td.normalize_family(td.exponential_family(family["lambda_re"]))
    spec = td.build_squares(anchor, 0.5)
    log_k = td.log_distortion_bound(fam, td.build_G(fam, anchor, spec, None), spec)
    assert rep["distortion_c"] == math.exp(log_k) < math.inf
    assert (rep["distortion_c"] == 1.0) == (anchor == 3.0)
    assert rep["all_pass"] is False
    assert {name for name, check in rep["checks"].items() if not check["pass"]} == failing


def test_lemmas_at_the_certificate_config_all_pass(tmp_path):
    """Anchor 4000, inset 3: the level lines are traced in closed form at
    the certificate's own scale, and every lemma passes."""
    cfg = write_cfg(tmp_path, "cert.json", {"geometry": {"anchor": 4000.0, "inset": 3.0}})
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["all_pass"] is True
    lines = rep["checks"]["level_lines"]
    assert (lines["curve_count"], lines["required_count"]) == (319, 318)
    assert lines["min_component_length"] == pytest.approx(3994.0, rel=1e-12)


def test_lemmas_anchor_line_left_of_log_lambda_fails_level_lines(tmp_path):
    """lam = 3, R0 = e, anchor 3: the anchor line is not right of Log(lam),
    so the level lines are not branch preimages and their check fails with
    a NaN margin."""
    cfg = write_cfg(tmp_path, "cut.json", {"family": {"lambda_re": 3.0},
                                           "geometry": {"anchor": 3.0, "inset": 0.5}})
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    lines = read_json(out)["checks"]["level_lines"]
    assert lines["pass"] is False
    assert lines["min_inf_re_margin"] == "NaN"
    assert lines["curve_count"] == 0


def test_lemmas_large_lambda_exit_0(tmp_path):
    """lam = 1e4: ln R0 = 10.2, so the growth grid starts at 100."""
    cfg = write_cfg(tmp_path, "big.json", {"family": {"lambda_re": 1e4},
                                           "geometry": {"anchor": 100.0}})
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    assert read_json(out)["checks"]["branch_growth_to_infinity"]["pass"] is True


def test_oracle_brute_pressure_at_anchor_800_exit_0(tmp_path):
    """Word derivatives near e^-808 underflow as floats; their logs do not."""
    cfg = write_cfg(tmp_path, "bp.json", {"geometry": {"anchor": 800.0, "inset": 3.0}})
    out = str(tmp_path / "report.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = read_json(out)
    assert rep["level1_lo"] <= rep["brute_value"] <= rep["level1_hi"]
    assert rep["brute_value"] == pytest.approx(-404.4234, abs=1e-4)


@pytest.mark.parametrize("anchor, checked", [(12.0, 10_000), (30.0, 10_000)])
def test_sample_reports_conjugacy_checked_rows(tmp_path, capsys, anchor, checked):
    """The stderr line says on how many rows the conjugacy was checked:
    every row in the exp range, all of them at anchors 12 and 30."""
    cfg = write_cfg(tmp_path, "s.json", {"geometry": {"anchor": anchor}})
    assert run(["sample", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == (
        f"wrote 20000 rows; conjugacy checked on {checked} of 10000 rows\n")


def test_oracle_box_dim_every_seed(tmp_path):
    """The grid is anchored at the origin, so no middle-thirds sample spills
    into a neighbouring triadic box; seeds 6, 13, 16, 18, 25 and 27 used
    to miss the tolerance with the grid anchored at the cloud's corner."""
    for seed in range(30):
        out = str(tmp_path / f"box{seed}.json")
        assert run(["oracle", "box-dim", "--seed", str(seed), "--out", out]) == 0, seed
        rep = read_json(out)
        assert rep["counts"] == [2 ** k for k in range(7, 0, -1)]


def _per_subparser_parser():
    """The command line as built before the common flags moved to one
    parent parser: the five flags added to each subparser."""
    def common_flags(sp):
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--out", default=None, help="output report path")
        sp.add_argument("--mode", choices=["enumerate", "tail"], default=None,
                        help="accepted and echoed; no effect")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None, help="accepted; no effect")

    p = argparse.ArgumentParser(prog="tractdim",
                                description="dimension certificates for Cantor "
                                            "repellers over logarithmic tracts")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("lemmas", "dim", "sample"):
        common_flags(sub.add_parser(name))
    so = sub.add_parser("oracle")
    so.add_argument("oracle_command", choices=["box-dim", "brute-pressure", "recheck"])
    common_flags(so)
    return p


@pytest.mark.parametrize("argv", [
    ["--help"], ["dim", "--help"], ["oracle", "--help"], ["oracle"], ["dim", "--seed", "x"],
    [], ["dim"], ["oracle", "recheck", "--mode", "tail", "--seed", "3", "--workers", "1"],
    ["sample", "--config", "c.json", "--out", "s.csv"], ["lemmas", "--mode", "fast"]],
    ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_with_shared_flags_equals_per_subparser_flags(capsys, argv):
    """Namespace, stdout, stderr and exit code are those of the reference."""
    results = []
    for build in (_build_parser, _per_subparser_parser):
        try:
            parsed, code = vars(build().parse_args(argv)), None
        except SystemExit as exc:
            parsed, code = None, exc.code
        results.append((parsed, code, capsys.readouterr()))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Each report's keys (schema 5)
# ---------------------------------------------------------------------------

_ECHO = {"schema_version", "command", "config"}
_BOX_DIM_KEYS = _ECHO | {"slope", "counts", "scales", "residual", "expected", "tolerance",
                         "pass"}
_EMPTY_G = {"geometry": {"anchor": 4.0, "inset": 0.5}}


@pytest.mark.parametrize("config, rc, diagnostics", [
    ({}, 0, {"n_segments", "bowen_capped", "bowen_evaluations"}),
    (_EMPTY_G, 2, {"n_segments"}),
], ids=["certificate", "empty-G"])
def test_dim_report_keys(tmp_path, config, rc, diagnostics):
    """The `dim` report carries what decides its certificate only: no copy
    of its config (lambda, R0, R, epsilon, D), no constant (4
    pi, c0) and no lemma margin (eq1, depth, growth).  An empty G has
    P1_lo = -inf, t_lo = t_hi = 0, one diagnostic and one reason."""
    cfg = write_cfg(tmp_path, "c.json", config)
    out = str(tmp_path / "dim.json")
    assert run(["dim", "--config", cfg, "--out", out]) == rc
    rep = read_json(out)
    assert set(rep) == DIM_KEYS
    assert set(rep["diagnostics"]) == diagnostics
    assert (rep["verdict"] == "certified") == (rep["reasons"] == []) == (rc == 0)
    if rc == 2:
        assert (rep["P1_lo"], rep["t_lo"], rep["t_hi"]) == ("-Infinity", 0.0, 0.0)
        assert rep["reasons"] == ["admissible set G is empty at this configuration"]


def test_lemmas_report_keys(tmp_path):
    """No check carries a constant: the growth bound (excess 0, pass true)
    and the always-true `strictly_increasing` are gone."""
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--out", out]) == 0
    rep = read_json(out)
    assert set(rep) == _ECHO | {"distortion_c", "checks", "all_pass"}
    assert {name: set(check) for name, check in rep["checks"].items()} == {
        "anchor_derivative_lower": {"margin", "pass"},
        "anchor_derivative_upper": {"margin", "pass"},
        "tract_depth": {"margin", "pass", "real_part"},
        "expansion_margin": {"margin", "pass"},
        "branch_growth_to_infinity": {"first_past_threshold", "pass"},
        "level_lines": {"curve_count", "required_count", "min_component_length",
                        "required_length", "min_inf_re_margin", "pass"},
        "first_level_in_half_plane": {"margin", "pass"},
    }


@pytest.mark.parametrize("command, keys", [
    ("oracle recheck", _ECHO | {"n_checked", "n_densely_sampled", "n_flagged", "flagged",
                                "min_margin", "pass"}),
    ("oracle brute-pressure", _ECHO | {"letters", "brute_value", "level1_lo", "level1_hi",
                                       "slack_log", "pass"}),
    ("oracle box-dim", _BOX_DIM_KEYS),
])
def test_oracle_report_keys(tmp_path, command, keys):
    """brute-pressure no longer repeats `word_length` and `t` of its config."""
    cfg = write_cfg(tmp_path, "c.json", SMALL_TAIL)
    out = str(tmp_path / "o.json")
    assert run(command.split() + ["--config", cfg, "--out", out]) == 0
    assert set(read_json(out)) == keys


def test_box_dim_csv_report_keys(tmp_path):
    csv_path = tmp_path / "s.csv"
    assert run(["sample", "--out", str(csv_path)]) == 0
    cfg = write_cfg(tmp_path, "c.json", {"oracle": {"source": "csv", "path": str(csv_path)}})
    out = str(tmp_path / "box.json")
    assert run(["oracle", "box-dim", "--config", cfg, "--out", out]) == 0
    assert set(read_json(out)) == _BOX_DIM_KEYS


# ---------------------------------------------------------------------------
# Command-line overrides take the config's path
# ---------------------------------------------------------------------------

def test_seed_past_2_53_runs_as_given(tmp_path):
    """`--seed 2**53 + 1` is merged into the config before it loads: the
    report echoes it, `load_config` resolves it to itself, and a rerun from
    the echoed config is byte-identical.  It is not read as 2**53."""
    seed = 2 ** 53 + 1
    cfg = write_cfg(tmp_path, "c.json", SMALL_TAIL)
    first = tmp_path / "a.json"
    assert run(["oracle", "recheck", "--config", cfg, "--seed", str(seed),
                "--out", str(first)]) == 0
    echoed = read_json(first)["config"]
    assert echoed["sampling"]["seed"] == seed
    assert load_config(echoed).seed == seed
    again = tmp_path / "b.json"
    assert run(["oracle", "recheck", "--config", write_cfg(tmp_path, "e.json", echoed),
                "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    samples = []
    for s in (seed, seed - 1):
        samples.append(tmp_path / f"s{s}.csv")
        assert run(["sample", "--config", cfg, "--seed", str(s),
                    "--out", str(samples[-1])]) == 0
    assert samples[0].read_bytes() != samples[1].read_bytes()


@pytest.mark.parametrize("command, anchor, rc", [
    ("dim", 2.79e6, 0), ("dim", 2.0 ** 23 / 3.0, 0), ("dim", 2_796_203.0, 1),
    ("dim", 22_613_379.0, 1), ("dim", 1e9, 1), ("lemmas", 2_796_203.0, 1),
    ("lemmas", 2.79e6, 0), ("lemmas", 2.0 ** 23 / 3.0, 0)])
def test_anchor_cap(tmp_path, capsys, command, anchor, rc):
    """An anchor whose Q reaches Re = 1.5 * anchor > 2^22 is a config
    error naming the key and the cap, whatever the command; up to the cap
    `dim` certifies and every lemma passes.  The run end past 2^24 at
    anchor 22,613,379 is certified through the library (test_pressure)."""
    cfg = write_cfg(tmp_path, "c.json", {"geometry": {"anchor": anchor}})
    out = str(tmp_path / "x.json")
    assert run([command, "--config", cfg, "--out", out]) == rc
    err = capsys.readouterr().err
    if rc:
        assert err == ("config error: config field geometry.anchor must be at most "
                       f"2^23 / 3 = 2796202.67, where Q reaches Re = 1.5 * anchor = 2^22, "
                       f"got {anchor!r}\n")
    elif command == "dim":
        assert read_json(out)["verdict"] == "certified"
    else:
        assert read_json(out)["all_pass"] is True


_NO_NUMPY = """
import json, sys
import tractdim
from tractdim import cli

def loaded():
    return [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]

def package():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "tractdim")

seen, modules = [loaded()], [package()]
cli.load_config(cli.DEFAULT_CERTIFICATE_CONFIG)
seen.append(loaded())
modules.append(package())
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv))
    seen.append(loaded())
    modules.append(package())
print(json.dumps({"codes": codes, "loaded": seen, "modules": modules}))
"""

# the modules `tractdim dim` at a numeric anchor compiles
_DIM_PATH = ["tractdim", "tractdim.cli", "tractdim.errors", "tractdim.loglift",
             "tractdim.numerics", "tractdim.pressure", "tractdim.tractgeom"]


def test_dim_path_imports_no_numpy(tmp_path):
    """In a fresh interpreter, `import tractdim`, `load_config` of the
    certificate config and `dim` at the default certificate, at an empty G
    (anchor 3), at lam = i, anchor 4000 and at an "auto" anchor load no
    numpy, nor does `lemmas` at the small default, at anchor 2.79e6 and at
    an "auto" anchor.  Nor do they load `dataclasses` or `inspect`: the
    package's records are NamedTuples, and importing it generates no
    dataclass code.  Up to `dim` at its numeric anchors the package
    modules loaded are exactly the certificate's; an "auto" anchor adds
    `lemmas`, and the `lemmas` command `commands`."""
    auto = {"geometry": {"anchor": "auto"}}
    runs = [("dim", None), ("dim", {"geometry": {"anchor": 3.0}}),
            ("dim", {"family": {"lambda_re": 0.0, "lambda_im": 1.0}}), ("dim", auto),
            ("lemmas", None), ("lemmas", {"geometry": {"anchor": 2.79e6}}), ("lemmas", auto)]
    argvs = [[command, "--out", str(tmp_path / f"d{i}.json")]
             + (["--config", write_cfg(tmp_path, f"c{i}.json", c)] if c else [])
             for i, (command, c) in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    with_lemmas = sorted(_DIM_PATH + ["tractdim.lemmas"])
    assert json.loads(done.stdout) == {
        "codes": [0, 2, 0, 0, 0, 0, 0], "loaded": [[]] * 9,
        "modules": [_DIM_PATH] * 5 + [with_lemmas]
                   + [sorted(with_lemmas + ["tractdim.commands"])] * 3}


def _run_auto(tmp_path, command, scan):
    cfg = write_cfg(tmp_path, "c.json", {"geometry": {"anchor": "auto", "scan": scan}})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "tractdim", command, "--config", cfg,
                           "--out", str(tmp_path / "x.json")], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("scan", [[8.0, 4000.0, 1e-3], [8.0, 4000.0, 1e-9], [8.0, 9.0, 1e-300]],
                         ids=["3.99e6-points", "3.99e12-points", "1e300-points"])
@pytest.mark.parametrize("command, code", [("lemmas", 0), ("dim", 2)])
def test_auto_anchor_scan_past_a_million_points_resolves(tmp_path, scan, command, code):
    """An "auto" anchor's scan of more than 10^6 points resolves by
    bisection, here to 8.0: the default scan [8, 4000] at step 1e-3 (3.99M
    points) and 1e-9, and [8, 9] at step 1e-300, which rounds to 0 at 8,
    so that each of its 1e300 points is 8.0.  `lemmas` then exits 0, and
    `dim`, not certified at anchor 8, exits 2, each with no stderr."""
    done = _run_auto(tmp_path, command, scan)
    assert (done.returncode, done.stderr) == (code, "")
    report = json.loads((tmp_path / "x.json").read_text())
    assert report["config"]["geometry"]["anchor"] == 8.0
    if command == "lemmas":
        assert report["all_pass"] is True


@pytest.mark.parametrize("command", ["lemmas", "dim"])
def test_auto_anchor_scan_of_no_finite_point_count_exit_1(tmp_path, command):
    """A scan whose point count overflows to inf is a config error naming
    the step, with no traceback, where `math.ceil` of the count would
    raise."""
    done = _run_auto(tmp_path, command, [8.0, 1e300, 1e-300])
    assert done.returncode == 1
    assert done.stderr == ("config error: scan grid of inf points: step 1e-300 is too small "
                           "for [8.0, 1e+300]\n")


# ---------------------------------------------------------------------------
# The certificate reads Q alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("anchor", [30.0, 85.0, 4000.0])
def test_dim_report_does_not_depend_on_inset_or_epsilon(tmp_path, anchor):
    """The inset and epsilon enter neither G nor the pressure bounds: the
    `dim` report, less its config, is the same for inset 0.5 and 3 and
    epsilon 0.1 and 0.5, with the same exit code, and it lists no lemma
    condition among its reasons."""
    reports = set()
    for inset in (0.5, 3.0):
        for epsilon in (0.1, 0.5):
            cfg = write_cfg(tmp_path, "c.json", {"geometry": {
                "anchor": anchor, "inset": inset, "epsilon": epsilon}})
            out = tmp_path / "dim.json"
            rc = run(["dim", "--config", cfg, "--out", str(out)])
            rep = read_json(out)
            assert rep.pop("config")["geometry"]["inset"] == inset
            reports.add((rc, json.dumps(rep, sort_keys=True)))
    assert len(reports) == 1
    rc, rep = reports.pop()
    assert rc == 0 and json.loads(rep)["reasons"] == []


@pytest.mark.parametrize("family, anchor", [
    ({}, 1.0), ({}, 0.9), ({"r0": 1e10}, 12.0), ({"lambda_re": 0.0, "lambda_im": 1e300}, 12.0),
], ids=["ln-r0", "below-ln-r0", "r0-1e10", "normalized-r0"])
@pytest.mark.parametrize("command", ["lemmas", "dim"])
def test_anchor_at_or_below_ln_r0_exit_1(tmp_path, capsys, family, anchor, command):
    """The anchor must lie in H = {Re z > ln R0}, with R0 taken after
    normalization (lam = 1e300 i lifts ln R0 to 691.8): at or below it the
    config is rejected naming the key and ln R0, where `anchor_line` and
    `distortion_constant` used to raise a traceback."""
    fam = dict(DEFAULT_SMALL_CONFIG["family"], **family)
    ln_r0 = td.normalize_family(td.exponential_family(
        complex(fam["lambda_re"], fam["lambda_im"]), fam["r0"])).ln_r0
    cfg = write_cfg(tmp_path, "c.json", {"family": family,
                                         "geometry": {"anchor": anchor, "inset": 0.2}})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == ("config error: config field geometry.anchor must "
                                       f"exceed ln R0 = {ln_r0!r}, got {anchor!r}\n")


# ---------------------------------------------------------------------------
# Exit codes at the edge inputs
# ---------------------------------------------------------------------------

_COMMANDS = ("lemmas", "dim", "sample", "oracle recheck", "oracle brute-pressure",
             "oracle box-dim")
# edge input -> (config, exit code of each of _COMMANDS)
_EDGE_INPUTS = {
    "anchor-1.001": ({"geometry": {"anchor": 1.001, "inset": 0.2}}, (0, 2, 2, 2, 2, 0)),
    "anchor-1.0": ({"geometry": {"anchor": 1.0, "inset": 0.2}}, (1, 1, 1, 1, 1, 1)),
    "anchor-0.9": ({"geometry": {"anchor": 0.9, "inset": 0.2}}, (1, 1, 1, 1, 1, 1)),
    "empty-G": ({"geometry": {"anchor": 3.0}}, (0, 2, 2, 2, 2, 0)),
    "anchor-30": ({"geometry": {"anchor": 30.0}}, (0, 0, 0, 0, 0, 0)),
    "anchor-4000": ({"geometry": {"anchor": 4000.0, "inset": 3.0}}, (0, 0, 2, 0, 0, 0)),
    "lam-i": ({"family": {"lambda_re": 0.0, "lambda_im": 1.0}, "geometry": {"anchor": 20.0}},
              (0, 2, 0, 0, 0, 0)),
    "lam-0.5+0.5i": ({"family": {"lambda_re": 0.5, "lambda_im": 0.5},
                      "geometry": {"anchor": 50.0}}, (0, 0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("edge", _EDGE_INPUTS)
def test_edge_inputs_exit_codes(tmp_path, edge, command):
    """Each of the north star's edge inputs gives every command its
    documented exit code: an anchor near ln R0 (just past it, at it and
    below it), an empty G, runs past 2^53 (anchor 30) and past the float
    range (anchor 4000, where 2*pi*|s| is no float and `sample` exits 2),
    and non-real lam.  A RuntimeWarning fails the run."""
    config, codes = _EDGE_INPUTS[edge]
    cfg = write_cfg(tmp_path, "c.json", dict(config, sampling={"count": 2000}))
    rc = run(command.split() + ["--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == codes[_COMMANDS.index(command)]


@pytest.mark.parametrize("command", ["dim", "sample", "oracle recheck"])
def test_numeric_failure_exit_3(tmp_path, capsys, monkeypatch, command):
    """A NumericError from the construction, here a planted failure of a
    window's integer bounds, is exit 3 with `numeric failure:` on stderr."""
    def fail(sigma_lo, sigma_hi):
        raise td.NumericError(f"planted failure of [{sigma_lo!r}, {sigma_hi!r}]")

    monkeypatch.setattr(tractgeom, "_sigma_run", fail)
    cfg = write_cfg(tmp_path, "c.json", SMALL_TAIL)
    assert run(command.split() + ["--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: planted failure of [")
