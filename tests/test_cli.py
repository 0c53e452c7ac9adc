import json
import math

import numpy as np
import pytest

import tractdim as td
from tractdim.cli import main


def run(args):
    return main(args)


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


SMALL_TAIL = {"geometry": {"anchor": 12.0, "inset": 0.5},
              "pressure": {"mode": "tail"},
              "sampling": {"count": 2000, "depth": 5, "seed": 42}}


def test_lemmas_default_all_pass(tmp_path):
    out = str(tmp_path / "lemmas.json")
    assert run(["lemmas", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["all_pass"] is True
    assert rep["schema_version"] == 1
    assert "config" in rep
    for check in rep["checks"].values():
        assert check["pass"]


def test_lemmas_rerun_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["lemmas", "--out", a]) == 0
    assert run(["lemmas", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_lemmas_geometry_error_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json",
                    {"geometry": {"anchor": 12.0, "inset": 4.0}})
    assert run(["lemmas", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


def test_dim_certificate_exit_0(tmp_path):
    out = str(tmp_path / "cert.json")
    assert run(["dim", "--out", out]) == 0
    cert = json.loads(open(out).read())
    assert cert["verdict"] == "certified"
    assert cert["P1_lo"] > 0
    assert cert["t_lo"] >= 1.001
    assert cert["runtime_ms"] is None
    for key in ("family", "lambda", "R0", "R", "epsilon", "D", "C", "mode",
                "sigma_sum_t1_lo", "P1_lo", "t_lo", "t_hi", "verdict",
                "runtime_ms", "constants"):
        assert key in cert
    assert set(cert["constants"]) == {"c0", "a", "b", "C1_empirical"}


def test_dim_small_anchor_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "small.json", SMALL_TAIL)
    out = str(tmp_path / "cert12.json")
    assert run(["dim", "--config", cfg, "--out", out]) == 2
    cert = json.loads(open(out).read())
    assert cert["verdict"] == "not-certified"
    assert cert["reasons"]


def test_dim_invalid_config_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "neg.json", {"geometry": {"epsilon": -0.5}})
    assert run(["dim", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


def test_dim_double_auto_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "auto.json",
                    {"geometry": {"anchor": "auto", "inset": "auto"}})
    assert run(["dim", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


def test_sample_rows_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", SMALL_TAIL)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["sample", "--config", cfg, "--out", a]) == 0
    assert run(["sample", "--config", cfg, "--out", b, "--workers", "4"]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    lines = open(a).read().splitlines()
    assert lines[0] == "re,im,space,depth,word_rank"
    assert len(lines) == 1 + 2 * 2000  # lifted + plane rows
    spaces = {ln.split(",")[2] for ln in lines[1:]}
    assert spaces <= {"lifted", "plane", "plane_logpolar"}


def test_sample_seed_changes_words_not_statistics(tmp_path):
    cfg1 = write_cfg(tmp_path, "s1.json",
                     dict(SMALL_TAIL, sampling={"count": 10000, "depth": 4, "seed": 1}))
    cfg2 = write_cfg(tmp_path, "s2.json",
                     dict(SMALL_TAIL, sampling={"count": 10000, "depth": 4, "seed": 2}))
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["sample", "--config", cfg1, "--out", a]) == 0
    assert run(["sample", "--config", cfg2, "--out", b]) == 0
    assert open(a, "rb").read() != open(b, "rb").read()

    def lifted_upper_fraction(path):
        rows = [ln.split(",") for ln in open(path).read().splitlines()[1:]]
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


def test_oracle_brute_pressure_without_distortion_constant_exit_2(tmp_path, capsys):
    # below the Koebe range (rho > 1) yet with a non-empty G: an infinite
    # distortion slack would make the comparison vacuous
    cfg = write_cfg(tmp_path, "koebe.json",
                    {"family": {"lambda_re": 0.01},
                     "geometry": {"anchor": 3.3, "inset": 0.5},
                     "pressure": {"mode": "enumerate"}})
    out = str(tmp_path / "o.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 2
    assert "distortion constant" in capsys.readouterr().err


def test_oracle_box_dim(tmp_path):
    out = str(tmp_path / "box.json")
    assert run(["oracle", "box-dim", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert abs(rep["slope"] - math.log(2) / math.log(3)) <= 0.05
    assert rep["pass"] is True


def test_oracle_brute_pressure(tmp_path):
    cfg = write_cfg(tmp_path, "bp.json", SMALL_TAIL)
    out = str(tmp_path / "bp_out.json")
    assert run(["oracle", "brute-pressure", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["pass"] is True
    assert rep["level1_lo"] - rep["slack_log"] <= rep["brute_value"] \
        <= rep["level1_hi"] + rep["slack_log"]


def test_oracle_recheck_clean(tmp_path):
    cfg = write_cfg(tmp_path, "rc.json", SMALL_TAIL)
    out = str(tmp_path / "rc_out.json")
    assert run(["oracle", "recheck", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["n_flagged"] == 0
    assert rep["pass"] is True


def test_config_merging_preserves_defaults(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", {"sampling": {"seed": 9}})
    out = str(tmp_path / "m_out.json")
    assert run(["lemmas", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["config"]["sampling"]["seed"] == 9
    assert rep["config"]["geometry"]["anchor"] == 12.0


def test_malformed_json_exit_1(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run(["lemmas", "--config", str(p), "--out", str(tmp_path / "x.json")]) == 1
