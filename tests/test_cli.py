"""Command-line front end: exit codes, formats, overrides, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ellid
from ellid import ConfigError, run_all
from ellid.cli import RunConfig, main
from ellid.reporting import render_json

# The directory ellid was imported from, so child interpreters load the same
# package whether or not it is installed.
ELLID_ROOT = str(Path(ellid.__file__).resolve().parent.parent)

GOLDEN_REPORT = Path(__file__).parent / "data" / "check_all.json"


def child_env(**extra):
    return dict(PATH="/usr/bin:/bin", PYTHONPATH=ELLID_ROOT, **extra)


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- list ----------------------------------------------------------------------

def test_list_all_rows(capsys):
    rc, out, _ = run(["list"], capsys)
    assert rc == 0
    rows = [l for l in out.splitlines()[2:] if l.strip()]
    assert len(rows) == 25
    assert any(l.startswith("P1 ") for l in rows)


def test_list_filter_single(capsys):
    rc, out, _ = run(["list", "P1"], capsys)
    assert rc == 0
    rows = [l for l in out.splitlines()[2:] if l.strip()]
    assert len(rows) == 1
    assert rows[0].startswith("P1")
    assert "theta4" in rows[0]


def test_list_unknown_id(capsys):
    rc, _, err = run(["list", "NOPE"], capsys)
    assert rc == 2
    assert "NOPE" in err


# -- check ---------------------------------------------------------------------

def test_check_expect_pass_entry(capsys):
    rc, out, _ = run(["check", "E4"], capsys)
    assert rc == 0
    assert out.count("PASS") == 3


def test_check_unknown_exits_2(capsys):
    rc, _, err = run(["check", "NOPE"], capsys)
    assert rc == 2
    assert "unknown identity" in err


def test_check_contested_exits_0(capsys):
    rc, out, _ = run(["check", "P6b"], capsys)
    assert rc == 0
    assert "FAIL" in out and "PASS" in out


def test_check_starved_cap_exits_1(capsys):
    # an ExpectPass entry with a cap too small to converge must fail the run
    rc, out, _ = run(["check", "P1", "--cap", "2"], capsys)
    assert rc == 1
    assert "INCONCLUSIVE" in out


def test_check_grid_override(capsys):
    rc, out, _ = run(["check", "E4", "--grid", "a=1"], capsys)
    assert rc == 0
    rows = [l for l in out.splitlines() if l.startswith("E4")]
    assert len(rows) == 1


def test_check_grid_override_bad_name(capsys):
    rc, _, err = run(["check", "E4", "--grid", "zz=1"], capsys)
    assert rc == 2
    assert "zz" in err


def test_check_grid_override_constraint_violation(capsys):
    rc, _, err = run(["check", "P1", "--grid", "t=3.0"], capsys)
    assert rc == 2
    assert "2|t|" in err or "constraint" in err.lower()


def test_check_p8_underflowed_denominator_is_inconclusive(capsys):
    # at r = 16, E K - K^2 underflows to 0 in the stated dr/dm: the point
    # must become an INCONCLUSIVE row, not a traceback
    rc, out, _ = run(["check", "P8", "--grid", "r=16", "--format", "json"], capsys)
    assert rc == 0
    base, classical = json.loads(out)
    assert base["variant"] == "base"
    assert base["classification"] == "INCONCLUSIVE"
    assert base["note"].startswith("ZeroDivisionError")
    assert classical["classification"] == "PASS"


# -- check-all -----------------------------------------------------------------

def test_check_all_json_deterministic(tmp_path, capsys):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    rc1, _, _ = run(["check-all", "--format", "json", "--out", str(p1)], capsys)
    rc2, _, _ = run(["check-all", "--format", "json", "--out", str(p2)], capsys)
    assert rc1 == rc2 == 0
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    parsed = json.loads(b1)
    assert len(parsed) == 172


def test_check_all_hash_seed_independent(tmp_path):
    # separate interpreter processes with different hash seeds must emit
    # identical bytes
    outs = []
    for seed in ("1", "99"):
        path = tmp_path / f"seed{seed}.json"
        subprocess.run(
            [sys.executable, "-m", "ellid.cli", "check-all",
             "--format", "json", "--out", str(path)],
            check=True, env=child_env(PYTHONHASHSEED=seed))
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_check_all_matches_golden_report(capsys):
    # any intended change to the report bytes regenerates the golden file
    golden = GOLDEN_REPORT.read_bytes()
    assert render_json(run_all()).encode() == golden
    rc, out, _ = run(["check-all", "--format", "json"], capsys)
    assert rc == 0
    assert out.encode() == golden


def test_cli_import_loads_no_thread_pool():
    code = ("import sys, ellid.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_check_all_only_filter(tmp_path, capsys):
    p = tmp_path / "only.csv"
    rc, _, _ = run(["check-all", "--only", "E4", "--only", "E5b",
                    "--format", "csv", "--out", str(p)], capsys)
    assert rc == 0
    lines = p.read_text().splitlines()
    assert len(lines) == 1 + 3 + 3


def test_check_all_unknown_only(capsys):
    rc, _, err = run(["check-all", "--only", "XX"], capsys)
    assert rc == 2


# -- eval ----------------------------------------------------------------------

def test_eval_K(capsys):
    rc, out, _ = run(["eval", "K", "--k", "0.5"], capsys)
    assert rc == 0
    assert out.startswith("value = 1.6857503548125961")


def test_eval_K_needs_argument(capsys):
    rc, _, err = run(["eval", "K"], capsys)
    assert rc == 2
    assert "--k" in err


def test_eval_solve_k(capsys):
    rc, out, _ = run(["eval", "solve_k", "--a", "1"], capsys)
    assert rc == 0
    assert "k = 0.70710678118654746" in out
    assert "residual" in out


def test_eval_series_prints_metadata(capsys):
    rc, out, _ = run(["eval", "S1", "--a", "1", "--t", "0"], capsys)
    assert rc == 0
    assert "value = 0.088512592659162" in out
    assert "terms_used =" in out
    assert "tail_bound =" in out


def test_eval_theta(capsys):
    rc, out, _ = run(["eval", "theta4", "--u", "0", "--q", "0.1"], capsys)
    assert rc == 0
    assert "value = 0.80019999800000019" in out


def test_eval_unknown_function(capsys):
    rc, _, err = run(["eval", "frobnicate", "--a", "1"], capsys)
    assert rc == 2
    assert "frobnicate" in err


def test_eval_domain_error_exits_2(capsys):
    rc, _, err = run(["eval", "S7", "--a", "2", "--v", "3.5"], capsys)
    assert rc == 2
    assert "DomainError" in err


def test_eval_missing_required_flag(capsys):
    rc, _, err = run(["eval", "S1", "--a", "1"], capsys)
    assert rc == 2
    assert "--t" in err


# -- configuration ----------------------------------------------------------------

def test_env_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv("ELLID_CAP", "2")
    rc, _, _ = run(["check", "P1"], capsys)
    assert rc == 1  # starved cap from the environment


def test_flag_beats_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("ELLID_CAP", "2")
    rc, _, _ = run(["check", "P1", "--cap", "10000"], capsys)
    assert rc == 0


def test_bad_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("ELLID_CAP", "banana")
    rc, _, err = run(["check", "P1"], capsys)
    assert rc == 2
    assert "ELLID_CAP" in err


def test_run_config_validation_names_field():
    with pytest.raises(ConfigError, match="tolerance"):
        RunConfig(tolerance=-1.0)
    with pytest.raises(ConfigError, match="cap"):
        RunConfig(cap=0)
    with pytest.raises(ConfigError, match="format"):
        RunConfig(format="yaml")


def test_malformed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "E4", "--format", "yaml"])
    assert e.value.code == 2
