"""Command-line front end: exit codes, formats, overrides, determinism."""

import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellid
from ellid import Expectation, NonConvergenceError, cli, default_registry, registry
from ellid.cli import EVAL_TABLE, build_parser, main
from ellid.reporting import render_json

# The directory ellid was imported from, so child interpreters load the same
# package whether or not it is installed.
ELLID_ROOT = str(Path(ellid.__file__).resolve().parent.parent)

GOLDEN_REPORT = Path(__file__).parent / "data" / "check_all.json"


def child_env(**extra):
    # no bytecode: a child writing it into src/ would change every later
    # cold start of the package
    return dict(PATH="/usr/bin:/bin", PYTHONPATH=ELLID_ROOT, PYTHONDONTWRITEBYTECODE="1",
                **extra)


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


def test_check_contested_exits_0(capsys):
    rc, out, _ = run(["check", "P6b"], capsys)
    assert rc == 0
    assert "FAIL" in out and "PASS" in out


def test_check_expect_pass_side_failure_exits_1(monkeypatch, capsys):
    # an ExpectPass entry with a non-PASS point must fail the run
    def side(x):
        raise NonConvergenceError(f"no value at x={x!r}")

    record = registry.IdentityRecord(
        "T", "test identity", (registry.ParamSpec("x", (1.0,)),),
        (registry.Variant("base", side, side),), Expectation.EXPECT_PASS)
    monkeypatch.setattr(cli, "default_registry", lambda: registry.Registry([record]))
    rc, out, _ = run(["check", "T"], capsys)
    assert rc == 1
    assert "INCONCLUSIVE" in out


def test_check_grid_override(capsys):
    rc, out, _ = run(["check", "E4", "--grid", "a=1"], capsys)
    assert rc == 0
    rows = [l for l in out.splitlines() if l.startswith("E4")]
    assert len(rows) == 1


def test_check_repeated_grid_name_merges_values(capsys):
    rc, out, _ = run(["check", "E4", "--grid", "a=0.5", "--grid", "a=1",
                      "--format", "csv"], capsys)
    assert rc == 0
    assert run(["check", "E4", "--grid", "a=0.5,1", "--format", "csv"],
               capsys) == (rc, out, "")
    assert len(out.splitlines()) == 1 + 2


def test_check_repeated_grid_value_gives_one_row(capsys):
    rc, out, _ = run(["check", "E4", "--grid", "a=1,1.0", "--format", "csv"],
                     capsys)
    assert rc == 0
    assert run(["check", "E4", "--grid", "a=1", "--format", "csv"],
               capsys) == (rc, out, "")


def test_check_grid_override_bad_name(capsys):
    rc, _, err = run(["check", "E4", "--grid", "zz=1"], capsys)
    assert rc == 2
    assert "zz" in err


def test_check_grid_override_constraint_violation(capsys):
    rc, _, err = run(["check", "P1", "--grid", "t=3.0"], capsys)
    assert rc == 2
    assert "2|t|" in err or "constraint" in err.lower()


@pytest.mark.parametrize("identity, grid, err", [
    ("E4", "zz=1", "check failed: grid: E4 has no parameter 'zz'\n"),
    ("P1", "t=3.0", "check failed: P1: point {'a': 0.8, 't': 3.0} violates 2|t| < pi*a\n"),
    ("E8", "q=0", "check failed: E8: point {'z': 0.3, 'q': 0.0} violates q > 0\n"),
    ("E4", "a", "invalid configuration: grid: expected name=v1,v2,..., got 'a'\n"),
    ("E4", "a=1,,2", "invalid configuration: grid: empty value in 'a=1,,2'\n"),
    ("E4", "a=0.01", "check failed: E4: a=0.01 below 0.11\n"),
    ("E4", "a=abc", "check failed: E4: a='abc' is not a finite number\n"),
    ("E4", "a=nan", "check failed: E4: a=nan is not a finite number\n"),
])
def test_check_grid_errors_are_exact(identity, grid, err, capsys):
    assert run(["check", identity, "--grid", grid], capsys) == (2, "", err)


def test_check_all_only_runs_each_id_once_sorted(capsys):
    argv = ["check-all", "--only", "P6b", "--only", "E4", "--only", "P6b",
            "--format", "json"]
    want = render_json(default_registry().run(["E4"]) + default_registry().run(["P6b"]))
    assert run(argv, capsys) == (0, want, "")


@pytest.mark.parametrize("identity", default_registry().ids())
def test_check_default_grid_override_matches_plain_check(identity, capsys):
    # --grid at the default grid gives the same bytes as the run without it
    record = default_registry().get(identity)
    grid = [f"{p.name}={','.join(map(str, p.grid))}" for p in record.params]
    rc, plain, _ = run(["check", identity, "--format", "json"], capsys)
    argv = ["check", identity, "--format", "json"]
    for item in grid:
        argv += ["--grid", item]
    assert run(argv, capsys) == (rc, plain, "")


@pytest.mark.parametrize("identity", default_registry().ids())
def test_check_gives_the_rows_of_registry_run(identity, capsys):
    # check takes the --grid path at the default grid; the rows are Registry.run's
    _, out, err = run(["check", identity, "--format", "json"], capsys)
    assert (out, err) == (render_json(default_registry().run([identity])), "")


def test_every_default_grid_point_is_valid():
    # so the default grid, run as explicit points, neither exits 2 nor drops one
    for record in default_registry().records():
        names = [p.name for p in record.params]
        points = [dict(zip(names, combo))
                  for combo in itertools.product(*(p.grid for p in record.params))]
        for point in points:
            record.validate_point(point)  # the constraint included
        assert points == record.grid_points()


def test_check_unwritable_out_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "report.json")
    rc, out, err = run(["check", "E4", "--out", path], capsys)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and path in err


@pytest.mark.parametrize("argv", [["check-all"], ["check", "E4", "--format", "json"],
                                  ["list"], ["eval", "S1", "--a", "1", "--t", "0.3"]])
def test_stdout_whose_reader_has_gone_exits_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ellid.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "cannot write report to stdout: Broken pipe\n"


@pytest.mark.parametrize("r, denominator", [(12.5, "pi m (1-m) K dr/dm is 0"),
                                              (16, "E K - K^2 is 0")],
                         ids=["p8-rhs", "stated-drdm"])
def test_check_p8_underflowed_denominator_is_inconclusive(r, denominator, capsys):
    # At r = 12.5 the stated dr/dm is 0, so P8's right side would divide by
    # 0; at r = 16, E K - K^2 is 0 inside the stated dr/dm.  Either point
    # is an INCONCLUSIVE row whose note names that denominator.
    rc, out, _ = run(["check", "P8", "--grid", f"r={r}", "--format", "json"], capsys)
    assert rc == 0
    base, classical = json.loads(out)
    assert base["variant"] == "base"
    assert base["classification"] == "INCONCLUSIVE"
    assert base["note"].startswith(f"DomainError: {denominator} at ")
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
    # and CI's golden-bytes step: the report on stdout through the process
    # entry's whole exit path, warnings as errors, exit 0 and a quiet stderr
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ellid.cli", "check-all", "--format", "json"],
        capture_output=True, env=child_env())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == outs[0] == GOLDEN_REPORT.read_bytes()


def test_check_all_matches_golden_report(capsys):
    # any intended change to the report bytes regenerates the golden file
    golden = GOLDEN_REPORT.read_bytes()
    assert render_json(default_registry().run_all()).encode() == golden
    rc, out, _ = run(["check-all", "--format", "json"], capsys)
    assert rc == 0
    assert out.encode() == golden


@pytest.mark.parametrize("fmt, name", [("csv", "check_all.csv"),
                                       ("text", "check_all.txt")])
def test_check_all_matches_golden_csv_and_text(fmt, name, capsys):
    # the csv and text renderings are pinned byte for byte like the json one
    golden = (GOLDEN_REPORT.parent / name).read_bytes()
    rc, out, _ = run(["check-all", "--format", fmt], capsys)
    assert rc == 0
    assert out.encode() == golden


def test_golden_report_matches_benchmark_reference():
    # the benchmark checks check-all against its own copy; an intended byte
    # change must update both files together
    bench_ref = Path(__file__).parent.parent / "bench" / "ref" / "check_all.json"
    assert GOLDEN_REPORT.read_bytes() == bench_ref.read_bytes()


def test_cli_import_loads_no_thread_pool_dataclasses_fractions_or_csv():
    # Each of these costs the cold CLI start milliseconds it does not need.
    code = ("import sys, ellid.cli; "
            "print(' '.join(m for m in ('concurrent.futures', 'dataclasses', "
            "'inspect', 'fractions', 'csv') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=child_env())
    assert out.stdout.split() == []


def test_child_interpreters_write_no_bytecode():
    code = "import sys; print(sys.flags.dont_write_bytecode)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=child_env())
    assert out.stdout == "1\n"


def test_check_all_only_filter(tmp_path, capsys):
    p = tmp_path / "only.csv"
    rc, _, _ = run(["check-all", "--only", "E4", "--only", "E5b",
                    "--format", "csv", "--out", str(p)], capsys)
    assert rc == 0
    lines = p.read_text().splitlines()
    assert len(lines) == 1 + 3 + 3


def test_check_all_repeated_only_lists_each_id_once(capsys):
    rc, out, _ = run(["check-all", "--only", "E4", "--only", "E4",
                      "--format", "csv"], capsys)
    assert rc == 0
    assert len(out.splitlines()) == 1 + 3


def test_check_all_unknown_only(capsys):
    rc, _, err = run(["check-all", "--only", "XX"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv, err", [
    (["list", "ZZ", "P1", "XX"], "XX, ZZ"),
    (["check-all", "--only", "ZZ", "--only", "P1", "--only", "XX"], "XX, ZZ"),
    (["check", "XX"], "XX"),
])
def test_unknown_ids_are_refused_alike(argv, err, capsys):
    assert run(argv, capsys) == (2, "", f"unknown identity id(s): {err}\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("identity", default_registry().ids())
def test_check_is_check_all_only(identity, fmt, capsys):
    want = run(["check-all", "--only", identity, "--format", fmt], capsys)
    assert run(["check", identity, "--format", fmt], capsys) == want


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


def test_eval_solve_k_catalog_value_pinned(capsys):
    rc, out, _ = run(["eval", "solve_k", "--a", "2"], capsys)
    assert rc == 0
    assert out == "k = 0.17157287525380988\niterations = 52\nresidual = 0\n"


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


@pytest.mark.parametrize("argv", [
    ["theta2", "--u", "1e308", "--q", "0.5"],
    ["theta4", "--u", "inf", "--q", "0.5"],
    ["theta3", "--u", "nan", "--q", "0.5"],
    ["S2", "--c", "1", "--theta", "inf"],
    ["S6", "--a", "1", "--v", "1e308"],
    ["S10", "--z", "inf", "--q", "0.5"],
])
def test_eval_nonfinite_or_overflowing_argument_exits_2(argv):
    proc = subprocess.run([sys.executable, "-m", "ellid.cli", "eval", *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_eval_flags_are_those_some_function_reads():
    # a flag no function reads would be accepted and silently ignored
    args = vars(build_parser().parse_args(["eval", "K"]))
    flags = set(args) - {"command", "function", "fn", "tol", "cap"}
    read = {f for _, fl in EVAL_TABLE.values() for f in fl or ()}
    assert flags == read | {"k", "m"}
    assert "s" not in flags


@pytest.mark.parametrize("argv, message", [
    (["S1", "--a", "1", "--t", "0", "--theta", "3"], "S1 does not read --theta"),
    (["K", "--k", "0.5", "--a", "3"], "K does not read --a"),
    (["theta4", "--u", "0", "--q", "0.1", "--k", "0.5", "--x", "1"],
     "theta4 does not read --k --x"),
    (["K", "--k", "0.5", "--m", "0.25"], "pass exactly one of --k / --m"),
    (["S1", "--a", "inf", "--t", "0"], "S1: --a must be finite, got inf"),
])
def test_eval_refuses_an_invalid_invocation(argv, message, capsys):
    rc, out, err = run(["eval", *argv], capsys)
    assert (rc, out) == (2, "")
    assert err == f"invalid invocation: {message}\n"


def test_eval_takes_tol_and_cap_for_every_function(capsys):
    for name, (_, flags) in EVAL_TABLE.items():
        argv = ["eval", name, "--tol", "1e-12", "--cap", "500"]
        for flag in flags or ("k",):
            argv += [f"--{flag}", "0.25"]
        rc, out, err = run(argv, capsys)
        assert (rc, err) == (0, ""), name
        assert out.startswith(("value = ", "k = ")), name


def test_eval_missing_required_flag(capsys):
    rc, _, err = run(["eval", "S1", "--a", "1"], capsys)
    assert rc == 2
    assert "--t" in err


# -- configuration ----------------------------------------------------------------

def test_environment_does_not_set_the_cap(capsys, monkeypatch):
    # the report is a function of the command line alone
    monkeypatch.setenv("ELLID_CAP", "2")
    assert run(["check", "P1"], capsys)[0] == 0

@pytest.mark.parametrize("flags, message", [
    (["--tol", "-1"], "tolerance must be positive, got -1.0"),
    (["--tol", "nan"], "tolerance must be positive, got nan"),
    (["--cap", "0"], "cap must be >= 1, got 0"),
])
def test_bad_tolerance_or_cap_exits_2(flags, message, capsys):
    rc, out, err = run(["eval", "S5", "--a", "1"] + flags, capsys)
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    assert err.endswith(f": {message}\n")


@pytest.mark.parametrize("command", [["check", "E4"], ["check-all", "--only", "E4"]])
@pytest.mark.parametrize("flags", [["--tol", "1e-15"], ["--tol", "-1"], ["--cap", "2"]])
def test_audit_refuses_tolerance_and_cap(command, flags, capsys):
    # the audit runs at one policy, so its report is a function of the ids
    # and --grid alone
    with pytest.raises(SystemExit) as e:
        main(command + flags)
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(flags)}\n" in err


def test_malformed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "E4", "--format", "yaml"])
    assert e.value.code == 2


# -- the process entry ---------------------------------------------------------

def test_entry_freezes_the_heap_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    assert cli._entry() == 7
    assert calls == ["freeze", "main"]


@pytest.mark.parametrize("argv", [["list"], ["check", "E4"], ["check-all"],
                                  ["eval", "K", "--k", "0.5"]])
def test_main_in_process_freezes_nothing(argv, capsys):
    # a frozen caller's heap would keep its garbage cycles for good
    frozen = gc.get_freeze_count()
    assert run(argv, capsys)[0] == 0
    assert gc.get_freeze_count() == frozen


def test_script_entry_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ellid": "ellid.cli:_entry"}
