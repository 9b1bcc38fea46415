"""Mutation checks: single AST edits to ``src/ellid`` that named tests must kill.

    python tests/mutants.py

Each entry of ``MUTANTS`` names a module of ``src/ellid``, a function in it
(by qualified name), the source of one node of that function and the source
that replaces it, and the test node ids that must each fail on the edited
code.  For each mutant the runner copies ``src/`` into a temporary directory,
applies the one edit and runs the named tests in one child process with
``PYTHONPATH`` (and pytest's ``pythonpath``) at the copy.  The run fails when
a mutant survives any of its tests, when its tests cannot run, when the
child imported ellid from elsewhere, or when an edit no longer matches
exactly one node, so the table cannot go stale silently.  Mutants run one at
a time.  Stdlib only, apart from the pytest that runs the tests.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PARITY = "tests/test_parity.py::"
GOLDEN_JSON = "tests/test_cli.py::test_check_all_matches_golden_report"
GOLDEN_CSV = "tests/test_cli.py::test_check_all_matches_golden_csv_and_text[csv-check_all.csv]"
GOLDEN_TEXT = "tests/test_cli.py::test_check_all_matches_golden_csv_and_text[text-check_all.txt]"
REFERENCE_JSON = PARITY + "test_render_json_gives_the_reference_bytes"
ARGUMENT_CHECK = "tests/test_series.py::test_argument_checks_raise_their_exact_message"
INVALID_RECORD = "tests/test_records.py::test_invalid_record_raises_same_error"
STRING_TAG = "tests/test_elliptic.py::test_string_tag_reads_as_its_member"
CONSTRAINTS = "tests/test_registry.py::test_constraint_violations_raise"
WINDOW_ENDS = "tests/test_singular.py::test_window_ends_clear_twice_the_error_bound"
ROOT_ONLY = "tests/test_singular.py::test_solve_k_evaluates_g_near_the_root_only"
PLAIN_BISECTION = "tests/test_singular.py::test_solve_k_matches_plain_bisection"
BOTH_WINDOW_ENDS = ("tests/test_singular.py::"
                    "test_replay_ending_on_both_window_ends_matches_plain_bisection")
EDGE = "tests/test_elliptic.py::test_checked_records_refuse_or_keep_each_edge_input"
INFINITE_BOUNDS = "tests/test_registry.py::test_infinite_bounds_do_not_admit_an_infinite_value"


class Mutant(NamedTuple):
    name: str
    module: str       # file name under src/ellid
    function: str     # qualified name of the function holding the node
    before: str       # source of the node to replace
    after: str        # source put in its place
    tests: tuple[str, ...]  # node ids; each must fail on the mutant


MUTANTS = [
    Mutant("p11a-negated-zero", "sides.py", "_p11a_rhs",
           "0.0 - bil.value", "-bil.value",
           (PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P11a]",
            GOLDEN_JSON, GOLDEN_CSV)),
    Mutant("bilateral-exponent-order", "registry.py", "_bilateral_exp_sinh",
           "e = kn * s * w", "e = c * s",
           (PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P12]",)),
    Mutant("bilateral-weights-swapped", "registry.py", "_bilateral_exp_sinh",
           "weight_half_n", "not weight_half_n",
           (PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P11a]",
            PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P12]",
            GOLDEN_JSON, GOLDEN_CSV, GOLDEN_TEXT)),
    Mutant("even-part-from-odd-coefficients", "registry.py", "PolynomialSpec.__new__",
           "coefficients[::2][::-1]", "coefficients[1::2][::-1]",
           (PARITY + "test_hoisted_p10_sum_gives_the_reference_bits[P10]",
            GOLDEN_JSON, GOLDEN_CSV, GOLDEN_TEXT)),
    Mutant("odd-without-sign-flip", "series.py", "_odd",
           "-1.0 * res.value", "res.value",
           ("tests/test_series.py::test_odd_parity_exact",
            "tests/test_theta.py::test_theta4_u_derivative_imag_value")),
    Mutant("positive-guard-passes-zero-and-nan", "series.py", "_require_positive",
           "not x > 0.0", "x < 0.0",
           (ARGUMENT_CHECK + "[S3_alt_n_over_expm1(0.0,)]",
            ARGUMENT_CHECK + "[S5_sech(nan,)]")),
    Mutant("p11a-mirror-at-plus-c", "registry.py", "_bilateral_exp_sinh",
           "-c", "c",
           (PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P11a]",)),
    Mutant("bilateral-exp-over-d-regrouped", "registry.py", "_bilateral_exp_sinh",
           "2.0 * math.exp(-e - x) / d", "math.exp(-e - x) * (2.0 / d)",
           (PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P11a]",
            PARITY + "test_hoisted_bilateral_sum_gives_the_reference_bits[P12]")),
    Mutant("even-part-in-ascending-order", "registry.py", "PolynomialSpec.__new__",
           "coefficients[::2][::-1]", "coefficients[::2]",
           (PARITY + "test_hoisted_p10_sum_gives_the_reference_bits[P10]",
            GOLDEN_JSON, GOLDEN_CSV, GOLDEN_TEXT)),
    Mutant("no-plan-kept", "registry.py", "Registry.run",
           "self._plans[identity] = points, values, order", "pass",
           ("tests/test_registry.py::"
            "test_a_second_run_validates_nothing_and_calls_every_side_again",)),
    Mutant("ties-in-reverse-order", "registry.py", "Registry.run",
           "range(len(rows))", "reversed(range(len(rows)))",
           ("tests/test_registry.py::test_run_gives_the_rows_of_one_sort_after_the_run[0]",)),
    # the modulus/parameter convention
    Mutant("complement-as-one-minus-square", "elliptic.py", "_complement_parameter",
           "(1.0 - k) * (1.0 + k)", "1.0 - k * k",
           (GOLDEN_JSON,
            "tests/test_bench_replay.py::test_reference_deck_matches_reference_lines[sweep]")),
    Mutant("p7-base-binds-classical", "catalog.py", "build_registry",
           "partial(_p7_lhs, _dadk_stated)", "partial(_p7_lhs, _dadk_classical)",
           (GOLDEN_JSON, GOLDEN_CSV, GOLDEN_TEXT)),
    Mutant("string-tag-kept", "elliptic.py", "EllipticArgument.__new__",
           "Convention(convention)", "convention",
           (STRING_TAG + "[modulus]", STRING_TAG + "[parameter]",
            INVALID_RECORD + "[<lambda>-DomainError-elliptic convention must be "
            "'modulus' or 'parameter', got 'bogus']")),
    Mutant("finite-real-accepts-bool", "elliptic.py", "_finite_real",
           "isinstance(x, bool)", "False",
           (INVALID_RECORD + "[<lambda>-DomainError-tolerance must be positive, got True]",
            INVALID_RECORD + "[<lambda>-DomainError-elliptic argument must be finite, got True]",
            INVALID_RECORD + "[polynomial-bool]")),
    # the checks that keep the report's bytes deterministic
    Mutant("json-memo-key-without-type", "reporting.py", "_json_params",
           "(k, type(v), v)", "(k, v)",
           (REFERENCE_JSON + "[all]",)),
    Mutant("json-memo-keeps-zeros", "reporting.py", "_json_params",
           "if v:\n    memo[key] = text", "memo[key] = text",
           (REFERENCE_JSON + "[all]",)),
    Mutant("validate-point-accepts-bool", "registry.py", "IdentityRecord.validate_point",
           "_finite_real(v)", "(isinstance(v, bool) or _finite_real(v))",
           (CONSTRAINTS,)),
    Mutant("finite-real-overflows-on-a-huge-int", "elliptic.py", "_finite_real",
           "(TypeError, OverflowError)", "TypeError",
           (INVALID_RECORD + "[huge-int-argument]", INVALID_RECORD + "[huge-int-nome]",
            INVALID_RECORD + "[huge-int-tolerance]", INVALID_RECORD + "[huge-int-polynomial]",
            CONSTRAINTS)),
    # the closed-form window of solve_k
    Mutant("window-half-width-narrowed", "singular.py", "_window",
           "4.0 * _G_ERROR", "0.5 * _G_ERROR",
           (WINDOW_ENDS, ROOT_ONLY)),
    Mutant("nome-exponent-halved", "singular.py", "_window",
           "-math.pi * b", "-0.5 * math.pi * b",
           (WINDOW_ENDS, ROOT_ONLY)),
    # the tie rule that ends solve_k
    Mutant("tie-keeps-lo", "singular.py", "solve_k",
           "k_b = mid", "k_b = lo",
           (PLAIN_BISECTION,)),
    Mutant("tie-move-uncounted", "singular.py", "solve_k",
           "iterations += mid != lo", "pass",
           (PLAIN_BISECTION,)),
    # the replay's steps outside the window, which move only lo or hi
    Mutant("outside-steps-keep-bracket-g", "singular.py", "solve_k",
           "wlo, glo, whi, ghi = _window(g, b, lo, _BRACKET_LOGS[0] - target, "
           "hi, _BRACKET_LOGS[1] - target)",
           "(wlo, _, whi, _), glo, ghi = (_window(g, b, lo, _BRACKET_LOGS[0] - target, "
           "hi, _BRACKET_LOGS[1] - target), _BRACKET_LOGS[0] - target, "
           "_BRACKET_LOGS[1] - target)",
           (BOTH_WINDOW_ENDS,)),
    # the float shortcuts of the checked records
    Mutant("argument-float-shortcut-without-range", "elliptic.py", "EllipticArgument.__new__",
           "type(value) is not float or not 0.0 <= value <= SINGULAR_CUTOFF",
           "type(value) is not float",
           (EDGE + "[modulus-nan]", EDGE + "[parameter--inf]",
            EDGE + "[str-tag-above-cutoff]")),
    Mutant("nome-float-shortcut-without-range", "elliptic.py", "Nome.__new__",
           "not (type(q) is float or _finite_real(q)) or not 0.0 <= q < 1.0",
           "not (type(q) is float or _finite_real(q))",
           (EDGE + "[nome-nan]", EDGE + "[nome-inf]", EDGE + "[nome-1.0]")),
    Mutant("validate-point-shortcut-without-isfinite", "registry.py",
           "IdentityRecord.validate_point",
           "math.isfinite(v)", "True",
           (INFINITE_BOUNDS + "[inf]", INFINITE_BOUNDS + "[-inf]")),
    Mutant("rel-text-reused-at-zero", "reporting.py", "render_json",
           "rel == ab != 0.0", "rel == ab",
           (REFERENCE_JSON + "[row24]", REFERENCE_JSON + "[all]")),
    Mutant("rel-text-reused-across-types", "reporting.py", "render_json",
           "rel == ab != 0.0 and type(rel) is type(ab) is float", "rel == ab != 0.0",
           (REFERENCE_JSON + "[row25]", REFERENCE_JSON + "[row26]")),
    Mutant("terms-fast-path-too-broad", "reporting.py", "render_json",
           'len(t) == 2 and "lhs" in t and "rhs" in t', '"lhs" in t and "rhs" in t',
           (REFERENCE_JSON + "[row8]", REFERENCE_JSON + "[all]")),
    Mutant("terms-fast-path-swapped", "reporting.py", "render_json",
           r'''f"\"lhs\": {int(t['lhs'])}, \"rhs\": {int(t['rhs'])}"''',
           r'''f"\"rhs\": {int(t['rhs'])}, \"lhs\": {int(t['lhs'])}"''',
           (REFERENCE_JSON + "[row0]", GOLDEN_JSON)),
    Mutant("one-memo-for-both-sides", "registry.py", "_reports_at",
           "lhs_seen, rhs_seen = {}, {}", "lhs_seen = rhs_seen = {}",
           ("tests/test_registry.py::test_variants_share_each_side_once_per_point",
            "tests/test_registry.py::test_check_grid_shares_each_side_once_per_point")),
    # the one AGM descent of K and E
    Mutant("ke-K-from-last-a", "elliptic.py", "_ke",
           "math.pi / (2.0 * (0.5 * (a + b)))", "math.pi / (2.0 * a)",
           ("tests/test_elliptic.py::test_K_has_the_bits_of_the_raw_agm",
            "tests/test_bench_replay.py::test_reference_deck_matches_reference_lines[library]")),
    # the process entry
    Mutant("entry-freezes-nothing", "cli.py", "_entry",
           "gc.freeze()", "None",
           ("tests/test_cli.py::test_entry_freezes_the_heap_before_main",)),
]


class StaleMutant(Exception):
    """An edit that no longer matches exactly one node of its function."""


def _pattern(source: str) -> str:
    """The ``ast.dump`` of the one statement, or expression, in ``source``."""
    (node,) = ast.parse(source).body
    return ast.dump(node.value if isinstance(node, ast.Expr) else node)


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    scope = tree
    for name in qualname.split("."):
        found = [n for n in scope.body
                 if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name]
        if len(found) != 1:
            raise StaleMutant(f"{qualname}: {len(found)} definitions of {name!r}")
        scope = found[0]
    return scope


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's one edit made; raises ``StaleMutant``."""
    want = _pattern(mutant.before)
    matches = [n for n in ast.walk(_function(ast.parse(source), mutant.function))
               if isinstance(n, (ast.expr, ast.stmt)) and ast.dump(n) == want]
    if len(matches) != 1:
        raise StaleMutant(f"{mutant.name}: {mutant.before!r} matches {len(matches)} "
                          f"nodes of {mutant.module}:{mutant.function}")
    node = matches[0]
    lines = source.splitlines(keepends=True)
    # ast offsets are UTF-8 byte offsets within their line
    first = lines[node.lineno - 1].encode()
    last = lines[node.end_lineno - 1].encode()
    edited = (first[:node.col_offset] + mutant.after.encode()
              + last[node.end_col_offset:]).decode()
    return "".join(lines[:node.lineno - 1] + [edited] + lines[node.end_lineno:])


class _Failures:
    """A pytest plugin that keeps the node ids of failed tests."""

    def __init__(self) -> None:
        self.ids: set[str] = set()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.add(report.nodeid)


def _child(copy: str, test_ids: list[str]) -> int:
    """Run ``test_ids`` against the ellid under ``copy``; print one JSON line."""
    import pytest

    failures = _Failures()
    code = pytest.main(["-q", "-p", "no:cacheprovider", "-o", f"pythonpath={copy}",
                        *test_ids], plugins=[failures])
    import ellid
    print(json.dumps({"exit": int(code), "failed": sorted(failures.ids),
                      "ellid": ellid.__file__}))
    return 0


def run(mutant: Mutant) -> str:
    """'' when every named test kills ``mutant``, else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "ellid" / mutant.module
        target.write_text(apply(mutant, target.read_text()))
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(copy), *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return f"no result from the test child:\n{proc.stdout}{proc.stderr}"
        if not result["ellid"].startswith(str(copy)):
            return f"the tests imported ellid from {result['ellid']}"
        if result["exit"] not in (0, 1):
            return f"pytest exited {result['exit']}:\n{proc.stdout}"
        survived = [t for t in mutant.tests if t not in result["failed"]]
        return f"survived {', '.join(survived)}" if survived else ""


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2:])
    bad = 0
    for mutant in MUTANTS:
        try:
            problem = run(mutant)
        except StaleMutant as exc:
            problem = f"stale edit: {exc}"
        bad += bool(problem)
        print(f"{mutant.name}: {problem or 'killed'}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutant(s) killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
