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
    # the checks that keep the report's bytes deterministic
    Mutant("json-memo-key-without-type", "reporting.py", "_json_params",
           "(k, type(v), v)", "(k, v)",
           (REFERENCE_JSON + "[all]",)),
    Mutant("json-memo-keeps-zeros", "reporting.py", "_json_params",
           "if v:\n    memo[key] = text", "memo[key] = text",
           (REFERENCE_JSON + "[all]",)),
    Mutant("validate-point-accepts-bool", "registry.py", "IdentityRecord.validate_point",
           "isinstance(v, bool)", "False",
           ("tests/test_registry.py::test_constraint_violations_raise",)),
    Mutant("rel-text-reused-at-zero", "reporting.py", "render_json",
           "rel == ab != 0.0", "rel == ab",
           (REFERENCE_JSON + "[row24]", REFERENCE_JSON + "[all]")),
    Mutant("one-memo-for-both-sides", "registry.py", "_reports_at",
           "lhs_seen, rhs_seen = {}, {}", "lhs_seen = rhs_seen = {}",
           ("tests/test_registry.py::test_variants_share_each_side_once_per_point",
            "tests/test_registry.py::test_check_grid_shares_each_side_once_per_point")),
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
