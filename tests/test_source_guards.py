"""Guards on the source of the kernel modules and the CLI, read with ``ast``,
and on the size and the loops of every module of ellid."""

import ast
import tokenize
from pathlib import Path

import pytest

from ellid import catalog, cli, elliptic, series, singular, theta

# Without a bytecode cache, compiling the largest module sets the peak RSS of
# a cold import.  A module that needs more room is split further, never made
# denser.
MAX_MODULE_TOKENS = 4096


def _fstrings_built_before_a_failure(module):
    """Line numbers of f-strings outside a ``raise`` and ``_summation_error``.

    An argument check whose message is an f-string formats it on every
    call, even when the check passes; inside a ``raise`` it is built only
    on the failing path.
    """
    tree = ast.parse(Path(module.__file__).read_text())
    lines = []

    def visit(node, exempt):
        exempt = exempt or isinstance(node, ast.Raise) or (
            isinstance(node, ast.FunctionDef) and node.name == "_summation_error")
        if isinstance(node, ast.JoinedStr) and not exempt:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(tree, False)
    return lines


@pytest.mark.parametrize("module", [series, theta, elliptic, singular],
                         ids=lambda m: m.__name__)
def test_messages_are_built_only_when_raised(module):
    assert _fstrings_built_before_a_failure(module) == []


def test_cli_writes_stdout_only_through_write():
    # one writer, so every command survives a stdout that cannot be written
    lines = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        writes_stdout = (
            isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print")
        if writes_stdout and function != "_write":
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(Path(cli.__file__).read_text()), None)
    assert lines == []


def test_theta_restates_no_observed_ratio_stop_test():
    # sum_series's observed-ratio test lives in series._observed_tail alone;
    # _log_product's declared ratio is its own rule
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_log_product":
            return
        if (isinstance(node, ast.Name) and node.id == "ratio"
                and isinstance(node.ctx, ast.Store)):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(Path(theta.__file__).read_text()))
    assert lines == []


def test_catalog_grid_values_are_literals():
    # a grid value computed at import, such as math.exp(-pi), is set by libm's
    # last bits, and the report prints it
    specs, computed = 0, []
    for node in ast.walk(ast.parse(Path(catalog.__file__).read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ParamSpec"):
            continue
        specs += 1
        grid = node.args[1]
        for value in grid.elts if isinstance(grid, ast.Tuple) else [grid]:
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
                value = value.operand
            if not (isinstance(value, ast.Constant)
                    and type(value.value) in (int, float, str)):
                computed.append(value.lineno)
    assert specs > 0
    assert computed == []


@pytest.mark.parametrize("path", sorted(Path(cli.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_stays_within_the_token_budget(path):
    # tokens as tokenize gives them, without COMMENT and NL
    with open(path, encoding="utf-8") as fh:
        count = sum(1 for token in tokenize.generate_tokens(fh.readline)
                    if token.type not in (tokenize.COMMENT, tokenize.NL))
    assert count <= MAX_MODULE_TOKENS


# Every ``while`` loop of ellid, by (module, function), and what bounds it.
# A ``for`` over a range or a sequence needs no entry.
WHILE_BOUNDS = {
    ("singular", "_window"): "the nome product: b >= 1 gives q <= e^(-pi), "
                             "so 1 + q^(2n-1) rounds to 1 after at most 6 factors",
    ("singular", "solve_k"): "the bisection replay: each pass halves [lo, hi] until "
                             "they are adjacent floats, and a NaN g takes the exit branch",
}

# The two AGM descents stop on |a - b| <= 4 eps a alone, with no iteration
# cap; this set may only shrink.
KNOWN_UNBOUNDED = {("elliptic", "agm"), ("elliptic", "_ke")}


def _while_loops():
    """(module, innermost function) of each ``while`` in ellid, sorted."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.While):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sorted(found)


def test_every_while_loop_has_a_stated_bound():
    assert not WHILE_BOUNDS.keys() & KNOWN_UNBOUNDED
    assert _while_loops() == sorted(WHILE_BOUNDS.keys() | KNOWN_UNBOUNDED)


def test_no_function_calls_both_K_and_E():
    # K and E at one argument come from one descent, elliptic._ke
    calls = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                names = {node.func.id for node in ast.walk(function)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
                calls[path.stem, function.name] = names
    both = [key for key, names in calls.items() if {"ellint_K", "ellint_E"} <= names]
    assert calls["elliptic", "ellint_K"] == {"_ke"}
    assert both == []
