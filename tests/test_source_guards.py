"""Guards on the source of the kernel modules and the CLI, read with ``ast``,
and on the size of every module of ellid."""

import ast
import tokenize
from pathlib import Path

import pytest

from ellid import cli, elliptic, series, singular, theta

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


@pytest.mark.parametrize("path", sorted(Path(cli.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_stays_within_the_token_budget(path):
    # tokens as tokenize gives them, without COMMENT and NL
    with open(path, encoding="utf-8") as fh:
        count = sum(1 for token in tokenize.generate_tokens(fh.readline)
                    if token.type not in (tokenize.COMMENT, tokenize.NL))
    assert count <= MAX_MODULE_TOKENS
