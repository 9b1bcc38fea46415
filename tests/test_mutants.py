"""The mutation table stays applicable: every edit still matches one node.

Running the mutants themselves is ``python tests/mutants.py``, a job of its
own; here each edit is only applied to an in-memory parse.
"""

import ast

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_edit_matches_exactly_one_node(mutant):
    source = (mutants.SRC / "ellid" / mutant.module).read_text()
    edited = mutants.apply(mutant, source)
    assert ast.dump(ast.parse(edited)) != ast.dump(ast.parse(source))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_named_test_is_defined(mutant):
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        tree = ast.parse((mutants.ROOT / path).read_text())
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name.split("[")[0] in defined, test_id


def test_a_stale_edit_is_refused():
    stale = mutants.MUTANTS[0]._replace(before="bil")  # two nodes of _p11a_rhs
    source = (mutants.SRC / "ellid" / stale.module).read_text()
    with pytest.raises(mutants.StaleMutant, match="matches 2 nodes"):
        mutants.apply(stale, source)
