"""The golden-diff tool: silent on an unchanged tree, exact on a moved side."""

import shutil
from pathlib import Path

import golden_diff
from ellid import catalog, registry
from ellid.series import SeriesResult
from test_expect_pass_range import deck, oracle_residual


def _shifted_e4_rhs(monkeypatch, shift):
    e4_rhs = catalog._e4_rhs
    monkeypatch.setattr(catalog, "_e4_rhs",
                        lambda a: SeriesResult(e4_rhs(a).value + shift))


def test_unchanged_tree_lists_no_rows(capsys):
    assert golden_diff.main([]) == 0
    assert capsys.readouterr().out == "0 changed row(s), 0 moved away from the oracle\n"


def test_perturbed_side_is_listed_and_a_class_moved_away_fails(monkeypatch, capsys):
    _shifted_e4_rhs(monkeypatch, 1e-3)
    assert golden_diff.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "3 changed row(s), 3 moved away from the oracle"
    for line, a in zip(lines, ("0.5", "1", "2")):
        assert line.startswith(f"E4 base a={a}: residual ")
        assert "class PASS -> FAIL, oracle " in line
        assert line.endswith("(PASS)  MOVED AWAY FROM THE ORACLE")


def test_moved_bits_that_keep_their_class_pass(monkeypatch, capsys):
    _shifted_e4_rhs(monkeypatch, 1e-13)
    assert golden_diff.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "3 changed row(s), 0 moved away from the oracle"
    assert all("class PASS -> PASS" in line for line in lines[:3])


def test_known_defect_that_gets_the_oracle_class_is_listed(monkeypatch, capsys):
    # an exact rhs clears E4's two KE_CANCELLATION rows
    monkeypatch.setattr(catalog, "_e4_rhs", catalog._e4_lhs)
    assert golden_diff.main([]) == 0
    out = capsys.readouterr().out
    assert out.count("KNOWN_DEFECTS row now has the oracle's class: E4 base (") == 2


def test_write_regenerates_the_three_golden_files(tmp_path, monkeypatch, capsys):
    shutil.copy(golden_diff.DATA / "check_all.json", tmp_path)
    monkeypatch.setattr(golden_diff, "DATA", tmp_path)
    assert golden_diff.main(["--write"]) == 0
    assert "bench/ref/check_all.json" in capsys.readouterr().out
    for name in ("check_all.json", "check_all.csv", "check_all.txt"):
        assert (tmp_path / name).read_bytes() == (
            Path(__file__).parent / "data" / name).read_bytes()


def test_deck_lists_no_moved_class_count_on_an_unchanged_tree(capsys):
    assert golden_diff.main(["--deck"]) == 0
    assert capsys.readouterr().out == "0 changed row(s), 0 moved away from the oracle\n"


def test_deck_lists_a_moved_class_count(monkeypatch):
    rows = dict(golden_diff.shipped())
    e4 = rows["E4", "base"]
    # E4's last two deck rows, at its largest a, PASS; make them FAIL
    rows["E4", "base"] = e4[:-2] + [(values, registry.Classification.FAIL)
                                    for values, _ in e4[-2:]]
    monkeypatch.setattr(golden_diff, "shipped", lambda: rows)
    assert golden_diff._deck_lines() == [
        "deck E4 base: PASS 58, INCONCLUSIVE 2 -> PASS 56, INCONCLUSIVE 2, FAIL 2"]


def _deck_with_fresh_rows(monkeypatch, identity):
    """Point ``golden_diff.shipped`` at the deck with ``identity``'s rows
    evaluated again on a fresh registry, which sees monkeypatched sides."""
    fresh = catalog.build_registry()
    rows = dict(golden_diff.shipped())
    for v in fresh.get(identity).variants:
        rows[identity, v.variant_id] = [
            (tuple(p.values()), fresh.evaluate(identity, v.variant_id, p).classification)
            for p in deck(fresh.get(identity))]
    monkeypatch.setattr(golden_diff, "shipped", lambda: rows)


def test_deck_lists_a_scored_row_whose_class_is_not_the_oracles(monkeypatch):
    _shifted_e4_rhs(monkeypatch, 1e-3)
    _deck_with_fresh_rows(monkeypatch, "E4")
    assert golden_diff._deck_lines() == ["deck E4 base: PASS 58, INCONCLUSIVE 2 -> FAIL 60"]
    assert golden_diff._deck_row_lines() == [
        f"deck row not the oracle's class: E4 base ({a!r},): FAIL, oracle "
        f"{oracle_residual('E4', 'base', (a,)):.2g} (PASS)"
        for (a,), _ in golden_diff.shipped()["E4", "base"][13::13]]


def test_deck_lists_a_libm_sensitive_row_that_no_longer_moves(monkeypatch):
    still = golden_diff.libm_moved() - {("P6", "base", (0.12014110515583304,))}
    monkeypatch.setattr(golden_diff, "libm_moved", lambda: still)
    assert golden_diff._deck_row_lines() == [
        "LIBM_SENSITIVE row no longer moves: P6 base (0.12014110515583304,)"]


def test_off_deck_defect_that_gets_the_oracle_class_is_listed(monkeypatch, capsys):
    monkeypatch.setattr(catalog, "_p2_lhs_sinh", lambda a, theta: SeriesResult(0.0))
    golden_diff.main([])
    out = capsys.readouterr().out
    assert "OFF_DECK_DEFECTS row now has the oracle's class: P2 sinh-squared " \
           "(0.0746, 0.232): FAIL, oracle 0.00048\n" in out
    assert out.count("OFF_DECK_DEFECTS row now has the oracle's class: ") == 2
