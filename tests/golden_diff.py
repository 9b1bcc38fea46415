"""Diff an in-process ``check-all`` against the golden report, row by row.

Run as ``python tests/golden_diff.py [--write] [--deck]`` with ``ellid``
importable (installed, or ``src`` on PYTHONPATH).  It prints one line per row
whose bytes differ from ``tests/data/check_all.json``: identity, variant,
point, old and new residual, old and new class, and the 50-digit residual and
class of ``tests/oracle.py``.  It then lists every ``KNOWN_DEFECTS`` and
``OFF_DECK_DEFECTS`` row that now has the oracle's class, so that a fix can
delete its entry.  With ``--deck`` it also evaluates
``test_expect_pass_range.deck()`` for every record and prints:

- each variant whose class counts differ from ``CLASS_COUNTS``, old counts
  -> new counts;
- each deck row that ``test_oracle_agrees_with_every_unlisted_scored_row``
  scores, that ``KNOWN_DEFECTS`` does not list and whose class is not the
  oracle's, with the oracle's class;
- each ``LIBM_SENSITIVE`` row that no seed of ``LIBM_SEEDS`` moves any more,
  so that its entry can go.

Nothing prints on an unchanged tree.

The exit status is 1 if a changed row's class moved and its new class is
not the oracle's, else 0; deck lines do not change it.  With ``--write`` and no such row, it regenerates
``tests/data/check_all.{json,csv,txt}`` together; the benchmark keeps its own
copy of the json bytes in ``bench/ref/check_all.json``, which must then get
the same bytes in a change that may edit ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import oracle
from ellid.registry import Classification, build_registry, classify
from ellid.reporting import render_csv, render_json, render_text
from test_expect_pass_range import (CLASS_COUNTS, KNOWN_DEFECTS, OFF_DECK_DEFECTS,
                                    _point, refuted, shipped)
from test_libm_range import LIBM_SENSITIVE, libm_moved

DATA = Path(__file__).parent / "data"


def _key(row: dict) -> tuple:
    return row["identity"], row["variant"], json.dumps(row["params"], sort_keys=True)


def _residual(row: dict | None) -> str:
    if row is None:
        return "-"
    value = row["rel_residual"]
    return "nan" if value is None else format(value, ".17g")


def _describe(old: dict | None, new: dict | None) -> tuple[str, bool]:
    """The CHANGES-ready line of one changed row, and whether its class
    moved away from the oracle's."""
    row = new or old
    params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
    old_class = old["classification"] if old else "-"
    new_class = new["classification"] if new else "-"
    true = oracle.residual(row["identity"], row["variant"], row["params"])
    true_class = classify(true).value
    away = new is not None and new_class != old_class and new_class != true_class
    line = (f"{row['identity']} {row['variant']} {params}: "
            f"residual {_residual(old)} -> {_residual(new)}, "
            f"class {old_class} -> {new_class}, "
            f"oracle {true:.2g} ({true_class})"
            + ("  MOVED AWAY FROM THE ORACLE" if away else ""))
    return line, away


def _counts(counts: dict) -> str:
    return ", ".join(f"{c.value} {counts[c]}" for c in Classification if c in counts) or "-"


def _deck_lines() -> list[str]:
    """One line per (identity, variant) whose deck class counts moved."""
    new = {key: Counter(cls for _, cls in rows) for key, rows in shipped().items()}
    lines = []
    for key in sorted(CLASS_COUNTS.keys() | new.keys()):
        old_counts, new_counts = CLASS_COUNTS.get(key, {}), new.get(key, {})
        if old_counts != new_counts:
            lines.append(f"deck {key[0]} {key[1]}: {_counts(old_counts)} -> "
                         f"{_counts(new_counts)}")
    return lines


def _deck_row_lines() -> list[str]:
    """One line per scored deck row whose class the oracle refutes, and per
    ``LIBM_SENSITIVE`` row that no longer moves."""
    rows = shipped()
    lines = []
    for key in sorted(rows):
        for values, (cls, true) in refuted(key, rows[key]).items():
            lines.append(f"deck row not the oracle's class: {key[0]} {key[1]} "
                         f"{values}: {cls.value}, oracle {true:.2g} "
                         f"({classify(true).value})")
    for identity, variant, values in sorted(LIBM_SENSITIVE.keys() - libm_moved()):
        lines.append(f"LIBM_SENSITIVE row no longer moves: {identity} {variant} "
                     f"{values}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate tests/data/check_all.{json,csv,txt}")
    parser.add_argument("--deck", action="store_true",
                        help="also list the deck rows and class counts that moved")
    args = parser.parse_args(argv)

    registry = build_registry()
    reports = registry.run()
    text = render_json(reports)
    old = {_key(r): r for r in json.loads((DATA / "check_all.json").read_text())}
    new = {_key(r): r for r in json.loads(text)}
    changed = [key for key in sorted(old.keys() | new.keys())
               if old.get(key) != new.get(key)]
    moved_away = 0
    for key in changed:
        line, away = _describe(old.get(key), new.get(key))
        moved_away += away
        print(line)
    print(f"{len(changed)} changed row(s), {moved_away} moved away from the oracle")

    for name, table in (("KNOWN_DEFECTS", KNOWN_DEFECTS),
                        ("OFF_DECK_DEFECTS", OFF_DECK_DEFECTS)):
        for (identity, variant, values), (_, true, _) in sorted(table.items()):
            got = registry.evaluate(identity, variant, _point(identity, values))
            if got.classification is classify(true):
                print(f"{name} row now has the oracle's class: {identity} {variant} "
                      f"{values}: {got.classification.value}, oracle {true:.2g}")

    if args.deck:
        for line in _deck_lines() + _deck_row_lines():
            print(line)

    if moved_away:
        return 1
    if args.write:
        for name, rendered in (("check_all.json", text),
                               ("check_all.csv", render_csv(reports)),
                               ("check_all.txt", render_text(reports, registry))):
            with open(DATA / name, "w", newline="") as fh:
                fh.write(rendered)
        print(f"wrote {DATA}/check_all.{{json,csv,txt}}; bench/ref/check_all.json "
              f"must get the same json bytes in a change that may edit bench/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
