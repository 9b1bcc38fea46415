"""Golden rows of the oracle's records against 50-digit oracle residuals."""

import json
from pathlib import Path

import pytest

import oracle
from ellid.registry import FAIL_THRESHOLD, classify

GOLDEN_ROWS = [r for r in json.loads(
    (Path(__file__).parent / "data" / "check_all.json").read_text())
    if r["identity"] in oracle.RECORDS]


def test_oracle_covers_every_golden_row_of_its_records():
    assert len(GOLDEN_ROWS) == 172
    assert {r["identity"] for r in GOLDEN_ROWS} == set(oracle.RECORDS)


@pytest.mark.parametrize("row", GOLDEN_ROWS,
                         ids=lambda r: "{identity}-{variant}-{params}".format(**r))
def test_golden_class_is_the_oracle_class(row):
    true = oracle.residual(row["identity"], row["variant"], row["params"])
    assert row["classification"] == classify(true).value, true


@pytest.mark.parametrize("r, true", [(1.0, 1.05e-3), (2.0, 1.33e-5)])
def test_p8_base_fails_are_true_fails(r, true):
    got = oracle.residual("P8", "base", {"r": r})
    assert got > FAIL_THRESHOLD
    assert abs(got - true) < 0.01 * true
