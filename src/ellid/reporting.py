"""Deterministic report serialization: JSON, CSV and a readable text table.

Field order is fixed as (identity, variant, params, lhs, rhs, abs_residual,
rel_residual, classification, terms, note) and every float is rendered with
17 significant digits, so two runs over the same reports are byte-identical.
NaN (an errored evaluation) serializes as JSON null / an empty CSV cell.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable, Sequence

from .registry import (Classification, Expectation, IdentityRecord, Registry,
                       ResidualReport)

REPORT_FIELDS = ("identity", "variant", "params", "lhs", "rhs",
                 "abs_residual", "rel_residual", "classification",
                 "terms", "note")


def format_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _json_number(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g") if math.isfinite(x) else "null"
    return format_number(x)


# What json.dumps gives for a str, without its per-call dispatch.
_json_str = json.encoder.encode_basestring_ascii


def _json_params(params: dict) -> str:
    inner = ", ".join(
        f"{_json_str(k)}: "
        f"{_json_str(v) if isinstance(v, str) else _json_number(v)}"
        for k, v in sorted(params.items()))
    return "{" + inner + "}"


def render_json(reports: Sequence[ResidualReport]) -> str:
    """JSON array with fixed field order; built by hand so the float format
    stays under our control."""
    rows = []
    for r in reports:
        terms = ", ".join(f"{_json_str(k)}: {int(v)}"
                          for k, v in sorted(r.terms.items()))
        rows.append(
            "{"
            f"\"identity\": {_json_str(r.identity)}, "
            f"\"variant\": {_json_str(r.variant)}, "
            f"\"params\": {_json_params(r.params)}, "
            f"\"lhs\": {_json_number(r.lhs)}, "
            f"\"rhs\": {_json_number(r.rhs)}, "
            f"\"abs_residual\": {_json_number(r.abs_residual)}, "
            f"\"rel_residual\": {_json_number(r.rel_residual)}, "
            f"\"classification\": {_json_str(r.classification.value)}, "
            f"\"terms\": {{{terms}}}, "
            f"\"note\": {_json_str(r.note)}"
            "}")
    if not rows:
        return "[]\n"
    return "[\n  " + ",\n  ".join(rows) + "\n]\n"


def _flat_cell(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return ""
    return format_number(x)


def render_csv(reports: Sequence[ResidualReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        params = ";".join(
            f"{k}={v if isinstance(v, str) else format_number(v)}"
            for k, v in sorted(r.params.items()))
        terms = ";".join(f"{k}={int(v)}" for k, v in sorted(r.terms.items()))
        writer.writerow([
            r.identity, r.variant, params,
            _flat_cell(r.lhs), _flat_cell(r.rhs),
            _flat_cell(r.abs_residual), _flat_cell(r.rel_residual),
            r.classification.value, terms, r.note,
        ])
    return buf.getvalue()


def adjudicate(reports: Sequence[ResidualReport]) -> dict[str, dict[str, bool]]:
    """Per identity, which variants pass on every one of their points."""
    seen: dict[str, dict[str, bool]] = {}
    for r in reports:
        per = seen.setdefault(r.identity, {})
        ok = r.classification is Classification.PASS
        per[r.variant] = per.get(r.variant, True) and ok
    return seen


def render_text(reports: Sequence[ResidualReport],
                registry: Registry | None = None) -> str:
    lines = []
    header = (f"{'identity':<8} {'variant':<18} {'params':<34} "
              f"{'rel_residual':>13} {'class':<12} note")
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        params = " ".join(
            f"{k}={v if isinstance(v, str) else format_number(v)}"
            for k, v in sorted(r.params.items()))
        rel = "" if not math.isfinite(r.rel_residual) else f"{r.rel_residual:.3e}"
        lines.append(f"{r.identity:<8} {r.variant:<18} {params:<34} "
                     f"{rel:>13} {r.classification.value:<12} {r.note}".rstrip())
    if registry is not None:
        verdicts = adjudicate(reports)
        for identity in sorted(verdicts):
            record = registry.get(identity)
            if record.expected is not Expectation.CONTESTED:
                continue
            passing = sorted(v for v, ok in verdicts[identity].items() if ok)
            failing = sorted(v for v, ok in verdicts[identity].items() if not ok)
            if passing and failing:
                lines.append(
                    f"{identity} adjudication: variant(s) {', '.join(passing)} "
                    f"pass; {', '.join(failing)} do not")
            elif passing:
                lines.append(
                    f"{identity} adjudication: all variants pass "
                    f"({', '.join(passing)})")
            else:
                lines.append(f"{identity} adjudication: no variant passes")
    return "\n".join(lines) + "\n"


def render_list(records: Iterable[IdentityRecord]) -> str:
    lines = []
    header = (f"{'id':<6} {'expected':<12} {'grid':>4} {'variants':>8}  anchor")
    lines.append(header)
    lines.append("-" * 100)
    for rec in records:
        anchor = rec.anchor if len(rec.anchor) <= 72 else rec.anchor[:69] + "..."
        lines.append(f"{rec.identity_id:<6} {rec.expected.value:<12} "
                     f"{len(rec.grid_points()):>4} {len(rec.variants):>8}  {anchor}")
    return "\n".join(lines) + "\n"
