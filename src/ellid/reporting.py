"""Deterministic report serialization: JSON, CSV and a readable text table.

Field order is fixed as (identity, variant, params, lhs, rhs, abs_residual,
rel_residual, classification, terms, note) and every float is rendered with
17 significant digits, so two runs over the same reports are byte-identical.
NaN (an errored evaluation) serializes as JSON null / an empty CSV cell.
"""

from __future__ import annotations

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


def _json_params(params: dict, memo: dict) -> str:
    """``params`` as a JSON object; ``memo`` maps (name, type, value) to the
    text of that entry, for the entries of one report.  Zeros are never
    kept, so that 0.0 and -0.0, which are equal, never share a text; the
    type in the key keeps 1, 1.0 and True apart."""
    parts = []
    for k, v in sorted(params.items()):
        key = (k, type(v), v)
        text = memo.get(key)
        if text is None:
            text = (f"{_json_str(k)}: "
                    f"{_json_str(v) if isinstance(v, str) else _json_number(v)}")
            if v:
                memo[key] = text
        parts.append(text)
    return "{" + ", ".join(parts) + "}"


def render_json(reports: Sequence[ResidualReport]) -> str:
    """JSON array with fixed field order; built by hand so the float format
    stays under our control.  A row whose rel_residual is the same nonzero
    float as its abs_residual reuses that text: max(1, |lhs|, |rhs|) = 1."""
    rows = []
    memo = {}
    for r in reports:
        t = r.terms
        if len(t) == 2 and "lhs" in t and "rhs" in t:  # every engine row: no sort
            terms = f"\"lhs\": {int(t['lhs'])}, \"rhs\": {int(t['rhs'])}"
        else:
            terms = ", ".join([f"{_json_str(k)}: {int(v)}" for k, v in sorted(t.items())])
        ab, rel = r.abs_residual, r.rel_residual
        ab_text = _json_number(ab)
        rel_text = (ab_text if rel == ab != 0.0 and type(rel) is type(ab) is float
                    else _json_number(rel))
        rows.append(
            "{"
            f"\"identity\": {_json_str(r.identity)}, "
            f"\"variant\": {_json_str(r.variant)}, "
            f"\"params\": {_json_params(r.params, memo)}, "
            f"\"lhs\": {_json_number(r.lhs)}, "
            f"\"rhs\": {_json_number(r.rhs)}, "
            f"\"abs_residual\": {ab_text}, "
            f"\"rel_residual\": {rel_text}, "
            f"\"classification\": {_json_str(r.classification.value)}, "
            f"\"terms\": {{{terms}}}, "
            f"\"note\": {_json_str(r.note)}"
            "}")
    if not rows:
        return "[]\n"
    return "[\n  " + ",\n  ".join(rows) + "\n]\n"


def _flat_params(params: dict, sep: str) -> str:
    """``params`` as name=value entries in name order, joined by ``sep``."""
    return sep.join(f"{k}={v if isinstance(v, str) else format_number(v)}"
                    for k, v in sorted(params.items()))


def _flat_cell(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return ""
    return format_number(x)


def render_csv(reports: Sequence[ResidualReport]) -> str:
    import csv  # only here, so the other commands start without it
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_FIELDS)
    for r in reports:
        params = _flat_params(r.params, ";")
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


def render_text(reports: Sequence[ResidualReport], registry: Registry) -> str:
    lines = []
    header = (f"{'identity':<8} {'variant':<18} {'params':<34} "
              f"{'rel_residual':>13} {'class':<12} note")
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        params = _flat_params(r.params, " ")
        rel = "" if not math.isfinite(r.rel_residual) else f"{r.rel_residual:.3e}"
        lines.append(f"{r.identity:<8} {r.variant:<18} {params:<34} "
                     f"{rel:>13} {r.classification.value:<12} {r.note}".rstrip())
    verdicts = adjudicate(reports)
    for identity in sorted(verdicts):
        if registry.get(identity).expected is not Expectation.CONTESTED:
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
