#!/usr/bin/env python3
"""Benchmark for ellid: one closed-loop caller, no extra threads.

Run from the repository root:

  python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
  python3 bench/run.py --self-check          # quick check of the harness itself
  python3 bench/run.py --write-references    # regenerate bench/ref (intended output change only)

Workloads are described in workloads.py and README.md.  ``--trace 0`` times
the workload and prints the end-to-end metrics, with times scaled by a
host-speed calibration (README.md says why and how).  ``--trace 1`` is a
separate run that times half its ops plainly and half under the tracer, and
prints the per-layer metrics plus the tracing overhead.  Both check every
output and end with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

OUT_DIR = W.ROOT / ".bench_out"
MIN_OPS = 100          # so that at least ten samples lie beyond p90
SAMPLE_CAP = 200_000   # op times kept for the quantiles
MAX_LOOP_S = 60.0      # hard stop for one measuring loop; a run has at most two
CAL_WINDOW_S = 0.05    # op time between two host-speed calibrations
SETUP_REPEATS = 7
THETA_PROBE_REPEATS = 51
THETA_PROBE_ORDERS = (0, 4, 8, 12)

# (name, unit, better): the end-to-end metrics every workload reports.
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-layer metrics, one group per ellid module; counts and times are per op.
PER_LAYER = [
    ("singular.solve_k.calls", "1/op", "lower"),
    ("singular.solve_k.distinct_frac", "ratio", "higher"),
    ("singular.solve_k.self_ms", "ms/op", "lower"),
    ("singular.agm_per_solve", "count", "lower"),
    ("singular.dadk_fd.calls", "1/op", "lower"),
    ("singular.self_ms", "ms/op", "lower"),
    ("elliptic.agm.calls", "1/op", "lower"),
    ("elliptic.ellint_K.calls", "1/op", "lower"),
    ("elliptic.ellint_E.calls", "1/op", "lower"),
    ("elliptic.self_ms", "ms/op", "lower"),
    ("theta.log_theta_derivative.calls", "1/op", "lower"),
    *[(f"theta.log_theta_derivative.us_p50.o{n}", "us", "lower")
      for n in THETA_PROBE_ORDERS],
    ("theta.sums.calls", "1/op", "lower"),
    ("theta.self_ms", "ms/op", "lower"),
    ("series.calls", "1/op", "lower"),
    ("series.terms", "1/op", "lower"),
    ("series.tail_max", "1", "lower"),
    ("series.self_ms", "ms/op", "lower"),
    ("registry.evaluate.calls", "1/op", "lower"),
    ("registry.self_ms", "ms/op", "lower"),
    ("registry.inconclusive_frac", "ratio", "lower"),
    ("registry.raised_frac", "ratio", "lower"),
    ("reporting.render_json.ms", "ms/op", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans_per_op", "1/op", "lower"),
]

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "singular": "ops_per_s on catalog (repeated inputs) and sweep (bisection "
                "cost only); no change on library",
    "elliptic": "ops_per_s on sweep and catalog",
    "theta": "op_ms_p50 on library, a little on catalog",
    "series": "ops_per_s on library and sweep",
    "registry": "op_ms_p50 on catalog; raised_frac and the bare-exception "
                "count on sweep",
    "reporting": "op_ms_p50 on catalog and cli_cold",
    "cli": "op_ms_p50 and setup_s on cli_cold; no change in-process",
}


class HarnessError(Exception):
    """The benchmark itself could not run as intended."""


class OpTimes:
    """Exact count and sum of op times, and a uniform sample of at most
    SAMPLE_CAP of them (all, when fewer ran) for the quantiles.

    The sample's memory is claimed up front, so the benchmark's own RSS does
    not grow with the number of ops a faster program completes.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self._sample = array("d", bytes(8 * SAMPLE_CAP))
        self._rng = random.Random(0)

    def add(self, x: float) -> None:
        n = self.n
        if n < SAMPLE_CAP:
            self._sample[n] = x
        else:  # reservoir sampling (Algorithm R)
            j = self._rng.randrange(n + 1)
            if j < SAMPLE_CAP:
                self._sample[j] = x
        self.n = n + 1
        self.total += x

    def sorted(self) -> list[float]:
        return sorted(self._sample[:min(self.n, SAMPLE_CAP)])

    def mean(self) -> float:
        return self.total / self.n


@dataclass
class Loop:
    """What one closed-loop measuring pass saw.

    ``lat`` holds host-normalised op times: each op's time scaled by
    REF_CAL_S over the calibration time measured just before and after its
    window of ops.  ``raw`` holds the same ops unscaled.
    """
    lat: OpTimes = field(default_factory=OpTimes)
    raw: OpTimes = field(default_factory=OpTimes)
    cal: list = field(default_factory=list)          # calibration times seen
    first_items: list = field(default_factory=list)  # deck 0, for the checks
    first_lines: list = field(default_factory=list)
    bare: Counter = field(default_factory=Counter)   # non-EllidError exceptions by type
    failed: int = 0


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    bare: Counter = field(default_factory=Counter)
    lines: list = field(default_factory=list)        # human-readable report

    def add(self, loop: Loop) -> None:
        self.attempted += loop.lat.n
        self.failed += loop.failed
        self.bare.update(loop.bare)

    def say(self, text: str) -> None:
        self.lines.append(text)


# -- measuring ---------------------------------------------------------------

def timed_loop(w: W.Workload, decks, seconds: float, min_ops: int,
               op=None, on_op=None, on_deck=None) -> Loop:
    """Call ``op`` on successive inputs until ``seconds`` have passed and at
    least ``min_ops`` ops ran.  Only the op call itself is timed."""
    op = op or w.op
    every_op = w.every_op_reference
    bare_fails = not w.bare_is_outcome
    ellid_error = w.ell.errors.EllidError
    loop = Loop()
    window: list[float] = []  # op times since the last calibration
    cal_before = W.calibration_s()

    def flush() -> None:
        nonlocal cal_before
        cal_after = W.calibration_s()
        loop.cal.append(cal_after)
        scale = W.REF_CAL_S / (0.5 * (cal_before + cal_after))
        for x in window:
            loop.raw.add(x)
            loop.lat.add(x * scale)
        window.clear()
        cal_before = cal_after

    clock = time.perf_counter
    start = clock()
    deadline, hard_stop = start + seconds, start + MAX_LOOP_S
    window_s = 0.0
    for d, deck in enumerate(decks):
        for item in deck:
            if on_op is not None:
                on_op()
            t0 = clock()
            try:
                result, exc = op(item), None
            except Exception as e:  # recorded and counted; the loop goes on
                result, exc = None, e
            t1 = clock()
            window.append(t1 - t0)
            window_s += t1 - t0
            bare = exc is not None and not isinstance(exc, ellid_error)
            if bare:
                loop.bare[type(exc).__name__] += 1
            if every_op:
                loop.failed += exc is not None or not w.ok(result)
            else:
                loop.failed += bare and bare_fails
                if d == 0:
                    loop.first_items.append(item)
                    loop.first_lines.append(w.line(item, result, exc))
            done = ((t1 >= deadline and loop.lat.n + len(window) >= min_ops)
                    or t1 >= hard_stop)
            if done or window_s >= CAL_WINDOW_S:
                flush()
                window_s = 0.0
            if done:
                if on_deck is not None:
                    on_deck()
                return loop
        if on_deck is not None:
            on_deck()
    if window:
        flush()
    return loop


def evaluate_lines(w: W.Workload, items: list) -> Loop:
    """Untimed pass over ``items``, for the output checks."""
    return timed_loop(w, [items], 0.0, len(items) + 1)


def check_outputs(w: W.Workload, plain: Loop, res: Result,
                  reference: list[str] | None = None) -> None:
    """Two passes over the first deck must agree, and the reference deck must
    match the reference file.  Catalog and cli_cold checked every op already."""
    if w.every_op_reference:
        res.correct &= res.failed == 0
        res.say(f"check: every op's output compared byte for byte with "
                f"{W.REF_CHECK_ALL.relative_to(W.ROOT)}: "
                f"{res.attempted - res.failed} of {res.attempted} match")
        return
    second = evaluate_lines(w, plain.first_items)
    res.add(second)
    disagree = sum(a != b for a, b in zip(plain.first_lines, second.first_lines))
    res.failed += disagree
    res.correct &= disagree == 0
    res.say(f"check: two passes over the first deck of seed {w.seed} "
            f"({len(second.first_lines)} ops) disagree on {disagree}")

    reference = reference if reference is not None else W.reference_lines(w.name)
    if w.seed == W.DEFAULT_SEED and len(plain.first_lines) == len(reference):
        got = second.first_lines
    else:
        if w.seed != W.DEFAULT_SEED:
            res.say(f"check: reference check for seed {w.seed} skipped (no "
                    f"reference); the seed-{W.DEFAULT_SEED} deck is checked instead")
        ref_pass = evaluate_lines(w, w.reference_deck())
        res.add(ref_pass)
        got = ref_pass.first_lines
    mismatched = sum(not w.matches(r, g) for r, g in zip(reference, got))
    mismatched += abs(len(reference) - len(got))
    res.failed += mismatched
    res.correct &= mismatched == 0
    res.say(f"check: {len(got)} ops of the seed-{W.DEFAULT_SEED} deck against "
            f"{W.ref_lines_path(w.name).relative_to(W.ROOT)}: {mismatched} mismatch")


def run_child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), *args],
                          env=W.child_env(), cwd=W.ROOT,
                          capture_output=True, text=True, timeout=W.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def same_ellid(path: str, ell) -> None:
    if Path(path).resolve() != Path(ell.ellid.__file__).resolve():
        raise HarnessError(f"a child loaded ellid from {path}, "
                           f"the benchmark from {ell.ellid.__file__}")


def setup_seconds(workload: str, ell, repeats: int) -> list[tuple[float, float]]:
    """(host-normalised, raw) set-up seconds of ``repeats`` fresh processes."""
    samples = []
    for _ in range(repeats):
        out = run_child(["setup", workload])
        same_ellid(out["ellid"], ell)
        samples.append((out["setup_s"] * W.REF_CAL_S / out["cal_s"], out["setup_s"]))
    return samples


def quantile_rank(sorted_values, q: float):
    """Nearest-rank quantile and the number of samples above it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ----------------------------------------------------

def op_stats(times: OpTimes) -> dict:
    lat = times.sorted()
    p90, beyond = quantile_rank(lat, 0.9)
    return {"ops_per_s": times.n / times.total,
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p90": p90 * 1e3, "beyond": beyond, "sample": len(lat)}


def plain_run(w: W.Workload, seconds: float, min_ops: int, repeats: int,
              res: Result) -> dict:
    plain = timed_loop(w, w.decks(), seconds, min_ops)
    rss = peak_rss_mb(w.name)
    res.add(plain)
    check_outputs(w, plain, res)
    setup = setup_seconds(w.name, w.ell, repeats)

    n = plain.lat.n
    values, raw = op_stats(plain.lat), op_stats(plain.raw)
    values["setup_s"] = statistics.median(s for s, _ in setup)
    raw["setup_s"] = statistics.median(r for _, r in setup)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = rss
    sampled = (f", quantiles from a uniform sample of {values['sample']}"
               if values["sample"] < n else "")
    notes = {
        "ops_per_s": f"n={n} ops",
        "op_ms_p50": f"n={n}{sampled}",
        "op_ms_p90": f"n={n}{sampled}, {values['beyond']} beyond",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "max RSS of the CLI children" if w.name == "cli_cold"
                       else "max RSS of this process",
    }
    cal = sorted(plain.cal)
    res.say(f"host speed: calibration loop {cal[0] * 1e3:.4f} .. {cal[-1] * 1e3:.4f} ms "
            f"(median {statistics.median(cal) * 1e3:.4f}, {len(cal)} calibrations); "
            f"times below are scaled to {W.REF_CAL_S * 1e3:g} ms")
    for name, unit, _ in END_TO_END:
        res.say(f"{name:<14} = {values[name]:.6g} {unit}  "
                f"(raw {raw[name]:.6g}; {notes[name]})")
    return {name: metric(values[name], unit) for name, unit, _ in END_TO_END}


def traced_op(w: W.Workload, tr: tracing.Tracer):
    """The op under a root span; cli_cold children trace themselves."""
    if w.name != "cli_cold":
        return tr.span(f"op.{w.name}", w.op)
    dump = OUT_DIR / "cli-child-trace.json"

    def op(item):
        result = w.op(item, dump=dump)
        tr.merge(json.loads(dump.read_text(encoding="utf-8")), op=tr.ops)
        dump.unlink()
        return result
    return op


def theta_order_probe(ell) -> dict[int, float]:
    """Median µs of log_theta_derivative at fixed points, by order, untraced."""
    th, Nome = ell.theta, ell.elliptic.Nome
    cases = [(th.ThetaKind.THETA2, 0.7, Nome.from_exponent(1.0)),
             (th.ThetaKind.THETA4_IMAG_HALF, 1.0, Nome.from_pi_exponent(1.0))]
    clock = time.perf_counter
    out = {}
    for order in THETA_PROBE_ORDERS:
        samples = []
        for _ in range(THETA_PROBE_REPEATS):
            for kind, s, q in cases:
                t0 = clock()
                th.log_theta_derivative(kind, order, s, q)
                samples.append(clock() - t0)
        out[order] = statistics.median(samples) * 1e6
    return out


def cli_probe(ell, repeats: int) -> tuple[float, float, float]:
    """Median bare interpreter start, `import ellid.cli` and check-all, in ms."""
    interp, imports, mains = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=W.CHILD_TIMEOUT_S)
        interp.append((time.perf_counter() - t0) * 1e3)
        out = run_child(["cli-probe"])
        same_ellid(out["ellid"], ell)
        imports.append(out["import_ms"])
        mains.append(out["main_ms"])
    return (statistics.median(interp), statistics.median(imports),
            statistics.median(mains))


def traced_run(w: W.Workload, seconds: float, min_ops: int, repeats: int,
               res: Result) -> dict:
    if w.name == "cli_cold":
        # One span stack: traced children must audit serially, and the
        # untraced half does the same so that the overhead compares like ops.
        w.args = [*W.CHECK_ALL_ARGS, "--parallel", "1"]
    decks = w.decks()
    half_ops = max(2, min_ops // 10)
    plain = timed_loop(w, decks, seconds / 2, half_ops)
    res.add(plain)

    tr = tracing.Tracer()
    patches, missing = tracing.install(tr)
    on_op = None if w.name == "cli_cold" else tr.begin_op
    on_deck = None if w.name == "cli_cold" else tr.end_deck
    try:
        traced = timed_loop(w, decks, seconds / 2, half_ops,
                            op=traced_op(w, tr), on_op=on_op, on_deck=on_deck)
    finally:
        tracing.uninstall(patches)
    res.add(traced)
    check_outputs(w, plain, res)
    if missing:
        res.say(f"trace: not found, so not wrapped: {', '.join(missing)}")

    orders = theta_order_probe(w.ell)
    interp_ms, import_ms, main_ms = cli_probe(w.ell, repeats)
    trace_file = OUT_DIR / f"trace-{w.name}.csv.gz"  # the last traced run's spans
    spans = tr.write_spans(trace_file)

    ops = max(tr.ops, 1)
    solves = tr.total_calls(tracing.SOLVE_K)
    evals = tr.total_calls("registry.evaluate")
    mean_plain = plain.lat.mean() * 1e3
    mean_traced = traced.lat.mean() * 1e3
    raised = tr.raised.get(tr.name_id("registry.evaluate"), 0)
    values = {
        "singular.solve_k.calls": solves / ops,
        "singular.solve_k.distinct_frac":
            tr.counts["solve_k.distinct"] / solves if solves else 0.0,
        "singular.solve_k.self_ms": tr.self_ms(tracing.SOLVE_K) / ops,
        "singular.agm_per_solve": tr.counts["agm_in_solve"] / solves if solves else 0.0,
        "singular.dadk_fd.calls": tr.total_calls("singular.dadk_fd") / ops,
        "singular.self_ms": tr.self_ms("singular.") / ops,
        "elliptic.agm.calls": tr.total_calls(tracing.AGM) / ops,
        "elliptic.ellint_K.calls": tr.total_calls("elliptic.ellint_K") / ops,
        "elliptic.ellint_E.calls": tr.total_calls("elliptic.ellint_E") / ops,
        "elliptic.self_ms": tr.self_ms("elliptic.") / ops,
        "theta.log_theta_derivative.calls":
            tr.total_calls("theta.log_theta_derivative") / ops,
        **{f"theta.log_theta_derivative.us_p50.o{n}": orders[n] for n in orders},
        "theta.sums.calls": tr.total_calls("theta.sums") / ops,
        "theta.self_ms": tr.self_ms("theta.") / ops,
        "series.calls": tr.layer_calls("series.") / ops,
        "series.terms": tr.counts["series.terms"] / ops,
        "series.tail_max": tr.tail_max,
        "series.self_ms": tr.self_ms("series.") / ops,
        "registry.evaluate.calls": evals / ops,
        "registry.self_ms": tr.self_ms("registry.") / ops,
        "registry.inconclusive_frac":
            tr.counts["registry.inconclusive"] / evals if evals else 0.0,
        "registry.raised_frac": raised / evals if evals else 0.0,
        "reporting.render_json.ms": tr.self_ms("reporting.render_json") / ops,
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": main_ms,
        "trace.overhead_ms": mean_traced - mean_plain,
        "trace.overhead_frac": mean_traced / mean_plain - 1.0,
        "trace.spans_per_op": spans / ops,
    }
    res.say(f"trace: {plain.lat.n} ops untraced (mean {mean_plain:.6g} ms), "
            f"{tr.ops} traced (mean {mean_traced:.6g} ms); {spans} spans written "
            f"to {trace_file.relative_to(W.ROOT)}")
    res.say(f"trace: solve_k inputs: {tr.counts['solve_k.distinct']} distinct of "
            f"{solves} calls (window: one deck)")
    for name, unit, _ in PER_LAYER:
        res.say(f"{name:<40} = {values[name]:.6g} {unit}")
    for layer, moves in LAYER_MAP.items():
        res.say(f"layer {layer}: should move {moves}")
    return {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, repeats: int = SETUP_REPEATS) -> tuple[Result, dict]:
    ell = import_program(with_cli=workload == "cli_cold")
    w = W.make(workload, ell, seed)
    w.warm_up()
    res = Result()
    res.say(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
            f"closed loop, 1 caller")
    metrics = (traced_run if trace else plain_run)(w, seconds, min_ops, repeats, res)
    bare = sum(res.bare.values())
    res.say(f"failed = {res.failed} of {res.attempted} ops attempted "
            f"(failed_frac {res.failed / max(res.attempted, 1):.6g})")
    res.say(f"bare exceptions = {bare} of {res.attempted} ops attempted "
            f"(bare_frac {bare / max(res.attempted, 1):.6g}); by type: "
            f"{dict(res.bare) or 'none'}")
    return res, metrics


def import_program(with_cli: bool):
    src = W.SRC.resolve()
    if not (src / "ellid" / "__init__.py").is_file():
        raise HarnessError(f"no ellid package under {src}; run from a checkout "
                           f"of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ell = W.load(with_cli=with_cli)
    if src not in Path(ell.ellid.__file__).resolve().parents:
        raise HarnessError(f"imported ellid from {ell.ellid.__file__}, not {src}")
    return ell


# -- maintenance modes -------------------------------------------------------

def write_references() -> None:
    ell = import_program(with_cli=True)
    W.REF_DIR.mkdir(exist_ok=True)
    text = W.make("catalog", ell, W.DEFAULT_SEED).op(None)
    _, stdout = W.make("cli_cold", ell, W.DEFAULT_SEED).op(0)
    if stdout != text.encode("utf-8"):
        raise HarnessError("check-all stdout differs from render_json(run_all())")
    W.REF_CHECK_ALL.write_bytes(stdout)
    for name in ("sweep", "library"):
        w = W.make(name, ell, W.DEFAULT_SEED)
        lines = evaluate_lines(w, w.reference_deck()).first_lines
        W.ref_lines_path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} lines to {W.ref_lines_path(name)}")
    print(f"wrote {len(stdout)} bytes to {W.REF_CHECK_ALL}")


def self_check() -> int:
    """References load, every named metric is emitted, failures are counted."""
    problems = []
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != \
            [(n, u) for n, u, _ in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != \
            [(n, u) for n, u, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(W.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    ell = import_program(with_cli=True)
    rows = json.loads(W.reference_text())
    print(f"self-check: {W.REF_CHECK_ALL.name} holds {len(rows)} rows")
    for name in ("sweep", "library"):
        w = W.make(name, ell, W.DEFAULT_SEED)
        ref = W.reference_lines(name)
        inputs = [w.describe(item) for item in w.reference_deck()]
        if [line.partition(" | ")[0] for line in ref] != inputs:
            problems.append(f"{name}: reference inputs differ from the seeded deck")
        # A wrong output and a bare exception must both be counted.
        bad = list(ref)
        bad[0] = bad[0].partition(" | ")[0] + " | 0 0 0 0 FAIL"
        res = Result()
        check_outputs(w, evaluate_lines(w, w.reference_deck()[:1]), res, bad)
        if res.correct or res.failed < 1:
            problems.append(f"{name}: a corrupted reference line was not counted")

        # Bare exceptions are always counted; they fail an op by themselves
        # unless the workload compares them as outcomes, and then the check
        # against a second pass must flag them.
        def boom(item):
            raise ZeroDivisionError("injected")
        boomed = timed_loop(w, [w.reference_deck()[:3]], 0.0, 4, op=boom)
        if sum(boomed.bare.values()) != 3 or \
                boomed.failed != (0 if w.bare_is_outcome else 3):
            problems.append(f"{name}: injected bare exceptions were not counted")
        res = Result()
        check_outputs(w, boomed, res, ref[:3])
        if res.correct or res.failed < 3:
            problems.append(f"{name}: injected bare exceptions did not fail the check")
        print(f"self-check: {name}: {len(ref)} reference lines; "
              f"mismatch and bare-exception counting checked")

    for name in W.WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            res, metrics = run(name, W.DEFAULT_SEED, 0.3, trace, min_ops=3, repeats=1)
            expected = {n for n, _, _ in names}
            if set(metrics) != expected:
                problems.append(f"{name} trace={int(trace)}: metrics "
                                f"{sorted(set(metrics) ^ expected)} missing or extra")
            if not all(math.isfinite(m["value"]) for m in metrics.values()):
                problems.append(f"{name} trace={int(trace)}: a metric is not finite")
            if not res.correct:
                problems.append(f"{name} trace={int(trace)}: outputs did not check")
            print(f"self-check: {name} trace={int(trace)}: {len(metrics)} metrics, "
                  f"{res.attempted} ops, {res.failed} failed, correct={res.correct}")
    for p in problems:
        print(f"self-check FAILED: {p}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.write_references:
            write_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        res, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in res.lines:
        print(line)
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
