"""Spans and counters recorded around calls into ellid, from outside the package.

Nothing inside ``src/ellid`` is edited.  ``install`` replaces the public
functions of each layer with thin wrappers, in the defining module and in
every ellid module that imported the same object by name (``registry`` binds
``solve_k``, ``singular`` binds ``agm``, and so on), and ``uninstall`` puts the
originals back.  A span records (op, id, parent, name, start, end); self time
is a span's duration minus the time its child spans cover.  High-count calls
(``agm`` and the theta summation loop) are counted without a span, so their
time lands in the self time of the innermost span that called them.

Spans stay in memory until ``write_spans`` at the end of the run.  The
tracer keeps one span stack, so it traces single-threaded code only.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

_now = time.perf_counter_ns

# (defining module, attribute, span name), wrapped wherever it is bound.
# A span name's prefix up to the first dot is its layer.
SPAN_TARGETS = [
    ("ellid.elliptic", "ellint_K", "elliptic.ellint_K"),
    ("ellid.elliptic", "ellint_E", "elliptic.ellint_E"),
    ("ellid.elliptic", "ellint_K_extended", "elliptic.ellint_K_extended"),
    ("ellid.singular", "solve_k", "singular.solve_k"),
    ("ellid.singular", "dadk_fd", "singular.dadk_fd"),
    ("ellid.singular", "dadk_candidates", "singular.dadk_candidates"),
    ("ellid.theta", "theta2", "theta.theta2"),
    ("ellid.theta", "theta3", "theta.theta3"),
    ("ellid.theta", "theta4", "theta.theta4"),
    ("ellid.theta", "theta4_imag", "theta.theta4_imag"),
    ("ellid.theta", "theta_u_derivative", "theta.theta_u_derivative"),
    ("ellid.theta", "theta4_u_derivative_imag", "theta.theta4_u_derivative_imag"),
    ("ellid.theta", "log_theta_derivative", "theta.log_theta_derivative"),
    ("ellid.theta", "q_product_P0", "theta.q_product_P0"),
    ("ellid.theta", "euler_product", "theta.euler_product"),
    ("ellid.series", "S1_cosh_over_sinh", "series.S1"),
    ("ellid.series", "S2_alt_sin_sq_over_expm1", "series.S2"),
    ("ellid.series", "S2h_alt_sinh_sq_over_expm1", "series.S2h"),
    ("ellid.series", "S3_alt_n_over_expm1", "series.S3"),
    ("ellid.series", "S3sq_alt_nsq_over_expm1", "series.S3sq"),
    ("ellid.series", "S4_n_over_sinh", "series.S4"),
    ("ellid.series", "S5_sech", "series.S5"),
    ("ellid.series", "S5sq_sech2", "series.S5sq"),
    ("ellid.series", "S6_alt_sin_over_expm1", "series.S6"),
    ("ellid.series", "S6closed", "series.S6closed"),
    ("ellid.series", "S7_csch_sinh", "series.S7"),
    ("ellid.series", "S8_exp_over_cube", "series.S8"),
    ("ellid.series", "S9_lambert_E2", "series.S9"),
    ("ellid.series", "S10_alt_sin_lambert", "series.S10"),
    ("ellid.series", "n_cosh_over_sinh_double", "series.n_cosh_over_sinh_double"),
    ("ellid.reporting", "render_json", "reporting.render_json"),
]

# Names wrapped only where one module binds them, because the same object
# plays a different part elsewhere: registry calls sum_series directly for
# its polynomial sums (a series evaluation), while theta's summation loop is
# counted as theta work.  agm is counted, not spanned.
BOUND_TARGETS = [
    ("ellid.registry", "sum_series", "series.sum_series", True),
    ("ellid.elliptic", "agm", "elliptic.agm", False),
    ("ellid.singular", "agm", "elliptic.agm", False),
    ("ellid.theta", "_sum_theta", "theta.sums", False),
    ("ellid.theta", "sum_series", "theta.sums", False),
]

METHOD_TARGETS = [
    ("ellid.registry", "Registry", "evaluate", "registry.evaluate"),
    ("ellid.registry", "Registry", "run_all", "registry.run_all"),
]

SOLVE_K = "singular.solve_k"
AGM = "elliptic.agm"


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_op = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._next_id = 0
        self._stack: list[int] = []      # open span ids
        self._stack_name: list[int] = []  # their name ids
        self._child_ns: list[int] = []    # child time covered inside each open span
        self.op = -1
        self.ops = 0
        self.calls: Counter = Counter()    # by name: spans and counts
        self.self_ns: Counter = Counter()  # by span name
        self.raised: Counter = Counter()   # by span name
        self.counts: Counter = Counter()   # derived counters by key
        self.tail_max = 0.0
        self._solve_inputs: set = set()
        self._solve_id = self.name_id(SOLVE_K)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- ops and decks -----------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.ops += 1

    def end_deck(self) -> None:
        """Close a window for the solve_k input-repetition share."""
        self.counts["solve_k.distinct"] += len(self._solve_inputs)
        self._solve_inputs.clear()

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, observe=None):
        tracer = self
        nid = self.name_id(name)
        stack, stack_name, child_ns = self._stack, self._stack_name, self._child_ns

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            stack_name.append(nid)
            child_ns.append(0)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                t1 = _now()
                stack.pop()
                stack_name.pop()
                inner = child_ns.pop()
                dur = t1 - t0
                if child_ns:
                    child_ns[-1] += dur
                tracer.self_ns[nid] += dur - inner
                tracer.calls[nid] += 1
                tracer.span_op.append(tracer.op)
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_name.append(nid)
                tracer.span_start.append(t0)
                tracer.span_end.append(t1)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        tracer = self
        nid = self.name_id(name)
        calls = self.calls
        in_solve = name == AGM
        stack_name = self._stack_name
        solve_id = self._solve_id

        def counted(*args, **kwargs):
            calls[nid] += 1
            if in_solve and stack_name and stack_name[-1] == solve_id:
                tracer.counts["agm_in_solve"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- observers -----------------------------------------------------------

    def _observe_solve(self, args, kwargs, result) -> None:
        self._solve_inputs.add(args[0] if args else kwargs["a"])

    def _observe_series(self, args, kwargs, result) -> None:
        self.counts["series.terms"] += result.terms_used
        if result.tail_bound > self.tail_max:
            self.tail_max = result.tail_bound

    def _observe_evaluate(self, args, kwargs, result) -> None:
        if result.classification.value == "INCONCLUSIVE":
            self.counts["registry.inconclusive"] += 1

    def observer(self, name: str):
        if name == SOLVE_K:
            return self._observe_solve
        if name.startswith("series."):
            return self._observe_series
        if name == "registry.evaluate":
            return self._observe_evaluate
        return None

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        """Counters and spans as plain data, for a child process to hand back."""
        self.end_deck()
        by_name = lambda c: {self.names[k]: v for k, v in c.items()}
        return {
            "ops": self.ops,
            "calls": by_name(self.calls),
            "self_ns": by_name(self.self_ns),
            "raised": by_name(self.raised),
            "counts": dict(self.counts),
            "tail_max": self.tail_max,
            "spans": [self.span_op.tolist(), self.span_id.tolist(),
                      self.span_parent.tolist(),
                      [self.names[i] for i in self.span_name],
                      self.span_start.tolist(), self.span_end.tolist()],
        }

    def merge(self, dump: dict, op: int) -> None:
        """Add a child's dump, renumbering its spans under op id ``op``."""
        remap = lambda c: Counter({self.name_id(k): v for k, v in c.items()})
        self.ops += dump["ops"]
        self.calls.update(remap(dump["calls"]))
        self.self_ns.update(remap(dump["self_ns"]))
        self.raised.update(remap(dump["raised"]))
        self.counts.update(dump["counts"])
        self.tail_max = max(self.tail_max, dump["tail_max"])
        _, ids, parents, names, starts, ends = dump["spans"]
        base = self._next_id
        for sid, parent, name, t0, t1 in zip(ids, parents, names, starts, ends):
            self.span_op.append(op)
            self.span_id.append(base + sid)
            self.span_parent.append(base + parent if parent >= 0 else -1)
            self.span_name.append(self.name_id(name))
            self.span_start.append(t0)
            self.span_end.append(t1)
        self._next_id = base + (max(ids) + 1 if ids else 0)

    def write_spans(self, path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for op, sid, parent, nid, t0, t1 in zip(
                    self.span_op, self.span_id, self.span_parent,
                    self.span_name, self.span_start, self.span_end):
                fh.write(f"{op},{sid},{parent},{self.names[nid]},{t0},{t1}\n")
        return len(self.span_id)

    # -- aggregates ----------------------------------------------------------

    def total_calls(self, name: str) -> int:
        return self.calls.get(self._ids.get(name, -1), 0)

    def self_ms(self, prefix: str) -> float:
        """Self time summed over every span whose name starts with prefix."""
        return sum(ns for nid, ns in self.self_ns.items()
                   if self.names[nid].startswith(prefix)) / 1e6

    def layer_calls(self, prefix: str) -> int:
        return sum(n for nid, n in self.calls.items()
                   if self.names[nid].startswith(prefix))


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap the targets in every loaded ellid module; returns (patches, missing)."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "ellid" or name.startswith("ellid."))]
    patches: list = []
    missing: list[str] = []

    def patch(module, attr, new):
        patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    for mod_name, attr, name in SPAN_TARGETS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.span(name, original, tracer.observer(name))
        for module in modules:
            if getattr(module, attr, None) is original:
                patch(module, attr, wrapped)

    for mod_name, attr, name, spanned in BOUND_TARGETS:
        module = sys.modules.get(mod_name)
        original = getattr(module, attr, None)
        if original is None:
            if attr != "sum_series":  # binding the shared kernel is optional
                missing.append(f"{mod_name}.{attr}")
            continue
        patch(module, attr, tracer.span(name, original, tracer.observer(name))
              if spanned else tracer.count(name, original))

    for mod_name, cls_name, attr, name in METHOD_TARGETS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            missing.append(f"{mod_name}.{cls_name}.{attr}")
            continue
        patch(cls, attr, tracer.span(name, original, tracer.observer(name)))
    return patches, missing


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
