"""The benchmark's four workloads: seeded inputs, one op each, and its check.

Every workload is a closed loop with one caller.  An in-process op calls
ellid through module attributes looked up at call time, so the tracer's
wrappers apply when they are installed.

- catalog: one op is the full default audit, ``Registry.run_all()`` then
  ``render_json``.  Inputs repeat heavily (34 ``solve_k`` calls for 3
  distinct ``a``), so caching, dispatch and reporting changes show here.
- sweep: one op is one ``Registry.evaluate`` at a point drawn uniformly from
  the record's declared ``ParamSpec`` ranges, filtered by its constraint.
  Points never repeat, so a cache is bypassed; the draws reach the
  ill-conditioned corners (P8 at large r, P12 poles, P9 past x = 1/2, E4 near
  a = 0.11).  Bare exceptions are counted and reported, never filtered out.
- library: one op is one call from a seeded mix of public primitives, each
  inside its documented domain.  Theta and series kernels do the work;
  singular and registry do none.
- cli_cold: one op is a fresh ``python -m ellid.cli check-all --format json``
  process, what a command-line user waits for.  Import cost shows here.
"""

from __future__ import annotations

import functools
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"

DEFAULT_SEED = 1          # the seed the reference files were written for
SWEEP_PER_VARIANT = 40    # one sweep deck: 40 points for each of the 40 variants
LIBRARY_DECK = 800        # one library deck: 40 calls for each of the 20 entries
CHILD_TIMEOUT_S = 60
CHECK_ALL_ARGS = ["check-all", "--format", "json"]

WORKLOADS = ("catalog", "sweep", "library", "cli_cold")

# Host-speed calibration.  On a shared VM the same Python code runs up to
# 1.6x slower for seconds to minutes at a time.  A fixed pure-Python loop,
# timed next to the ops, measures that; times are reported scaled to a host
# on which the loop takes REF_CAL_S (about this loop's time on an idle
# 2.1 GHz Xeon core).
CAL_LOOP = 5000
REF_CAL_S = 3e-4


def calibration_s() -> float:
    """Median time of three runs of the calibration loop: the host's speed now."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(CAL_LOOP):
            acc += i * 0.5
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def num(x) -> str:
    return str(x) if isinstance(x, (int, str)) else format(x, ".17g")


def load(with_cli: bool = False) -> SimpleNamespace:
    """Import ellid from this checkout's src; the caller has put it on sys.path."""
    import ellid
    from ellid import (elliptic, errors, registry, reporting, series, singular,
                       theta)
    ns = SimpleNamespace(ellid=ellid, elliptic=elliptic, errors=errors,
                         registry=registry, reporting=reporting, series=series,
                         singular=singular, theta=theta)
    if with_cli:
        from ellid import cli
        ns.cli = cli
    return ns


def child_env(hash_seed: int | None = None) -> dict:
    """The environment a child python gets: ours, with src first on PYTHONPATH."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Workload:
    """One workload: decks of inputs, the op, and how an op's output is checked.

    ``every_op_reference`` workloads compare each op's whole output with one
    seed-independent reference; the others render one line per op and check
    their first deck (by two passes, and against the reference deck).
    """

    name = ""
    every_op_reference = False
    # True where a bare exception is one of the outcomes the checks compare
    # (the first deck against a second pass and the reference deck against
    # its file), not a failure by itself; the count is reported either way.
    bare_is_outcome = False

    def __init__(self, ell: SimpleNamespace, seed: int):
        self.ell = ell
        self.seed = seed
        self.rng = random.Random(seed)

    def decks(self):
        while True:
            yield self.deck(self.rng)

    def deck(self, rng: random.Random) -> list:
        raise NotImplementedError

    def reference_deck(self) -> list:
        return self.deck(random.Random(DEFAULT_SEED))

    def op(self, item):
        raise NotImplementedError

    def line(self, item, result, exc) -> str:
        """Input and output as one line, floats at 17 significant digits."""
        if exc is None:
            out = self.render(result)
        elif isinstance(exc, self.ell.errors.EllidError):
            out = f"error {type(exc).__name__}"
        else:
            out = f"raised {type(exc).__name__}"
        return f"{self.describe(item)} | {out}"

    def describe(self, item) -> str:
        raise NotImplementedError

    def render(self, result) -> str:
        raise NotImplementedError

    def matches(self, ref: str, got: str) -> bool:
        return ref == got

    def warm_up(self) -> None:
        for item in self.reference_deck()[:64]:
            try:
                self.op(item)
            except Exception:
                pass  # failures are counted in the timed run, not here


class Catalog(Workload):
    name = "catalog"
    every_op_reference = True

    def deck(self, rng):
        return [None]

    def op(self, item):
        ell = self.ell
        return ell.reporting.render_json(ell.registry.default_registry().run_all())

    def ok(self, result) -> bool:
        return result == reference_text()


class Sweep(Workload):
    """Points in the ill-conditioned corners may raise a bare exception (P8's
    ZeroDivisionError at large r).  That outcome is kept, counted and checked
    like any other, so a point that starts or stops raising is a mismatch."""

    name = "sweep"
    bare_is_outcome = True

    def __init__(self, ell, seed):
        super().__init__(ell, seed)
        self.registry = ell.registry.default_registry()
        self.targets = [(rec, v.variant_id) for rec in self.registry.records()
                        for v in rec.variants]

    def deck(self, rng):
        # Round-robin over variants, so a deck cut short stays balanced.
        return [(rec.identity_id, variant, self._draw(rec, rng))
                for _ in range(SWEEP_PER_VARIANT)
                for rec, variant in self.targets]

    @staticmethod
    def _draw(rec, rng: random.Random) -> dict:
        for _ in range(10000):
            point = {p.name: rng.choice(p.choices) if p.choices is not None
                     else rng.uniform(p.lo, p.hi) for p in rec.params}
            if rec.constraint is None or rec.constraint(point):
                return point
        raise RuntimeError(f"no point of {rec.identity_id} met its constraint")

    def op(self, item):
        identity, variant, point = item
        return self.registry.evaluate(identity, variant, point)

    def describe(self, item):
        identity, variant, point = item
        params = ",".join(f"{k}={num(v)}" for k, v in sorted(point.items()))
        return f"{identity} {variant} {params}"

    def render(self, r):
        return (f"{num(r.lhs)} {num(r.rhs)} {num(r.abs_residual)} "
                f"{num(r.rel_residual)} {r.classification.value}")

    def matches(self, ref, got):
        # A point that raised a bare exception at the reference commit may
        # since have become a refusal or an INCONCLUSIVE row; nothing else.
        if ref == got:
            return True
        ref_in, _, ref_out = ref.partition(" | ")
        got_in, _, got_out = got.partition(" | ")
        return (ref_in == got_in and ref_out.startswith("raised ")
                and (got_out.startswith("error ") or got_out.endswith(" INCONCLUSIVE")))


class Library(Workload):
    name = "library"

    def __init__(self, ell, seed):
        super().__init__(ell, seed)
        self.entries = _library_entries(ell)

    def deck(self, rng):
        deck = []
        for _ in range(LIBRARY_DECK):
            label, module, attr, make = rng.choice(self.entries)
            shown, args = make(rng)
            deck.append((label, module, attr, shown, args))
        return deck

    def op(self, item):
        _, module, attr, _, args = item
        return getattr(module, attr)(*args)

    def describe(self, item):
        label, _, _, shown, _ = item
        return " ".join([label] + [num(v) for v in shown])

    def render(self, result):
        if hasattr(result, "terms_used"):
            return f"{num(result.value)} {result.terms_used} {num(result.tail_bound)}"
        if hasattr(result, "value"):
            return num(result.value)
        return num(result)

    def warm_up(self):
        rng = random.Random(DEFAULT_SEED)
        for label, module, attr, make in self.entries:
            getattr(module, attr)(*make(rng)[1])


def _library_entries(ell) -> list:
    """(label, module, attribute, draw) for each primitive in the mix.

    ``draw(rng)`` returns (values shown in the check line, call arguments).
    Domains: nomes q in [0, 0.9]; elliptic arguments in [0, 0.999] in either
    convention; series scales in [0.2, 5] with their angle limits; theta2's
    log-derivative at |s| < 1.4 (inside |s| < pi/2); theta4(i s/2)'s at
    s < 0.8 pi a, inside its first zero at s = pi a.  Orders are uniform on
    0..12.
    """
    el, th, se = ell.elliptic, ell.theta, ell.series
    Nome = el.Nome
    pi = math.pi

    def elliptic_arg(rng):
        conv = rng.choice((el.Convention.MODULUS, el.Convention.PARAMETER))
        v = rng.uniform(0.0, 0.999)
        return (conv.value, v), (el.EllipticArgument(v, conv),)

    def real_and_nome(lo, hi):
        def draw(rng):
            x, q = rng.uniform(lo, hi), rng.uniform(0.0, 0.9)
            return (x, q), (x, Nome(q))
        return draw

    def nome_only(rng):
        q = rng.uniform(0.0, 0.9)
        return (q,), (Nome(q),)

    def scale(rng):
        a = rng.uniform(0.2, 5.0)
        return (a,), (a,)

    def scale_angle(lo, hi, relative=False):
        def draw(rng):
            a = rng.uniform(0.2, 5.0)
            x = rng.uniform(lo, hi) * (pi * a if relative else 1.0)
            return (a, x), (a, x)
        return draw

    def log_theta2(rng):
        order, s, q = rng.randint(0, 12), rng.uniform(0.0, 1.4), rng.uniform(0.01, 0.9)
        return (order, s, q), (th.ThetaKind.THETA2, order, s, Nome(q))

    def log_theta4_imag_half(rng):
        order, a = rng.randint(0, 12), rng.uniform(0.2, 3.0)
        s = rng.uniform(0.0, 0.8 * pi * a)
        return (order, a, s), (th.ThetaKind.THETA4_IMAG_HALF, order, s,
                               Nome.from_pi_exponent(a))

    return [
        ("ellint_K", el, "ellint_K", elliptic_arg),
        ("ellint_E", el, "ellint_E", elliptic_arg),
        ("theta2", th, "theta2", real_and_nome(0.0, pi)),
        ("theta3", th, "theta3", real_and_nome(0.0, pi)),
        ("theta4", th, "theta4", real_and_nome(0.0, pi)),
        ("theta4_imag", th, "theta4_imag", real_and_nome(0.0, 2.0)),
        ("log_theta_derivative/theta2", th, "log_theta_derivative", log_theta2),
        ("log_theta_derivative/theta4-imag-half", th, "log_theta_derivative",
         log_theta4_imag_half),
        ("S1", se, "S1_cosh_over_sinh", scale_angle(0.0, 0.4, relative=True)),
        ("S2", se, "S2_alt_sin_sq_over_expm1", scale_angle(0.0, pi)),
        ("S3", se, "S3_alt_n_over_expm1", scale),
        ("S4", se, "S4_n_over_sinh", scale),
        ("S5", se, "S5_sech", scale),
        ("S6", se, "S6_alt_sin_over_expm1", scale_angle(-pi, pi)),
        ("S7", se, "S7_csch_sinh", scale_angle(-3.0, 3.0)),
        ("S8", se, "S8_exp_over_cube", scale),
        ("S9", se, "S9_lambert_E2", nome_only),
        ("S10", se, "S10_alt_sin_lambert", real_and_nome(0.0, 1.4)),
        ("q_product_P0", th, "q_product_P0", nome_only),
        ("euler_product", th, "euler_product", nome_only),
    ]


class CliCold(Workload):
    """Each op is a fresh interpreter; its PYTHONHASHSEED comes from the seed,
    so byte stability under hash seeds is checked on every run."""

    name = "cli_cold"
    every_op_reference = True
    args = CHECK_ALL_ARGS

    def deck(self, rng):
        return [rng.randrange(2 ** 32)]

    def command(self, dump: Path | None) -> list[str]:
        if dump is None:
            return [sys.executable, "-m", "ellid.cli", *self.args]
        return [sys.executable, str(BENCH_DIR / "child.py"), "cli-traced",
                str(dump), *self.args]

    def op(self, item, dump: Path | None = None):
        proc = subprocess.run(self.command(dump), env=child_env(item), cwd=ROOT,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def ok(self, result) -> bool:
        returncode, stdout = result
        return returncode in (0, 1) and stdout == reference_bytes()

    def warm_up(self):
        self.op(0)


MAKERS = {"catalog": Catalog, "sweep": Sweep, "library": Library,
          "cli_cold": CliCold}


def make(name: str, ell: SimpleNamespace, seed: int) -> Workload:
    return MAKERS[name](ell, seed)


# -- references --------------------------------------------------------------

REF_CHECK_ALL = REF_DIR / "check_all.json"


def ref_lines_path(workload: str) -> Path:
    return REF_DIR / f"{workload}_seed{DEFAULT_SEED}.txt"


@functools.cache
def reference_bytes() -> bytes:
    return REF_CHECK_ALL.read_bytes()


@functools.cache
def reference_text() -> str:
    return reference_bytes().decode("utf-8")


def reference_lines(workload: str) -> list[str]:
    return ref_lines_path(workload).read_text(encoding="utf-8").splitlines()
