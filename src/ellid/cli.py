"""Command-line harness: list, check, check-all and eval.

Exit codes: 0 success (all PASS, or the entry is Contested), 1 an
ExpectPass entry produced a non-PASS point, 2 usage errors (unknown
identity, malformed flags).  Reports go to --out or stdout and are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from .elliptic import Convention, EllipticArgument, Nome, ellint_E, ellint_K
from .errors import ConfigError, EllidError, UnknownIdentityError
from .registry import (Classification, Expectation, Registry, ResidualReport,
                       default_registry, report_sort_key)
from .reporting import (format_number, render_csv, render_json, render_list,
                        render_text)
from .series import (S1_cosh_over_sinh, S2_alt_sin_sq_over_expm1,
                     S3_alt_n_over_expm1, S3sq_alt_nsq_over_expm1,
                     S4_n_over_sinh, S5_sech, S5sq_sech2,
                     S6_alt_sin_over_expm1, S6closed, S7_csch_sinh,
                     S8_exp_over_cube, S9_lambert_E2, S10_alt_sin_lambert,
                     TruncationPolicy)
from .singular import solve_k
from .theta import euler_product, q_product_P0, theta2, theta3, theta4

CAP_ENV_VAR = "ELLID_CAP"

FORMATS = ("json", "csv", "text")


@dataclass
class RunConfig:
    """Validated run settings."""

    tolerance: float = 1e-14
    cap: int = 10000
    out: str | None = None
    format: str = "text"

    def __post_init__(self) -> None:
        if not (isinstance(self.tolerance, float) and math.isfinite(self.tolerance)
                and self.tolerance > 0.0):
            raise ConfigError(f"tolerance: must be a positive real, got {self.tolerance!r}")
        if not (isinstance(self.cap, int) and self.cap >= 1):
            raise ConfigError(f"cap: must be a positive integer, got {self.cap!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"format: must be one of {FORMATS}, got {self.format!r}")

    @property
    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(tolerance=self.tolerance, cap=self.cap)


def _cap_default() -> int:
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return 10000
    try:
        cap = int(env)
    except ValueError:
        raise ConfigError(f"cap: {CAP_ENV_VAR}={env!r} is not an integer") from None
    if cap < 1:
        raise ConfigError(f"cap: {CAP_ENV_VAR}={env!r} must be >= 1")
    return cap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cap = args.cap if args.cap is not None else _cap_default()
    return RunConfig(tolerance=args.tol, cap=cap,
                     out=getattr(args, "out", None),
                     format=getattr(args, "format", "text"))


def _parse_grid_overrides(specs: Sequence[str]) -> dict[str, list]:
    """--grid name=v1,v2 overrides; values parsed as floats, else strings."""
    overrides: dict[str, list] = {}
    for item in specs or ():
        if "=" not in item:
            raise ConfigError(f"grid: expected name=v1,v2,..., got {item!r}")
        name, _, raw = item.partition("=")
        values: list = []
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                raise ConfigError(f"grid: empty value in {item!r}")
            try:
                values.append(float(tok))
            except ValueError:
                values.append(tok)
        overrides[name.strip()] = values
    return overrides


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _render(reports: list[ResidualReport], config: RunConfig,
            registry: Registry) -> str:
    if config.format == "json":
        return render_json(reports)
    if config.format == "csv":
        return render_csv(reports)
    return render_text(reports, registry)


def _exit_code(reports: list[ResidualReport], registry: Registry) -> int:
    failing = set()
    for r in reports:
        if (registry.get(r.identity).expected is Expectation.EXPECT_PASS
                and r.classification is not Classification.PASS):
            failing.add(r.identity)
    return 1 if failing else 0


def _grid_points_with_overrides(record, overrides: dict[str, list]) -> list[dict]:
    import itertools
    names = [p.name for p in record.params]
    for name in overrides:
        if name not in names:
            raise ConfigError(f"grid: {record.identity_id} has no parameter {name!r}")
    axes = [overrides.get(p.name, list(p.grid)) for p in record.params]
    return [dict(zip(names, combo)) for combo in itertools.product(*axes)]


def cmd_list(args: argparse.Namespace) -> int:
    registry = default_registry()
    records = registry.records()
    if args.ids:
        wanted = set(args.ids)
        unknown = wanted - set(registry.ids())
        if unknown:
            sys.stderr.write(f"unknown identity id(s): {', '.join(sorted(unknown))}\n")
            return 2
        records = [r for r in records if r.identity_id in wanted]
    sys.stdout.write(render_list(records))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    registry = default_registry()
    try:
        config = _config_from_args(args)
        overrides = _parse_grid_overrides(args.grid)
        record = registry.get(args.identity)
    except UnknownIdentityError:
        sys.stderr.write(f"unknown identity {args.identity!r}; "
                         f"try 'ellid list'\n")
        return 2
    except ConfigError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    try:
        if overrides:
            points = _grid_points_with_overrides(record, overrides)
            reports = []
            for variant in record.variants:
                for point in points:
                    reports.append(registry.evaluate(record.identity_id,
                                                     variant.variant_id, point,
                                                     config.policy))
            reports.sort(key=report_sort_key)
        else:
            reports = registry.run_grid(record.identity_id, config.policy)
    except (ConfigError, EllidError) as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 2
    _emit(_render(reports, config, registry), config.out)
    return _exit_code(reports, registry)


def cmd_check_all(args: argparse.Namespace) -> int:
    registry = default_registry()
    try:
        config = _config_from_args(args)
        unknown = set(args.only) - set(registry.ids())
        if unknown:
            sys.stderr.write(f"unknown identity id(s): {', '.join(sorted(unknown))}\n")
            return 2
    except ConfigError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    if args.only:
        reports = []
        for identity_id in args.only:
            reports.extend(registry.run_grid(identity_id, config.policy))
        reports.sort(key=report_sort_key)
    else:
        reports = registry.run_all(config.policy)
    _emit(_render(reports, config, registry), config.out)
    return _exit_code(reports, registry)


def _series_eval(fn, *positional):
    def call(args, policy):
        return fn(*[getattr(args, name) for name in positional], policy)
    call.required = positional
    return call


def _nome_series_eval(fn, *positional):
    def call(args, policy):
        vals = [getattr(args, name) for name in positional]
        vals[-1] = Nome.from_value(vals[-1])
        return fn(*vals, policy)
    call.required = positional
    return call


def _elliptic_arg(args) -> EllipticArgument:
    if args.k is not None and args.m is not None:
        raise ConfigError("pass exactly one of --k / --m")
    if args.k is not None:
        return EllipticArgument(args.k, Convention.MODULUS)
    if args.m is not None:
        return EllipticArgument(args.m, Convention.PARAMETER)
    raise ConfigError("pass one of --k / --m")


def _eval_K(args, policy):
    return ellint_K(_elliptic_arg(args))


def _eval_E(args, policy):
    return ellint_E(_elliptic_arg(args))


def _eval_solve_k(args, policy):
    if args.a is None:
        raise ConfigError("solve_k needs --a")
    res = solve_k(args.a)
    return {"k": res.k.value, "iterations": res.iterations,
            "residual": res.residual}


def _eval_theta(fn):
    def call(args, policy):
        if args.u is None or args.q is None:
            raise ConfigError("theta functions need --u and --q")
        return fn(args.u, Nome.from_value(args.q), policy)
    call.required = ("u", "q")
    return call


def _eval_product(fn):
    def call(args, policy):
        if args.q is None:
            raise ConfigError("products need --q")
        return fn(Nome.from_value(args.q), policy)
    call.required = ("q",)
    return call


EVAL_TABLE = {
    "K": _eval_K,
    "E": _eval_E,
    "solve_k": _eval_solve_k,
    "theta2": _eval_theta(theta2),
    "theta3": _eval_theta(theta3),
    "theta4": _eval_theta(theta4),
    "P0": _eval_product(q_product_P0),
    "euler_product": _eval_product(euler_product),
    "S1": _series_eval(S1_cosh_over_sinh, "a", "t"),
    "S2": _series_eval(S2_alt_sin_sq_over_expm1, "c", "theta"),
    "S3": _series_eval(S3_alt_n_over_expm1, "c"),
    "S3sq": _series_eval(S3sq_alt_nsq_over_expm1, "c"),
    "S4": _series_eval(S4_n_over_sinh, "b"),
    "S5": _series_eval(S5_sech, "a"),
    "S5sq": _series_eval(S5sq_sech2, "x"),
    "S6": _series_eval(S6_alt_sin_over_expm1, "a", "v"),
    "S6closed": _series_eval(S6closed, "a", "v"),
    "S7": _series_eval(S7_csch_sinh, "a", "v"),
    "S8": _series_eval(S8_exp_over_cube, "b"),
    "S9": _nome_series_eval(S9_lambert_E2, "q"),
    "S10": _nome_series_eval(S10_alt_sin_lambert, "z", "q"),
}


def cmd_eval(args: argparse.Namespace) -> int:
    fn = EVAL_TABLE.get(args.function)
    if fn is None:
        sys.stderr.write(f"unknown function {args.function!r}; one of "
                         f"{', '.join(sorted(EVAL_TABLE))}\n")
        return 2
    try:
        config = _config_from_args(args)
        required = getattr(fn, "required", ())
        missing = [name for name in required if getattr(args, name, None) is None]
        if missing:
            raise ConfigError(
                f"{args.function} needs --{' --'.join(missing)}")
        result = fn(args, config.policy)
    except ConfigError as exc:
        sys.stderr.write(f"invalid invocation: {exc}\n")
        return 2
    except EllidError as exc:
        sys.stderr.write(f"evaluation failed: {type(exc).__name__}: {exc}\n")
        return 2
    if isinstance(result, dict):
        for key, value in result.items():
            sys.stdout.write(f"{key} = {format_number(value)}\n")
        return 0
    if hasattr(result, "value"):
        sys.stdout.write(f"value = {format_number(result.value)}\n")
        sys.stdout.write(f"terms_used = {result.terms_used}\n")
        sys.stdout.write(f"tail_bound = {format_number(result.tail_bound)}\n")
        return 0
    sys.stdout.write(f"value = {format_number(result)}\n")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_output: bool) -> None:
    parser.add_argument("--tol", type=float, default=1e-14,
                        help="series tolerance (default 1e-14)")
    parser.add_argument("--cap", type=int, default=None,
                        help=f"series term cap (default 10000; env {CAP_ENV_VAR})")
    if with_output:
        parser.add_argument("--out", default=None, help="output path (default stdout)")
        parser.add_argument("--format", choices=FORMATS, default="text")
        # Accepted and ignored, so existing invocations keep working (the
        # traced cli_cold run in bench/run.py passes --parallel 1): audits
        # run serially, and the report never depended on it.
        parser.add_argument("--parallel", type=int, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellid",
        description="Audit harness for elliptic, theta and Lambert-series identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the identity registry")
    p_list.add_argument("ids", nargs="*", help="restrict to these identity ids")
    p_list.set_defaults(fn=cmd_list)

    p_check = sub.add_parser("check", help="audit one identity over its grid")
    p_check.add_argument("identity")
    p_check.add_argument("--grid", action="append", default=[],
                         metavar="NAME=V1,V2",
                         help="override one parameter's grid values")
    _add_common(p_check, with_output=True)
    p_check.set_defaults(fn=cmd_check)

    p_all = sub.add_parser("check-all", help="audit the whole registry")
    p_all.add_argument("--only", action="append", default=[],
                       metavar="ID", help="restrict to these identity ids")
    _add_common(p_all, with_output=True)
    p_all.set_defaults(fn=cmd_check_all)

    p_eval = sub.add_parser("eval", help="evaluate one function ad hoc")
    p_eval.add_argument("function",
                        help=f"one of: {', '.join(sorted(EVAL_TABLE))}")
    for flag in ("k", "m", "a", "b", "c", "t", "v", "x", "z", "u", "q", "theta", "s"):
        p_eval.add_argument(f"--{flag}", type=float, default=None)
    _add_common(p_eval, with_output=False)
    p_eval.set_defaults(fn=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
