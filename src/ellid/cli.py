"""Command-line harness: list, check, check-all and eval.

``check ID`` is ``check-all --only ID`` with ``--grid`` added: one handler
runs both.  Every command writes through ``_write``, to --out or stdout.

Exit codes: 0 success (all PASS, or the entry is Contested), 1 an
ExpectPass entry produced a non-PASS point, 2 usage errors (unknown
identity, malformed flags) or output that --out or stdout cannot take
(e.g. a pipe whose reader has gone).
Reports are byte-identical across runs: a report is a function of the
identity ids and --grid alone.  Only eval takes --tol and --cap.
``ellid eval -h`` lists each function; each takes only the flags it needs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from .elliptic import Convention, EllipticArgument, Nome, ellint_E, ellint_K
from .errors import ConfigError, DomainError, EllidError
from .registry import Classification, Expectation, Registry, default_registry
from .reporting import (format_number, render_csv, render_json, render_list,
                        render_text)
from .series import (DEFAULT_POLICY, S1_cosh_over_sinh,
                     S2_alt_sin_sq_over_expm1, S3_alt_n_over_expm1,
                     S3sq_alt_nsq_over_expm1, S4_n_over_sinh, S5_sech,
                     S5sq_sech2, S6_alt_sin_over_expm1, S6closed, S7_csch_sinh,
                     S8_exp_over_cube, S9_lambert_E2, S10_alt_sin_lambert,
                     SeriesResult, TruncationPolicy)
from .singular import solve_k
from .theta import euler_product, q_product_P0, theta2, theta3, theta4

FORMATS = ("json", "csv", "text")


def _policy(args: argparse.Namespace) -> TruncationPolicy:
    """The series policy from --tol and --cap."""
    try:
        return TruncationPolicy(args.tol, args.cap)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def _parse_grid_overrides(specs: Sequence[str]) -> dict[str, list]:
    """--grid name=v1,v2 overrides; values parsed as floats, else strings.

    A repeated name gets the values of all its items in first-seen order,
    each value once.
    """
    overrides: dict[str, dict] = {}
    for item in specs:
        if "=" not in item:
            raise ConfigError(f"grid: expected name=v1,v2,..., got {item!r}")
        name, _, raw = item.partition("=")
        values = overrides.setdefault(name.strip(), {})
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                raise ConfigError(f"grid: empty value in {item!r}")
            try:
                values[float(tok)] = None
            except ValueError:
                values[tok] = None
    return {name: list(values) for name, values in overrides.items()}


def _write(text: str, out: str | None = None) -> bool:
    """Write ``text`` to ``out``, else stdout; False, said on stderr, if it fails."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:
            # e.g. the pipe's reader has gone: send what is still buffered,
            # and the interpreter's final flush, to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"cannot write report to "
                         f"{'stdout' if out is None else out}: "
                         f"{exc.strerror or exc}\n")
        return False
    return True


def _refuse_unknown(registry: Registry, ids: Sequence[str]) -> bool:
    """Print the ids of ``ids`` that ``registry`` lacks; True if there are any."""
    unknown = set(ids) - set(registry.ids())
    if unknown:
        sys.stderr.write(f"unknown identity id(s): {', '.join(sorted(unknown))}\n")
    return bool(unknown)


def cmd_list(args: argparse.Namespace) -> int:
    registry = default_registry()
    if _refuse_unknown(registry, args.ids):
        return 2
    records = [r for r in registry.records()
               if not args.ids or r.identity_id in args.ids]
    return 0 if _write(render_list(records)) else 2


def cmd_check(args: argparse.Namespace) -> int:
    """``check ID`` and ``check-all [--only ID]...``: audit ``args.ids``, or all."""
    registry = default_registry()
    try:
        grid = _parse_grid_overrides(args.grid)
    except ConfigError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    if _refuse_unknown(registry, args.ids):
        return 2
    try:
        reports = registry.run(args.ids or None, grid)
    except EllidError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 2
    if args.format == "json":
        text = render_json(reports)
    elif args.format == "csv":
        text = render_csv(reports)
    else:
        text = render_text(reports, registry)
    if not _write(text, args.out):
        return 2
    return 1 if any(registry.get(r.identity).expected is Expectation.EXPECT_PASS
                    and r.classification is not Classification.PASS
                    for r in reports) else 0


def _eval_solve_k(a, policy):
    res = solve_k(a)
    return {"k": res.k.value, "iterations": res.iterations,
            "residual": res.residual}


# name -> (function, the flags it takes in call order).  cmd_eval checks
# that each flag is given and finite and that no other is, passes a q value
# as a Nome and calls fn(*values, policy).  K and E (flags None) take
# exactly one of --k / --m.
EVAL_TABLE = {
    "K": (ellint_K, None),
    "E": (ellint_E, None),
    "solve_k": (_eval_solve_k, ("a",)),
    "theta2": (theta2, ("u", "q")),
    "theta3": (theta3, ("u", "q")),
    "theta4": (theta4, ("u", "q")),
    "P0": (q_product_P0, ("q",)),
    "euler_product": (euler_product, ("q",)),
    "S1": (S1_cosh_over_sinh, ("a", "t")),
    "S2": (S2_alt_sin_sq_over_expm1, ("c", "theta")),
    "S3": (S3_alt_n_over_expm1, ("c",)),
    "S3sq": (S3sq_alt_nsq_over_expm1, ("c",)),
    "S4": (S4_n_over_sinh, ("b",)),
    "S5": (S5_sech, ("a",)),
    "S5sq": (S5sq_sech2, ("x",)),
    "S6": (S6_alt_sin_over_expm1, ("a", "v")),
    "S6closed": (S6closed, ("a", "v")),
    "S7": (S7_csch_sinh, ("a", "v")),
    "S8": (S8_exp_over_cube, ("b",)),
    "S9": (S9_lambert_E2, ("q",)),
    "S10": (S10_alt_sin_lambert, ("z", "q")),
}


# Every value flag of the eval parser: --k, --m and those some function takes.
_EVAL_FLAGS = ("k", "m", *sorted({f for _, flags in EVAL_TABLE.values()
                                  for f in flags or ()}))


def _flag_values(args: argparse.Namespace, flags: Sequence[str] | None) -> list:
    """The checked values of ``flags``; for None, the --k / --m argument.

    Any other eval flag given is refused.
    """
    unread = [f for f in _EVAL_FLAGS if f not in (flags or ("k", "m"))
              and getattr(args, f) is not None]
    if unread:
        raise ConfigError(f"{args.function} does not read --{' --'.join(unread)}")
    if flags is None:
        if args.k is not None and args.m is not None:
            raise ConfigError("pass exactly one of --k / --m")
        if args.k is None and args.m is None:
            raise ConfigError("pass one of --k / --m")
        return [EllipticArgument(args.k, Convention.MODULUS) if args.m is None
                else EllipticArgument(args.m, Convention.PARAMETER)]
    missing = [name for name in flags if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"{args.function} needs --{' --'.join(missing)}")
    values = []
    for name in flags:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ConfigError(f"{args.function}: --{name} must be finite, got {value!r}")
        values.append(Nome(value) if name == "q" else value)
    return values


def cmd_eval(args: argparse.Namespace) -> int:
    if args.function not in EVAL_TABLE:
        sys.stderr.write(f"unknown function {args.function!r}; one of "
                         f"{', '.join(sorted(EVAL_TABLE))}\n")
        return 2
    fn, flags = EVAL_TABLE[args.function]
    try:
        policy = _policy(args)
        values = _flag_values(args, flags)
        result = fn(*values) if flags is None else fn(*values, policy)
    except ConfigError as exc:
        sys.stderr.write(f"invalid invocation: {exc}\n")
        return 2
    except EllidError as exc:
        sys.stderr.write(f"evaluation failed: {type(exc).__name__}: {exc}\n")
        return 2
    if isinstance(result, float):
        result = {"value": result}
    elif isinstance(result, SeriesResult):
        result = result._asdict()  # value, terms_used, tail_bound
    return 0 if _write("".join(f"{key} = {format_number(value)}\n"
                               for key, value in result.items())) else 2


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=FORMATS, default="text")
    # Ignored (audits run serially); bench/run.py's traced cli_cold run passes it.
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
    p_check.add_argument("ids", nargs=1, metavar="identity")
    p_check.add_argument("--grid", action="append", default=[],
                         metavar="NAME=V1,V2",
                         help="override one parameter's grid values")
    _add_output(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_all = sub.add_parser("check-all", help="audit the whole registry")
    p_all.add_argument("--only", dest="ids", action="append", default=[],
                       metavar="ID", help="restrict to these identity ids")
    _add_output(p_all)
    p_all.set_defaults(fn=cmd_check, grid=[])

    p_eval = sub.add_parser(
        "eval", help="evaluate one function ad hoc",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="functions and the flags each takes:\n" + "".join(
            f"  {name:15}{' '.join('--' + f for f in flags) if flags else '--k | --m'}\n"
            for name, (_, flags) in EVAL_TABLE.items()))
    p_eval.add_argument("function", help="one of the functions listed below")
    for flag in _EVAL_FLAGS:
        p_eval.add_argument(f"--{flag}", type=float, default=None)
    p_eval.add_argument("--tol", type=float, default=DEFAULT_POLICY.tolerance,
                        help="series tolerance (default %(default)s)")
    p_eval.add_argument("--cap", type=int, default=DEFAULT_POLICY.cap,
                        help="series term cap (default %(default)s)")
    p_eval.set_defaults(fn=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
