"""Command-line interface.

Exit codes: 0 when the requested evaluation succeeds (and, for verification
runs, everything holds), 1 when a verification run found violations, 2 for
usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import NablaFracError, UsageError
from .fracops import _order, caputo_nabla, frac_sum
from .grid import GridFunction
from .gridio import format_scalar, read_grid, render_report, to_json
from .harness import _INEQUALITY_SUITES, _report, _suite, run_identity_suite, run_inequality_suite
from .scalars import Backend, DEFAULT_TOLERANCE, parse_order
from .taylor import remainder_bound, taylor_extended, taylor_fractional, taylor_integer

__all__ = ["build_parser", "main"]


def _backend(args) -> Backend:
    return Backend.FLOAT if args.backend == "float" else Backend.EXACT


def _load_grid(args) -> GridFunction:
    if args.input is None:
        raise UsageError("this command needs --input")
    return read_grid(args.input, backend=_backend(args))


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=int, help="base point")
    sub.add_argument("--b", type=int, help="right endpoint")
    sub.add_argument("--t", type=int, help="evaluation point")
    sub.add_argument("--mu", type=str, help="order, e.g. 5/2")
    sub.add_argument("--nu", type=str, help="sum order, e.g. 1/2")
    sub.add_argument("--p", type=int, help="difference shift")
    sub.add_argument("--gamma", type=str, help="first conjugate exponent")
    sub.add_argument("--delta", type=str, help="second conjugate exponent")
    sub.add_argument("--r", type=str, help="norm exponent")
    sub.add_argument("--input", type=str, help="grid file (.csv or .json)")
    sub.add_argument("--backend", choices=["exact", "float"], default="exact")
    sub.add_argument("--seed", type=int, default=42, help="master seed")
    sub.add_argument("--trials", type=int, help="number of randomized trials")
    sub.add_argument("--format", choices=["json", "csv", "table"], default="table")
    sub.add_argument("--g-variant", choices=["paper", "tight"], default="paper")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nablafrac",
        description="Discrete nabla fractional calculus: evaluators and verification harnesses.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common)
    for name, (_, text) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text, parents=[common])
        if name in ("verify", "ineq"):
            sub.add_argument("suite", type=str, help="suite name")
    return parser


# Parsing leaves a parser unchanged, so in-process callers of main share one.
_parser = functools.cache(build_parser)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing required flag --{name}")


def _cmd_eval_sum(args) -> int:
    _require(args, "a", "nu", "t")
    f = _load_grid(args)
    print(format_scalar(frac_sum(f, args.a, args.nu, args.t)))
    return 0


def _cmd_eval_caputo(args) -> int:
    _require(args, "a", "mu", "t")
    f = _load_grid(args)
    print(format_scalar(caputo_nabla(f, args.a, args.mu, args.t)))
    return 0


def _write_payload(payload: dict, fmt: str) -> None:
    """JSON for ``--format json``, otherwise one ``key: value`` line per entry, in order."""
    if fmt == "json":
        sys.stdout.write(to_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_taylor(args) -> int:
    _require(args, "a", "mu", "t")
    f = _load_grid(args)
    order = _order(args.mu)
    if order.denominator == 1 and args.p:
        raise UsageError(f"--p {args.p} needs a non-integer --mu; the integer form expands f itself")
    if order.denominator == 1:
        expansion = taylor_integer(f, args.a, int(order), args.t)
    elif args.p:
        expansion = taylor_extended(f, args.a, order, args.p, args.t)
    else:
        expansion = taylor_fractional(f, args.a, order, args.t)
    payload = {
        "base": expansion.base,
        "order": str(order),
        "p": expansion.p,
        "poly_part": format_scalar(expansion.poly_part),
        "remainder": format_scalar(expansion.remainder),
        "total": format_scalar(expansion.total),
    }
    _write_payload(payload, args.format)
    return 0


def _cmd_bound(args) -> int:
    _require(args, "a", "mu", "t")
    f = _load_grid(args)
    p = args.p if args.p is not None else 0
    lhs, rhs = remainder_bound(f, args.a, args.mu, p, args.t)
    _write_payload({"lhs": format_scalar(lhs), "rhs": format_scalar(rhs)}, args.format)
    return 0


def _cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None else 200
    result = run_identity_suite(args.suite, trials, args.seed, _backend(args))
    sys.stdout.write(render_report(result, args.format))
    return 0 if result.passed else 1


def _ineq_params(args) -> dict:
    """The inequality options given on the command line, exponents parsed, and the g-bound."""
    params = {
        key: parse_order(value) if key in ("gamma", "delta", "r") else value
        for key in ("mu", "p", "gamma", "delta", "r")
        if (value := getattr(args, key)) is not None
    }
    params["g_variant"] = args.g_variant
    return params


def _single_report(args):
    name = args.suite
    _suite(_INEQUALITY_SUITES, "inequality", name)  # an unknown name fails before the file is read
    f = _load_grid(args)
    opts = _ineq_params(args)
    flags = {"opial": ("a", "t", "mu"), "opial-25": ("t",)}.get(name, ("a", "b", "mu"))
    _require(args, *flags)
    end = args.b if "b" in flags else args.t
    mu = [args.mu] if name == "avg-sobolev" else args.mu
    return _report(name, f, args.a, end, mu, args.p, opts, DEFAULT_TOLERANCE)


def _cmd_ineq(args) -> int:
    if args.input is not None:
        report = _single_report(args)
        sys.stdout.write(render_report(report, args.format))
        return 0 if report.holds else 1
    trials = args.trials if args.trials is not None else 1000
    result = run_inequality_suite(
        args.suite, trials, args.seed, _backend(args), **_ineq_params(args)
    )
    sys.stdout.write(render_report(result, args.format))
    return 0 if result.passed else 1


# The one command table: name -> (handler, help text), in the order of the help.
_COMMANDS = {
    "eval-sum": (_cmd_eval_sum, "evaluate a fractional sum at one point"),
    "eval-caputo": (_cmd_eval_caputo, "evaluate the Caputo-like difference at one point"),
    "taylor": (_cmd_taylor, "evaluate a discrete Taylor representation"),
    "bound": (_cmd_bound, "evaluate the remainder bound"),
    "verify": (_cmd_verify, "run a randomized identity suite"),
    "ineq": (_cmd_ineq, "run an inequality suite, or evaluate one report with --input"),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command][0](args)
    except NablaFracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
