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
from .gridio import format_scalar, read_grid, render_report, to_json
from .harness import _INEQUALITY_SUITES, _SUITE_OPTIONS, _report, _suite, run_identity_suite, run_inequality_suite
from .scalars import Backend, DEFAULT_TOLERANCE, parse_order
from .taylor import remainder_bound, taylor_extended, taylor_fractional, taylor_integer

__all__ = ["build_parser", "main"]


_FLAGS = {
    "a": dict(type=int, help="base point"),
    "b": dict(type=int, help="right endpoint"),
    "t": dict(type=int, help="evaluation point"),
    "mu": dict(help="order, e.g. 5/2"),
    "nu": dict(help="sum order, e.g. 1/2"),
    "p": dict(type=int, help="difference shift"),
    "gamma": dict(help="first conjugate exponent"),
    "delta": dict(help="second conjugate exponent"),
    "r": dict(help="norm exponent"),
    "input": dict(help="grid file (.csv or .json)"),
    "backend": dict(choices=["exact", "float"], default="exact"),
    "seed": dict(type=int, help="master seed"),
    "trials": dict(type=int, help="number of randomized trials"),
    "format": dict(choices=["json", "csv", "table"], default="table"),
    "g-variant": dict(choices=["paper", "tight"], default="paper"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nablafrac",
        description="Discrete nabla fractional calculus: evaluators and verification harnesses.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        # no abbreviations: a flag a command does not take must not parse as a longer one
        sub = commands.add_parser(command, help=text, allow_abbrev=False)
        if command in ("verify", "ineq"):
            sub.add_argument("suite", type=str, help="suite name")
        for spec in flags.split():
            flag, _, default = spec.partition("=")
            name = flag.rstrip("!")
            options = dict(_FLAGS[name], required=name != flag)
            if default:
                options["default"] = default  # a string default is parsed by the flag's type
            sub.add_argument("--" + name, **options)
    return parser


# Parsing leaves a parser unchanged, so in-process callers of main share one.
_parser = functools.cache(build_parser)


def _cmd_eval(args) -> int:
    """``eval-sum`` and ``eval-caputo``: one scalar, whatever ``--format``."""
    f = read_grid(args.input, backend=Backend(args.backend))
    evaluate, order = (frac_sum, args.nu) if args.command == "eval-sum" else (caputo_nabla, args.mu)
    print(format_scalar(evaluate(f, args.a, order, args.t)))
    return 0


def _write_payload(payload: dict, fmt: str) -> None:
    """JSON for ``--format json``, otherwise one ``key: value`` line per entry, in order."""
    if fmt == "json":
        sys.stdout.write(to_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_taylor(args) -> int:
    f = read_grid(args.input, backend=Backend(args.backend))
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
    f = read_grid(args.input, backend=Backend(args.backend))
    lhs, rhs = remainder_bound(f, args.a, args.mu, args.p, args.t)
    _write_payload({"lhs": format_scalar(lhs), "rhs": format_scalar(rhs)}, args.format)
    return 0


def _cmd_verify(args) -> int:
    result = run_identity_suite(args.suite, args.trials, args.seed, Backend(args.backend))
    sys.stdout.write(render_report(result, args.format))
    return 0 if result.passed else 1


def _ineq_params(args) -> dict:
    """The suite options given on the command line, exponents parsed; ``--g-variant``
    has a default, so it is always given."""
    return {
        key: parse_order(value) if key in ("gamma", "delta", "r") else value
        for key in _SUITE_OPTIONS
        if (value := getattr(args, key, None)) is not None
    }


def _single_report(args):
    name = args.suite
    _suite(_INEQUALITY_SUITES, "inequality", name)  # an unknown name fails before the file is read
    f = read_grid(args.input, backend=Backend(args.backend))
    opts = _ineq_params(args)
    flags = {"opial": ("a", "t", "mu"), "opial-25": ("t",)}.get(name, ("a", "b", "mu"))
    for key in flags:  # argparse cannot require them: they depend on NAME
        if getattr(args, key) is None:
            raise UsageError(f"missing required flag --{key}")
    end = args.b if "b" in flags else args.t
    mu = [args.mu] if name == "avg-sobolev" else args.mu
    return _report(name, f, args.a, end, mu, args.p, opts, DEFAULT_TOLERANCE)


def _cmd_ineq(args) -> int:
    """A suite run reads no point or end; a single report (``--input``) no trial count or seed."""
    single = args.input is not None
    for key in ("trials", "seed") if single else ("a", "b", "t"):
        if getattr(args, key) is not None:
            raise UsageError(f"{'a single report (--input)' if single else 'a suite run'} does not read --{key}")
    if single:
        result = _single_report(args)
    else:
        trials, seed = (1000 if args.trials is None else args.trials), (42 if args.seed is None else args.seed)
        result = run_inequality_suite(args.suite, trials, seed, Backend(args.backend), **_ineq_params(args))
    sys.stdout.write(render_report(result, args.format))
    return 0 if (result.holds if single else result.passed) else 1


# The one command table: name -> (handler, help text, flags), in the order of the help.  Each
# command takes only the flags the handler reads ("a!" required, "p=0" default 0): argparse refuses others.
_GRID = "input! a! mu! t! p=0 backend format"
_ALL_BUT_NU = " ".join(flag for flag in _FLAGS if flag != "nu")
_COMMANDS = {
    "eval-sum": (_cmd_eval, "evaluate a fractional sum at one point", "input! a! nu! t! backend format"),
    "eval-caputo": (
        _cmd_eval, "evaluate the Caputo-like difference at one point", "input! a! mu! t! backend format"
    ),
    "taylor": (_cmd_taylor, "evaluate a discrete Taylor representation", _GRID),
    "bound": (_cmd_bound, "evaluate the remainder bound", _GRID),
    "verify": (_cmd_verify, "run a randomized identity suite", "backend seed=42 trials=200 format"),
    "ineq": (_cmd_ineq, "run an inequality suite, or evaluate one report with --input", _ALL_BUT_NU),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command][0](args)
    except (NablaFracError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
