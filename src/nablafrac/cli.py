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
from .fracops import as_order, caputo_nabla, frac_sum
from .grid import GridFunction
from .gridio import format_scalar, read_grid, render_report, to_json
from .harness import _INEQUALITY_SUITES, _suite, run_identity_suite, run_inequality_suite
from .ineq import (
    OpialParams,
    _unit_weights,
    avg_sobolev_report,
    opial_corollary_25,
    opial_report,
    ostrowski_report,
    poincare_report,
    sobolev_report,
)
from .scalars import Backend, parse_order
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
    for name, text in [
        ("eval-sum", "evaluate a fractional sum at one point"),
        ("eval-caputo", "evaluate the Caputo-like difference at one point"),
        ("taylor", "evaluate a discrete Taylor representation"),
        ("bound", "evaluate the remainder bound"),
        ("verify", "run a randomized identity suite"),
        ("ineq", "run an inequality suite, or evaluate one report with --input"),
    ]:
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


def _cmd_taylor(args) -> int:
    _require(args, "a", "mu", "t")
    f = _load_grid(args)
    order = as_order(args.mu)
    if order.is_integer and args.p:
        raise UsageError(f"--p {args.p} needs a non-integer --mu; the integer form expands f itself")
    if order.is_integer:
        expansion = taylor_integer(f, args.a, int(order.value), args.t)
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
    if args.format == "json":
        sys.stdout.write(to_json(payload))
    else:
        for key in ("base", "order", "p", "poly_part", "remainder", "total"):
            print(f"{key}: {payload[key]}")
    return 0


def _cmd_bound(args) -> int:
    _require(args, "a", "mu", "t")
    f = _load_grid(args)
    p = args.p if args.p is not None else 0
    lhs, rhs = remainder_bound(f, args.a, args.mu, p, args.t)
    if args.format == "json":
        sys.stdout.write(to_json({"lhs": format_scalar(lhs), "rhs": format_scalar(rhs)}))
    else:
        print(f"lhs: {format_scalar(lhs)}")
        print(f"rhs: {format_scalar(rhs)}")
    return 0


def _cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None else 200
    result = run_identity_suite(args.suite, trials, args.seed, _backend(args))
    sys.stdout.write(render_report(result, args.format))
    return 0 if result.passed else 1


def _ineq_params(args) -> dict:
    params = {}
    if args.mu is not None:
        params["mu"] = args.mu
    if args.p is not None:
        params["p"] = args.p
    if args.gamma is not None:
        params["gamma"] = parse_order(args.gamma)
    if args.delta is not None:
        params["delta"] = parse_order(args.delta)
    if args.r is not None:
        params["r"] = parse_order(args.r)
    params["g_variant"] = args.g_variant
    return params


def _single_report(args):
    name = args.suite
    _suite(_INEQUALITY_SUITES, "inequality", name)  # an unknown name fails before the file is read
    f = _load_grid(args)
    opts = _ineq_params(args)
    gamma, delta, r = (opts.get(key, 2) for key in ("gamma", "delta", "r"))
    p = opts.get("p", 0)
    if name == "opial":
        _require(args, "a", "t", "mu")
        mu = as_order(args.mu)
        params = OpialParams(
            mu=mu,
            p=p,
            gamma=gamma,
            delta=delta,
            inner_weights=_unit_weights(f, args.a + 1, args.t),
            outer_weights=_unit_weights(f, args.a + mu.m, args.t),
        )
        return opial_report(f, args.a, args.t, params, args.g_variant)
    if name == "opial-25":
        _require(args, "t")
        return opial_corollary_25(f, args.t)
    if name == "ostrowski":
        _require(args, "a", "b", "mu")
        return ostrowski_report(f, args.a, args.b, args.mu, p)
    if name == "poincare":
        _require(args, "a", "b", "mu")
        return poincare_report(f, args.a, args.b, args.mu, p, gamma, delta)
    if name == "sobolev":
        _require(args, "a", "b", "mu")
        return sobolev_report(f, args.a, args.b, args.mu, p, gamma, delta, r)
    _require(args, "a", "b", "mu")  # avg-sobolev
    mu = as_order(args.mu)
    return avg_sobolev_report(f, args.a, args.b, [mu], [_unit_weights(f, args.a + 1, args.b)], r)


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


_COMMANDS = {
    "eval-sum": _cmd_eval_sum,
    "eval-caputo": _cmd_eval_caputo,
    "taylor": _cmd_taylor,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "ineq": _cmd_ineq,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except NablaFracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
