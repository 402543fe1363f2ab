"""Command-line interface.

Subcommands:

* ``eval``        evaluate one 2F1 with rational parameters
* ``verify``      run an identity catalog and report per-record verdicts
* ``derive-chain`` rebuild the degree-12 transform-chain evaluation
* ``proof-check`` verify the integral proof steps of the 2F1(1/4) formula
* ``quadcheck``   quadrature-vs-Beta-series and series-vs-integral cross-checks

All rationals on the command line use "p/q" form.  Every subcommand accepts
``--report text|json``.  Exit codes: 0 everything passed, 1 something
failed or was distinct, 2 something stayed inconclusive, 3 usage or parse
errors and arguments outside the domain.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from fractions import Fraction

from .catalog import (
    DEFAULT_CATALOG,
    EXIT_CODE,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_DIGITS,
    CatalogError,
    run_all,
)
from .exact import rational, rational_str
from .gammaexpr import Verdict, achieved_digits, num_equal
from .hyper import (
    HyperError, HypParams, ParamsError, check_domain, f21_eval, f21_integral, f21_series,
)
from .mpreal import MPRealError, PowerIntegrand, Precision, beta, tanh_sinh_integrate
from .transforms import PROOF_METHODS, TransformError, derive_main, verify_gosper_proof


ROUTES = {"auto": f21_eval, "series": f21_series, "integral": f21_integral}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError) as e:
        raise _UsageError(f"bad rational {text!r}: {e}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _digits(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_DIGITS} digits, got {text!r}")
    return value


def _emit(report_format: str, payload: dict, text: str) -> None:
    if report_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_eval(args) -> int:
    p = HypParams(_fraction(args.a), _fraction(args.b), _fraction(args.c))
    z = _fraction(args.z)
    check_domain(p, z)
    value = ROUTES[args.strategy](p, z, Precision.of(args.digits))
    text = value.to_decimal(args.digits)
    _emit(
        args.report,
        {
            "command": "eval",
            "params": {"a": args.a, "b": args.b, "c": args.c},
            "z": args.z,
            "digits": args.digits,
            "strategy": args.strategy,
            "value": text,
        },
        text,
    )
    return EXIT_PASS


def _cmd_verify(args) -> int:
    report = run_all(args.catalog, digits=args.digits, only=args.only)
    _emit(args.report, report.to_json(), report.to_text())
    return report.exit_code


def _cmd_derive_chain(args) -> int:
    prec = Precision.of(args.digits)
    try:
        # opened before the derivation, so a bad path fails before any work
        trace_file = open(args.trace, "w") if args.trace else contextlib.nullcontext()
    except OSError as e:
        raise _UsageError(f"cannot write trace {args.trace}: {e.strerror}") from None
    with trace_file:
        trace = derive_main(prec)
        if args.trace:
            json.dump(trace.to_json(), trace_file, indent=2)
    lines = [
        f"final parameters: ({rational_str(trace.steps[-1][1].params.a)}, "
        f"{rational_str(trace.steps[-1][1].params.b)}; "
        f"{rational_str(trace.steps[-1][1].params.c)})",
        f"final argument:   {rational_str(trace.final_argument)}",
        f"derived constant: {trace.constant_value.to_decimal(args.digits)}",
        f"series value:     {trace.series_value.to_decimal(args.digits)}",
        f"printed form:     {trace.printed_value.to_decimal(args.digits)}",
        f"verdict: {trace.verdict.value}"
        + (f" ({trace.agreement_digits} digits agreement)" if trace.agreement_digits else ""),
    ]
    payload = trace.to_json()
    payload["command"] = "derive-chain"
    _emit(args.report, payload, "\n".join(lines))
    return EXIT_CODE[trace.verdict]


def _cmd_proof_check(args) -> int:
    prec = Precision.of(args.digits)
    verdicts = verify_gosper_proof(_fraction(args.b), prec)
    rows = [f"{name:28s} {v.value:20s} {PROOF_METHODS[name]}" for name, v in verdicts.items()]
    _emit(
        args.report,
        {
            "command": "proof-check",
            "b": args.b,
            "digits": args.digits,
            "steps": {name: v.value for name, v in verdicts.items()},
            "methods": {name: PROOF_METHODS[name] for name in verdicts},
        },
        "\n".join(rows),
    )
    return EXIT_CODE[Verdict.worst(verdicts.values())]


def _cmd_quadcheck(args) -> int:
    prec = Precision.of(args.digits)
    rng = random.Random(args.seed)
    rows = []
    verdicts = []
    for _ in range(args.samples):
        if args.expr == "beta":
            x = Fraction(rng.randint(1, 40), rng.randint(8, 24))
            y = Fraction(rng.randint(1, 40), rng.randint(8, 24))
            got = tanh_sinh_integrate(PowerIntegrand(x - 1, y - 1), prec)
            want = beta(x, y, prec)
            label = f"B({rational_str(x)}, {rational_str(y)})"
        else:
            a = Fraction(rng.randint(-6, 6), 4)
            b = Fraction(rng.randint(1, 8), 8)
            c = b + Fraction(rng.randint(1, 8), 8)
            z = Fraction(rng.randint(1, 7), 10)
            p = HypParams(a, b, c)
            got = f21_series(p, z, prec)
            want = f21_integral(p, z, prec)
            label = (
                f"2F1({rational_str(a)},{rational_str(b)};{rational_str(c)};"
                f"{rational_str(z)})"
            )
        verdict = num_equal(got, want, prec)
        digits = achieved_digits(got, want)
        rows.append(
            {"case": label, "verdict": verdict.value, "agreement_digits": digits}
        )
        verdicts.append(verdict)
    text = "\n".join(
        f"{r['verdict']:22s} {r['case']}"
        + (f" ({r['agreement_digits']} digits)" if r["agreement_digits"] else "")
        for r in rows
    )
    _emit(
        args.report,
        {"command": "quadcheck", "expr": args.expr, "cases": rows},
        text,
    )
    return EXIT_CODE[Verdict.worst(verdicts)]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypergamma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate 2F1(a,b;c;z)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--digits", type=_digits, default=50)
    p.add_argument("--strategy", choices=tuple(ROUTES), default="auto")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="verify an identity catalog")
    p.add_argument("--catalog", default=str(DEFAULT_CATALOG))
    p.add_argument("--digits", type=_digits, default=100)
    p.add_argument("--only", default=None, help="verify a single record id")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("derive-chain", help="rebuild the degree-12 chain evaluation")
    p.add_argument("--digits", type=_digits, default=150)
    p.add_argument("--trace", default=None, help="write the derivation trace JSON here")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_derive_chain)

    p = sub.add_parser("proof-check", help="verify the 2F1(1/4) formula proof steps")
    p.add_argument("--b", required=True)
    p.add_argument("--digits", type=_digits, default=60)
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_proof_check)

    p = sub.add_parser("quadcheck", help="quadrature cross-checks")
    p.add_argument("--expr", choices=("beta", "euler"), required=True)
    p.add_argument("--samples", type=_positive_int, default=10)
    p.add_argument("--digits", type=_digits, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_quadcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CatalogError as e:
        print(f"catalog error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (TransformError, ParamsError) as e:  # an input outside the domain
        print(f"argument error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (HyperError, MPRealError) as e:
        print(f"evaluation failed: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
