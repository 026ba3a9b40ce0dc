"""Command line front end.

Subcommands: eval, expand, verify, realize, generators.  Exit codes:

    0  success / all checks passed
    1  a verification suite reported failures
    2  malformed command line or expression
    3  operands from incompatible spaces (e.g. bullet product with a series)
    4  degree/cutoff cap exceeded

Output on stdout is byte-identical for identical (command, flags, seed);
wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import BasisMismatch, CapExceeded, ExpressionError
from .expressions import evaluate
from .qsym import lyndon_generator_report, sigma_hat_series
from .algebra import WQSymElement
from .params import ParamPoly
from .series import TruncatedSeries, adams, eulerian_idempotent
from .serialization import (
    element_to_obj,
    series_to_obj,
    weight_report_to_obj,
)
from .suites import SUITE_NAMES, run_suites
from .words import check_degree_cap, is_packed, max_degree_cap

REALIZE_ALPHABET_CAP = 8


def _check_bounds(args) -> None:
    """Reject out-of-range numbers on the command line, then check --degree
    against the degree cap."""
    if getattr(args, "index", None) is not None and args.index < 0:
        raise ExpressionError(f"the index must be nonnegative, got {args.index}")
    if getattr(args, "cases", 1) < 1:
        raise ExpressionError(f"--cases must be at least 1, got {args.cases}")
    if hasattr(args, "degree"):
        if args.degree < 0:
            raise ExpressionError(f"--degree must be nonnegative, got {args.degree}")
        check_degree_cap(args.degree)


def _parse_word(text: str):
    """A packed word given either as comma-separated letters or compact digits."""
    text = text.strip()
    try:
        if "," in text:
            letters = tuple(int(p) for p in text.split(","))
        else:
            letters = tuple(int(ch) for ch in text)
    except ValueError:
        raise ExpressionError(f"cannot read a word from {text!r}") from None
    if not is_packed(letters):
        raise ExpressionError(f"{letters} is not a packed word")
    return letters


def _emit(obj, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(obj, separators=(",", ":")))
    else:
        print(text_renderer())


def cmd_eval(args) -> int:
    value = evaluate(args.expression, cutoff=args.degree, degree_cap=max_degree_cap())
    if isinstance(value, Fraction):
        value = WQSymElement.unit() * value
    if isinstance(value, TruncatedSeries):
        _emit(series_to_obj(value), args.format, lambda: str(value))
    else:
        _emit(element_to_obj(value), args.format, lambda: str(value))
    return 0


def cmd_expand(args) -> int:
    if args.object == "psi":
        if args.index is None:
            raise ExpressionError("expand psi needs an index")
        series = adams(args.index, args.degree)
    elif args.object == "e":
        if args.index is None:
            raise ExpressionError("expand e needs an index")
        series = eulerian_idempotent(args.index, args.degree)
    else:  # sigma_t
        if args.index is not None:
            raise ExpressionError("expand sigma_t takes no index")
        series = sigma_hat_series(ParamPoly.var("t"), args.degree)
    _emit(series_to_obj(series), args.format, lambda: str(series))
    return 0


def cmd_verify(args) -> int:
    reports = run_suites(
        args.suite,
        degree=args.degree,
        seed=args.seed,
        cases=args.cases,
        generators=args.generators,
    )
    if args.format == "json":
        payload = [
            {
                "suite": r.suite,
                "seed": r.seed,
                "degree": r.degree,
                "cases": r.cases_run,
                "pass": r.passed,
                "failures": [
                    {"case": f.case, "reproducer": f.reproducer, "detail": f.detail}
                    for f in r.failures
                ],
            }
            for r in reports
        ]
        print(json.dumps(payload if args.suite == "all" else payload[0], separators=(",", ":")))
    else:
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            print(f"suite {r.suite}: {r.cases_run} checks, degree {r.degree}, seed {r.seed}: {verdict}")
            for f in r.failures:
                print(f"  case {f.case}: {f.detail}")
                print(f"    reproduce: {f.reproducer}")
    for r in reports:
        print(f"[timing] suite {r.suite}: {r.wall_time:.3f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def cmd_realize(args) -> int:
    if args.alphabet > REALIZE_ALPHABET_CAP:
        raise CapExceeded(f"alphabet size capped at {REALIZE_ALPHABET_CAP}")
    u = _parse_word(args.word)
    k = max(u) if u else 0
    from itertools import combinations

    realizations = sorted(
        tuple(choice[x - 1] for x in u)
        for choice in combinations(range(1, args.alphabet + 1), k)
    )
    if args.format == "json":
        print(json.dumps([list(w) for w in realizations], separators=(",", ":")))
    else:
        for w in realizations:
            if w and max(w) <= 9:
                print("".join(map(str, w)))
            else:
                print(",".join(map(str, w)))
    return 0


def cmd_generators(args) -> int:
    reports = lyndon_generator_report(args.degree)
    if args.format == "json":
        print(json.dumps([weight_report_to_obj(r) for r in reports], separators=(",", ":")))
    else:
        for r in reports:
            lyndon = " ".join("(" + ",".join(map(str, I)) + ")" for I in r.lyndon)
            flag = "full rank" if r.full_rank else "RANK DEFICIT"
            print(f"weight {r.weight}: lyndon {lyndon}; rank {r.rank}/{r.dimension} ({flag})")
    return 0 if all(r.full_rank for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqsym",
        description="Exact computations with packed words, their products, and "
        "their action on quasi-shuffle algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_default=5):
        p.add_argument("--degree", type=int, default=degree_default, help="series cutoff / degree bound")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate an expression in the packed-word algebra")
    p_eval.add_argument("expression")
    common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_expand = sub.add_parser("expand", help="print a named series up to a degree")
    p_expand.add_argument("object", choices=("psi", "e", "sigma_t"))
    p_expand.add_argument("index", type=int, nargs="?")
    common(p_expand)
    p_expand.set_defaults(fn=cmd_expand)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--generators", type=int, default=5, help="number of base-algebra generators")
    p_verify.set_defaults(fn=cmd_verify)

    p_realize = sub.add_parser("realize", help="list the words over 1..m packing to a given word")
    p_realize.add_argument("word")
    p_realize.add_argument("alphabet", type=int)
    p_realize.add_argument("--format", choices=("text", "json"), default="text")
    p_realize.set_defaults(fn=cmd_realize)

    p_gen = sub.add_parser("generators", help="free-generator rank report for the composition algebra")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_generators)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_bounds(args)
        return args.fn(args)
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BasisMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
