"""Command line front end.

Subcommands: eval, expand, verify, realize, generators.  Exit codes:

    0  success / all checks passed
    1  a verification suite reported failures
    2  malformed command line or expression
    3  operands from incompatible spaces (e.g. bullet product with a series)
    4  degree/cutoff cap exceeded

Each command returns its exit code and two renderings of its result, its
JSON as compact text and its text as lines; ``main`` builds and prints only
the one that ``--format`` asks for.  Output on stdout is byte-identical for
identical (command, flags, seed); wall-clock timings go to stderr only.

A ``verify`` failure prints the command that reproduces it: the suite's own
name with the same degree, seed and generators, and ``--cases i+1`` for a
failure on seeded case i or ``--cases 1`` for one on a fixed or exhaustive
check.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import combinations

from . import suites
from .errors import BasisMismatch, CapExceeded, ExpressionError
from .expressions import evaluate
from .qsym import lyndon_generator_report, sigma_hat_series
from .params import ParamPoly
from .series import TruncatedSeries, adams, eulerian_idempotent
from .serialization import element_to_obj, series_to_obj
from .words import check_degree_cap, is_packed

REALIZE_ALPHABET_CAP = 8


def _check_bounds(args) -> None:
    """Reject out-of-range numbers on the command line, then check --degree
    against the degree cap."""
    if getattr(args, "index", None) is not None and args.index < 0:
        raise ExpressionError(f"the index must be nonnegative, got {args.index}")
    if getattr(args, "alphabet", 0) < 0:
        raise ExpressionError(f"the alphabet size must be nonnegative, got {args.alphabet}")
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


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _outputs(value):
    """The outputs of a computed element or series."""
    to_obj = series_to_obj if isinstance(value, TruncatedSeries) else element_to_obj
    return 0, lambda: to_obj(value), lambda: [str(value)]


def cmd_eval(args):
    return _outputs(evaluate(args.expression, cutoff=args.degree))


def cmd_expand(args):
    build = {
        "psi": adams,
        "e": eulerian_idempotent,
        "sigma_t": lambda _, degree: sigma_hat_series(ParamPoly.var("t"), degree),
    }[args.object]
    if args.object == "sigma_t" and args.index is not None:
        raise ExpressionError("expand sigma_t takes no index")
    if args.object != "sigma_t" and args.index is None:
        raise ExpressionError(f"expand {args.object} needs an index")
    return _outputs(build(args.index, args.degree))


def _reproducer(r, failure) -> str:
    cases = 1 if failure.draw is None else failure.draw + 1
    return (
        f"wqsym verify {r.suite} --degree {r.degree} --seed {r.seed} "
        f"--cases {cases} --generators {r.generators}"
    )


def cmd_verify(args):
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    for flag, value, table in (
        ("--generators", args.generators, suites.MIN_GENERATORS),
        ("--degree", args.degree, suites.MIN_DEGREE),
    ):
        need = max(table.get(n, 0) for n in names)
        if value < need:
            raise ExpressionError(f"verify {args.suite} needs {flag} >= {need}, got {value}")
    reports = [suites.run_suite(n, args.degree, args.seed, args.cases, args.generators) for n in names]
    for r in reports:
        print(f"[timing] suite {r.suite}: {r.wall_time:.3f}s", file=sys.stderr)

    def as_json():
        payload = [
            {
                "suite": r.suite,
                "seed": r.seed,
                "degree": r.degree,
                "cases": r.count,
                "pass": r.passed,
                "failures": [
                    {"check": f.check, "reproducer": _reproducer(r, f), "detail": f.detail}
                    for f in r.failures
                ],
            }
            for r in reports
        ]
        return _compact(payload if args.suite == "all" else payload[0])

    def as_lines():
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            yield f"suite {r.suite}: {r.count} checks, degree {r.degree}, seed {r.seed}: {verdict}"
            for f in r.failures:
                yield f"  check {f.check}: {f.detail}"
                yield f"    reproduce: {_reproducer(r, f)}"

    return (0 if all(r.passed for r in reports) else 1), as_json, as_lines


def cmd_realize(args):
    if args.alphabet > REALIZE_ALPHABET_CAP:
        raise CapExceeded(f"alphabet size capped at {REALIZE_ALPHABET_CAP}")
    u = _parse_word(args.word)
    realizations = sorted(
        tuple(choice[x - 1] for x in u)
        for choice in combinations(range(1, args.alphabet + 1), max(u, default=0))
    )
    return (
        0,
        lambda: _compact([list(w) for w in realizations]),
        lambda: (("" if max(w, default=0) <= 9 else ",").join(map(str, w)) for w in realizations),
    )


def cmd_generators(args):
    if args.degree < 1:
        raise ExpressionError(f"generators needs --degree >= 1, got {args.degree}")
    reports = lyndon_generator_report(args.degree)

    def as_lines():
        for r in reports:
            lyndon = " ".join("(" + ",".join(map(str, I)) + ")" for I in r.lyndon)
            flag = "full rank" if r.full_rank else "RANK DEFICIT"
            yield f"weight {r.weight}: lyndon {lyndon}; rank {r.rank}/{r.dimension} ({flag})"

    return (0 if all(r.full_rank for r in reports) else 1), lambda: _compact([asdict(r) for r in reports]), as_lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqsym",
        description="Exact computations with packed words, their products, and "
        "their action on quasi-shuffle algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--degree", type=int, default=5, help="series cutoff / degree bound")
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
    p_verify.add_argument("suite", choices=(*suites.SUITES, "all"))
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
        code, as_json, as_lines = args.fn(args)
        if args.format == "json":
            print(as_json())
        else:
            for line in as_lines():
                print(line)
        return code
    except (ExpressionError, BasisMismatch, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
