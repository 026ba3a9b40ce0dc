"""Command line front end.

Subcommands: eval, expand, verify, realize, generators.  Exit codes:

    0    success / all checks passed
    1    a verification suite reported failures
    2    malformed command line or expression
    3    operands from incompatible spaces (e.g. bullet product with a series)
    4    degree/cutoff cap exceeded
    141  stdout was closed before all of the output was written (as in
         ``wqsym expand e 1 --degree 7 | head``): 128 + SIGPIPE, the status a
         shell reports for a program that the signal ends

Each command checks its arguments, computes what it must, and returns its
exit code and two renderings of its result, its JSON as compact text and its
text; a rendering is a callable that returns an iterable of text chunks, and
``main`` writes the chunks of the one that ``--format`` asks for as they
come, joined into blocks of about ``WRITE_SIZE`` characters.  Every check,
the degree cap included, runs before the first byte is written.  Every
series, built or held as Eulerian coordinates, is written one way, from its
cutoff and its graded terms as they come.  ``expand psi`` and ``expand e``
build nothing: they hold :class:`wqsym.series.Characteristic` coordinates,
whose terms are written straight from the packed-word enumeration, one
prefix of a word at a time, degree by degree, so memory stays flat at any
degree, and so does ``eval`` of a value held as coordinates (I, Psi(k),
e(i), scalars and their sums and products).  The terms of a word's last few
letters depend on its prefix only through the prefix's state; the text of
each state is made once per degree, and each prefix puts only its own
letters into it.  Output on stdout is byte-identical for identical
(command, flags, seed); wall-clock timings go to stderr only.

A ``verify`` failure prints the command that reproduces it: the suite's own
name with the same degree, seed and generators, and ``--cases i+1`` for a
failure on seeded case i or ``--cases 1`` for one on a fixed or exhaustive
check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import chain, combinations

from . import suites
from .algebra import WQSymElement
from .errors import BasisMismatch, CapExceeded, ExpressionError
from .expressions import evaluate
from .qsym import lyndon_generator_report
from .params import ParamPoly
from .series import Characteristic, TruncatedSeries, format_graded
from .serialization import element_to_obj, series_json
from .words import check_degree_cap, is_packed

REALIZE_ALPHABET_CAP = 8

#: exit code when stdout is closed early: 128 + SIGPIPE
CLOSED_PIPE_EXIT = 141

#: characters of a rendering joined into one write, once that many have
#: come: a few large writes cost less time than one per chunk, and less memory
#: when stdout is a ``StringIO``; a size bounds the block where a count of
#: chunks would not, since a chunk can hold all the terms after one prefix
WRITE_SIZE = 32768


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
    """The outputs of a computed element, or of a series, built or held as
    Eulerian coordinates: a series is written from its cutoff and its graded
    terms as they come."""
    if isinstance(value, WQSymElement):
        return 0, lambda: (element_to_obj(value), "\n"), lambda: (str(value), "\n")
    return (
        0,
        lambda: chain(series_json(value.cutoff, value.graded_terms()), ("\n",)),
        lambda: chain(format_graded(value.cutoff, value.graded_terms()), ("\n",)),
    )


def cmd_eval(args):
    return _outputs(evaluate(args.expression, cutoff=args.degree, coordinates=True))


def cmd_expand(args):
    if args.object == "sigma_t":
        if args.index is not None:
            raise ExpressionError("expand sigma_t takes no index")
        # t^d M[1..d]: the powers of t are printed, never multiplied
        t = ParamPoly.var("t")
        staircase = {tuple(range(1, d + 1)): t**d for d in range(args.degree + 1)}
        return _outputs(TruncatedSeries._raw(args.degree, WQSymElement._raw(staircase)))
    if args.index is None:
        raise ExpressionError(f"expand {args.object} needs an index")
    build = {"psi": Characteristic.adams, "e": Characteristic.eulerian}[args.object]
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
        return _compact(payload if args.suite == "all" else payload[0]), "\n"

    def as_text():
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            yield f"suite {r.suite}: {r.count} checks, degree {r.degree}, seed {r.seed}: {verdict}\n"
            for f in r.failures:
                yield f"  check {f.check}: {f.detail}\n"
                yield f"    reproduce: {_reproducer(r, f)}\n"

    return (0 if all(r.passed for r in reports) else 1), as_json, as_text


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
        lambda: (_compact([list(w) for w in realizations]), "\n"),
        lambda: (("" if max(w, default=0) <= 9 else ",").join(map(str, w)) + "\n" for w in realizations),
    )


def cmd_generators(args):
    if args.degree < 1:
        raise ExpressionError(f"generators needs --degree >= 1, got {args.degree}")
    reports = lyndon_generator_report(args.degree)

    def as_text():
        for r in reports:
            lyndon = " ".join("(" + ",".join(map(str, I)) + ")" for I in r.lyndon)
            flag = "full rank" if r.full_rank else "RANK DEFICIT"
            yield f"weight {r.weight}: lyndon {lyndon}; rank {r.rank}/{r.dimension} ({flag})\n"

    code = 0 if all(r.full_rank for r in reports) else 1
    return code, lambda: (_compact([asdict(r) for r in reports]), "\n"), as_text


class _Parser(argparse.ArgumentParser):
    """A subcommand's parser."""

    def _parse_optional(self, arg_string):
        """How the parser reads the command-line word ``arg_string``: as
        argparse does, except that a word opening with a single '-' that is
        none of its options is an operand, such as the negated expression
        ``-M[1]+M[2,1]`` or a negative number, where argparse would read an
        unknown option unless the word held a space.  No subcommand has a
        single-dash option but ``-h``; a word opening with '--' that is no
        option stays an unknown option."""
        single = arg_string.startswith("-") and not arg_string.startswith("--")
        if single and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqsym",
        description="Exact computations with packed words, their products, and "
        "their action on quasi-shuffle algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
        code, as_json, as_text = args.fn(args)
        block, size = [], 0
        for chunk in (as_json if args.format == "json" else as_text)():
            block.append(chunk)
            size += len(chunk)
            if size >= WRITE_SIZE:
                sys.stdout.write("".join(block))
                block, size = [], 0
        sys.stdout.write("".join(block))
        sys.stdout.flush()
        return code
    except (ExpressionError, BasisMismatch, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered nowhere, so that
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
