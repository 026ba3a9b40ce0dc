"""Expression language of the ``eval`` command.

Grammar (operators listed loosest-binding first):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '@' | '&') factor)*
    factor  := '-' factor | atom
    atom    := literal | scalar | '(' expr ')'
    literal := M '[' ints ']' | S '[' ints ']' | R '[' ints ']'
             | hatS '[' ints ']' | hatR '[' ints ']' | I | Psi '(' int ')' | e '(' int ')'
    scalar  := int ('/' int)?

'*' is the outer/convolution product, '@' the internal product, '&' the
bullet product.  A scalar c denotes c*M[], c times the unit.  I, Psi(k) and
e(i) evaluate to series truncated at the evaluator's cutoff, held as their
coordinates in the quasi-Eulerian idempotents
(:class:`wqsym.series.Characteristic`): '+', '-', '*' and '@' combine such
values, and scalars, which are c*e_0, without building a word.  A finite
element or a series that meets them makes them build their series, and
finite elements are promoted to that cutoff when they meet a series.  The
bullet product is only defined on finite elements.  The evaluator only
parses and dispatches: the value types promote their operands, and
:func:`evaluate` returns a result still held as coordinates as it is,
which ``wqsym eval`` renders straight from the packed-word enumeration.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .algebra import (
    WQSymElement,
    embed_sym_hat,
    embed_sym_standard,
    ribbon_hat,
    ribbon_standard,
)
from .errors import ExpressionError
from .series import Characteristic
from .words import check_degree_cap, is_packed

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[\[\](),+\-*@&/]))")


def tokenize(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("sym", m.group("sym")))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ExpressionError(f"bad character at position {len(text) - len(rest)}: {rest[0]!r}")
    return tokens


def _shown(tok) -> str:
    """A token as error messages name it."""
    return "end of input" if tok[0] is None else repr(tok[1])


# AST nodes: ("scalar", Fraction) ("literal", kind, args) ("neg", x)
#            ("add"|"sub"|"outer"|"internal"|"bullet", left, right)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ExpressionError(f"expected {value or kind}, got {_shown(tok)}")
        return tok

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing input: {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            op = self.next()[1]
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        ops = {"*": "outer", "@": "internal", "&": "bullet"}
        while self.peek()[0] == "sym" and self.peek()[1] in ops:
            op = ops[self.next()[1]]
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("sym", "-"):
            self.next()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        kind, value = self.peek()
        if kind == "sym" and value == "(":
            self.next()
            node = self.expr()
            self.expect("sym", ")")
            return node
        if kind == "int":
            self.next()
            if self.peek() == ("sym", "/"):
                self.next()
                denom = self.expect("int")[1]
                if denom == 0:
                    raise ExpressionError("zero denominator")
                return ("scalar", Fraction(value, denom))
            return ("scalar", Fraction(value))
        if kind == "name":
            self.next()
            if value not in LITERALS:
                raise ExpressionError(f"unknown name {value!r}")
            brackets = LITERALS[value][0]
            return ("literal", value, self.int_list(*brackets) if brackets else ())
        if kind is None:
            raise ExpressionError("unexpected end of input")
        raise ExpressionError(f"unexpected token {value!r}")

    def int_list(self, open_sym, close_sym):
        self.expect("sym", open_sym)
        out = []
        if self.peek() == ("sym", close_sym):
            self.next()
            return tuple(out)
        while True:
            out.append(self.expect("int")[1])
            tok = self.next()
            if tok == ("sym", close_sym):
                return tuple(out)
            if tok != ("sym", ","):
                raise ExpressionError(f"expected ',' or '{close_sym}', got {_shown(tok)}")


def parse(text: str):
    try:
        return _Parser(tokenize(text)).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None


def _word(name, args, cutoff):
    if not is_packed(args):
        raise ExpressionError(f"M{list(args)} is not a packed word")
    check_degree_cap(len(args))
    return WQSymElement.monomial(args)


def _composition(embed):
    def build(name, args, cutoff):
        if any(p < 1 for p in args):
            raise ExpressionError(f"{name} needs positive composition parts")
        check_degree_cap(sum(args))
        return embed(args)

    return build


def _one_index(name, args):
    if len(args) != 1:
        raise ExpressionError(f"{name}(...) takes exactly one index")
    return args[0]


# name -> (the brackets around its integer arguments, or None for none;
#          builder(name, args, cutoff) of its value)
LITERALS = {
    "M": ("[]", _word),
    "S": ("[]", _composition(embed_sym_standard)),
    "R": ("[]", _composition(ribbon_standard)),
    "hatS": ("[]", _composition(embed_sym_hat)),
    "hatR": ("[]", _composition(ribbon_hat)),
    "I": (None, lambda name, args, cutoff: Characteristic.adams(1, cutoff)),
    "Psi": ("()", lambda name, args, cutoff: Characteristic.adams(_one_index(name, args), cutoff)),
    "e": ("()", lambda name, args, cutoff: Characteristic.eulerian(_one_index(name, args), cutoff)),
}

_OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "outer": operator.mul,
    "internal": operator.matmul,
    "bullet": operator.and_,
}


def _run(node, cutoff):
    """Evaluate an AST under a series cutoff, checking the degree of a product
    of two finite elements against the cap."""
    kind = node[0]
    if kind == "scalar":
        return node[1] * WQSymElement.unit()
    if kind == "literal":
        return LITERALS[node[1]][1](node[1], node[2], cutoff)
    if kind == "neg":
        return -_run(node[1], cutoff)
    left, right = _run(node[1], cutoff), _run(node[2], cutoff)
    if kind in ("outer", "bullet") and isinstance(left, WQSymElement) and isinstance(right, WQSymElement):
        check_degree_cap(max(left.degrees(), default=0) + max(right.degrees(), default=0))
    return _OPERATORS[kind](left, right)


def evaluate(text: str, cutoff: int):
    """Parse and evaluate; returns a WQSymElement, a TruncatedSeries, or a
    :class:`Characteristic` for a value still held as Eulerian coordinates,
    whose :meth:`~Characteristic.series` builds it."""
    node = parse(text)
    try:
        return _run(node, cutoff)
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
