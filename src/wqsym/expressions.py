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
bullet product.  I, Psi(k) and e(i) evaluate to series truncated at the
evaluator's cutoff; finite elements are promoted to that cutoff when they
meet a series.  The bullet product is only defined on finite elements.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    WQSymElement,
    embed_sym_hat,
    embed_sym_standard,
    ribbon_hat,
    ribbon_standard,
)
from .errors import BasisMismatch, CapExceeded, ExpressionError
from .series import TruncatedSeries, adams, eulerian_idempotent, identity_series
from .words import is_packed

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[\[\](),+\-*@&/]))")

LITERAL_BUILDERS = {
    "M": lambda parts: WQSymElement.monomial(parts),
    "S": embed_sym_standard,
    "R": ribbon_standard,
    "hatS": embed_sym_hat,
    "hatR": ribbon_hat,
}


def tokenize(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not text[pos:].strip():
            break
        if not m.group(0).strip():
            pos = m.end()
            continue
        if m.lastgroup is None:
            raise ExpressionError(f"bad character at position {pos}: {text[pos]!r}")
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("sym", m.group("sym")))
        pos = m.end()
    rest = text[pos:].strip()
    if rest:
        raise ExpressionError(f"bad character at position {pos}: {rest[0]!r}")
    return tokens


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
            raise ExpressionError(f"expected {value or kind}, got {tok[1]!r}")
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
            if value in LITERAL_BUILDERS:
                return ("literal", value, self.int_list("[", "]"))
            if value == "I":
                return ("literal", "I", ())
            if value == "Psi":
                return ("literal", "Psi", self.int_list("(", ")"))
            if value == "e":
                return ("literal", "e", self.int_list("(", ")"))
            raise ExpressionError(f"unknown name {value!r}")
        raise ExpressionError(f"unexpected token {value!r}")

    def int_list(self, open_sym, close_sym):
        self.expect("sym", open_sym)
        out = []
        if self.peek() == ("sym", close_sym):
            self.next()
            return tuple(out)
        while True:
            out.append(self.expect("int")[1])
            kind, value = self.next()
            if (kind, value) == ("sym", close_sym):
                return tuple(out)
            if (kind, value) != ("sym", ","):
                raise ExpressionError(f"expected ',' or '{close_sym}', got {value!r}")


def parse(text: str):
    return _Parser(tokenize(text)).parse()


@dataclass
class Evaluator:
    """Evaluate an AST under a series cutoff and an element-degree cap."""

    cutoff: int
    degree_cap: int

    def run(self, node):
        kind = node[0]
        if kind == "scalar":
            return node[1]
        if kind == "literal":
            return self.literal(node[1], node[2])
        if kind == "neg":
            return -self.run(node[1])
        return self.combine(self.run(node[1]), self.run(node[2]), kind)

    def literal(self, name, args):
        if name == "M":
            if not is_packed(args):
                raise ExpressionError(f"M{list(args)} is not a packed word")
            self.check_degree(len(args))
            return WQSymElement.monomial(args)
        if name in ("S", "R", "hatS", "hatR"):
            if any(p < 1 for p in args):
                raise ExpressionError(f"{name} needs positive composition parts")
            self.check_degree(sum(args))
            return LITERAL_BUILDERS[name](args)
        if name == "I":
            return identity_series(self.cutoff)
        if name == "Psi":
            (k,) = self.one_index(name, args)
            return adams(k, self.cutoff)
        if name == "e":
            (i,) = self.one_index(name, args)
            return eulerian_idempotent(i, self.cutoff)
        raise AssertionError(name)

    @staticmethod
    def one_index(name, args):
        if len(args) != 1:
            raise ExpressionError(f"{name}(...) takes exactly one index")
        return args

    def check_degree(self, d):
        if d > self.degree_cap:
            raise CapExceeded(f"degree {d} exceeds the cap {self.degree_cap}")

    def lift(self, value, level):
        """``value`` as a value of level ``level`` (see :data:`_LEVELS`)."""
        if level >= 1 and isinstance(value, Fraction):
            value = WQSymElement.unit() * value
        if level == 2 and isinstance(value, WQSymElement):
            value = TruncatedSeries.from_element(value, self.cutoff)
        return value

    def combine(self, left, right, op):
        """Apply the binary operation ``op`` (an AST kind) after lifting both
        operands to the higher of their two levels, and scalars at least to
        elements under @ and &."""
        level = max(_level(left), _level(right), 1 if op in ("internal", "bullet") else 0)
        if level == 2 and op == "bullet":
            raise BasisMismatch("the bullet product is only defined on finite elements")
        left, right = self.lift(left, level), self.lift(right, level)
        if level == 1 and op in ("outer", "bullet"):
            self.check_degree(max(left.degrees(), default=0) + max(right.degrees(), default=0))
        return _OPERATORS[op](left, right)


#: value levels of the evaluator, lowest first; a binary operation lifts both
#: operands to the higher of their levels
_LEVELS = (Fraction, WQSymElement, TruncatedSeries)

_OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "outer": operator.mul,
    "internal": operator.matmul,
    "bullet": operator.and_,
}


def _level(value) -> int:
    return next(i for i, cls in enumerate(_LEVELS) if isinstance(value, cls))


def evaluate(text: str, cutoff: int, degree_cap: int):
    """Parse and evaluate; returns a Fraction, WQSymElement or TruncatedSeries."""
    value = Evaluator(cutoff, degree_cap).run(parse(text))
    return value
