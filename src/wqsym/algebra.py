"""Sparse exact linear combinations, and the packed-word algebra on them.

:class:`SparseCombination` is the one base class of every sparse element type
in the package (packed words here, tensor words and base-algebra monomials
in :mod:`wqsym.qshuffle`, compositions in :mod:`wqsym.qsym`): a dict from
canonical basis keys to nonzero exact coefficients, with the linear structure,
equality and sorted rendering written once.  Each subclass supplies its key
check, its sort key and its products.  The products of the quasi-shuffle
algebras all go through :func:`wqsym.words.quasi_shuffle` (Hoffman,
"Quasi-shuffle products", J. Algebraic Combin. 11, 2000).

The three products of packed words carry distinct operators so expressions
read like the algebra they compute in:

    f * g    outer product (shifted quasi-shuffle of set compositions)
    f @ g    internal product (composition of surjections, zero on arity
             mismatch)
    f & g    bullet product (shifted concatenation of basis words)

Coefficients are exact: ``Fraction`` everywhere, or :class:`ParamPoly` for
the parameter-deformed operators.  Zero coefficients are pruned after every
operation, so ``==`` is literal term-by-term equality.  Elements are
immutable by convention; nothing here mutates a constructed value.
"""

from __future__ import annotations

from fractions import Fraction

from . import words
from .params import ParamPoly
from .words import (
    Word,
    breadth,
    descents,
    enumerate_packed_words,
    pack,
    quasi_shuffle_words,
    reverse,
    shifted_concat,
    word_sort_key,
)

SCALAR_TYPES = (int, Fraction, ParamPoly)


def _coerce_coeff(c):
    if isinstance(c, bool) or (isinstance(c, int)):
        return Fraction(c)
    if isinstance(c, (Fraction, ParamPoly)):
        return c
    raise TypeError(f"coefficients must be exact (int/Fraction/ParamPoly), got {c!r}")


def _add_term(data: dict, key, coeff) -> None:
    c = data.get(key)
    c = coeff if c is None else c + coeff
    if c:
        data[key] = c
    else:
        data.pop(key, None)


class SparseCombination:
    """A finite exact linear combination of basis keys, stored as a dict from
    canonical key to nonzero coefficient.

    Binary operations accept only operands of the same class (anything else
    gets ``NotImplemented``); scalars multiply from either side and divide.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        for key, c in (terms or {}).items():
            key = self._check_key(key)
            c = _coerce_coeff(c)
            if c:
                _add_term(data, key, c)
        self.terms = data

    @staticmethod
    def _check_key(key):
        """The canonical form of a basis key; raises ``ValueError`` if invalid."""
        raise NotImplementedError

    @staticmethod
    def _sort_key(key):
        """Ordering key of basis keys in :meth:`sorted_terms`."""
        return key

    @classmethod
    def _raw(cls, data: dict):
        el = object.__new__(cls)
        el.terms = data
        return el

    @classmethod
    def zero(cls):
        return cls._raw({})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        data = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(data, key, c)
        return self._raw(data)

    def __neg__(self):
        return self._raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar):
        scalar = _coerce_coeff(scalar)
        if not scalar:
            return self.zero()
        return self._raw({key: scalar * c for key, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return self._scaled(1 / scalar)
        return NotImplemented

    def sorted_terms(self):
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def counit(self):
        return self.terms.get((), Fraction(0))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class WQSymElement(SparseCombination):
    """A finite linear combination of packed words."""

    __slots__ = ()

    _check_key = staticmethod(words.check_packed)
    _sort_key = staticmethod(word_sort_key)

    @classmethod
    def unit(cls) -> "WQSymElement":
        return cls._raw({(): Fraction(1)})

    @classmethod
    def monomial(cls, word, coeff=1) -> "WQSymElement":
        return cls({tuple(word): coeff})

    # -- scalars promote to multiples of the unit under + and - ---------------

    def __add__(self, other):
        if isinstance(other, SCALAR_TYPES):
            other = WQSymElement._raw({(): _coerce_coeff(other)}) if other else WQSymElement.zero()
        return SparseCombination.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self + (-_coerce_coeff(other))
        return SparseCombination.__sub__(self, other)

    def __rsub__(self, other):
        return (-self) + other

    # -- the three products -------------------------------------------------

    def __mul__(self, other):
        """Outer product (on elements) or scalar multiple."""
        if isinstance(other, WQSymElement):
            out: dict[Word, object] = {}
            for u, cu in self.terms.items():
                for v, cv in other.terms.items():
                    c = cu * cv
                    for w in quasi_shuffle_words(u, v):
                        _add_term(out, w, c)
            return WQSymElement._raw(out)
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        return NotImplemented

    def __matmul__(self, other):
        """Internal product: compose basis surjections, zero on arity mismatch."""
        if not isinstance(other, WQSymElement):
            return NotImplemented
        out: dict[Word, object] = {}
        for u, cu in self.terms.items():
            k = breadth(u)
            for v, cv in other.terms.items():
                if len(v) != k:
                    continue
                _add_term(out, tuple(v[x - 1] for x in u), cu * cv)
        return WQSymElement._raw(out)

    def __and__(self, other):
        """Bullet product: shifted concatenation of basis words."""
        if not isinstance(other, WQSymElement):
            return NotImplemented
        out: dict[Word, object] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                _add_term(out, shifted_concat(u, v), cu * cv)
        return WQSymElement._raw(out)

    # -- coalgebra ----------------------------------------------------------

    def coproduct(self) -> "TensorSquare":
        """Split each basis word by letter value: letters <= i on the left,
        the rest repacked on the right, summed over i = 0..breadth."""
        out: dict[tuple[Word, Word], object] = {}
        for u, c in self.terms.items():
            for i in range(breadth(u) + 1):
                left = tuple(x for x in u if x <= i)
                right = pack(tuple(x for x in u if x > i))
                _add_term(out, (left, right), c)
        return TensorSquare._raw(out)

    # -- inspection ---------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def component(self, d: int) -> "WQSymElement":
        return WQSymElement._raw({w: c for w, c in self.terms.items() if len(w) == d})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def coefficient(self, word):
        return self.terms.get(tuple(word), Fraction(0))

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return format_terms(self.sorted_terms(), lambda w: "M[%s]" % ",".join(map(str, w)))


def format_terms(sorted_terms, key_fmt) -> str:
    """Shared pretty-printer for sparse elements: '2*M[1,2] - M[1,1]'."""
    if not sorted_terms:
        return "0"
    chunks = []
    for key, coeff in sorted_terms:
        if isinstance(coeff, ParamPoly):
            body = f"({coeff})*{key_fmt(key)}"
        elif coeff == 1:
            body = key_fmt(key)
        elif coeff == -1:
            body = f"-{key_fmt(key)}"
        else:
            body = f"{coeff}*{key_fmt(key)}"
        if chunks:
            if body.startswith("-"):
                chunks.append(" - " + body[1:])
            else:
                chunks.append(" + " + body)
        else:
            chunks.append(body)
    return "".join(chunks)


class TensorSquare(SparseCombination):
    """Finite linear combination of ordered pairs of packed words."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        a, b = key
        return (words.check_packed(a), words.check_packed(b))

    @staticmethod
    def _sort_key(key):
        return (word_sort_key(key[0]), word_sort_key(key[1]))

    def __mul__(self, other):
        """Componentwise outer product on both tensor legs."""
        if not isinstance(other, TensorSquare):
            return NotImplemented
        out: dict[tuple[Word, Word], object] = {}
        for (a, b), c1 in self.terms.items():
            for (u, v), c2 in other.terms.items():
                c = c1 * c2
                for left in quasi_shuffle_words(a, u):
                    for right in quasi_shuffle_words(b, v):
                        _add_term(out, (left, right), c)
        return TensorSquare._raw(out)

    def __str__(self) -> str:
        return format_terms(
            self.sorted_terms(),
            lambda p: "M[%s]xM[%s]" % (",".join(map(str, p[0])), ",".join(map(str, p[1]))),
        )


# -- embeddings of the free algebra on complete functions --------------------


def _partial_sums(I) -> frozenset[int]:
    total, out = 0, []
    for part in I[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def embed_sym_standard(I) -> WQSymElement:
    """Complete-function product S^I as the descent-subset sum over packed words."""
    I = tuple(I)
    n = sum(I)
    allowed = _partial_sums(I)
    data = {
        u: Fraction(1)
        for u in enumerate_packed_words(n)
        if descents(u) <= allowed
    }
    return WQSymElement._raw(data)


def ribbon_standard(I) -> WQSymElement:
    """Ribbon basis element: descent set exactly the partial sums of I."""
    I = tuple(I)
    n = sum(I)
    target = _partial_sums(I)
    data = {
        u: Fraction(1)
        for u in enumerate_packed_words(n)
        if descents(u) == target
    }
    return WQSymElement._raw(data)


def _reversed_complement(I) -> frozenset[int]:
    # positions 1..n-1 minus the partial sums of I read from the right
    n = sum(I)
    total, sums = 0, set()
    for part in reversed(I):
        total += part
        sums.add(total)
    return frozenset(i for i in range(1, n) if i not in sums)


def embed_sym_hat(I) -> WQSymElement:
    """Image of S^I under the embedding sending S_n to the staircase word 1..n.

    Defined multiplicatively; see :func:`embed_sym_hat_closed` for the
    closed-form descent-superset expansion used as a cross-check.
    """
    out = WQSymElement.unit()
    for part in I:
        out = out * WQSymElement.monomial(tuple(range(1, part + 1)))
    return out


def embed_sym_hat_closed(I) -> WQSymElement:
    """Closed form of :func:`embed_sym_hat`: reversed words whose descent set
    contains the complement of the right-to-left partial sums."""
    I = tuple(I)
    n = sum(I)
    required = _reversed_complement(I)
    data = {}
    for u in enumerate_packed_words(n):
        if descents(u) >= required:
            _add_term(data, reverse(u), Fraction(1))
    return WQSymElement._raw(data)


def ribbon_hat(I) -> WQSymElement:
    """Hat-embedded ribbon: reversed words with descent set exactly the
    complement of the right-to-left partial sums."""
    I = tuple(I)
    n = sum(I)
    target = _reversed_complement(I)
    data = {}
    for u in enumerate_packed_words(n):
        if descents(u) == target:
            _add_term(data, reverse(u), Fraction(1))
    return WQSymElement._raw(data)


def crucial_factorization_check(us) -> bool:
    """Outer product of basis words == their bullet product, internally
    multiplied by the staircase image of the breadth composition."""
    factors = [words.check_packed(u) for u in us]
    if not factors:
        raise ValueError("need at least one word")
    factors = [u for u in factors if u] or [()]
    lhs = WQSymElement.unit()
    bullet = WQSymElement.unit()
    for u in factors:
        m = WQSymElement.monomial(u)
        lhs = lhs * m
        bullet = bullet & m
    I = tuple(breadth(u) for u in factors if u)
    return lhs == bullet @ embed_sym_hat(I)
