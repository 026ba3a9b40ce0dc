"""Quasi-shuffle algebra over a free commutative algebra without unit.

The base algebra A is spanned by the monomials of positive degree in a finite
set of generators, as A has no unit; its product merges exponent vectors, so
these monomials form a commutative semigroup.  The tensor space over A
carries the quasi-shuffle product (interleave or merge leading factors), the
deconcatenation coproduct, and a right action of packed-word elements: a
basis word u of length n sends a degree-n tensor to the tensor whose i-th
factor is the semigroup product of the factors at the positions where u has
the letter i, and kills every other degree.

:mod:`wqsym.params` owns monomials and their product; :class:`AElement`
derives from its :class:`~wqsym.params.Monomials`, :class:`QSElement`, whose
unit is the empty tensor word, from :class:`~wqsym.params.Unital`, and
:class:`QSTensor` from :class:`~wqsym.params.SparseCombination`.  The
product is the shared kernel :func:`wqsym.words.quasi_shuffle` and the action
the shared :func:`wqsym.series.right_action`, both with the monomial product
as the semigroup product of two letters (Hoffman, "Quasi-shuffle products",
J. Algebraic Combin. 11, 2000).

Tensor words are stored over monomials only: general tensor factors are
expanded multilinearly at construction, so keys stay canonical and equality
is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product as iproduct

from .algebra import WQSymElement, _add_multiple, _legwise, format_terms
from .params import (
    SCALAR_TYPES,
    Monomial,
    Monomials,
    SparseCombination,
    Unital,
    _bilinear,
    _linear,
    mono_mul,
    mono_str,
    monomial as canonical_monomial,
)
from .series import TruncatedSeries, adams, eulerian_idempotent, right_action
from .words import quasi_shuffle

TensorWord = tuple[Monomial, ...]  # over nonempty monomials


def monomial(*pairs) -> Monomial:
    """The canonical monomial of (generator, exponent) pairs
    (:func:`wqsym.params.monomial`), which must have positive degree."""
    mono = canonical_monomial(*pairs)
    if not mono:
        raise ValueError("monomials must have positive total degree (A has no unit)")
    return mono


def _tensor_word(word) -> TensorWord:
    return tuple(monomial(*m) for m in word)


def _cuts(lo: int):
    """The keys of the deconcatenation of a word at cut points ``lo`` to
    ``len - lo``."""
    return lambda word: [(word[:i], word[i:]) for i in range(lo, len(word) + 1 - lo)]


class AElement(Monomials):
    """Element of the base algebra: rational combination of nonempty monomials."""

    __slots__ = ()

    @staticmethod
    def _check_key(m):
        return monomial(*m)

    @classmethod
    def generator(cls, name: str) -> "AElement":
        return cls._raw({((str(name), 1),): Fraction(1)})

    def __str__(self):
        return "".join(format_terms(self.sorted_terms(), mono_str))


class QSElement(Unital):
    """Element of the quasi-shuffle algebra: combination of tensor words."""

    __slots__ = ()

    _check_key = staticmethod(_tensor_word)

    @staticmethod
    def _sort_key(word):
        return (len(word), word)

    @classmethod
    def word(cls, monomials, coeff=1) -> "QSElement":
        return cls({tuple(monomials): coeff})

    @classmethod
    def generator(cls, name: str) -> "QSElement":
        """Degree-1 tensor word on a single generator."""
        return cls._raw({(((str(name), 1),),): Fraction(1)})

    def __mul__(self, other):
        """Quasi-shuffle product (the commutative product of the algebra)."""
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        if not isinstance(other, QSElement):
            return NotImplemented
        return _bilinear(QSElement, self.terms, other.terms, partial(quasi_shuffle, merge=mono_mul))

    # -- right action of packed-word elements -------------------------------

    def act(self, op) -> "QSElement":
        """Right action: a basis word of length n sends a degree-n tensor to
        the tensor of blockwise monomial products and kills every other
        degree; a truncated series acts by its element up to its cutoff."""
        return right_action(self, op, mono_mul)

    # -- coalgebra -----------------------------------------------------------

    def deconcatenate(self) -> "QSTensor":
        return _linear(QSTensor, self.terms, _cuts(0))

    def reduced_deconcatenate(self) -> "QSTensor":
        """Deconcatenation with the two unit-sided terms removed, that is at
        the inner cut points only; only meaningful for elements with zero
        constant term."""
        if self.counit():
            raise ValueError("reduced coproduct needs zero constant term")
        return _linear(QSTensor, self.terms, _cuts(1))

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def __str__(self):
        def fmt(word):
            if not word:
                return "1"
            return "(" + " x ".join(mono_str(m) for m in word) + ")"

        return "".join(format_terms(self.sorted_terms(), fmt))


def tensor(*factors: AElement) -> QSElement:
    """Multilinear expansion of a tensor of base-algebra elements."""
    out = QSElement.unit()
    for f in factors:
        out = concat(out, QSElement._raw({(m,): c for m, c in f.terms.items()}))
    return out


def concat(x: QSElement, y: QSElement) -> QSElement:
    """Bilinear concatenation of tensor words (not the algebra product)."""
    return _bilinear(QSElement, x.terms, y.terms, lambda a, b: (a + b,))


class QSTensor(SparseCombination):
    """Combination of ordered pairs of tensor words (coproduct values)."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        a, b = key
        return (_tensor_word(a), _tensor_word(b))

    def __mul__(self, other):
        """Componentwise quasi-shuffle on both legs."""
        if not isinstance(other, QSTensor):
            return NotImplemented
        return _bilinear(QSTensor, self.terms, other.terms, _legwise(partial(quasi_shuffle, merge=mono_mul)))

    def multiply_legs(self) -> QSElement:
        """Quasi-shuffle the two legs together (the product-of-coproduct map)."""
        return _linear(QSElement, self.terms, lambda legs: quasi_shuffle(*legs, mono_mul))

    def __repr__(self):
        return f"<QSTensor {len(self.terms)} terms>"


# -- the identity battery ------------------------------------------------------


def convolution_of_operators(f, g, x: QSElement) -> QSElement:
    """Deconcatenate, act componentwise, quasi-shuffle back together."""
    out: dict[TensorWord, object] = {}
    for (a, b), c in x.deconcatenate().terms.items():
        left = QSElement._raw({a: Fraction(1)}).act(f)
        if not left:
            continue
        right = QSElement._raw({b: Fraction(1)}).act(g)
        if not right:
            continue
        _add_multiple(out, (left * right).terms, c)
    return QSElement._raw(out)


def apply_generator_map(f_spec: dict, x: QSElement) -> QSElement:
    """Extend a substitution generator -> AElement to tensor words.

    The substitution has no constant terms by construction (the base algebra
    has no unit), so it is an algebra map; unknown generators are rejected.
    """
    images = {str(k): v for k, v in f_spec.items()}
    for v in images.values():
        if not isinstance(v, AElement):
            raise ValueError("generator images must be AElement values")
    out: dict[TensorWord, object] = {}
    for word, c in x.terms.items():
        factors = []
        for mono in word:
            acc: AElement | None = None
            for name, e in mono:
                if name not in images:
                    raise ValueError(f"no image for generator {name!r}")
                piece = images[name] ** e
                acc = piece if acc is None else acc * piece
            factors.append(acc)
        _add_multiple(out, tensor(*factors).terms, c)
    return QSElement._raw(out)


def naturality_check(f_spec: dict, u, x: QSElement) -> bool:
    """Substitution commutes with the action of a basis word."""
    op = WQSymElement.monomial(u)
    return apply_generator_map(f_spec, x.act(op)) == apply_generator_map(f_spec, x).act(op)


def car_coproduct_compatibility_check(
    sigma: TruncatedSeries, x: QSElement, y: QSElement
) -> bool:
    """(x # y) . sigma  ==  sum (x . sigma') # (y . sigma'') over the coproduct."""
    lhs = (x * y).act(sigma)
    xdeg = set(x.degrees())
    ydeg = set(y.degrees())
    rhs: dict[TensorWord, object] = {}
    for (a, b), c in sigma.element.coproduct().terms.items():
        if len(a) not in xdeg or len(b) not in ydeg:
            continue
        left = x.act(WQSymElement.monomial(a))
        if not left:
            continue
        right = y.act(WQSymElement.monomial(b))
        if not right:
            continue
        _add_multiple(rhs, (left * right).terms, c)
    return lhs == QSElement._raw(rhs)


def e1_kills_products_check(x: QSElement, y: QSElement, cutoff: int) -> bool:
    """Products of positive-degree elements lie in the kernel of the first
    idempotent."""
    if x.counit() or y.counit():
        raise ValueError("both factors must have zero constant term")
    return not (x * y).act(eulerian_idempotent(1, cutoff))


def adams_on_indecomposables_check(x: QSElement, cutoff: int) -> bool:
    """The square Adams operation minus twice the identity is exactly the
    product of the reduced coproduct legs."""
    if x.counit():
        raise ValueError("needs zero constant term")
    lhs = x.act(adams(2, cutoff)) - x._scaled(2)
    return lhs == x.reduced_deconcatenate().multiply_legs()


def elements_act_equally(f: WQSymElement, g: WQSymElement, generators, max_degree: int) -> bool:
    """Compare two operators on every tensor word of generators up to a degree
    (the recognition principle: on the free algebra this detects equality)."""
    gens = [QSElement.generator(name) for name in generators]
    for n in range(max_degree + 1):
        for combo in iproduct(range(len(gens)), repeat=n):
            word = QSElement.unit()
            for i in combo:
                word = concat(word, gens[i])
            if word.act(f) != word.act(g):
                return False
    return True
