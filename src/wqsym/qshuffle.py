"""Quasi-shuffle algebra over a free commutative algebra without unit.

The base algebra A is spanned by nonempty monomials in a finite set of
generators; its product merges exponent vectors.  The tensor space over A
carries the quasi-shuffle product (interleave or merge leading factors), the
deconcatenation coproduct, and a right action of packed-word elements: a
basis word of length n sends a degree-n tensor to the tensor of blockwise
products and kills every other degree.

The element types derive from :class:`wqsym.algebra.SparseCombination`, and
the product is the shared kernel :func:`wqsym.words.quasi_shuffle` with the
monomial product as the merge of two letters (Hoffman, "Quasi-shuffle
products", J. Algebraic Combin. 11, 2000).

Tensor words are stored over monomials only: general tensor factors are
expanded multilinearly at construction, so keys stay canonical and equality
is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .algebra import SCALAR_TYPES, SparseCombination, WQSymElement, _add_term, format_terms
from .series import TruncatedSeries, act_degreewise, eulerian_idempotent, adams
from .words import quasi_shuffle

Monomial = tuple[tuple[str, int], ...]  # sorted ((generator, exponent), ...), nonempty
TensorWord = tuple[Monomial, ...]


def monomial(*pairs) -> Monomial:
    """Build a monomial from (generator, exponent) pairs; exponents add."""
    exps: dict[str, int] = {}
    for name, e in pairs:
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        if e:
            exps[str(name)] = exps.get(str(name), 0) + e
    mono = tuple(sorted(exps.items()))
    if not mono:
        raise ValueError("monomials must have positive total degree (A has no unit)")
    return mono


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_str(m: Monomial) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


def _tensor_word(word) -> TensorWord:
    return tuple(monomial(*m) for m in word)


class AElement(SparseCombination):
    """Element of the base algebra: rational combination of nonempty monomials."""

    __slots__ = ()

    @staticmethod
    def _check_key(m):
        return monomial(*m)

    @staticmethod
    def _sort_key(m):
        return (mono_degree(m), m)

    @classmethod
    def generator(cls, name: str) -> "AElement":
        return cls._raw({((str(name), 1),): Fraction(1)})

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        if not isinstance(other, AElement):
            return NotImplemented
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_term(out, mono_mul(m1, m2), c1 * c2)
        return AElement._raw(out)

    def __pow__(self, e: int):
        if e < 1:
            raise ValueError("powers in A must be >= 1 (no unit)")
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def __str__(self):
        return format_terms(self.sorted_terms(), mono_str)


class QSElement(SparseCombination):
    """Element of the quasi-shuffle algebra: combination of tensor words."""

    __slots__ = ()

    _check_key = staticmethod(_tensor_word)

    @staticmethod
    def _sort_key(word):
        return (len(word), word)

    @classmethod
    def unit(cls) -> "QSElement":
        return cls._raw({(): Fraction(1)})

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
        out: dict[TensorWord, object] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c = c1 * c2
                for w, mult in Counter(quasi_shuffle(w1, w2, mono_mul)).items():
                    _add_term(out, w, c * mult)
        return QSElement._raw(out)

    # -- right action of packed-word elements -------------------------------

    def act(self, op) -> "QSElement":
        """Right action.  Elements act termwise with length matching; a
        truncated series acts by its component at each tensor degree and
        refuses degrees above its cutoff."""
        if isinstance(op, TruncatedSeries):
            return act_degreewise(self, op)
        if not isinstance(op, WQSymElement):
            raise TypeError("operators are WQSymElement or TruncatedSeries values")
        out: dict[TensorWord, object] = {}
        for word, c in self.terms.items():
            n = len(word)
            for u, d in op.terms.items():
                if len(u) != n:
                    continue
                _add_term(out, _act_word(word, u), c * d)
        return QSElement._raw(out)

    # -- coalgebra -----------------------------------------------------------

    def deconcatenate(self) -> "QSTensor":
        out: dict[tuple[TensorWord, TensorWord], object] = {}
        for word, c in self.terms.items():
            for i in range(len(word) + 1):
                _add_term(out, (word[:i], word[i:]), c)
        return QSTensor._raw(out)

    def reduced_deconcatenate(self) -> "QSTensor":
        """Deconcatenation with the two unit-sided terms removed; only
        meaningful for elements with zero constant term."""
        if self.counit():
            raise ValueError("reduced coproduct needs zero constant term")
        out = self.deconcatenate().terms.copy()
        for word, c in self.terms.items():
            _add_term(out, ((), word), -c)
            _add_term(out, (word, ()), -c)
        return QSTensor._raw(out)

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def component(self, d: int) -> "QSElement":
        return QSElement._raw({w: c for w, c in self.terms.items() if len(w) == d})

    def __str__(self):
        def fmt(word):
            if not word:
                return "1"
            return "(" + " x ".join(mono_str(m) for m in word) + ")"

        return format_terms(self.sorted_terms(), fmt)


def _act_word(word: TensorWord, u) -> TensorWord:
    if not u:
        return ()
    k = max(u)
    bins: list[Monomial | None] = [None] * k
    for mono, letter in zip(word, u):
        i = letter - 1
        bins[i] = mono if bins[i] is None else mono_mul(bins[i], mono)
    return tuple(bins)  # every bin filled: u is surjective


def tensor(*factors: AElement) -> QSElement:
    """Multilinear expansion of a tensor of base-algebra elements."""
    out: dict[TensorWord, object] = {(): Fraction(1)}
    for f in factors:
        new: dict[TensorWord, object] = {}
        for word, c in out.items():
            for m, d in f.terms.items():
                _add_term(new, word + (m,), c * d)
        out = new
    return QSElement._raw(out)


def concat(x: QSElement, y: QSElement) -> QSElement:
    """Bilinear concatenation of tensor words (not the algebra product)."""
    out: dict[TensorWord, object] = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            _add_term(out, w1 + w2, c1 * c2)
    return QSElement._raw(out)


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
        out = {}
        for (a, b), c1 in self.terms.items():
            for (u, v), c2 in other.terms.items():
                c = c1 * c2
                rights = Counter(quasi_shuffle(b, v, mono_mul)).items()
                for left, ml in Counter(quasi_shuffle(a, u, mono_mul)).items():
                    for right, mr in rights:
                        _add_term(out, (left, right), c * ml * mr)
        return QSTensor._raw(out)

    def multiply_legs(self) -> QSElement:
        """Quasi-shuffle the two legs together (the product-of-coproduct map)."""
        out = QSElement.zero()
        for (a, b), c in self.terms.items():
            out = out + (QSElement._raw({a: Fraction(1)}) * QSElement._raw({b: Fraction(1)}))._scaled(c)
        return out

    def __repr__(self):
        return f"<QSTensor {len(self.terms)} terms>"


# -- the identity battery ------------------------------------------------------


def convolution_of_operators(f, g, x: QSElement) -> QSElement:
    """Deconcatenate, act componentwise, quasi-shuffle back together."""
    out = QSElement.zero()
    for (a, b), c in x.deconcatenate().terms.items():
        left = QSElement._raw({a: Fraction(1)}).act(f)
        if not left:
            continue
        right = QSElement._raw({b: Fraction(1)}).act(g)
        if not right:
            continue
        out = out + (left * right)._scaled(c)
    return out


def apply_generator_map(f_spec: dict, x: QSElement) -> QSElement:
    """Extend a substitution generator -> AElement to tensor words.

    The substitution has no constant terms by construction (the base algebra
    has no unit), so it is an algebra map; unknown generators are rejected.
    """
    images = {str(k): v for k, v in f_spec.items()}
    for v in images.values():
        if not isinstance(v, AElement):
            raise ValueError("generator images must be AElement values")
    out = QSElement.zero()
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
        out = out + tensor(*factors)._scaled(c)
    return out


def naturality_check(f_spec: dict, u, x: QSElement) -> bool:
    """Substitution commutes with the action of a basis word."""
    op = WQSymElement.monomial(u)
    return apply_generator_map(f_spec, x.act(op)) == apply_generator_map(f_spec, x).act(op)


def series_coproduct_pairs(sigma: TruncatedSeries) -> dict:
    """All tensor-square terms of the coproducts of the series components."""
    pairs: dict = {}
    for comp in sigma.components.values():
        for key, c in comp.coproduct().terms.items():
            _add_term(pairs, key, c)
    return pairs


def car_coproduct_compatibility_check(
    sigma: TruncatedSeries, x: QSElement, y: QSElement
) -> bool:
    """(x # y) . sigma  ==  sum (x . sigma') # (y . sigma'') over the coproduct."""
    lhs = (x * y).act(sigma)
    xdeg = set(x.degrees())
    ydeg = set(y.degrees())
    rhs = QSElement.zero()
    for (a, b), c in series_coproduct_pairs(sigma).items():
        if len(a) not in xdeg or len(b) not in ydeg:
            continue
        left = x.act(WQSymElement.monomial(a))
        if not left:
            continue
        right = y.act(WQSymElement.monomial(b))
        if not right:
            continue
        rhs = rhs + (left * right)._scaled(c)
    return lhs == rhs


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
    from itertools import product as iproduct

    gens = [QSElement.generator(name) for name in generators]
    for n in range(max_degree + 1):
        for combo in iproduct(range(len(gens)), repeat=n):
            word = QSElement.unit()
            for i in combo:
                word = concat(word, gens[i])
            if word.act(f) != word.act(g):
                return False
    return True
