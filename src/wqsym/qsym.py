"""Quasi-symmetric functions as the quasi-shuffle algebra over the positive
integers.

The monomial basis is indexed by compositions, words over the commutative
semigroup of positive integers under addition.  The product is the
quasi-shuffle where overlapping parts add, that is the shared kernel
:func:`wqsym.words.quasi_shuffle` with the sum of parts as the merge (Hoffman,
"Quasi-shuffle products", J. Algebraic Combin. 11, 2000), and
:class:`QSymElement` derives from :class:`wqsym.params.Unital`.
Packed-word elements act on the right by the same blockwise product as on
tensors (:func:`wqsym.series.right_action`), here the sum of the parts in
each block: QSym is the quasi-shuffle algebra over one generator x, with the
composition I read as x^I1 (x) ... (x) x^Ik.  Adams operations come either
through that action or through the internal iterated coproduct/product
oracle, and the first quasi-Eulerian idempotent carves out free polynomial
generators indexed by Lyndon compositions (verified degreewise by exact
rank).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

from .algebra import WQSymElement, _add_multiple, format_terms, letters_str
from .params import SCALAR_TYPES, Unital, _bilinear, _linear
from .series import TruncatedSeries, adams as adams_series, eulerian_idempotent, right_action
from .words import (
    Composition,
    check_composition,
    check_degree_cap,
    compositions,
    evaluation,
    lyndon_compositions,
    quasi_shuffle,
)


class QSymElement(Unital):
    """Rational (or parameter-polynomial) combination of compositions."""

    __slots__ = ()

    _check_key = staticmethod(check_composition)

    @staticmethod
    def _sort_key(I):
        return (sum(I), len(I), I)

    @classmethod
    def monomial(cls, I, coeff=1) -> "QSymElement":
        return cls({tuple(I): coeff})

    def __mul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        if not isinstance(other, QSymElement):
            return NotImplemented
        return _bilinear(QSymElement, self.terms, other.terms, partial(quasi_shuffle, merge=operator.add))

    def act(self, op) -> "QSymElement":
        """Right action: a basis word of length len(I) regroups the parts of I
        by summing over each block; other lengths act by zero.  A series acts
        by its element up to its cutoff."""
        return right_action(self, op, operator.add)

    def __str__(self):
        return "".join(format_terms(self.sorted_terms(), lambda I: "M(" + letters_str(I) + ")"))


# -- Adams operations ----------------------------------------------------------


def qsym_adams(k: int, F: QSymElement, cutoff: int) -> QSymElement:
    """k-th Adams operation through the action of the Adams series."""
    return F.act(adams_series(k, cutoff))


def qsym_adams_oracle(k: int, F: QSymElement) -> QSymElement:
    """Independent route: cut each composition into k consecutive (possibly
    empty) segments and multiply the segments back together, entirely inside
    the composition algebra."""
    if k < 0:
        raise ValueError("Adams operations are indexed by nonnegative integers")
    if k == 0:
        return QSymElement._raw({(): F.counit()} if F.counit() else {})
    out: dict[Composition, object] = {}
    for I, c in F.terms.items():
        l = len(I)
        for cuts in combinations_with_replacement(range(l + 1), k - 1):
            bounds = (0,) + cuts + (l,)
            prod = QSymElement.unit()
            for a, b in zip(bounds, bounds[1:]):
                prod = prod * QSymElement._raw({I[a:b]: Fraction(1)})
            _add_multiple(out, prod.terms, c)
    return QSymElement._raw(out)


def commutative_image(f: WQSymElement) -> QSymElement:
    """Abelianize: each packed word goes to its evaluation composition."""
    return _linear(QSymElement, f.terms, lambda u: (evaluation(u),))


def sigma_hat_series(t, cutoff: int) -> TruncatedSeries:
    """Deformed diagonal series: t^d times the staircase word in degree d.

    ``t`` may be an exact scalar (specialization) or a :class:`ParamPoly`
    variable, in which case the coefficients live in the parameter ring.
    """
    if not isinstance(t, SCALAR_TYPES):
        raise TypeError("parameter must be exact: Fraction or ParamPoly")
    return TruncatedSeries(
        cutoff, {d: WQSymElement.monomial(tuple(range(1, d + 1)), t**d) for d in range(cutoff + 1)}
    )


# -- free generators through the first idempotent -------------------------------


@dataclass(frozen=True)
class WeightReport:
    weight: int
    lyndon: tuple[Composition, ...]
    rank: int
    dimension: int
    full_rank: bool


def rank_of_elements(elements, basis) -> int:
    """Exact rank of a family of QSym elements on a fixed composition basis,
    by Gaussian elimination over the rationals."""
    known = set(basis)
    rows = []
    for el in elements:
        if not el.terms.keys() <= known:
            raise ValueError(f"terms outside the basis: {sorted(el.terms.keys() - known)}")
        rows.append([el.terms.get(I, 0) for I in basis])
    rank = 0
    for col in range(len(basis)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / top[col]
            if f:
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def lyndon_generator_report(max_weight: int) -> list[WeightReport]:
    """Per weight: Lyndon compositions, the idempotent images of their
    monomials, and the exact rank of all products of those images."""
    check_degree_cap(max_weight)
    e1 = eulerian_idempotent(1, max_weight)
    # products[t]: every product of images of total weight t, each multiset
    # of images built once, by one multiplication from a lighter product
    products: list[list[QSymElement]] = [[QSymElement.unit()]] + [[] for _ in range(max_weight)]
    for n in range(1, max_weight + 1):
        for L in lyndon_compositions(n):
            image = QSymElement.monomial(L).act(e1)
            for t in range(n, max_weight + 1):
                products[t] += [p * image for p in products[t - n]]
    reports = []
    for n in range(1, max_weight + 1):
        rank = rank_of_elements(products[n], compositions(n))
        dim = 2 ** (n - 1)
        reports.append(
            WeightReport(
                weight=n,
                lyndon=lyndon_compositions(n),
                rank=rank,
                dimension=dim,
                full_rank=rank == dim,
            )
        )
    return reports


def e1_projection_check(n: int) -> bool:
    """Degreewise facts about the first idempotent acting on weight n:
    it is idempotent, it kills products of positive-weight elements, and its
    image rank is the number of Lyndon compositions."""
    check_degree_cap(n)
    e1 = eulerian_idempotent(1, n)
    images = [QSymElement.monomial(I).act(e1) for I in compositions(n)]
    products = (
        QSymElement.monomial(I) * QSymElement.monomial(J)
        for a in range(1, n)
        for I in compositions(a)
        for J in compositions(n - a)
    )
    return (
        all(image.act(e1) == image for image in images)
        and not any(prod.act(e1) for prod in products)
        and rank_of_elements(images, compositions(n)) == len(lyndon_compositions(n))
    )
