"""Quasi-symmetric functions as the quasi-shuffle algebra over the positive
integers.

The monomial basis is indexed by compositions, words over the commutative
semigroup of positive integers under addition, and :class:`QSymElement` is
the :class:`wqsym.qshuffle.QuasiShuffle` whose merge is the sum of two parts
(Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11, 2000): the
product adds overlapping parts, and a packed word acts on the right by
summing the parts in each of its blocks.  QSym is the quasi-shuffle algebra
over one generator x, with the composition I read as x^I1 (x) ... (x) x^Ik.
Adams operations come either through that action or through the internal
iterated coproduct/product oracle, and the first quasi-Eulerian idempotent
carves out free polynomial generators indexed by Lyndon compositions
(verified degreewise by exact rank).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import WQSymElement, _add_multiple, _coerce_coeff, _linear, _reduced, letters_str
from .qshuffle import QuasiShuffle
from .series import TruncatedSeries, _check_cutoff, _check_index, adams as adams_series, eulerian_idempotent
from .words import (
    Composition,
    check_composition,
    check_degree_cap,
    compositions,
    evaluation,
    lyndon_compositions,
)


class QSymElement(QuasiShuffle):
    """Rational combination of compositions."""

    __slots__ = ()

    _check_key = staticmethod(check_composition)
    _merge = staticmethod(operator.add)
    # bound in the class body, where perfbench/spans.py wraps them
    __mul__ = QuasiShuffle.__mul__
    act = QuasiShuffle.act

    @staticmethod
    def _sort_key(I):
        return (sum(I), len(I), I)

    @staticmethod
    def _key_str(I):
        return "M(" + letters_str(I) + ")"


# -- Adams operations ----------------------------------------------------------


def qsym_adams(k: int, F: QSymElement, cutoff: int) -> QSymElement:
    """k-th Adams operation through the action of the Adams series."""
    return F.act(adams_series(k, cutoff))


def qsym_adams_oracle(k: int, F: QSymElement) -> QSymElement:
    """Independent route: cut each composition into k consecutive (possibly
    empty) segments and multiply the segments back together, entirely inside
    the composition algebra."""
    if _check_index(k) == 0:
        return F._select(lambda I: not I)
    out: dict[Composition, int] = {}
    d = 1
    for I, c in F.terms.items():
        l = len(I)
        for cuts in combinations_with_replacement(range(l + 1), k - 1):
            bounds = (0,) + cuts + (l,)
            prod = QSymElement.unit()
            for a, b in zip(bounds, bounds[1:]):
                prod = prod * QSymElement._raw({I[a:b]: 1})
            d = _add_multiple(out, d, prod, c)
    return _reduced(QSymElement, out, d * F.den)


def commutative_image(f: WQSymElement) -> QSymElement:
    """Abelianize: each packed word goes to its evaluation composition."""
    return _linear(QSymElement, f, lambda u: (evaluation(u),))


def sigma_hat_series(t, cutoff: int) -> TruncatedSeries:
    """Deformed diagonal series: t^d times the staircase word in degree d.

    ``t`` is an exact scalar, an ``int`` or ``Fraction``; anything else raises
    ``TypeError``, as every inexact coefficient does.
    """
    check_degree_cap(_check_cutoff(cutoff))
    t = _coerce_coeff(t)
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
    by Gaussian elimination over the rationals, each element's row its
    numerators (its coefficients times its denominator, which keeps the
    rank)."""
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
            f = Fraction(rows[r][col], top[col])
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
