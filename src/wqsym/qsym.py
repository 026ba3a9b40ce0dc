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

import math
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
        return format_terms(self.sorted_terms(), lambda I: "M(" + letters_str(I) + ")")


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


def _integer_rank(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) row reduction; exact division throughout."""
    m = [row[:] for row in rows if any(row)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, row, prev = 0, 0, 1
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[r][c] * m[row][col] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_of_elements(elements, basis) -> int:
    """Exact rank of a family of QSym elements on a fixed composition basis."""
    index = {I: j for j, I in enumerate(basis)}
    rows = []
    for el in elements:
        row = [Fraction(0)] * len(basis)
        for I, c in el.terms.items():
            row[index[I]] = c
        denom = math.lcm(*(f.denominator for f in row)) if row else 1
        rows.append([int(f * denom) for f in row])
    return _integer_rank(rows)


def _weighted_multisets(items, total):
    """Multisets (as nondecreasing index tuples) of weighted items hitting a total."""

    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for j in range(start, len(items)):
            w = items[j][1]
            if w <= remaining:
                for rest in rec(j, remaining - w):
                    yield (j,) + rest

    yield from rec(0, total)


def lyndon_generator_report(max_weight: int) -> list[WeightReport]:
    """Per weight: Lyndon compositions, the idempotent images of their
    monomials, and the exact rank of all products of those images."""
    check_degree_cap(max_weight)
    e1 = eulerian_idempotent(1, max_weight)
    gens: list[tuple[Composition, int, QSymElement]] = []
    for n in range(1, max_weight + 1):
        for L in lyndon_compositions(n):
            gens.append((L, n, QSymElement.monomial(L).act(e1)))
    weighted = [(g, w) for (_, w, g) in gens]
    reports = []
    for n in range(1, max_weight + 1):
        lyndon_here = lyndon_compositions(n)
        family = []
        for combo in _weighted_multisets(weighted, n):
            el = QSymElement.unit()
            for j in combo:
                el = el * weighted[j][0]
            family.append(el)
        rank = rank_of_elements(family, compositions(n))
        dim = 2 ** (n - 1)
        reports.append(
            WeightReport(
                weight=n,
                lyndon=lyndon_here,
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
    images = []
    for I in compositions(n):
        if not I:
            continue
        image = QSymElement.monomial(I).act(e1)
        if image.act(e1) != image:
            return False
        images.append(image)
    for a in range(1, n):
        for I in compositions(a):
            for J in compositions(n - a):
                if I and J:
                    prod = QSymElement.monomial(I) * QSymElement.monomial(J)
                    if prod.act(e1):
                        return False
    return rank_of_elements(images, compositions(n)) == len(lyndon_compositions(n))
