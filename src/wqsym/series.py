"""Degree-truncated series over the packed-word algebra.

A :class:`TruncatedSeries` stores one homogeneous element per degree up to a
cutoff; absent components are zero.  Binary operations work at the minimum of
the two cutoffs and the result records that cutoff, so a series never claims
precision that was not computed.

The distinguished series is the diagonal/identity series ``I`` with the
staircase word in each degree.  Its convolution powers are the Adams
operations, and the convolution powers of ``log(I)`` divided by factorials
are the quasi-Eulerian idempotents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import SCALAR_TYPES, WQSymElement, ribbon_hat
from .errors import CapExceeded, NotInvertible
from .words import check_degree_cap, compositions, max_degree_cap  # noqa: F401 (re-exported)


class TruncatedSeries:
    """Graded element of the completion, stored up to a cutoff degree."""

    __slots__ = ("cutoff", "components")

    def __init__(self, cutoff: int, components=None):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.cutoff = int(cutoff)
        comps: dict[int, WQSymElement] = {}
        for d, el in (components or {}).items():
            d = int(d)
            if not isinstance(el, WQSymElement):
                raise TypeError("components must be WQSymElement values")
            if d > self.cutoff:
                raise ValueError(f"component degree {d} above cutoff {self.cutoff}")
            if el:
                if set(el.degrees()) != {d}:
                    raise ValueError(f"component at degree {d} is not homogeneous")
                comps[d] = el
        self.components = comps

    @classmethod
    def _raw(cls, cutoff: int, comps: dict) -> "TruncatedSeries":
        s = object.__new__(cls)
        s.cutoff = cutoff
        s.components = comps
        return s

    @classmethod
    def zero(cls, cutoff: int) -> "TruncatedSeries":
        return cls._raw(cutoff, {})

    @classmethod
    def unit(cls, cutoff: int) -> "TruncatedSeries":
        return cls._raw(cutoff, {0: WQSymElement.unit()})

    @classmethod
    def from_element(cls, el: WQSymElement, cutoff: int) -> "TruncatedSeries":
        """View a finite element as a series, truncating above the cutoff."""
        comps = {}
        for d in el.degrees():
            if d <= cutoff:
                comps[d] = el.component(d)
        return cls._raw(cutoff, comps)

    def component(self, d: int) -> WQSymElement:
        if d > self.cutoff:
            raise ValueError(f"degree {d} was not computed (cutoff {self.cutoff})")
        return self.components.get(d, WQSymElement.zero())

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        if cutoff >= self.cutoff:
            return TruncatedSeries._raw(min(cutoff, self.cutoff), dict(self.components))
        return TruncatedSeries._raw(
            cutoff, {d: el for d, el in self.components.items() if d <= cutoff}
        )

    def to_element(self) -> WQSymElement:
        out = WQSymElement.zero()
        for el in self.components.values():
            out = out + el
        return out

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.cutoff == other.cutoff and self.components == other.components
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, WQSymElement):
            other = TruncatedSeries.from_element(other, self.cutoff)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.cutoff, other.cutoff)
        comps = {}
        for d in range(n + 1):
            el = self.components.get(d, WQSymElement.zero()) + other.components.get(
                d, WQSymElement.zero()
            )
            if el:
                comps[d] = el
        return TruncatedSeries._raw(n, comps)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(self.cutoff, {d: -el for d, el in self.components.items()})

    def __sub__(self, other):
        if isinstance(other, WQSymElement):
            other = TruncatedSeries.from_element(other, self.cutoff)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, WQSymElement):
            return TruncatedSeries.from_element(other, self.cutoff) - self
        return NotImplemented

    def _scaled(self, scalar):
        comps = {}
        for d, el in self.components.items():
            el = el._scaled(scalar)
            if el:
                comps[d] = el
        return TruncatedSeries._raw(self.cutoff, comps)

    def __mul__(self, other):
        """Convolution product (graded componentwise outer product)."""
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        if isinstance(other, WQSymElement):
            other = TruncatedSeries.from_element(other, self.cutoff)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.cutoff, other.cutoff)
        comps = {}
        for d in range(n + 1):
            acc = WQSymElement.zero()
            for a in range(d + 1):
                fa = self.components.get(a)
                gb = other.components.get(d - a)
                if fa is not None and gb is not None:
                    acc = acc + fa * gb
            if acc:
                comps[d] = acc
        return TruncatedSeries._raw(n, comps)

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        if isinstance(other, WQSymElement):
            return TruncatedSeries.from_element(other, self.cutoff) * self
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return self._scaled(1 / scalar)
        return NotImplemented

    def __matmul__(self, other):
        """Internal product; the source length of a word is preserved, so the
        result's degree-d component is the d-component of self against the
        whole of the other series."""
        if isinstance(other, WQSymElement):
            other = TruncatedSeries.from_element(other, self.cutoff)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.cutoff, other.cutoff)
        total = other.truncate(n).to_element()
        comps = {}
        for d in range(n + 1):
            el = self.components.get(d)
            if el is None:
                continue
            el = el @ total
            if el:
                comps[d] = el
        return TruncatedSeries._raw(n, comps)

    def __rmatmul__(self, other):
        if isinstance(other, WQSymElement):
            return TruncatedSeries.from_element(other, self.cutoff) @ self
        return NotImplemented

    def power(self, k: int) -> "TruncatedSeries":
        """k-th convolution power."""
        if k < 0:
            raise ValueError("negative convolution powers go through inverse()")
        out = TruncatedSeries.unit(self.cutoff)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> "TruncatedSeries":
        """Convolution inverse, defined when the constant term is nonzero."""
        c = self.components.get(0, WQSymElement.zero()).counit()
        if not c:
            raise NotInvertible("series with zero constant term has no inverse")
        x = self._scaled(Fraction(1) / c) - TruncatedSeries.unit(self.cutoff)
        out = TruncatedSeries.unit(self.cutoff)
        p = TruncatedSeries.unit(self.cutoff)
        for j in range(1, self.cutoff + 1):
            p = p * x
            out = out + p._scaled(Fraction((-1) ** j))
        return out._scaled(Fraction(1) / c)

    def log(self) -> "TruncatedSeries":
        """Convolution logarithm; requires constant term exactly the unit."""
        if self.components.get(0, WQSymElement.zero()) != WQSymElement.unit():
            raise ValueError("log needs constant term equal to the unit")
        x = self - TruncatedSeries.unit(self.cutoff)
        out = TruncatedSeries.zero(self.cutoff)
        p = TruncatedSeries.unit(self.cutoff)
        for j in range(1, self.cutoff + 1):
            p = p * x
            out = out + p._scaled(Fraction((-1) ** (j + 1), j))
        return out

    def exp(self) -> "TruncatedSeries":
        """Convolution exponential; requires zero constant term."""
        if self.components.get(0):
            raise ValueError("exp needs zero constant term")
        out = TruncatedSeries.unit(self.cutoff)
        p = TruncatedSeries.unit(self.cutoff)
        for j in range(1, self.cutoff + 1):
            p = p * self
            out = out + p._scaled(Fraction(1, math.factorial(j)))
        return out

    def sorted_components(self):
        return sorted(self.components.items())

    def __str__(self) -> str:
        if not self.components:
            return f"0 (cutoff {self.cutoff})"
        lines = [f"{d}: {el}" for d, el in self.sorted_components()]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<TruncatedSeries cutoff={self.cutoff} degrees={sorted(self.components)}>"


def act_degreewise(x, sigma: TruncatedSeries):
    """Right action of a series on a module element graded by key length:
    the part of ``x`` in each length d is acted on by the degree-d component
    of ``sigma`` (``x.act`` on an element); lengths above the cutoff are
    refused."""
    by_degree: dict[int, dict] = {}
    for key, c in x.terms.items():
        by_degree.setdefault(len(key), {})[key] = c
    out = x.zero()
    for d, terms in by_degree.items():
        if d > sigma.cutoff:
            raise CapExceeded(f"series cutoff {sigma.cutoff} cannot act on degree {d}")
        out = out + x._raw(terms).act(sigma.component(d))
    return out


# -- the characteristic family ------------------------------------------------


@lru_cache(maxsize=None)
def identity_series(cutoff: int) -> TruncatedSeries:
    """The diagonal series: staircase word 1 2 .. d in each degree d."""
    check_degree_cap(cutoff)
    comps = {
        d: WQSymElement.monomial(tuple(range(1, d + 1))) for d in range(cutoff + 1)
    }
    return TruncatedSeries._raw(cutoff, comps)


@lru_cache(maxsize=None)
def adams(k: int, cutoff: int) -> TruncatedSeries:
    """k-th Adams operation: the k-th convolution power of the identity series."""
    if k < 0:
        raise ValueError("Adams operations are indexed by nonnegative integers")
    check_degree_cap(cutoff)
    if k == 0:
        return TruncatedSeries.unit(cutoff)
    return adams(k - 1, cutoff) * identity_series(cutoff)


@lru_cache(maxsize=None)
def log_identity(cutoff: int) -> TruncatedSeries:
    check_degree_cap(cutoff)
    return identity_series(cutoff).log()


@lru_cache(maxsize=None)
def eulerian_idempotent(i: int, cutoff: int) -> TruncatedSeries:
    """i-th quasi-Eulerian idempotent: log(I)^(*i) / i!."""
    if i < 0:
        raise ValueError("idempotent index must be nonnegative")
    check_degree_cap(cutoff)
    return log_identity(cutoff).power(i) / math.factorial(i)


def eulerian_e1_closed_form(cutoff: int) -> TruncatedSeries:
    """First idempotent by the explicit alternating ribbon formula: in degree n,
    (1/n) * sum over compositions I of n of (-1)^(len(I)-1) / C(n-1, len(I)-1)
    times the hat-embedded ribbon of I."""
    check_degree_cap(cutoff)
    comps = {}
    for n in range(1, cutoff + 1):
        acc = WQSymElement.zero()
        for I in compositions(n):
            l = len(I)
            coeff = Fraction((-1) ** (l - 1), math.comb(n - 1, l - 1))
            acc = acc + ribbon_hat(I)._scaled(coeff)
        acc = acc / n
        if acc:
            comps[n] = acc
    return TruncatedSeries._raw(cutoff, comps)


def unipotence_check(n: int, cutoff: int | None = None) -> bool:
    """(I - unit)^(n+1) has no component in degrees <= n."""
    cutoff = n if cutoff is None else cutoff
    if cutoff < n:
        raise ValueError("cutoff below the degree being checked")
    x = identity_series(cutoff) - TruncatedSeries.unit(cutoff)
    p = x.power(n + 1)
    return all(not p.component(d) for d in range(n + 1))


def car_membership_basis(cutoff: int, max_power: int) -> tuple[TruncatedSeries, ...]:
    """Adams powers 0..max_power: the working spanning family of the
    convolution subalgebra generated by the identity series."""
    return tuple(adams(k, cutoff) for k in range(max_power + 1))
