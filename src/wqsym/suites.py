"""Named verification suites.

Every suite is deterministic given (degree, seed, cases, generators): seeded
case i draws from ``random.Random((seed * GOLDEN + i) mod 2**64)`` with GOLDEN
the 64-bit golden-ratio multiplier.  Fixed and exhaustive checks run first and
count toward the check total.  Each failure records the seeded case it was
drawn in, or None for a fixed or exhaustive check.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .algebra import WQSymElement, crucial_factorization_check, embed_sym_hat
from .errors import BasisMismatch, CapExceeded, ExpressionError
from .qshuffle import (
    AElement,
    QSElement,
    adams_on_indecomposables_check,
    car_coproduct_compatibility_check,
    convolution_of_operators,
    e1_kills_products_check,
    monomial,
    naturality_check,
    tensor,
)
from .qsym import (
    QSymElement,
    e1_projection_check,
    lyndon_generator_report,
    qsym_adams,
    qsym_adams_oracle,
)
from .series import (
    TruncatedSeries,
    adams,
    eulerian_e1_closed_form,
    eulerian_idempotent,
    identity_series,
    log_identity,
    unipotence_check,
)
from .words import enumerate_packed_words, compositions, lyndon_compositions

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * GOLDEN + index) & MASK64)


@dataclass
class Failure:
    check: int
    draw: int | None
    detail: str


@dataclass
class SuiteReport:
    """One suite's run: built from its inputs, filled in by the suite body."""

    suite: str
    degree: int
    seed: int
    cases: int
    generators: int
    count: int = 0
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0
    _draw: int | None = field(default=None, init=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def draws(self):
        """Yield ``(i, rng)`` for each seeded case i, recording i for the
        reproducers of the checks made meanwhile."""
        for i in range(self.cases):
            self._draw = i
            yield i, case_rng(self.seed, i)
        self._draw = None

    def check(self, ok: bool, detail: str, *args):
        """Count one check and record a failure.  With ``args``, the failure's
        text is ``detail.format(*args)``, made only when the check fails: a
        hot loop passes ``"at {},{}", u, v`` and formats nothing on a pass."""
        if not ok:
            self.failures.append(Failure(self.count, self._draw, detail.format(*args) if args else detail))
        self.count += 1


# -- samplers -------------------------------------------------------------------


def random_packed_word(rng: random.Random, length: int):
    word, mx = [], 0
    for _ in range(length):
        letter = rng.randint(1, mx + 1)
        word.append(letter)
        mx = max(mx, letter)
    return tuple(word)


def random_composition(rng: random.Random, weight: int):
    parts = []
    while weight:
        p = rng.randint(1, weight)
        parts.append(p)
        weight -= p
    return tuple(parts)


def random_monomial(rng: random.Random, gens, max_degree: int = 3):
    degree = rng.randint(1, max_degree)
    return monomial(*[(rng.choice(gens), 1) for _ in range(degree)])


def random_tensor_word(rng: random.Random, gens, degree: int):
    return tuple(random_monomial(rng, gens) for _ in range(degree))


def random_qs_element(rng: random.Random, gens, degree: int, n_terms: int = 1) -> QSElement:
    terms = {}
    for _ in range(n_terms):
        coeff = Fraction(rng.choice([-2, -1, 1, 2]))
        word = random_tensor_word(rng, gens, degree)
        terms[word] = terms.get(word, 0) + coeff
    return QSElement(terms)


def _gen_names(count: int):
    return tuple(f"g{i}" for i in range(1, count + 1))


# -- suite bodies ----------------------------------------------------------------


def _coassociative(u, legs) -> bool:
    """``(Δ ⊗ id) Δ M(u) == (id ⊗ Δ) Δ M(u)``, with ``legs(a)`` the coproduct
    of the monomial of the word ``a``, compared as int numerators over the
    denominator of ``Δ M(u)`` times the lcm ``m`` of the legs' denominators."""
    top = legs(u).terms
    m = math.lcm(*[legs(w).den for split in top for w in split])
    left: dict = {}
    right: dict = {}
    for (a, b), c in top.items():
        down = legs(a)
        scale = c * (m // down.den)
        for (a1, a2), c2 in down.terms.items():
            key = (a1, a2, b)
            left[key] = left.get(key, 0) + scale * c2
        down = legs(b)
        scale = c * (m // down.den)
        for (b1, b2), c2 in down.terms.items():
            key = (a, b1, b2)
            right[key] = right.get(key, 0) + scale * c2
    return {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def suite_hopf(run: SuiteReport):
    # memos live for one suite call, so each run starts cold
    @cache
    def legs(a):
        return WQSymElement.monomial(a).coproduct()

    def multiplicative(u, v):
        product = WQSymElement.monomial(u) * WQSymElement.monomial(v)
        run.check(product.coproduct() == legs(u) * legs(v), "coproduct multiplicativity at {},{}", u, v)

    for n in range(min(run.degree, 5) + 1):
        for u in enumerate_packed_words(n):
            run.check(_coassociative(u, legs), "coassociativity at {}", u)
    for total in range(min(run.degree, 4) + 1):
        for a in range(total + 1):
            for u in enumerate_packed_words(a):
                for v in enumerate_packed_words(total - a):
                    multiplicative(u, v)
    for _, rng in run.draws() if run.degree >= 5 else ():
        a = rng.randint(0, 5)
        multiplicative(random_packed_word(rng, a), random_packed_word(rng, 5 - a))


def suite_internal(run: SuiteReport):
    top = min(run.degree, 4)
    words_by_len = {n: enumerate_packed_words(n) for n in range(top + 1)}
    # one monomial per basis word; the staircase of length k is the identity
    # on the right of a word of breadth k and on the left of one of length k
    mono = {u: WQSymElement.monomial(u) for words_ in words_by_len.values() for u in words_}
    staircase = [mono[tuple(range(1, n + 1))] for n in range(top + 1)]
    # mono[u] @ mono[v] depends on the pair alone, so it is built once per
    # pair, with the word x when it is the monomial mono[x] (else None)
    @cache
    def products(u, v):
        p = mono[u] @ mono[v]
        if len(p.terms) == 1:
            ((x, c),) = p.terms.items()
            if c == 1 and x in mono:
                return p, x
        return p, None

    def associative(u, v, ws):
        # u @ v is read once for every w of ws.  @ depends on its operands'
        # terms alone, so where u @ v is mono[x] (or v @ w is mono[y]) the
        # outer product is read from the memo; any other value, such as
        # zero, is multiplied
        uv, x = products(u, v)
        mu = mono[u]
        for w in ws:
            vw, y = products(v, w)
            lhs = uv @ mono[w] if x is None else products(x, w)[0]
            rhs = mu @ vw if y is None else products(u, y)[0]
            run.check(lhs == rhs, "associativity at {},{},{}", u, v, w)

    for n, words_ in words_by_len.items():
        for u in words_:
            mu = mono[u]
            run.check(staircase[n] @ mu == mu, "left identity at {}", u)
            run.check(mu @ staircase[max(u, default=0)] == mu, "right identity at {}", u)
    for u in mono:
        for v in words_by_len[max(u, default=0)]:
            associative(u, v, words_by_len[max(v, default=0)])
    for _, rng in run.draws():
        u, v, w = (random_packed_word(rng, rng.randint(0, top)) for _ in range(3))
        associative(u, v, (w,))


def suite_crucial(run: SuiteReport):
    # the fixed checks multiply 11 by 21, which builds words of length 4
    if run.degree >= 4:
        run.check(crucial_factorization_check([(1, 1), (2, 1)]), "factorization at 11,21")
        five_term = WQSymElement(
            {
                (1, 1, 3, 2): 1,
                (1, 1, 2, 1): 1,
                (2, 2, 3, 1): 1,
                (2, 2, 2, 1): 1,
                (3, 3, 2, 1): 1,
            }
        )
        m11, m21 = WQSymElement.monomial((1, 1)), WQSymElement.monomial((2, 1))
        run.check(m11 * m21 == five_term, "product 11*21 expansion")
        run.check((m11 & m21) @ embed_sym_hat((1, 2)) == five_term, "bullet-then-internal route")
    for _, rng in run.draws():
        r = rng.randint(1, 3)
        budget = run.degree
        ws = []
        for _ in range(r):
            l = rng.randint(0, budget) if budget else 0
            ws.append(random_packed_word(rng, l))
            budget -= l
        run.check(crucial_factorization_check(ws), f"factorization at {ws}")


def suite_distributivity(run: SuiteReport):
    for _, rng in run.draws():
        while True:
            u = random_packed_word(rng, rng.randint(0, 2))
            t = random_packed_word(rng, rng.randint(0, 2))
            ku = max(u) if u else 0
            kt = max(t) if t else 0
            if len(u) + len(t) + ku + kt <= run.degree:
                break
        v = random_packed_word(rng, ku)
        w = random_packed_word(rng, kt)
        mu, mt, mv, mw = (WQSymElement.monomial(x) for x in (u, t, v, w))
        run.check(
            (mu & mt) @ (mv & mw) == (mu @ mv) & (mt @ mw),
            f"distributivity at {u},{t},{v},{w}",
        )


def suite_action(run: SuiteReport):
    gens = _gen_names(run.generators)
    # composition regroup: M(2,1,1) acted by 121 sums blocks to M(3,1), weight 4
    if run.degree >= 4:
        run.check(
            QSymElement.monomial((2, 1, 1)).act(WQSymElement.monomial((1, 2, 1)))
            == QSymElement.monomial((3, 1)),
            "regroup action on (2,1,1)",
        )
    top = min(run.degree, 4)
    for _, rng in run.draws():
        n = rng.randint(0, top)
        x = QSElement.monomial(random_tensor_word(rng, gens, n))
        lf = n if rng.random() < 0.8 else rng.randint(0, top)
        f = WQSymElement.monomial(random_packed_word(rng, lf))
        kf = max(next(iter(f.terms)), default=0)
        lg = kf if rng.random() < 0.8 else rng.randint(0, top)
        g = WQSymElement.monomial(random_packed_word(rng, lg))
        run.check(
            x.act(f).act(g) == x.act(f @ g),
            f"module law on tensors at n={n}",
        )
        I = random_composition(rng, rng.randint(0, min(run.degree, 5)))
        F = QSymElement.monomial(I)
        lf2 = len(I) if rng.random() < 0.8 else rng.randint(0, top)
        f2 = WQSymElement.monomial(random_packed_word(rng, lf2))
        k2 = max(next(iter(f2.terms)), default=0)
        g2 = WQSymElement.monomial(random_packed_word(rng, k2))
        run.check(
            F.act(f2).act(g2) == F.act(f2 @ g2),
            f"module law on compositions at {I}",
        )


def suite_convolution(run: SuiteReport):
    gens = _gen_names(run.generators)
    a, b, c = (AElement.generator(g) for g in gens[:3])
    m1 = WQSymElement.monomial((1,))
    # the fixed checks multiply words of total length 2 and 3
    if run.degree >= 2:
        ab = tensor(a, b)
        expected = ab.act(m1 * m1)
        run.check(
            convolution_of_operators(m1, m1, ab) == expected
            and expected == ab + tensor(b, a) + tensor(a * b),
            "degree-(1,1) convolution",
        )
    if run.degree >= 3:
        abc = tensor(a, b, c)
        m12 = WQSymElement.monomial((1, 2))
        run.check(
            convolution_of_operators(m1, m12, abc) == abc.act(m1 * m12),
            "degree-(1,2) convolution",
        )
    top = min(run.degree, 5)
    for _, rng in run.draws():
        n = rng.randint(0, top)
        m = rng.randint(0, top - n)
        f = WQSymElement.monomial(random_packed_word(rng, n))
        g = WQSymElement.monomial(random_packed_word(rng, m))
        d = n + m if rng.random() < 0.8 else rng.randint(0, top)
        x = random_qs_element(rng, gens, d, n_terms=rng.randint(1, 2))
        run.check(
            x.act(f * g) == convolution_of_operators(f, g, x),
            f"convolution compatibility at n={n},m={m},d={d}",
        )


def suite_naturality(run: SuiteReport):
    gens = _gen_names(run.generators)
    top = min(run.degree, 4)
    for _, rng in run.draws():
        f_spec = {}
        for g in gens:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                m = random_monomial(rng, gens, max_degree=2)
                terms[m] = terms.get(m, 0) + rng.choice([-2, -1, 1, 2])
            f_spec[g] = AElement(terms)
        n = rng.randint(0, top)
        u = random_packed_word(rng, n)
        d = n if rng.random() < 0.8 else rng.randint(0, top)
        x = random_qs_element(rng, gens, d, n_terms=rng.randint(1, 2))
        run.check(naturality_check(f_spec, u, x), f"naturality at u={u}, d={d}")


def suite_adams(run: SuiteReport):
    cutoff = min(run.degree, 5)
    n4 = min(run.degree, 4)
    # the fixed checks act on compositions of weight at most the cutoff:
    # M(n) for n <= 3, and M(1,j) of weight 1 + j <= 4, which has unequal
    # parts from j = 2 on
    for n in range(1, min(cutoff, 3) + 1):
        run.check(
            qsym_adams(2, QSymElement.monomial((n,)), cutoff)
            == 2 * QSymElement.monomial((n,)),
            f"square Adams on M({n})",
        )
    for j in range(1, min(cutoff, 4)):
        expected = (
            3 * QSymElement.monomial((1, j))
            + QSymElement.monomial((j, 1))
            + QSymElement.monomial((1 + j,))
        )
        run.check(
            qsym_adams(2, QSymElement.monomial((1, j)), cutoff) == expected,
            f"square Adams on M(1,{j})",
        )
    for k in range(4):
        for l in range(4):
            run.check(
                adams(k, cutoff) * adams(l, cutoff) == adams(k + l, cutoff),
                f"convolution power law {k},{l}",
            )
            run.check(
                adams(k, n4) @ adams(l, n4) == adams(k * l, n4),
                f"internal power law {k},{l}",
            )
    for _, rng in run.draws():
        k = rng.randint(0, 3)
        I = random_composition(rng, rng.randint(0, cutoff))
        F = QSymElement.monomial(I)
        run.check(
            qsym_adams(k, F, cutoff) == qsym_adams_oracle(k, F),
            f"oracle match at k={k}, I={I}",
        )
        # A * B has weight at most 4 from degree 4 on, else at most 2 and
        # at most the degree
        top = 4 if run.degree >= 4 else min(run.degree, 2)
        wa = rng.randint(0, min(top, 2))
        wb = rng.randint(0, top - wa)
        A = QSymElement.monomial(random_composition(rng, wa))
        B = QSymElement.monomial(random_composition(rng, wb))
        k2 = rng.randint(0, 3)
        run.check(
            qsym_adams_oracle(k2, A * B)
            == qsym_adams_oracle(k2, A) * qsym_adams_oracle(k2, B),
            f"algebra endomorphism at k={k2}",
        )


def suite_eulerian(run: SuiteReport):
    cutoff = min(run.degree, 5)
    small = min(run.degree, 4)
    run.check(
        eulerian_e1_closed_form(cutoff) == identity_series(cutoff).log(),
        "closed form equals log route",
    )
    for i in range(small + 1):
        for j in range(small + 1):
            expected = eulerian_idempotent(i, small) if i == j else TruncatedSeries.zero(small)
            run.check(
                eulerian_idempotent(i, small) @ eulerian_idempotent(j, small) == expected,
                f"orthogonality e{i}*e{j}",
            )
    # the closed forms against the convolution route: sum_i log(I)^(*i) / i!
    # is exp(log I), and Psi^k is I^(*k)
    total = TruncatedSeries.zero(small)
    for i in range(small + 1):
        total = total + eulerian_idempotent(i, small)
    run.check(total == identity_series(small).log().exp(), "idempotents sum to the identity")
    for k in (0, 1, 2, 3, 5):
        spectral = TruncatedSeries.zero(small)
        for i in range(small + 1):
            spectral = spectral + eulerian_idempotent(i, small) * Fraction(k**i)
        run.check(identity_series(small).power(k) == spectral, f"spectral decomposition at k={k}")
    for n in range(cutoff + 1):
        run.check(unipotence_check(n), f"unipotence at n={n}")
    run.check(
        identity_series(cutoff).inverse() * identity_series(cutoff)
        == TruncatedSeries.unit(cutoff),
        "convolution inverse",
    )
    run.check(
        log_identity(cutoff).exp() == identity_series(cutoff), "exp inverts log"
    )


def suite_car_compat(run: SuiteReport):
    gens = _gen_names(run.generators)
    cutoff = min(run.degree, 4)
    sigmas = [
        ("I", identity_series(cutoff)),
        ("Psi2", adams(2, cutoff)),
        ("Psi3", adams(3, cutoff)),
        ("e1", eulerian_idempotent(1, cutoff)),
        ("e2", eulerian_idempotent(2, cutoff)),
    ]
    for i, rng in run.draws():
        name, sigma = sigmas[i % len(sigmas)]
        dx = rng.randint(0, min(2, cutoff))
        dy = rng.randint(0, min(2, cutoff - dx))
        x = random_qs_element(rng, gens, dx, n_terms=rng.randint(1, 2))
        y = random_qs_element(rng, gens, dy, n_terms=rng.randint(1, 2))
        run.check(
            car_coproduct_compatibility_check(sigma, x, y),
            f"coproduct compatibility for {name} at ({dx},{dy})",
        )


def suite_e1_kernel(run: SuiteReport):
    gens = _gen_names(run.generators)
    cutoff = min(run.degree, 6)
    a = QSElement.generator(gens[0])
    b = QSElement.generator(gens[1])
    if cutoff >= 2:  # a product of positive-degree factors has degree >= 2
        run.check(e1_kills_products_check(a, b, cutoff), "kernel contains a#b")
    for n in range(1, min(run.degree, 5) + 1):
        run.check(e1_projection_check(n), f"projection facts at weight {n}")
    for i, rng in run.draws() if cutoff >= 2 else ():
        dx = rng.randint(1, min(3, cutoff - 1))
        dy = rng.randint(1, min(3, max(1, cutoff - dx)))
        x = random_qs_element(rng, gens, dx, n_terms=rng.randint(1, 2))
        y = random_qs_element(rng, gens, dy, n_terms=rng.randint(1, 2))
        if not x or not y:
            x, y = a, b
        run.check(e1_kills_products_check(x, y, cutoff), f"kernel at ({dx},{dy})")
        if i % 3 == 0:
            dz = rng.randint(1, min(3, cutoff))
            z = random_qs_element(rng, gens, dz, n_terms=rng.randint(1, 2))
            if z:
                run.check(
                    adams_on_indecomposables_check(z, cutoff),
                    f"square Adams minus 2 id lands in products at degree {dz}",
                )


def _lyndon_rotation_oracle(n: int):
    out = []
    for I in compositions(n):
        if not I:
            continue
        rotations = [I[j:] + I[:j] for j in range(1, len(I))]
        if all(I < r for r in rotations):
            out.append(I)
    return tuple(out)


def suite_generators(run: SuiteReport):
    for r in lyndon_generator_report(min(run.degree, 5)):
        run.check(
            r.full_rank and r.rank == 2 ** (r.weight - 1),
            f"rank {r.rank}/{r.dimension} at weight {r.weight}",
        )
        oracle = _lyndon_rotation_oracle(r.weight)
        run.check(
            r.lyndon == oracle and lyndon_compositions(r.weight) == oracle,
            f"Lyndon sets agree at weight {r.weight}",
        )


SUITES = {
    "hopf": suite_hopf,
    "internal": suite_internal,
    "crucial": suite_crucial,
    "distributivity": suite_distributivity,
    "action": suite_action,
    "convolution": suite_convolution,
    "naturality": suite_naturality,
    "adams": suite_adams,
    "eulerian": suite_eulerian,
    "car-compat": suite_car_compat,
    "e1-kernel": suite_e1_kernel,
    "generators": suite_generators,
}

# Base-algebra generators each suite draws on by name (the others use none).
MIN_GENERATORS = {"action": 1, "convolution": 3, "naturality": 1, "car-compat": 1, "e1-kernel": 2}
# Least degree at which a suite checks anything (the others check something at 0).
MIN_DEGREE = {"e1-kernel": 1, "generators": 1}


def run_suite(name, degree, seed, cases, generators) -> SuiteReport:
    """Run one suite.  A suite body that raises ends with one failed check at
    the case it was drawing, so its reproducer reruns the raise and the other
    suites still report; the errors that carry an exit code propagate."""
    report = SuiteReport(name, degree, seed, cases, generators)
    start = time.perf_counter()
    try:
        SUITES[name](report)
    except (ExpressionError, BasisMismatch, CapExceeded):
        raise
    except Exception as exc:
        report.check(False, "raised {}: {}", type(exc).__name__, exc)
    report.wall_time = time.perf_counter() - start
    return report
