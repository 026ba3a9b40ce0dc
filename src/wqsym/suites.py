"""Named verification suites behind ``wqsym verify``.

Every suite is deterministic given (degree, seed, cases): case i draws from
``random.Random((seed * GOLDEN + i) mod 2**64)`` with GOLDEN the 64-bit
golden-ratio multiplier, so any failing case can be reproduced by rerunning
the same command with ``--cases i+1``.  Fixed regression cases run before the
seeded ones and count toward the case total.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import WQSymElement, crucial_factorization_check, embed_sym_hat
from .qshuffle import (
    AElement,
    QSElement,
    adams_on_indecomposables_check,
    car_coproduct_compatibility_check,
    convolution_of_operators,
    e1_kills_products_check,
    naturality_check,
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
from .words import enumerate_packed_words, compositions, is_lyndon, lyndon_compositions

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * GOLDEN + index) & MASK64)


@dataclass
class Failure:
    case: int
    reproducer: str
    detail: str


@dataclass
class SuiteReport:
    suite: str
    seed: int
    degree: int
    cases_run: int
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


class _Run:
    """Bookkeeping shared by the suite bodies."""

    def __init__(self, suite, degree, seed):
        self.suite = suite
        self.degree = degree
        self.seed = seed
        self.count = 0
        self.failures: list[Failure] = []

    def check(self, ok: bool, detail: str):
        index = self.count
        self.count += 1
        if not ok:
            self.failures.append(
                Failure(
                    case=index,
                    reproducer=(
                        f"wqsym verify {self.suite} --degree {self.degree} "
                        f"--seed {self.seed} --cases {index + 1}"
                    ),
                    detail=detail,
                )
            )


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
    exps: dict[str, int] = {}
    for _ in range(degree):
        g = rng.choice(gens)
        exps[g] = exps.get(g, 0) + 1
    return tuple(sorted(exps.items()))


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


def _coassociative(el: WQSymElement) -> bool:
    delta = el.coproduct()
    left: dict = {}
    right: dict = {}
    for (a, b), c in delta.terms.items():
        for (a1, a2), c2 in WQSymElement.monomial(a).coproduct().terms.items():
            key = (a1, a2, b)
            left[key] = left.get(key, 0) + c * c2
        for (b1, b2), c2 in WQSymElement.monomial(b).coproduct().terms.items():
            key = (a, b1, b2)
            right[key] = right.get(key, 0) + c * c2
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


def suite_hopf(run: _Run, degree, seed, cases, generators):
    for n in range(min(degree, 5) + 1):
        for u in enumerate_packed_words(n):
            run.check(_coassociative(WQSymElement.monomial(u)), f"coassociativity at {u}")
    top = min(degree, 4)
    for total in range(top + 1):
        for a in range(total + 1):
            for u in enumerate_packed_words(a):
                for v in enumerate_packed_words(total - a):
                    mu, mv = WQSymElement.monomial(u), WQSymElement.monomial(v)
                    run.check(
                        (mu * mv).coproduct() == mu.coproduct() * mv.coproduct(),
                        f"coproduct multiplicativity at {u},{v}",
                    )
    if degree >= 5:
        for i in range(cases):
            rng = case_rng(seed, i)
            a = rng.randint(0, 5)
            u = random_packed_word(rng, a)
            v = random_packed_word(rng, 5 - a)
            mu, mv = WQSymElement.monomial(u), WQSymElement.monomial(v)
            run.check(
                (mu * mv).coproduct() == mu.coproduct() * mv.coproduct(),
                f"coproduct multiplicativity at {u},{v}",
            )


def suite_internal(run: _Run, degree, seed, cases, generators):
    top = min(degree, 4)
    words_by_len = {n: enumerate_packed_words(n) for n in range(top + 1)}
    for n, words_ in words_by_len.items():
        staircase = WQSymElement.monomial(tuple(range(1, n + 1)))
        for u in words_:
            mu = WQSymElement.monomial(u)
            run.check(staircase @ mu == mu, f"left identity at {u}")
            k = max(u) if u else 0
            right_id = WQSymElement.monomial(tuple(range(1, k + 1)))
            run.check(mu @ right_id == mu, f"right identity at {u}")
    for n in range(top + 1):
        for u in words_by_len[n]:
            mu = WQSymElement.monomial(u)
            k = max(u) if u else 0
            for v in words_by_len.get(k, ()):
                mv = WQSymElement.monomial(v)
                kk = max(v) if v else 0
                for w in words_by_len.get(kk, ()):
                    mw = WQSymElement.monomial(w)
                    run.check(
                        (mu @ mv) @ mw == mu @ (mv @ mw),
                        f"associativity at {u},{v},{w}",
                    )
    for i in range(cases):
        rng = case_rng(seed, i)
        u, v, w = (random_packed_word(rng, rng.randint(0, top)) for _ in range(3))
        mu, mv, mw = (WQSymElement.monomial(x) for x in (u, v, w))
        run.check(
            (mu @ mv) @ mw == mu @ (mv @ mw),
            f"associativity at {u},{v},{w}",
        )


def suite_crucial(run: _Run, degree, seed, cases, generators):
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
    for i in range(cases):
        rng = case_rng(seed, i)
        r = rng.randint(1, 3)
        budget = degree
        ws = []
        for _ in range(r):
            l = rng.randint(0, budget) if budget else 0
            ws.append(random_packed_word(rng, l))
            budget -= l
        run.check(crucial_factorization_check(ws), f"factorization at {ws}")


def suite_distributivity(run: _Run, degree, seed, cases, generators):
    for i in range(cases):
        rng = case_rng(seed, i)
        while True:
            u = random_packed_word(rng, rng.randint(0, 2))
            t = random_packed_word(rng, rng.randint(0, 2))
            ku = max(u) if u else 0
            kt = max(t) if t else 0
            if len(u) + len(t) + ku + kt <= degree:
                break
        v = random_packed_word(rng, ku)
        w = random_packed_word(rng, kt)
        mu, mt, mv, mw = (WQSymElement.monomial(x) for x in (u, t, v, w))
        run.check(
            (mu & mt) @ (mv & mw) == (mu @ mv) & (mt @ mw),
            f"distributivity at {u},{t},{v},{w}",
        )


def suite_action(run: _Run, degree, seed, cases, generators):
    gens = _gen_names(generators)
    # composition regroup: M(2,1,3,2,2) acted by 12121 sums blocks to M(7,3)
    run.check(
        QSymElement.monomial((2, 1, 3, 2, 2)).act(WQSymElement.monomial((1, 2, 1, 2, 1)))
        == QSymElement.monomial((7, 3)),
        "regroup action on (2,1,3,2,2)",
    )
    top = min(degree, 4)
    for i in range(cases):
        rng = case_rng(seed, i)
        n = rng.randint(0, top)
        x = QSElement.word(random_tensor_word(rng, gens, n))
        lf = n if rng.random() < 0.8 else rng.randint(0, top)
        f = WQSymElement.monomial(random_packed_word(rng, lf))
        kf = max(next(iter(f.terms)), default=0)
        lg = kf if rng.random() < 0.8 else rng.randint(0, top)
        g = WQSymElement.monomial(random_packed_word(rng, lg))
        run.check(
            x.act(f).act(g) == x.act(f @ g),
            f"module law on tensors at n={n}",
        )
        I = random_composition(rng, rng.randint(0, min(degree, 5)))
        F = QSymElement.monomial(I)
        lf2 = len(I) if rng.random() < 0.8 else rng.randint(0, top)
        f2 = WQSymElement.monomial(random_packed_word(rng, lf2))
        k2 = max(next(iter(f2.terms)), default=0)
        g2 = WQSymElement.monomial(random_packed_word(rng, k2))
        run.check(
            F.act(f2).act(g2) == F.act(f2 @ g2),
            f"module law on compositions at {I}",
        )


def suite_convolution(run: _Run, degree, seed, cases, generators):
    gens = _gen_names(generators)
    a, b, c = (AElement.generator(g) for g in gens[:3])
    ab = QSElement.word([next(iter(a.terms)), next(iter(b.terms))])
    m1 = WQSymElement.monomial((1,))
    expected = ab.act(m1 * m1)
    run.check(
        convolution_of_operators(m1, m1, ab) == expected
        and expected
        == QSElement.word([next(iter(a.terms)), next(iter(b.terms))])
        + QSElement.word([next(iter(b.terms)), next(iter(a.terms))])
        + QSElement.word([next(iter((a * b).terms))]),
        "degree-(1,1) convolution",
    )
    abc = QSElement.word([next(iter(x.terms)) for x in (a, b, c)])
    m12 = WQSymElement.monomial((1, 2))
    run.check(
        convolution_of_operators(m1, m12, abc) == abc.act(m1 * m12),
        "degree-(1,2) convolution",
    )
    for i in range(cases):
        rng = case_rng(seed, i)
        n = rng.randint(0, min(degree, 5))
        m = rng.randint(0, min(degree, 5) - n)
        f = WQSymElement.monomial(random_packed_word(rng, n))
        g = WQSymElement.monomial(random_packed_word(rng, m))
        d = n + m if rng.random() < 0.8 else rng.randint(0, min(degree, 5))
        x = random_qs_element(rng, gens, d, n_terms=rng.randint(1, 2))
        run.check(
            x.act(f * g) == convolution_of_operators(f, g, x),
            f"convolution compatibility at n={n},m={m},d={d}",
        )


def suite_naturality(run: _Run, degree, seed, cases, generators):
    gens = _gen_names(generators)
    for i in range(cases):
        rng = case_rng(seed, i)
        f_spec = {}
        for g in gens:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                m = random_monomial(rng, gens, max_degree=2)
                terms[m] = terms.get(m, 0) + rng.choice([-2, -1, 1, 2])
            f_spec[g] = AElement(terms)
        n = rng.randint(0, min(degree, 4))
        u = random_packed_word(rng, n)
        d = n if rng.random() < 0.8 else rng.randint(0, min(degree, 4))
        x = random_qs_element(rng, gens, d, n_terms=rng.randint(1, 2))
        run.check(naturality_check(f_spec, u, x), f"naturality at u={u}, d={d}")


def suite_adams(run: _Run, degree, seed, cases, generators):
    cutoff = min(degree, 5)
    # the fixed checks act on compositions with one and two parts
    for n in (1, 2, 3) if cutoff >= 1 else ():
        run.check(
            qsym_adams(2, QSymElement.monomial((n,)), cutoff)
            == 2 * QSymElement.monomial((n,)),
            f"square Adams on M({n})",
        )
    for i, j in ((1, 1), (1, 2), (2, 3)) if cutoff >= 2 else ():
        expected = (
            3 * QSymElement.monomial((i, j))
            + QSymElement.monomial((j, i))
            + QSymElement.monomial((i + j,))
        )
        run.check(
            qsym_adams(2, QSymElement.monomial((i, j)), cutoff) == expected,
            f"square Adams on M({i},{j})",
        )
    for k in range(4):
        for l in range(4):
            run.check(
                adams(k, cutoff) * adams(l, cutoff) == adams(k + l, cutoff),
                f"convolution power law {k},{l}",
            )
            n4 = min(degree, 4)
            run.check(
                adams(k, n4) @ adams(l, n4) == adams(k * l, n4),
                f"internal power law {k},{l}",
            )
    for i in range(cases):
        rng = case_rng(seed, i)
        k = rng.randint(0, 3)
        I = random_composition(rng, rng.randint(0, cutoff))
        F = QSymElement.monomial(I)
        run.check(
            qsym_adams(k, F, cutoff) == qsym_adams_oracle(k, F),
            f"oracle match at k={k}, I={I}",
        )
        wa = rng.randint(0, 2)
        wb = rng.randint(0, min(degree, 4) - wa if degree >= 4 else 2 - wa)
        A = QSymElement.monomial(random_composition(rng, wa))
        B = QSymElement.monomial(random_composition(rng, wb))
        k2 = rng.randint(0, 3)
        run.check(
            qsym_adams_oracle(k2, A * B)
            == qsym_adams_oracle(k2, A) * qsym_adams_oracle(k2, B),
            f"algebra endomorphism at k={k2}",
        )


def suite_eulerian(run: _Run, degree, seed, cases, generators):
    cutoff = min(degree, 5)
    small = min(degree, 4)
    run.check(
        eulerian_e1_closed_form(cutoff) == eulerian_idempotent(1, cutoff),
        "closed form equals log route",
    )
    for i in range(small + 1):
        for j in range(small + 1):
            expected = eulerian_idempotent(i, small) if i == j else TruncatedSeries.zero(small)
            run.check(
                eulerian_idempotent(i, small) @ eulerian_idempotent(j, small) == expected,
                f"orthogonality e{i}*e{j}",
            )
    total = TruncatedSeries.zero(small)
    for i in range(small + 1):
        total = total + eulerian_idempotent(i, small)
    run.check(total == identity_series(small), "idempotents sum to the identity")
    for k in (0, 1, 2, 3, 5):
        spectral = TruncatedSeries.zero(small)
        for i in range(small + 1):
            spectral = spectral + eulerian_idempotent(i, small) * Fraction(k**i)
        run.check(adams(k, small) == spectral, f"spectral decomposition at k={k}")
    for n in range(min(degree, 5) + 1):
        run.check(unipotence_check(n), f"unipotence at n={n}")
    run.check(
        identity_series(cutoff).inverse() * identity_series(cutoff)
        == TruncatedSeries.unit(cutoff),
        "convolution inverse",
    )
    run.check(
        log_identity(cutoff).exp() == identity_series(cutoff), "exp inverts log"
    )


def suite_car_compat(run: _Run, degree, seed, cases, generators):
    gens = _gen_names(generators)
    cutoff = min(degree, 4)
    sigmas = [
        ("I", identity_series(cutoff)),
        ("Psi2", adams(2, cutoff)),
        ("Psi3", adams(3, cutoff)),
        ("e1", eulerian_idempotent(1, cutoff)),
        ("e2", eulerian_idempotent(2, cutoff)),
    ]
    for i in range(cases):
        rng = case_rng(seed, i)
        name, sigma = sigmas[i % len(sigmas)]
        dx = rng.randint(0, min(2, cutoff))
        dy = rng.randint(0, min(2, cutoff - dx))
        x = random_qs_element(rng, gens, dx, n_terms=rng.randint(1, 2))
        y = random_qs_element(rng, gens, dy, n_terms=rng.randint(1, 2))
        run.check(
            car_coproduct_compatibility_check(sigma, x, y),
            f"coproduct compatibility for {name} at ({dx},{dy})",
        )


def suite_e1_kernel(run: _Run, degree, seed, cases, generators):
    gens = _gen_names(generators)
    cutoff = min(degree, 6)
    a = QSElement.generator(gens[0])
    b = QSElement.generator(gens[1])
    if cutoff >= 2:  # a product of positive-degree factors has degree >= 2
        run.check(e1_kills_products_check(a, b, cutoff), "kernel contains a#b")
    for n in range(1, min(degree, 5) + 1):
        run.check(e1_projection_check(n), f"projection facts at weight {n}")
    for i in range(cases if cutoff >= 2 else 0):
        rng = case_rng(seed, i)
        dx = rng.randint(1, min(3, cutoff - 1))
        dy = rng.randint(1, min(3, max(1, cutoff - dx)))
        x = random_qs_element(rng, gens, dx, n_terms=rng.randint(1, 2))
        y = random_qs_element(rng, gens, dy, n_terms=rng.randint(1, 2))
        if not x or not y:
            x, y = a, b
        run.check(e1_kills_products_check(x, y, cutoff), f"kernel at ({dx},{dy})")
        if i % 3 == 0:
            dz = rng.randint(1, 3)
            z = random_qs_element(rng, gens, dz, n_terms=rng.randint(1, 2))
            if z:
                run.check(
                    adams_on_indecomposables_check(z, max(3, min(degree, 6))),
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


def suite_generators(run: _Run, degree, seed, cases, generators):
    top = min(degree, 5)
    reports = lyndon_generator_report(top)
    for r in reports:
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

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name, degree=5, seed=0, cases=100, generators=5) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    run = _Run(name, degree, seed)
    start = time.perf_counter()
    SUITES[name](run, degree, seed, cases, generators)
    return SuiteReport(
        suite=name,
        seed=seed,
        degree=degree,
        cases_run=run.count,
        failures=run.failures,
        wall_time=time.perf_counter() - start,
    )


def run_suites(name, degree=5, seed=0, cases=100, generators=5) -> list[SuiteReport]:
    names = list(SUITES) if name == "all" else [name]
    return [run_suite(n, degree, seed, cases, generators) for n in names]
