"""The benchmark's workloads: their inputs, one pass of each, and the gates
that check every output of a pass.

A pass is a closed loop with one caller: each call into ``wqsym`` is made
only after the previous one has returned.  Every ``functools.lru_cache`` in
``wqsym`` is cleared before each CLI command and before each block of library
checks, so a command costs what it costs in a fresh ``wqsym`` process.

Each operation of a pass is timed on its own.  Meanwhile :class:`HostGauge`
times a short fixed reference loop ten times a second, from a signal
handler, so the pass's cost can also be read in units of the reference
loop's time during that same pass: the host's speed drifts by a third over
minutes, and the ratio cancels that drift while any change in the program's
own speed shows in it in full.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import pkgutil
import random
import re
import signal
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: benchmark-side sizes; the smoke test passes smaller ones
DEFAULT_DEGREE = {"series-deep": 7, "internal-dense": 5, "battery": 5}
DEFAULT_CASES = 100

#: orthogonality grid of ``internal-dense``: e(i) @ e(j) for i, j in 1..4
IDEMPOTENTS = (1, 2, 3, 4)

#: side of the reference loop's operand: 49 x 49 products, about 5 ms
REF_SIDE = 7
#: wall seconds between two timings of the reference loop during a pass
GAUGE_INTERVAL_S = 0.1

#: ``battery`` runs ``verify all`` with the CLI's default verify seed in
#: every pass, whatever the benchmark seed.  Verify seeds differ in cost by
#: up to a third (the sizes of the random e1-kernel cases) and a run holds
#: only a few passes, so seeds drawn per run or per pass would make that
#: difference the largest part of the run-to-run spread.
BATTERY_VERIFY_SEED = 0

_SUITE_LINE = re.compile(r"^suite (\S+): (\d+) checks, degree (\d+), seed (\d+): (PASS|FAIL)$")


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing package or reference)."""


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop shaped like wqsym's inner
    loops: a sparse product with tuple keys, dict updates and ``Fraction``
    arithmetic.  The collector is off meanwhile, so the program's heap does
    not change its cost; the loop creates no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        a = {(i, j): Fraction(i + 1, j + 2) for i in range(REF_SIDE) for j in range(REF_SIDE)}
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in a.items():
                k = k1 + k2
                c = out.get(k)
                out[k] = c1 * c2 if c is None else c + c1 * c2
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def series_deep_commands(degree: int) -> list[list[str]]:
    d = str(degree)
    return [
        ["expand", "e", "2", "--degree", d],
        ["expand", "e", "1", "--degree", d, "--format", "json"],
        ["expand", "psi", "3", "--degree", d],
    ]


def import_wqsym():
    """Import ``wqsym`` and every submodule from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "wqsym" / "__init__.py").is_file():
        raise SetupError(f"no wqsym package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    wqsym = importlib.import_module("wqsym")
    if Path(wqsym.__file__).resolve().parent != (src / "wqsym").resolve():
        raise SetupError(f"imported wqsym from {wqsym.__file__}, not from {src}")
    for info in pkgutil.iter_modules(wqsym.__path__):
        importlib.import_module(f"wqsym.{info.name}")
    return wqsym


def wqsym_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "wqsym" or name.startswith("wqsym.")]


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        raise SetupError(f"missing {REFERENCE_FILE}")
    return json.loads(REFERENCE_FILE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Caches:
    """Every lru_cache in the wqsym modules, found by its ``cache_clear``
    attribute (so caches added later are covered), with hit, miss and
    eviction totals accumulated across clears."""

    def __init__(self, modules):
        found = {}
        for mod in modules:
            for value in list(vars(mod).values()):
                candidates = [value]
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    candidates += list(vars(value).values())
                for obj in candidates:
                    if callable(getattr(obj, "cache_clear", None)) and callable(
                        getattr(obj, "cache_info", None)
                    ):
                        found[id(obj)] = obj
        self.caches = sorted(found.values(), key=self.key)
        self.totals = {self.key(c): [0, 0, 0] for c in self.caches}

    @staticmethod
    def key(cache) -> str:
        return f"{cache.__module__}.{cache.__qualname__}"

    def reset(self) -> None:
        """Add each cache's stats since its last clear to the totals, then clear it."""
        for cache in self.caches:
            info = cache.cache_info()
            tot = self.totals[self.key(cache)]
            tot[0] += info.hits
            tot[1] += info.misses
            tot[2] += info.misses - info.currsize
            cache.cache_clear()

    def zero_totals(self) -> None:
        for tot in self.totals.values():
            tot[:] = [0, 0, 0]

    def stats(self, prefix: str) -> tuple[int, int, int]:
        """Summed (hits, misses, evictions) of the caches whose key starts with ``prefix``."""
        rows = [t for k, t in self.totals.items() if k.startswith(prefix)]
        return tuple(sum(col) for col in zip(*rows)) if rows else (0, 0, 0)


class HostGauge:
    """Samples the host's speed during a pass: a SIGALRM handler times the
    reference loop every GAUGE_INTERVAL_S seconds and adds up the wall and
    CPU time it takes, so that operations can leave that time out."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late signal while the loop still runs
            return
        self._busy = True
        c0, t0 = process_time(), perf_counter()
        self.samples.append(reference_loop())
        self.spent += perf_counter() - t0
        self.spent_cpu += process_time() - c0
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the body: one timing at once, then one per interval."""
        self.samples = [reference_loop()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


GAUGE = HostGauge()


@dataclass
class PassResult:
    """Outcome of one pass: operations attempted and failed, gate checks
    completed, output terms and bytes rendered, failure messages, the wall
    and CPU time of each timed operation, and the reference loop's timings
    taken during the pass (none in a pass run without the gauge)."""

    attempted: int = 0
    failed: int = 0
    checks: int = 0
    terms: int = 0
    bytes_out: int = 0
    failures: list[str] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_cpu_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(message)

    @contextlib.contextmanager
    def timed(self):
        """Time the body as one operation, less the gauge's time within it."""
        g0, gc0 = GAUGE.spent, GAUGE.spent_cpu
        c0, t0 = process_time(), perf_counter()
        try:
            yield
        finally:
            self.op_s.append(perf_counter() - t0 - (GAUGE.spent - g0))
            self.op_cpu_s.append(process_time() - c0 - (GAUGE.spent_cpu - gc0))

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    @property
    def cpu_s(self) -> float:
        return sum(self.op_cpu_s)

    @property
    def cost(self) -> float:
        """The pass in reference loops: its wall time over the mean time of the
        reference loop during it.  The mean, not the median: the host moves
        between a fast and a slow state (a reference loop of about 4 or 7 ms
        on a 2-vCPU cloud VM), and the pass's time is a time average over
        those states, which the mean of evenly spaced samples estimates."""
        return self.wall_s / statistics.fmean(self.ref_s)


class Session:
    """The imported package, its caches, one workload's generated inputs and
    the reference outputs they are checked against."""

    def __init__(self, workload: str, seed: int, degree: int, cases: int, reference: dict):
        import_wqsym()
        self.modules = wqsym_modules()
        self.wq = sys.modules["wqsym"]
        self.caches = Caches(self.modules)
        self.workload = workload
        self.degree = degree
        self.cases = cases
        key = f"{degree}/{cases}" if workload == "battery" else str(degree)
        if key not in reference.get(workload, {}):
            raise SetupError(f"no {workload} reference for {key} in {REFERENCE_FILE.name}")
        self.expected = reference[workload][key]
        self.inputs = make_inputs(self.wq, workload, seed, degree)

    def run_pass(self, gauge: bool = True) -> PassResult:
        """One pass, sampling the host's speed meanwhile unless ``gauge`` is
        false (traced runs leave it off, so spans hold only the program)."""
        result = PassResult()
        self.caches.reset()
        self.caches.zero_totals()
        with GAUGE.sampling() if gauge else contextlib.nullcontext():
            PASSES[self.workload](self, result)
        if gauge:
            result.ref_s = GAUGE.samples
        self.caches.reset()
        return result


def call_cli(argv) -> tuple[int, str]:
    """Run ``wqsym.cli.main`` with stdout and stderr captured.

    ``main`` is looked up on the module at each call, so a traced run sees
    the wrapped version."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sys.modules["wqsym.cli"].main([str(a) for a in argv])
    return rc, out.getvalue()


def make_inputs(wq, workload: str, seed: int, degree: int):
    """The workload's inputs, made from ``seed`` alone."""
    if workload == "series-deep":
        # a named series has exactly one value: the inputs are fixed by design
        return series_deep_commands(degree)
    if workload == "battery":
        return BATTERY_VERIFY_SEED
    # internal-dense: one dense series per idempotent, every packed word of
    # length <= degree with a random nonzero small rational coefficient
    rng = random.Random(seed)
    series = []
    for _ in IDEMPOTENTS:
        comps = {}
        for d in range(degree + 1):
            comps[d] = wq.WQSymElement(
                {
                    w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                    for w in wq.enumerate_packed_words(d)
                }
            )
        series.append(wq.TruncatedSeries(degree, comps))
    return series


def count_terms(text: str) -> int:
    """Nonzero terms in a rendered element or series (text or JSON)."""
    return text.count("M[") + text.count('"word"')


def _cli_op(session: Session, result: PassResult, argv, check, checks: int = 1, reset: bool = True) -> None:
    """One CLI command as one timed operation, after clearing the caches
    unless ``reset`` is false: exit code 0 and ``check(stdout)``, which
    completes ``checks`` checks when it passes."""
    if reset:
        session.caches.reset()
    result.attempted += 1
    label = " ".join(map(str, argv))
    try:
        with result.timed():
            rc, out = call_cli(argv)
    except Exception as exc:  # an exception is a failed operation, not a crash of the benchmark
        result.fail(f"{label}: raised {exc!r}")
        return
    result.bytes_out += len(out.encode())
    result.terms += count_terms(out)
    if rc != 0:
        result.fail(f"{label}: exit code {rc}")
        return
    problem = check(out)
    if problem:
        result.fail(f"{label}: {problem}")
    else:
        result.checks += checks


def pass_series_deep(session: Session, result: PassResult) -> None:
    for argv in session.inputs:
        want = session.expected[" ".join(argv)]
        _cli_op(
            session,
            result,
            argv,
            lambda out, want=want: None if digest(out) == want else "stdout digest mismatch",
        )


def pass_internal_dense(session: Session, result: PassResult) -> None:
    d = session.degree
    zero = f"0 (cutoff {d})\n"
    for i in IDEMPOTENTS:
        for j in IDEMPOTENTS:
            if i == j:
                # digest of str(e(i)) at the reference commit
                check = lambda out, want=session.expected[str(i)]: (
                    None if digest(out) == want else "result is not e(i)"
                )
            else:
                check = lambda out: None if out == zero else "result is not zero"
            _cli_op(session, result, ["eval", f"e({i}) @ e({j})", "--degree", d], check)
    session.caches.reset()
    for i, x in zip(IDEMPOTENTS, session.inputs):
        result.attempted += 1
        try:
            with result.timed():
                e = session.wq.eulerian_idempotent(i, d)
                y = x @ e
                ok = (y @ e) == y
        except Exception as exc:  # counted as a failed operation
            result.fail(f"idempotence of e({i}) on a dense series raised {exc!r}")
            continue
        if ok:
            result.checks += 1
        else:
            result.fail(f"(x @ e({i})) @ e({i}) != x @ e({i})")


def pass_battery(session: Session, result: PassResult) -> None:
    """``verify all``, run as one ``verify <suite>`` command per suite in the
    order ``verify all`` runs them, with the caches cleared once before the
    first: the same work as ``verify all``, timed suite by suite."""
    verify_seed = session.inputs
    want = session.expected[str(verify_seed)]
    suites = list(sys.modules["wqsym.suites"].SUITES)
    for suite in sorted(want.keys() - set(suites)):
        result.attempted += 1
        result.fail(f"suite {suite} of the reference is not in wqsym.suites.SUITES")
    session.caches.reset()
    for suite in suites:
        argv = ["verify", suite, "--seed", verify_seed, "--cases", session.cases, "--degree", session.degree]
        if suite not in want:
            result.attempted += 1
            result.fail(f"{' '.join(map(str, argv))}: suite {suite} not in the reference")
            continue

        def check(out, suite=suite):
            m = _SUITE_LINE.match(out.splitlines()[0]) if out else None
            if m is None or m.group(1) != suite:
                return f"no report line for suite {suite}"
            if m.group(5) != "PASS":
                return f"suite {suite} FAIL"
            if int(m.group(2)) != want[suite]:
                return f"suite {suite} ran {m.group(2)} checks, reference {want[suite]}"
            return None

        _cli_op(session, result, argv, check, checks=want[suite], reset=False)


PASSES = {
    "series-deep": pass_series_deep,
    "internal-dense": pass_internal_dense,
    "battery": pass_battery,
}
