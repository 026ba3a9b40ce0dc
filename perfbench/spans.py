"""Traced runs: spans around calls into each ``wqsym`` layer, recorded from
outside the program, and the per-layer metrics derived from them.

Each public function or method listed in :func:`install` is replaced by a
wrapper where it is looked up: a module-level function in every ``wqsym``
module that binds it (``from .words import quasi_shuffle_words`` makes a
second binding in ``wqsym.algebra``), an operator dunder on its class, and a
suite body in the ``SUITES`` table.  A span is (name, parent, start, end);
spans are kept in compact arrays in memory and written out at the end.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: layers whose share of the traced self time confirms each workload's rationale
RATIONALE = {
    "series-deep": "words.qsw + algebra.mul hold most of the self time",
    "internal-dense": "algebra.matmul holds most of the self time",
    "battery": "qshuffle.* and the internal suite (its @ and its own loop) split the self time",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self._undo: list = []
        self.clear()

    def clear(self) -> None:
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, skip=None, after=None):
        """``fn`` recording one span per call.  Calls for which ``skip(args)``
        is true (scalar products, foreign operand types) pass straight through;
        ``after(counts, args, result)`` adds counts outside the span."""
        nid = self.ids.setdefault(name, len(self.ids))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.kind.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def patch_function(self, modules, fn, name, after=None) -> None:
        """Wrap ``fn`` under every name that binds it in ``modules``."""
        wrapper = self.wrap(name, fn, after=after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, fn))

    def patch_method(self, cls, attr, name, skip=None, after=None) -> None:
        fn = vars(cls)[attr]
        setattr(cls, attr, self.wrap(name, fn, skip=skip, after=after))
        self._undo.append((setattr, cls, attr, fn))

    def patch_item(self, table: dict, key, name, after=None) -> None:
        fn = table[key]
        table[key] = self.wrap(name, fn, after=after)
        self._undo.append((dict.__setitem__, table, key, fn))

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, attr, fn = self._undo.pop()
            setter(owner, attr, fn)

    def write(self, path: Path) -> None:
        """Header line (JSON), then the kind, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["kind:uint16", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)


# -- the layers ----------------------------------------------------------------


def _pairs(counts, prefix, a, b):
    counts[prefix + ".pairs"] += len(a.terms) * len(b.terms)


def _peak(counts, result):
    counts["algebra.peak_terms"] = max(counts["algebra.peak_terms"], len(result.terms))


def install(tracer: Tracer, modules) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    by_name = {m.__name__: m for m in modules}
    algebra, series, qshuffle, qsym = (
        by_name[f"wqsym.{n}"] for n in ("algebra", "series", "qshuffle", "qsym")
    )
    words, suites = by_name["wqsym.words"], by_name["wqsym.suites"]
    WQ, TS = algebra.WQSymElement, series.TruncatedSeries
    scalar = lambda args: isinstance(args[1], algebra.SCALAR_TYPES)

    def not_a(cls):
        return lambda args: not isinstance(args[1], cls)

    def qsw_after(counts, args, result):
        counts["words.qsw.words_out"] += len(result)

    tracer.patch_function(modules, words.quasi_shuffle_words, "words.qsw", after=qsw_after)
    tracer.patch_function(modules, words.enumerate_packed_words, "words.enum")

    def mul_after(counts, args, result):
        _pairs(counts, "algebra.mul", args[0], args[1])
        counts["algebra.mul.terms_out"] += len(result.terms)
        _peak(counts, result)

    def matmul_after(counts, args, result):
        a, b = args
        _pairs(counts, "algebra.matmul", a, b)
        by_len = Counter(map(len, b.terms))
        counts["algebra.matmul.useful"] += sum(by_len[max(u, default=0)] for u in a.terms)
        counts["algebra.matmul.terms_out"] += len(result.terms)
        _peak(counts, result)

    def peak_after(counts, args, result):
        _peak(counts, result)

    tracer.patch_method(WQ, "__mul__", "algebra.mul", skip=not_a(WQ), after=mul_after)
    tracer.patch_method(
        algebra.TensorSquare, "__mul__", "algebra.mul", skip=not_a(algebra.TensorSquare), after=mul_after
    )
    tracer.patch_method(WQ, "__matmul__", "algebra.matmul", skip=not_a(WQ), after=matmul_after)
    tracer.patch_method(WQ, "__and__", "algebra.and", skip=not_a(WQ), after=peak_after)
    tracer.patch_method(WQ, "coproduct", "algebra.coproduct", after=peak_after)

    tracer.patch_method(TS, "__mul__", "series.conv", skip=scalar)
    tracer.patch_method(TS, "__matmul__", "series.matmul")
    for fn in (series.identity_series, series.adams, series.log_identity, series.eulerian_idempotent):
        tracer.patch_function(modules, fn, "series.build")

    def act_after(counts, args, result):
        x, op = args
        if isinstance(op, WQ):
            _pairs(counts, "qshuffle.act", x, op)
            by_len = Counter(map(len, op.terms))
            counts["qshuffle.act.useful"] += sum(by_len[len(w)] for w in x.terms)

    def qmul_after(counts, args, result):
        counts["qshuffle.mul.terms_out"] += len(result.terms)

    tracer.patch_method(qshuffle.QSElement, "act", "qshuffle.act", after=act_after)
    tracer.patch_method(
        qshuffle.QSElement, "__mul__", "qshuffle.mul", skip=not_a(qshuffle.QSElement), after=qmul_after
    )
    tracer.patch_method(
        qshuffle.QSTensor, "__mul__", "qshuffle.mul", skip=not_a(qshuffle.QSTensor), after=qmul_after
    )
    for attr in ("deconcatenate", "reduced_deconcatenate"):
        tracer.patch_method(qshuffle.QSElement, attr, "qshuffle.deconcat")

    tracer.patch_method(qsym.QSymElement, "act", "qsym.act")
    tracer.patch_method(qsym.QSymElement, "__mul__", "qsym.mul", skip=not_a(qsym.QSymElement))
    tracer.patch_function(modules, qsym.lyndon_generator_report, "qsym.generators")

    for suite in list(suites.SUITES):

        def checks_after(counts, args, result, key=f"suites.{suite}.checks"):
            counts[key] += args[0].count

        tracer.patch_item(suites.SUITES, suite, f"suites.{suite}", after=checks_after)

    tracer.patch_function(modules, by_name["wqsym.expressions"].evaluate, "expressions.evaluate")
    serialization = by_name["wqsym.serialization"]
    for fn in (serialization.series_to_obj, serialization.element_to_obj):
        tracer.patch_function(modules, fn, "serialization.to_obj")
    tracer.patch_method(TS, "__str__", "cli.render")
    tracer.patch_method(WQ, "__str__", "cli.render")
    tracer.patch_function(modules, by_name["wqsym.cli"].main, "cli.main")


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num, den) -> float:
    """A ratio, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, caches, suite_names, bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass, plus the self-time shares that
    check each workload's rationale (keys starting with ``share.``)."""
    n = len(tracer.start)
    names, kind, parent, start, end = tracer.names, tracer.kind, tracer.parent, tracer.start, tracer.end
    child = [0.0] * n
    own = [0.0] * n
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    # children have larger indices than their parents
    for i in range(n - 1, -1, -1):
        dur = end[i] - start[i]
        if parent[i] >= 0:
            child[parent[i]] += dur
        own[i] = dur - child[i]
        name = names[kind[i]]
        self_s[name] += own[i]
        calls[name] += 1
    # self time of @ inside the internal suite: label each span with its suite
    suite_of = [""] * n
    for i in range(n):
        name = names[kind[i]]
        suite_of[i] = name if name.startswith("suites.") else (suite_of[parent[i]] if parent[i] >= 0 else "")
    matmul_id = tracer.ids.get("algebra.matmul")
    internal_matmul = sum(
        own[i] for i in range(n) if kind[i] == matmul_id and suite_of[i] == "suites.internal"
    )
    internal_id = tracer.ids.get("suites.internal")
    internal_suite = sum(end[i] - start[i] for i in range(n) if kind[i] == internal_id)
    total = sum(end[i] - start[i] for i in range(n) if parent[i] < 0)

    c = tracer.counts
    qsw_hits, qsw_misses, qsw_evict = caches.stats("wqsym.words.quasi_shuffle_words")
    s_hits, s_misses, _ = caches.stats("wqsym.series.")
    m = {
        "words.qsw.calls": calls["words.qsw"],
        "words.qsw.self_s": self_s["words.qsw"],
        "words.qsw.words_out": c["words.qsw.words_out"],
        "words.qsw.hit_ratio": _ratio(qsw_hits, qsw_hits + qsw_misses),
        "words.qsw.evictions": qsw_evict,
        "words.enum.self_s": self_s["words.enum"],
        "algebra.mul.calls": calls["algebra.mul"],
        "algebra.mul.self_s": self_s["algebra.mul"],
        "algebra.mul.pairs": c["algebra.mul.pairs"],
        "algebra.mul.terms_out": c["algebra.mul.terms_out"],
        "algebra.matmul.calls": calls["algebra.matmul"],
        "algebra.matmul.self_s": self_s["algebra.matmul"],
        "algebra.matmul.pairs": c["algebra.matmul.pairs"],
        "algebra.matmul.useful_ratio": _ratio(c["algebra.matmul.useful"], c["algebra.matmul.pairs"]),
        "algebra.matmul.terms_out": c["algebra.matmul.terms_out"],
        "algebra.and.self_s": self_s["algebra.and"],
        "algebra.coproduct.self_s": self_s["algebra.coproduct"],
        "algebra.peak_terms": c["algebra.peak_terms"],
        "series.conv.calls": calls["series.conv"],
        "series.conv.self_s": self_s["series.conv"],
        "series.matmul.self_s": self_s["series.matmul"],
        "series.build.self_s": self_s["series.build"],
        "series.cache.hit_ratio": _ratio(s_hits, s_hits + s_misses),
        "qshuffle.act.calls": calls["qshuffle.act"],
        "qshuffle.act.self_s": self_s["qshuffle.act"],
        "qshuffle.act.useful_ratio": _ratio(c["qshuffle.act.useful"], c["qshuffle.act.pairs"]),
        "qshuffle.mul.self_s": self_s["qshuffle.mul"],
        "qshuffle.mul.terms_out": c["qshuffle.mul.terms_out"],
        "qshuffle.deconcat.self_s": self_s["qshuffle.deconcat"],
        "qsym.act.self_s": self_s["qsym.act"],
        "qsym.mul.self_s": self_s["qsym.mul"],
        "qsym.generators.self_s": self_s["qsym.generators"],
        "expressions.evaluate.self_s": self_s["expressions.evaluate"],
        "serialization.to_obj.self_s": self_s["serialization.to_obj"],
        "cli.render.self_s": self_s["cli.render"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.bytes_out": bytes_out,
    }
    for suite in suite_names:
        m[f"suites.{suite}.self_s"] = self_s[f"suites.{suite}"]
        m[f"suites.{suite}.checks"] = c[f"suites.{suite}.checks"]
    qshuffle_self = sum(v for k, v in self_s.items() if k.startswith("qshuffle."))
    m["share.words.qsw+algebra.mul"] = _ratio(self_s["words.qsw"] + self_s["algebra.mul"], total)
    m["share.algebra.matmul"] = _ratio(self_s["algebra.matmul"], total)
    m["share.qshuffle"] = _ratio(qshuffle_self, total)
    m["share.internal.matmul"] = _ratio(internal_matmul, total)
    m["share.internal.suite"] = _ratio(internal_suite, total)
    return m


def rationale_holds(workload: str, m: dict) -> bool:
    if workload == "series-deep":
        return m["share.words.qsw+algebra.mul"] > 0.5
    if workload == "internal-dense":
        return m["share.algebra.matmul"] > 0.5
    # battery: the two together hold most of the pass, and each a large part
    qs, internal = m["share.qshuffle"], m["share.internal.suite"]
    return qs + internal > 0.5 and min(qs, internal) > 0.2
