"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps each layer
where it is defined: ``spans.install`` reads a method with
``vars(cls)[attr]``, so it fails as soon as a patched method (for example
``TruncatedSeries.__mul__`` or ``QSElement.act``) stops being defined in its
own class body, and it wraps ``quasi_shuffle_words`` only where a module binds
it, so a product that holds the kernel elsewhere hides it.  This checks the
hooks install, record and uninstall, and that each product is recorded with
its kernel."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_install_and_uninstall():
    workloads, spans = _load("workloads"), _load("spans")
    wqsym = workloads.import_wqsym()
    modules = workloads.wqsym_modules()
    classes = (
        wqsym.WQSymElement,
        wqsym.TensorSquare,
        wqsym.TruncatedSeries,
        wqsym.QSElement,
        wqsym.QSTensor,
        wqsym.QSymElement,
    )
    snapshot = lambda: [dict(vars(owner)) for owner in (*classes, *modules)] + [dict(wqsym.suites.SUITES)]
    before = snapshot()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, modules)
        assert vars(wqsym.TruncatedSeries)["__mul__"] is not before[2]["__mul__"]
        series = wqsym.series.identity_series(2)
        series * series
        str(series)
        a = wqsym.QSElement.generator("a")
        a.act(series)
        a * a
        F = wqsym.QSymElement.monomial((1, 2))
        F.act(wqsym.WQSymElement.monomial((1, 1)))
        F * F
    finally:
        tracer.uninstall()
    names = {tracer.names[k] for k in tracer.kind}
    recorded = {"series.conv", "series.build", "cli.render", "qshuffle.act", "qshuffle.mul", "qsym.act", "qsym.mul"}
    assert recorded <= names
    assert snapshot() == before



@pytest.mark.parametrize(
    "operand, recorded",
    [
        (lambda w: w.WQSymElement.monomial((1, 2)) + w.WQSymElement.monomial((1,)), {"algebra.mul", "words.qsw"}),
        (lambda w: w.WQSymElement.monomial((1, 2, 1)).coproduct(), {"algebra.mul", "words.qsw"}),
        (lambda w: w.QSElement.generator("a").deconcatenate(), {"qshuffle.mul"}),
    ],
    ids=["WQSymElement", "TensorSquare", "QSTensor"],
)
def test_squares_are_recorded_with_their_kernel(operand, recorded):
    workloads, spans = _load("workloads"), _load("spans")
    x = operand(workloads.import_wqsym())
    tracer = spans.Tracer()
    try:
        spans.install(tracer, workloads.wqsym_modules())
        x * x
    finally:
        tracer.uninstall()
    assert recorded <= {tracer.names[k] for k in tracer.kind}
