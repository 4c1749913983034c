"""The benchmark's traced run (perfbench/tracing.py) wraps fuzzcheck
functions by module attribute path.  Renaming or dropping any name it lists,
even an import that its module no longer calls, makes `--trace 1` crash, so
every listed path must resolve on the package."""

import importlib
import os
import random
import sys

import pytest

import fuzzcheck
from fuzzcheck.sets import FuzzySet
from fuzzcheck.topology import GradeLattice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fuzzcheck.__file__)))


def _without(path):
    while path in sys.path:
        sys.path.remove(path)


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        _without(PERFBENCH)


@pytest.fixture(scope="module")
def package(tracing):
    had_src = SRC in sys.path
    try:
        return tracing.Package(SRC)
    finally:
        if not had_src:
            _without(SRC)


def _paths(tracing):
    return [path for table in (tracing.SPANS, tracing.COUNTERS)
            for paths in table.values() for path in paths]


def test_every_traced_path_resolves_to_a_function(tracing, package):
    for path in _paths(tracing):
        owner, attr = tracing.resolve(package, path)
        assert callable(getattr(owner, attr, None)), path


def test_result_counts_belong_to_spans(tracing, package):
    assert set(tracing.RESULT_COUNTS) <= set(tracing.SPANS)
    _, count_opens = tracing.RESULT_COUNTS["topology.generate"]
    ambient = FuzzySet.ones(fuzzcheck.Carrier(("a",)))
    assert count_opens(package.topology.generate(ambient, [], GradeLattice(2))) == 3


def test_install_wraps_and_uninstall_restores(tracing, package):
    paths = _paths(tracing)
    before = {path: getattr(*tracing.resolve(package, path)) for path in paths}
    tracer = tracing.Tracer()
    try:
        tracer.install(package)
        for path in paths:
            assert getattr(*tracing.resolve(package, path)) is not before[path], path
    finally:
        tracer.uninstall()
    assert {path: getattr(*tracing.resolve(package, path)) for path in paths} == before


def test_every_span_fires_on_the_probes(tracing, package, tmp_path, monkeypatch):
    """A handler that calls a checker through a reference taken before the
    tracer patched its module attribute would run unrecorded: the span stays
    empty and the per-layer metric silently reads 0."""
    monkeypatch.chdir(tmp_path)
    probes = [make(str(tmp_path), random.Random(i)) for i, make in enumerate(tracing.PROBES)]
    tracer = tracing.Tracer()
    try:
        tracer.install(package)
        for req in probes:
            _, code, out = tracing.execute(package, req.argv)
            assert tracing.bench.decided(req, code, out, b"", False), req.key
    finally:
        tracer.uninstall()
    assert set(tracing.SPANS) - {span[0] for span in tracer.spans} == set()
