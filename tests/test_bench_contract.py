"""The benchmark's traced run (perfbench/tracing.py) wraps fuzzcheck
functions by module attribute path.  Renaming or dropping any name it lists,
even an import that its module no longer calls, makes `--trace 1` crash, so
every listed path must resolve on the package."""

import importlib
import json
import os
import random
import shutil
import subprocess
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


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", [w["name"] for w in _bench_spec()["workloads"]])
def test_traced_run_completes(workload, tmp_path):
    """A one-second `--trace 1` run of each workload, from a copy of the
    sources and the benchmark, exits 0, answers every request correctly and
    reports every per-layer metric the benchmark declares."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for tree in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, tree), tmp_path / tree, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "1", "--trace", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr[-2000:]
    assert set(result["metrics"]) == {m["name"] for m in _bench_spec()["per_layer"]}
