"""Traced run: the workload's requests in this process, with spans around
the public functions of each fuzzcheck layer.

Nothing under src/ changes.  `install` replaces module attributes with
timing wrappers, including the copies that `cli`, `groups` and `topology`
bound with `from ... import`, and `uninstall` puts the originals back.  A
span records name, start, end, parent span and request id; spans stay in a
list and are written out when the run ends.  Counters are charged to the
innermost open span.  Per-element methods such as `FiniteGroup.op` carry
no counter, since counting them would cost more than the work they count.

Each request runs twice, untraced and then traced, so the tracing overhead
is measured on the same inputs.  Requests of the workload run in rounds,
as in the untraced benchmark, and each per-layer metric is the median over
the rounds of its per-round total.  Layers the workload bypasses are
measured on a fixed set of tiny probe requests, appended to every round
outside the cli-mix workload, so every per-layer metric is a measurement;
probe requests are left out of the layer shares and the overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import random
import sys
import time
import traceback

import fixtures
import run as bench

# Span name -> (module attribute paths it replaces).  Several names may
# share one span label; the label is what the metrics aggregate.
SPANS = {
    "cli.execute": ["cli.execute"],
    "topology.generate": ["topology.generate", "cli.generate"],
    "topology.verify_axioms": ["topology.verify_axioms", "cli.verify_axioms"],
    "topology.is_open_base": ["topology.is_open_base", "cli.is_open_base"],
    "topology.is_T1": ["topology.is_T1", "cli.is_T1"],
    "topology.is_hausdorff": ["topology.is_hausdorff", "cli.is_hausdorff"],
    "topology.check_map": ["topology.check_map", "cli.check_map", "groups.check_map"],
    "topology.product_topology": ["topology.product_topology", "groups.product_topology"],
    "maps.is_fuzzy_homomorphism": ["maps.is_fuzzy_homomorphism", "cli.is_fuzzy_homomorphism"],
    "groups.validate_group": ["groups.validate_group", "cli.validate_group"],
    "groups.is_fuzzy_subgroup": ["groups.is_fuzzy_subgroup", "cli.is_fuzzy_subgroup"],
    "groups.verify_action": ["groups.verify_action", "cli.verify_action"],
    "groups.is_G_invariant": ["groups.is_G_invariant", "cli.is_G_invariant"],
    "groups.is_fuzzy_topological_group": ["groups.is_fuzzy_topological_group",
                                          "cli.is_fuzzy_topological_group"],
    "groups.restrict_quotient": ["groups.restrict_to_subgroup", "cli.restrict_to_subgroup",
                                 "groups.restrict_to_invariant", "cli.restrict_to_invariant",
                                 "groups.quotient_action", "cli.quotient_action"],
    "lie.validate_lie": ["lie.validate_lie"],
    "lie.is_fuzzy_lie_subalgebra": ["lie.is_fuzzy_lie_subalgebra"],
    "lie.is_fuzzy_lie_ideal": ["lie.is_fuzzy_lie_ideal"],
    "manifold.check_atlas": ["manifold.check_atlas"],
    "manifold.check_tabulated_atlas": ["manifold.check_tabulated_atlas"],
    "manifold.transition_map": ["manifold.transition_map"],
    "manifold.circle_atlas": ["manifold.circle_phi_atlas", "manifold.circle_psi_atlas"],
    "manifold.gl_demo": ["manifold.gl_demo"],
    "report.render": ["report.Report.render"],
}
PARSERS = ["load_fuzzy_set", "load_map", "load_group", "load_topology", "load_action",
           "load_relation", "load_structure_constants", "load_classifier",
           "load_samples", "load_chart_table"]
for _fn in PARSERS:
    SPANS[f"parsers.{_fn}"] = [f"parsers.{_fn}", f"cli.{_fn}"]

COUNTERS = {
    "sets.union": ["sets.union", "topology.union"],
    "sets.intersection": ["sets.intersection", "topology.intersection"],
    "maps.image": ["maps.image", "topology.image"],
    "maps.preimage": ["maps.preimage", "topology.preimage"],
    "lie.bracket": ["lie.bracket"],
    "lie.grade": ["lie.MembershipClassifier.grade"],
}

LAYERS = ["cli", "parsers", "topology", "maps", "groups", "lie", "manifold", "report"]

# Tiny requests that touch every layer, run in each traced round of the
# workloads that bypass some layers.
PROBES = [
    fixtures.level_set_check(4),
    fixtures.topo_check("discrete", 2, 1),
    fixtures.topo_base(2, 1, complete=True),
    fixtures.separation("check-t1", "discrete", 2, 1),
    fixtures.separation("check-hausdorff", "discrete", 2, 1),
    fixtures.continuity("indiscrete-to-discrete", 2, 1),
    fixtures.topgroup(2, "indiscrete", 1),
    fixtures.subgroup_check("S3", good=True),
    fixtures.homomorphism(4, 2),
    fixtures.action_check("Z4", 1, broken=False),
    fixtures.invariant_check("Z3", broken=False),
    fixtures.restrict_check("S3", "subgroup"),
    fixtures.quotient_check("S3", preserved=True),
    fixtures.check_lie("heisenberg"),
    fixtures.lie_predicate("check-lie-ideal", "heisenberg", 2),
    fixtures.lie_predicate("check-lie-subalgebra", "so3", 2),
    fixtures.atlas_check(256, "smooth"),
    fixtures.demo_circle(64, normalize=True),
    fixtures.demo_gl(2),
]


# Counts taken from a span's result and charged to the span itself.
RESULT_COUNTS = {
    "topology.generate": ("topology.generate.opens", lambda tau: len(tau.opens)),
    "parsers.load_group": ("groups.table_triples", lambda group: len(group) ** 3),
}


class Tracer:
    def __init__(self):
        self.spans = []     # [label, start, end, parent index, request id]
        self.stack = []
        self.counts = {}    # (span index, counter) -> count
        self.request = ""
        self.saved = []     # (owner, attribute, original)

    def _span(self, label, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        result_count = RESULT_COUNTS.get(label)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if result_count:
                name, amount = result_count
                counts[idx, name] = counts.get((idx, name), 0) + amount(result)
            return result
        return wrapper

    def _counter(self, label, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            key = (stack[-1] if stack else -1, label)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package):
        """Wrap every listed attribute; a function bound under several
        names gets one wrapper, so a call is recorded once."""
        made = {}
        for kind, table in ((self._span, SPANS), (self._counter, COUNTERS)):
            for label, paths in table.items():
                for path in paths:
                    owner, attr = resolve(package, path)
                    fn = getattr(owner, attr)
                    if id(fn) not in made:
                        made[id(fn)] = kind(label, fn)
                    self.saved.append((owner, attr, fn))
                    setattr(owner, attr, made[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[i, k, n] for (i, k), n in self.counts.items()]}, fh)


def resolve(package, path):
    parts = path.split(".")
    owner = getattr(package, parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Package:
    """The fuzzcheck modules the wrappers patch."""

    def __init__(self, src):
        sys.path.insert(0, src)
        import fuzzcheck.cli as cli
        from fuzzcheck import groups, lie, manifold, maps, parsers, report, sets, topology
        self.cli, self.groups, self.lie, self.manifold = cli, groups, lie, manifold
        self.maps, self.parsers, self.report, self.sets = maps, parsers, report, sets
        self.topology = topology


def _over_limit(signum, frame):
    raise TimeoutError(f"request still running after {bench.REQUEST_LIMIT_S} s")


def execute(package, argv):
    """(seconds, exit code, stdout bytes) of one in-process CLI call; a
    call past the request limit is interrupted."""
    buf = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_limit)
    signal.setitimer(signal.ITIMER_REAL, bench.REQUEST_LIMIT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = package.cli.execute(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        # The CLI would end in a traceback or a timeout: not decided, but
        # the run goes on.
        bench.log(f"not decided: {argv}\n{traceback.format_exc()}")
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - t0, code, buf.getvalue().encode()


def import_times(co, repeats=3):
    """Median cumulative import time of fuzzcheck.cli and of numpy, from
    `python -X importtime`, in seconds."""
    cli_s, numpy_s = [], []
    for _ in range(repeats):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fuzzcheck.cli"],
                             env=co.env, capture_output=True, text=True).stderr
        cum = {}
        for line in err.splitlines():
            fields = line[len("import time:"):].split("|")
            if line.startswith("import time:") and len(fields) == 3 \
                    and fields[1].strip().isdigit():
                cum[fields[2].strip()] = int(fields[1]) / 1e6
        cli_s.append(cum["fuzzcheck.cli"])
        numpy_s.append(cum["numpy"])
    return statistics.median(cli_s), statistics.median(numpy_s)


def self_times(spans, first):
    """Self time of each span from index `first` on: its duration minus the
    part its direct children cover."""
    child = [0.0] * (len(spans) - first)
    for label, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent - first] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans[first:])]


def round_metrics(tracer, first, workload_requests, import_s):
    """Per-layer totals over the spans recorded from index `first` on."""
    spans = tracer.spans[first:]
    own = self_times(tracer.spans, first)
    self_s, calls, layer_s = {}, {}, {}
    for (label, _, _, _, req), t in zip(spans, own):
        key = "parsers" if label.startswith("parsers.") else label
        self_s[key] = self_s.get(key, 0.0) + t
        calls[key] = calls.get(key, 0) + 1
        if not req.startswith("probe:"):
            layer = "cli" if label == "cli.execute" else label.split(".")[0]
            layer_s[layer] = layer_s.get(layer, 0.0) + t
    counts, in_generate = {}, 0
    for (idx, name), n in tracer.counts.items():
        if idx >= first:
            counts[name] = counts.get(name, 0) + n
            if name in ("sets.union", "sets.intersection") \
                    and tracer.spans[idx][0] == "topology.generate":
                in_generate += n
    opens = counts.get("topology.generate.opens", 0)
    m = {
        "cli.execute.self_s": self_s.get("cli.execute", 0.0),
        "parsers.self_s": self_s.get("parsers", 0.0),
        "parsers.calls": calls.get("parsers", 0),
        "topology.generate.self_s": self_s.get("topology.generate", 0.0),
        "topology.generate.calls": calls.get("topology.generate", 0),
        "topology.generate.opens": opens,
        "topology.closure_yield": opens / in_generate if in_generate else 0.0,
    }
    for label, layer_names in (
        ("topology", ["verify_axioms", "is_open_base", "is_T1", "is_hausdorff", "check_map",
                      "product_topology"]),
        ("maps", ["is_fuzzy_homomorphism"]),
        ("groups", ["validate_group", "is_fuzzy_subgroup", "verify_action", "is_G_invariant",
                    "is_fuzzy_topological_group", "restrict_quotient"]),
        ("lie", ["validate_lie", "is_fuzzy_lie_subalgebra", "is_fuzzy_lie_ideal"]),
        ("manifold", ["check_atlas", "check_tabulated_atlas", "transition_map",
                      "circle_atlas", "gl_demo"]),
        ("report", ["render"]),
    ):
        for name in layer_names:
            m[f"{label}.{name}.self_s"] = self_s.get(f"{label}.{name}", 0.0)
    for name in COUNTERS:
        m[f"{name}.calls"] = counts.get(name, 0)
    m["groups.table_triples"] = counts.get("groups.table_triples", 0)
    # Layer shares of the in-process traced time; every CLI request also
    # pays one import before any span opens, which import's share counts.
    traced = sum(layer_s.values())
    for layer in LAYERS:
        m[f"layer_share.{layer}"] = layer_s.get(layer, 0.0) / traced
    paid_import = import_s * workload_requests
    m["layer_share.import"] = paid_import / (paid_import + traced)
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("layer_share.") or name.endswith(("_frac", "_yield")):
        return "ratio"
    return "count"


def run_traced(co, workload, seed, seconds):
    work = co.workdir(f"traced-{workload}-{seed}")
    cwd = os.getcwd()
    tracer = Tracer()
    try:
        requests = fixtures.build(workload, seed, work)
        probes = []
        if workload != "cli-mix":
            for i, make in enumerate(PROBES):
                req = make(work, random.Random(f"probe:{seed}:{i}"))
                req.key = "probe:" + req.key
                probes.append(req)
        refs = bench.load_refs(workload)
        package = Package(co.src)
        import_s, import_numpy_s = import_times(co)
        os.chdir(work)
        # Warm up: one untraced pass over the probes fills lazy caches.
        for req in probes or requests[:1]:
            execute(package, req.argv)

        per_round, plain_total, traced_total = [], 0.0, 0.0
        attempted = ok = drifted = 0
        start = time.perf_counter()
        order = fixtures.schedule(requests, seed, bench.ROUNDS)
        last_round = 0.0
        while True:
            now = time.perf_counter()
            if per_round and now + last_round > start + seconds:
                break
            first = len(tracer.spans)
            batch = [next(order) for _ in requests]
            for req in batch + probes:
                plain, _, _ = execute(package, req.argv)
                tracer.request = req.key
                tracer.install(package)
                try:
                    traced, code, out = execute(package, req.argv)
                finally:
                    tracer.uninstall()
                if req.key.startswith("probe:"):
                    continue
                plain_total += plain
                traced_total += traced
                attempted += 1
                good = bench.decided(req, code, out, b"", False)
                ok += good
                d = bench.drift(req, out, refs)
                drifted += bool(d)
                if not good:
                    bench.log(f"not decided (traced): {req.key} exit={code}\n{out.decode()}")
            per_round.append(round_metrics(tracer, first, len(batch), import_s))
            last_round = time.perf_counter() - now
    finally:
        os.chdir(cwd)
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["cli.import_s"] = import_s
    metrics["cli.import_numpy_s"] = import_numpy_s
    metrics["trace.overhead_frac"] = traced_total / plain_total - 1.0
    os.makedirs(os.path.join(co.scratch, "results"), exist_ok=True)
    tracer.dump(os.path.join(co.scratch, "results", f"spans-{workload}-seed{seed}.json"))
    bench.log(f"{workload} traced seed={seed}: {len(per_round)} rounds, {attempted} requests, "
              f"{ok} decided, {drifted} drifted, {len(tracer.spans)} spans")
    result = {
        "correct": ok == attempted and drifted == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    return result, {"workload": workload, "seed": seed, "rounds": len(per_round),
                    "requests": attempted, "output_drift": drifted}
