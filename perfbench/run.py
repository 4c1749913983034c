"""fuzzcheck benchmark: time to verdict over seeded CLI workloads.

Run from the root of a fuzzcheck checkout:

    python3 perfbench/run.py --workload topology --seed 1 --seconds 40 --trace 0

With --trace 0 every request is a fresh `python -m fuzzcheck.cli ...
--format machine` process (PYTHONPATH=src), started by this one process
only after the previous one exited: a closed loop with one client.  The
inputs are generated from the seed into a scratch directory inside the
checkout, each answer is checked against the oracles in `oracles.py`, and
the stdout of each request is compared byte for byte with the reference
digests recorded for the default seed.  Calibration children, which run
no fuzzcheck code, are interleaved with the requests, and every time is
reported in reference seconds (see CALIBRATION).  The last line of stdout
is one JSON object with the end-to-end metrics.

With --trace 1 the same requests run in this process through
`fuzzcheck.cli.execute`, with timing wrappers around the public functions
of each layer (see `tracing.py`), and the per-layer metrics are printed.

`--record-refs` runs every class once on the default seed and rewrites
`refs.json`; use it only when the machine output is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fixtures  # noqa: E402

REFS = os.path.join(HERE, "refs.json")
REQUEST_LIMIT_S = 30.0     # a request still running after this is not decided
PROBE_GAP_S = 1.5          # request seconds between two rounds of probes
MIN_PROBES = 5             # probe rounds in a run too short to interleave them
ROUNDS = 1000              # more than any run can finish

# The calibration child: interpreter start, the numpy import and pure-Python
# set work, as in a CLI request, but with no fuzzcheck code in it, so a
# change to the program cannot move it.  Every time is reported in
# reference seconds: measured seconds x REFERENCE_S / the run's median
# calibration time.  On a shared host the same process can take from 0.19 s
# to 0.36 s depending on what else the host runs; the scale takes most of
# that out, as both sides of the ratio slow together.
CALIBRATION = """\
import itertools
import numpy
quads = [frozenset(c) for c in itertools.combinations(range(14), 4)][:250]
joins = {a | b for a in quads for b in quads}
assert len(joins) == 3779, len(joins)
"""
REFERENCE_S = 0.25


class Checkout:
    """Paths of the checkout the benchmark runs in, and its scratch space."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "fuzzcheck", "cli.py")):
            raise SystemExit(f"perfbench: no fuzzcheck sources under {self.src}")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.scratch = os.path.join(root, ".perfbench_work")

    def workdir(self, tag: str) -> str:
        path = os.path.join(self.scratch, f"{tag}-{os.getpid()}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def cli(argv, cwd, env, limit=REQUEST_LIMIT_S):
    """One CLI process: (wall seconds, exit code, stdout, stderr, peak RSS
    in MiB, timed out).  Peak RSS comes from the child's rusage."""
    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fuzzcheck.cli", *argv],
                                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return wall, proc.returncode, out, stderr, usage.ru_maxrss / 1024.0, wall >= limit


def machine_lines(out: bytes) -> dict:
    lines = {}
    for line in out.decode("utf-8", "replace").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            lines[key] = value
    return lines


def decided(req, code, out, stderr, timed_out) -> bool:
    """The oracle's exit code, verdict, witness and named metrics, no
    traceback, within the limit."""
    if timed_out or code != req.exit_code or b"Traceback" in stderr:
        return False
    lines = machine_lines(out)
    for key, value in req.expect.items():
        if lines.get(key) != value:
            return False
    return req.reason_prefix is None or \
        lines.get("WITNESS_REASON", "").startswith(req.reason_prefix)


def load_refs(workload: str) -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def drift(req, out: bytes, refs: dict):
    """None when the reference does not cover these inputs, else whether
    the output differs from the recorded one."""
    ref = refs.get(req.key)
    if ref is None or ref["input"] != req.input_digest:
        return None
    return hashlib.sha256(out).hexdigest() != ref["output"]


def percentile(values, pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def interquartile_mean(values) -> float:
    """Mean of the middle half: a quarter of the values dropped at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def calibrate(work) -> float:
    """Wall seconds of one calibration child, which must succeed.  It runs
    in the benchmark's own environment, without the checkout's sources."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], cwd=work,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: calibration child failed:\n{proc.stderr.decode()}")
    return wall


def run_untraced(co: Checkout, workload, seed, seconds):
    work = co.workdir(f"{workload}-{seed}")
    try:
        requests = fixtures.build(workload, seed, work)
        refs = load_refs(workload)
        subcommands = sorted({r.subcommand for r in requests})
        # Let the byte-code caches fill before anything is timed.
        cli([subcommands[0], "--help"], work, co.env)
        calibrate(work)

        per_class, probes, cals = {}, [], []

        def probe():
            cals.append(calibrate(work))
            sub = subcommands[len(probes) % len(subcommands)]
            probes.append(cli([sub, "--help"], work, co.env)[0])

        attempted = ok = drifted = covered = 0
        peak_rss = due = 0.0
        failures = []
        start = time.perf_counter()
        deadline = start + seconds
        for req in fixtures.schedule(requests, seed, ROUNDS):
            if time.perf_counter() >= deadline:
                break
            wall, code, out, err, rss, timed_out = cli(req.argv, work, co.env)
            attempted += 1
            peak_rss = max(peak_rss, rss)
            good = decided(req, code, out, err, timed_out)
            ok += good
            if not good:
                failures.append((req.key, code, out.decode(errors="replace")[-400:],
                                 err.decode(errors="replace")[-400:]))
            d = drift(req, out, refs)
            if d is not None:
                covered += 1
                drifted += d
            per_class.setdefault(req.key, []).append(wall)
            # Probes follow the requests through the whole run, so that the
            # calibration sees the same machine the requests saw.
            due += wall
            if due >= PROBE_GAP_S:
                due = 0.0
                probe()
        elapsed = time.perf_counter() - start
        while len(probes) < MIN_PROBES:
            probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scale = REFERENCE_S / statistics.median(cals)
    for key, code, out, err in failures[:5]:
        log(f"not decided: {key} exit={code}\n{out}\n{err}")
    log(f"{workload} seed={seed}: {attempted} requests, {ok} decided, "
        f"{covered} reference-covered, {drifted} drifted, {len(probes)} probe rounds, "
        f"calibration median {statistics.median(cals):.3f}s, {elapsed:.1f}s")
    for key in sorted(per_class):
        log(f"  rung {key}: median {statistics.median(per_class[key]):.3f}s "
            f"over {len(per_class[key])}")
    # Every class weighs the same: a run stops part-way through a round, and
    # raw counts would favour the classes the last round happened to reach.
    class_median = [statistics.median(ts) * scale for ts in per_class.values()]
    mix_mean = statistics.mean(class_median)
    metrics = {
        "setup_s": (statistics.median(probes) * scale, "s"),
        "verdict_s.iqm": (interquartile_mean(class_median), "s"),
        "checks_per_s": (ok / attempted / mix_mean, "1/s"),
        "decided_frac": (ok / attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    result = {
        "correct": ok == attempted and drifted == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"workload": workload, "seed": seed, "requests": attempted,
            "output_drift": drifted, "reference_covered": covered,
            "scale": scale, "calibration_s": cals, "setup_probes_s": probes,
            "verdict_s.p50": percentile(class_median, 50),
            "verdict_s.p80": percentile(class_median, 80),
            "rungs": {k: statistics.median(v) for k, v in per_class.items()},
            "request_s": per_class}
    return result, info


def record_refs(co: Checkout):
    """Run every class of every workload once on the default seed and store
    the digests of inputs and outputs; refuse if any answer is wrong."""
    refs = {}
    for workload in fixtures.WORKLOADS:
        work = co.workdir(f"refs-{workload}")
        try:
            refs[workload] = {}
            for req in fixtures.build(workload, fixtures.DEFAULT_SEED, work):
                wall, code, out, err, _, timed_out = cli(req.argv, work, co.env)
                if not decided(req, code, out, err, timed_out):
                    raise SystemExit(f"perfbench: {req.key} disagrees with its oracle:\n"
                                     f"exit={code}\n{out.decode()}\n{err.decode()}")
                refs[workload][req.key] = {"input": req.input_digest,
                                           "output": hashlib.sha256(out).hexdigest()}
                log(f"{req.key}: {wall:.3f}s")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_result(co: Checkout, name: str, payload: dict):
    out_dir = os.path.join(co.scratch, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def machine_info(co: Checkout) -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=co.env, capture_output=True, text=True).stdout.strip()
    return {"python": sys.version.split()[0], "numpy": numpy, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(fixtures.WORKLOADS))
    ap.add_argument("--seed", type=int, default=fixtures.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args(argv)
    co = Checkout(os.getcwd())
    if args.record_refs:
        record_refs(co)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        import tracing
        result, info = tracing.run_traced(co, args.workload, args.seed, args.seconds)
    else:
        result, info = run_untraced(co, args.workload, args.seed, args.seconds)
    info["machine"] = machine_info(co)
    write_result(co, f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                 {"result": result, "info": info})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
