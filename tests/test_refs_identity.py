"""Machine output is byte-identical to the benchmark's recorded digests.

Every workload's default-seed requests are written with
`perfbench/fixtures.py` into a temporary directory and run in-process
through `cli.execute`.  Each input digest and each stdout sha256 must equal
its entry in `perfbench/refs.json`.  An intended output change re-records
that file with `python3 perfbench/run.py --record-refs`.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys

import pytest

from fuzzcheck.cli import execute

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

with open(os.path.join(PERFBENCH, "refs.json"), encoding="utf-8") as _fh:
    REFS = json.load(_fh)


@pytest.fixture(scope="module")
def fixtures():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("fixtures")
    finally:
        sys.path.remove(PERFBENCH)


def _stdout(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            execute(list(argv))
        except SystemExit:  # argparse refusals end the process in the CLI
            pass
    return buf.getvalue().encode()


@pytest.mark.parametrize("workload", sorted(REFS))
def test_machine_output_matches_refs(workload, fixtures, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    requests = fixtures.build(workload, fixtures.DEFAULT_SEED, str(tmp_path))
    refs = REFS[workload]
    assert sorted(req.key for req in requests) == sorted(refs)
    drift = []
    for req in requests:
        ref = refs[req.key]
        if req.input_digest != ref["input"]:
            drift.append(f"{req.key}: input digest")
        elif hashlib.sha256(_stdout(req.argv)).hexdigest() != ref["output"]:
            drift.append(f"{req.key}: stdout {_stdout(req.argv).decode()!r}")
    assert not drift, "\n".join(drift)
