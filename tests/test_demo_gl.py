"""`demo-gl` draws `numpy.random.default_rng(seed)`'s uniform stream in
integer Python (`fuzzcheck.pcg64`).  The generator must match numpy's draw
for draw, the command's machine output must match what it printed while it
called `default_rng` (recorded in `demo_gl_golden.json` with numpy 2.4.6 on
x86-64), and the command must not import `numpy.random`."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzcheck.cli import execute
from fuzzcheck.pcg64 import seed_words, uniform_draws

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = json.loads((Path(__file__).with_name("demo_gl_golden.json")).read_text())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**130), st.lists(st.integers(1, 20), min_size=1, max_size=5))
@example(0, [1])
@example(2**32 - 1, [16, 16])
@example(2**64 + 1, [9])
@example(2**128, [4])
@example(2**130, [3])
def test_draws_are_default_rngs(seed, sizes):
    """Successive calls of any size draw one stream; seeds of one to five
    32-bit words."""
    assert seed_words(seed) == np.random.SeedSequence(seed).generate_state(8, np.uint32).tolist()
    rng, draws = np.random.default_rng(seed), uniform_draws(seed)
    for size in sizes:
        assert list(itertools.islice(draws, size)) == rng.uniform(-1.0, 1.0, size=size).tolist()


@pytest.mark.parametrize("key", GOLDEN)
def test_machine_output_is_the_recorded_one(key):
    n, seed = key.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = execute(["demo-gl", "--n", n, "--count", "5", "--seed", seed,
                        "--format", "machine"])
    assert (code, buf.getvalue()) == (0, GOLDEN[key])


def test_demo_gl_leaves_numpy_random_unloaded():
    """numpy.random costs about 6 MiB, most of it OpenSSL through hashlib.
    From numpy 2.0 on, `import numpy` does not load it."""
    code = ("import sys, numpy; loaded = set(sys.modules); from fuzzcheck.cli import execute; "
            "execute(['demo-gl', '--n', '3', '--count', '2', '--format', 'machine']); "
            "print(sorted({'numpy.random', 'hashlib', 'secrets'} & set(sys.modules) - loaded))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
