"""fuzzcheck's verdicts and witnesses against the benchmark's independent
oracles, on requests the benchmark's own fixture makers build from drawn
seeds.

`perfbench/oracles.py` decides each request with algorithms of its own:
joins of meets for the closure, minimal neighbourhoods for T1 and
Hausdorff, plain tuple scans for literal families, open bases, continuity
and topological groups, and level subgroups beside the pair scan for fuzzy
subgroups.
The atlas requests carry the verdict and metrics that their circle charts
are built to have: smooth or kinked tables, with or without a dip in the
cover, and the circle demo's two atlases.  Each request runs in-process
through `cli.execute`, and `perfbench/run.py`'s `decided` must accept its
exit code, verdict, witness and named metrics.  The sizes stay small: n <= 4
points, q <= 3, cyclic groups of order <= 4 at q <= 2 for topological
groups, the catalog groups the fixtures can name, at most 2,048 chart rows
and at most 512 demo samples per chart.  `perfbench/` is
imported read-only.
"""

import contextlib
import importlib
import io
import os
import random
import sys
from functools import partial

import pytest
from hypothesis import given, reject, settings, strategies as st

from fuzzcheck.cli import execute

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    bench = importlib.import_module("run")
finally:
    while PERFBENCH in sys.path:  # run.py adds its own directory too
        sys.path.remove(PERFBENCH)
fixtures = bench.fixtures

ANY_SIZE = (0, 10**6)  # a band every random closure falls in
CATALOG = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3")


def _topology(make):
    return st.builds(make, st.sampled_from(("discrete", "indiscrete", "random")),
                     st.integers(1, 4), st.integers(1, 3), st.just(ANY_SIZE))


MAKERS = {
    "check-topology": _topology(fixtures.topo_check),
    "check-t1": _topology(partial(fixtures.separation, "check-t1")),
    "check-hausdorff": _topology(partial(fixtures.separation, "check-hausdorff")),
    # One open of a closure left out makes the scan fail at a pair; n = 1
    # has no open but the cuts to leave out.
    "check-topology/literal": st.builds(fixtures.topo_literal, st.integers(2, 4), st.integers(1, 3),
                                        st.just(ANY_SIZE), st.booleans()),
    # At n = q = 1 the short base would be empty, and --base takes at least one file.
    "check-topology/base": st.builds(fixtures.topo_base, st.integers(2, 4), st.integers(1, 3),
                                     st.booleans()),
    # `identity` and `constant` draw topologies of 20 to 30 opens, a band
    # that smaller sizes never reach, so their maker would not return.
    "check-continuity": st.one_of(
        st.builds(lambda kind, size: fixtures.continuity(kind, *size),
                  st.sampled_from(("identity", "constant")),
                  st.sampled_from(((3, 3), (4, 2), (4, 3)))),
        st.builds(partial(fixtures.continuity, "indiscrete-to-discrete"), st.integers(1, 4),
                  st.integers(1, 3))),
    "check-topgroup": st.builds(fixtures.topgroup, st.integers(1, 4),
                                st.sampled_from(("indiscrete", "coset", "point")),
                                st.integers(1, 2)),
    "check-subgroup": st.builds(fixtures.subgroup_check, st.sampled_from(CATALOG), st.booleans()),
    # At 9 rows no sample falls in the dip's band, 0.45 <= t <= 0.55.  The
    # kink sits at t = 1/4, a sample when 4 divides the row count; its
    # difference quotients then jump by 2n, above lipschitz_cap 1e3 from 512
    # rows on.
    "check-atlas": st.one_of(
        st.builds(fixtures.atlas_check, st.integers(10, 2048),
                  st.sampled_from(("smooth", "dip", "dip-normalized"))),
        st.builds(fixtures.atlas_check, st.integers(128, 512).map(lambda k: 4 * k),
                  st.just("kink"))),
    "demo-circle": st.builds(fixtures.demo_circle, st.integers(64, 512), st.booleans()),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep"))


def _execute(argv, cwd):
    """(exit code, stdout bytes) of one in-process CLI call run in cwd."""
    buf, before = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf):
            code = execute(list(argv))
    finally:
        os.chdir(before)
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("command", MAKERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verdict_and_witness_match_the_oracles(command, data, work):
    make = data.draw(MAKERS[command])
    try:
        req = make(work, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    except IndexError:
        # A broken subgroup grade needs an element outside the chain's first
        # subgroup; when the seed's chain starts at the whole group, the
        # maker has none to raise.  A literal closure that holds only the
        # cuts has no open to leave out.
        reject()
    assert req.argv[0] == command.split("/")[0]  # a key may name a variant after a slash
    code, out = _execute(req.argv, work)
    assert bench.decided(req, code, out, b"", False), (req.key, req.expect, out.decode())
