"""Fuzz sweep of the input boundary: small valid files of every format are
mutated line by line and token by token, then run through the CLI.

Whatever the mutation, the run must end in an exit code (0 to 3) rather than
a traceback, and an input error that names the mutated file must name a line
inside it.  The token alphabet stops at 9: a large `q=`, `dim` or carrier
would test the resource bounds, not the parsers.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from fuzzcheck.cli import execute

FILES = {
    "group.txt": "elements: 0 1\n0 1\n1 0\n",
    "set.txt": "0 1\n1 1/2\n",
    "ones.txt": "0 1\n1 1\n",
    "map.txt": "source: ones.txt\ntarget: set.txt\n0 -> 0\n1 -> 1\n",
    "topo.txt": "ambient: ones.txt\nq=2\ngen:\n0 1/2\ngen:\n1 1\n",
    "action.txt": "0 p -> p\n0 q -> q\n0 r -> r\n1 p -> q\n1 q -> p\n1 r -> r\n",
    "relation.txt": "p q\nr\n",
    "constants.txt": "dim 3\n1 2 3 1\n2 1 3 -1\n2 3 1 1\n3 2 1 -1\n3 1 2 1\n1 3 2 -1\n",
    "classifier.txt": "x1 = 0 & x2 = 0 & x3 = 0 -> 1\nx1 = 0 & x2 = 0 & x3 != 0 -> 1/4\n"
                      "default 0\n",
    "samples.txt": "vector 0 0 0\nvector 1 0 0\nvector 0 0 1\nscalar 2\nscalar -1\n",
    "chart.txt": "0.0 1.0 0.0 1.0\n0.25 0.0 1.0 1.0\n0.5 -1.0 0.0 0.5\n",
    "chart2.txt": "0.0 1.0 0.0 1.0\n0.5 0.0 1.0 1.0\n1.0 -1.0 0.0 0.5\n",
}

# (command, the file to mutate, every argument with files named by key)
CASES = [
    ("check-subgroup", "group.txt", ["group.txt", "set.txt"]),
    ("check-subgroup", "set.txt", ["group.txt", "set.txt"]),
    ("level-set", "set.txt", ["set.txt", "1/2"]),
    ("check-homomorphism", "map.txt", ["map.txt", "group.txt", "group.txt"]),
    ("check-topology", "topo.txt", ["topo.txt"]),
    ("check-topgroup", "topo.txt", ["group.txt", "topo.txt"]),
    ("check-action", "action.txt", ["group.txt", "action.txt"]),
    ("quotient", "relation.txt", ["group.txt", "action.txt", "relation.txt"]),
    ("check-lie", "constants.txt", ["constants.txt"]),
    ("check-lie-subalgebra", "classifier.txt", ["constants.txt", "classifier.txt"]),
    ("check-lie-ideal", "samples.txt",
     ["constants.txt", "classifier.txt", "--samples", "samples.txt"]),
    ("check-atlas", "chart.txt", ["chart.txt", "chart2.txt"]),
]

ALPHABET = ["nan", "inf", "1/0", "-1", "0", "1", "2", "9", "x0", "x4", "->", ":", "q=0", "",
            "z", "p", "elements:", "gen:", "ambient:", "source:", "default", "dim", "vector",
            "scalar", "1e999", "1/3"]

mutations = st.lists(
    st.tuples(st.sampled_from(["delete", "duplicate", "swap", "replace"]),
              st.integers(0, 20), st.integers(0, 20), st.sampled_from(ALPHABET)),
    min_size=1, max_size=3)


def mutate(text, ops):
    lines = text.splitlines()
    for kind, i, j, token in ops:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split(" ")
            words[j % len(words)] = token
            lines[i] = " ".join(words)
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (base / name).write_text(text, encoding="utf-8")
    return base


@pytest.mark.parametrize("command, target, args", CASES, ids=[f"{c}-{t}" for c, t, _ in CASES])
@settings(max_examples=100, deadline=None)
@given(ops=mutations)
def test_mutated_input_exits_cleanly(workdir, command, target, args, ops):
    text = mutate(FILES[target], ops)
    mutated = workdir / f"mutated-{target}"
    mutated.write_text(text, encoding="utf-8")
    argv = [str(mutated) if a == target else str(workdir / a) if a in FILES else a
            for a in args]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = execute([command, *argv, "--format", "machine"])
    assert code in (0, 1, 2, 3)
    reason = dict(line.split("=", 1) for line in buf.getvalue().splitlines()).get(
        "WITNESS_REASON", "")
    if code == 2 and str(mutated) in reason:
        at = re.match(re.escape(str(mutated)) + r":(\d+): ", reason)
        assert at is not None, reason
        assert 1 <= int(at.group(1)) <= max(1, text.count("\n")), reason
