import argparse
import compileall
import contextlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fuzzcheck
from fuzzcheck import manifold
from fuzzcheck.cli import build_parser, execute
from fuzzcheck.manifold import Tolerances
from fuzzcheck.sets import MAX_COMMON_DENOMINATOR

Z4_GROUP = (
    "elements: 0 1 2 3\n"
    "0 1 2 3\n"
    "1 2 3 0\n"
    "2 3 0 1\n"
    "3 0 1 2\n"
)
Z4_SUBGROUP_SET = "0 1\n1 1/4\n2 1/2\n3 1/4\n"
Z4_BAD_SET = "0 1\n1 1/2\n2 1/4\n3 1/2\n"
Z4_TRANSLATION = "".join(
    f"{g} {x} -> {(int(g) + int(x)) % 4}\n"
    for g in "0123" for x in "0123"
)


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = execute(list(argv))
    return code, buf.getvalue()


def lines_of(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)


@pytest.fixture
def z4(tmp_path):
    p = tmp_path / "z4.txt"
    p.write_text(Z4_GROUP)
    return str(p)


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", Z4_SUBGROUP_SET)
        code, out = run("check-subgroup", z4, mu, "--format", "machine")
        assert code == 0
        assert lines_of(out)["VERDICT"] == "pass"

    def test_violation_is_one(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", Z4_BAD_SET)
        code, out = run("check-subgroup", z4, mu, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["VERDICT"] == "fail"
        assert fields["WITNESS_AT"] == "(pair,(1,1))"

    def test_parse_error_is_two(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", "0 5/4\n1 0\n2 0\n3 0\n")
        code, out = run("check-subgroup", z4, mu, "--format", "machine")
        assert code == 2
        fields = lines_of(out)
        assert fields["VERDICT"] == "error"
        assert "outside [0,1]" in fields["WITNESS_REASON"]
        assert "mu.txt:1" in fields["WITNESS_REASON"]

    def test_missing_file_is_two(self, z4):
        code, out = run("check-subgroup", z4, "/nonexistent/mu.txt",
                        "--format", "machine")
        assert code == 2

    def test_undecodable_byte_names_its_line(self, tmp_path):
        mu = tmp_path / "mu.txt"
        mu.write_bytes(b"a 1\n\xffb 1\n")
        code, out = run("level-set", str(mu), "1", "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == (
            f"{mu}:2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")

    def test_group_axioms_failure_is_one(self, tmp_path):
        g = put(tmp_path, "g.txt", "elements: e a b\ne a b\na e a\nb b e\n")
        mu = put(tmp_path, "mu.txt", "e 1\na 1\nb 1\n")
        code, out = run("check-subgroup", g, mu, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "group-axioms"
        assert fields["WITNESS_REASON"] == "associativity fails at ('a','a','b')"
        assert fields["WITNESS_AT"] == "(a,a,b)"

    def test_cap_exceeded_is_three(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=4\n")
        code, out = run("check-topology", topo, "--cap", "2", "--format", "machine")
        assert code == 3
        assert lines_of(out)["VERDICT"] == "error"

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_two(self, tmp_path, cap):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=4\n")
        for literal in ([], ["--literal"]):
            code, out = run("check-topology", topo, *literal, "--cap", cap, "--format", "machine")
            assert code == 2
            fields = lines_of(out)
            assert fields["VERDICT"] == "error"
            assert fields["WITNESS_REASON"] == "closure cap must be a positive integer"

    def test_literal_family_above_cap_is_three(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=1\ngen:\na 0\nb 0\ngen:\na 1\nb 1\n")
        assert run("check-topology", topo, "--literal", "--cap", "2")[0] == 0
        code, out = run("check-topology", topo, "--literal", "--cap", "1", "--format", "machine")
        assert code == 3
        assert lines_of(out)["WITNESS_REASON"] == "literal topology exceeded cap of 1 opens"


class TestDeterminism:
    def test_machine_output_byte_stable(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", Z4_BAD_SET)
        runs = {run("check-subgroup", z4, mu, "--format", "machine")[1]
                for _ in range(3)}
        runs |= {run("demo-example-2-14", "--format", "machine")[1]
                 for _ in range(2)}
        assert len(runs) == 2  # one stable output per command

    def test_gl_demo_seeded(self):
        a = run("demo-gl", "--n", "2", "--count", "5", "--seed", "9",
                "--format", "machine")
        b = run("demo-gl", "--n", "2", "--count", "5", "--seed", "9",
                "--format", "machine")
        assert a == b


class TestTopologyCommands:
    def test_generated_topology_verifies(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt",
                   f"ambient: {amb}\nq=2\ngen:\na 1/2\n")
        code, out = run("check-topology", topo, "--format", "machine")
        assert code == 0
        assert lines_of(out)["VERDICT"] == "pass"

    def test_literal_family_fails_axioms(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt",
                   f"ambient: {amb}\nq=2\ngen:\na 1/2\n")
        code, out = run("check-topology", topo, "--literal", "--format", "machine")
        assert code == 1
        assert "cut" in lines_of(out)["WITNESS_AT"]

    def test_ambient_off_the_lattice_is_two(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1/2\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=2\n")
        code, out = run("check-topology", topo, "--lattice-q", "3", "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == "ambient grades must lie in the lattice"

    def test_literal_open_above_ambient_is_refused_like_generated(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1/2\n")
        topo = put(tmp_path, "lit.txt",
                   f"ambient: {amb}\nq=2\ngen:\na 0\ngen:\na 1/2\ngen:\na 1\n")
        generated, literal = (run("check-topology", topo, *flag, "--format", "machine")
                              for flag in ([], ["--literal"]))
        assert literal == generated
        code, out = literal
        assert code == 1
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "precondition"
        assert fields["WITNESS_REASON"] == "generator exceeds ambient: grade 1 > 1/2 at 'a'"
        assert fields["WITNESS_AT"] == "a"

    def test_lattice_q_overrides_the_file(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=1\n")
        for flags, opens in (([], "2"), (["--lattice-q", "4"], "5")):
            code, out = run("check-topology", topo, *flags, "--format", "machine")
            assert code == 0
            fields = lines_of(out)
            assert fields["OPENS"] == opens
            assert not [k for k in fields if k.startswith("WITNESS_")]

    def test_base_fails_where_axioms_pass(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=1\ngen:\na 1\nb 0\n")
        code, out = run("check-topology", topo, "--base", amb, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["VERDICT"] == "fail" and fields["OPEN_BASE"] == "false"
        assert fields["WITNESS_REASON"] == "open is not a union of base members"

    def test_base_without_files_is_usage_error(self, tmp_path, capsys):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=1\n")
        with pytest.raises(SystemExit) as err:
            run("check-topology", topo, "--format", "machine", "--base")
        assert err.value.code == 2
        assert "--base: expected at least one argument" in capsys.readouterr().err

    def test_separation_commands(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        discrete = put(tmp_path, "disc.txt",
                       f"ambient: {amb}\nq=1\ngen:\na 1\nb 0\ngen:\na 0\nb 1\n")
        indiscrete = put(tmp_path, "indisc.txt", f"ambient: {amb}\nq=1\n")
        assert run("check-t1", discrete)[0] == 0
        assert run("check-hausdorff", discrete)[0] == 0
        assert run("check-t1", indiscrete)[0] == 1
        assert run("check-hausdorff", indiscrete)[0] == 1

    def test_continuity_command(self, tmp_path):
        src = put(tmp_path, "src.txt", "a 1\nb 1\n")
        f = put(tmp_path, "f.txt", f"source: {src}\ntarget: {src}\na -> a\nb -> b\n")
        indiscrete = put(tmp_path, "indisc.txt", f"ambient: {src}\nq=1\n")
        discrete = put(tmp_path, "disc.txt",
                       f"ambient: {src}\nq=1\ngen:\na 1\nb 0\ngen:\na 0\nb 1\n")
        code, out = run("check-continuity", f, indiscrete, discrete,
                        "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["CONTINUOUS"] == "false" and fields["OPEN"] == "true"
        code, out = run("check-continuity", f, discrete, indiscrete,
                        "--format", "machine")
        assert code == 0
        assert lines_of(out)["HOMEOMORPHISM"] == "false"

    def test_topgroup_command(self, tmp_path):
        z2 = put(tmp_path, "z2.txt", "elements: 0 1\n0 1\n1 0\n")
        amb = put(tmp_path, "amb.txt", "0 1\n1 1\n")
        indiscrete = put(tmp_path, "indisc.txt", f"ambient: {amb}\nq=1\n")
        point = put(tmp_path, "pt.txt", f"ambient: {amb}\nq=1\ngen:\n0 1\n1 0\n")
        assert run("check-topgroup", z2, indiscrete)[0] == 0
        code, out = run("check-topgroup", z2, point, "--format", "machine")
        assert code == 1
        assert "multiplication" in lines_of(out)["WITNESS_REASON"]

    def test_topgroup_inversion_not_continuous(self, tmp_path):
        z3 = put(tmp_path, "z3.txt", "elements: 0 1 2\n0 1 2\n1 2 0\n2 0 1\n")
        amb = put(tmp_path, "amb.txt", "0 1\n1 1\n2 1\n")
        point = put(tmp_path, "pt.txt", f"ambient: {amb}\nq=1\ngen:\n0 0\n1 1\n2 0\n")
        code, out = run("check-topgroup", z3, point, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["WITNESS_REASON"] == "inversion is not fuzzy continuous"
        assert fields["WITNESS_AT"] == "(preimage,FuzzySet('0':0, '1':1, '2':0))"

    def test_topgroup_cap_bounds_the_product_topology(self, tmp_path):
        # The discrete topology on Z3 at q=1 has 8 opens; its square has 512.
        z3 = put(tmp_path, "z3.txt", "elements: 0 1 2\n0 1 2\n1 2 0\n2 0 1\n")
        amb = put(tmp_path, "amb.txt", "0 1\n1 1\n2 1\n")
        points = "".join(f"gen:\n{x} 1\n" for x in "012")  # the missing grades are 0
        discrete = put(tmp_path, "disc.txt", f"ambient: {amb}\nq=1\n{points}")
        assert run("check-topgroup", z3, discrete, "--cap", "512")[0] == 0
        code, out = run("check-topgroup", z3, discrete, "--cap", "10", "--format", "machine")
        assert code == 3
        fields = lines_of(out)
        assert fields["VERDICT"] == "error"
        assert fields["WITNESS_REASON"] == "topology closure exceeded cap of 10 opens"


class TestActionCommands:
    def test_check_action(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        assert run("check-action", z4, act)[0] == 0

    def test_support_point_not_reached(self, tmp_path):
        trivial = put(tmp_path, "e.txt", "elements: e\ne\n")
        act = put(tmp_path, "act.txt", "e a -> a\ne b -> a\n")
        code, out = run("check-action", trivial, act, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["WITNESS_REASON"] == "support point 'b' not reached"
        assert fields["WITNESS_AT"] == "b"

    def test_check_invariant(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        const = put(tmp_path, "s.txt", "0 1/2\n1 1/2\n2 1/2\n3 1/2\n")
        assert run("check-invariant", z4, act, const)[0] == 0
        bump = put(tmp_path, "s2.txt", "0 1\n1 1/2\n2 1/2\n3 1/2\n")
        code, out = run("check-invariant", z4, act, bump, "--format", "machine")
        assert code == 1
        assert "WITNESS_AT" in out

    def test_restrict_subgroup(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        code, out = run("restrict", z4, act, "--subgroup", "0,2",
                        "--format", "machine")
        assert code == 0
        fields = lines_of(out)
        assert fields["ACT_2_1"] == "3"

    def test_restrict_non_subgroup_is_refutation(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        code, out = run("restrict", z4, act, "--subgroup", "0,1",
                        "--format", "machine")
        assert code == 1
        assert lines_of(out)["VERDICT"] == "fail"

    def test_restrict_to_invariant_subset(self, tmp_path):
        z2 = put(tmp_path, "z2.txt", "elements: 0 1\n0 1\n1 0\n")
        act = put(tmp_path, "act.txt",
                  "0 p -> p\n0 q -> q\n0 r -> r\n1 p -> q\n1 q -> p\n1 r -> r\n")
        s = put(tmp_path, "s.txt", "p 1/2\nq 1/2\nr 0\n")
        code, out = run("restrict", z2, act, "--invariant", s, "--format", "machine")
        assert code == 0
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "invariant-restricted-action"
        assert {k: v for k, v in fields.items() if k.startswith("ACT_")} == {
            "ACT_0_P": "p", "ACT_0_Q": "q", "ACT_1_P": "q", "ACT_1_Q": "p"}
        assert not [k for k in fields if k.startswith("WITNESS_")]

    def test_restrict_needs_exactly_one_mode(self, tmp_path, z4, capsys):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        with pytest.raises(SystemExit) as err:
            run("restrict", z4, act)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fuzzcheck restrict ")

    def test_restrict_takes_one_mode_only(self, tmp_path, z4, capsys):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        with pytest.raises(SystemExit) as err:
            run("restrict", z4, act, "--subgroup", "0", "--invariant", act)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fuzzcheck restrict ")

    def test_restrict_to_the_empty_label_is_refutation(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        code, out = run("restrict", z4, act, "--subgroup", "", "--format", "machine")
        assert code == 1
        assert lines_of(out)["WITNESS_REASON"] == "not a subgroup: '' is not a group element"

    def test_quotient(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        rho = put(tmp_path, "rho.txt", "0 2\n1 3\n")
        code, out = run("quotient", z4, act, rho, "--format", "machine")
        assert code == 0
        fields = lines_of(out)
        assert fields["CLASSES"] == "2"
        assert fields["ACT_1_{0|2}"] == "{1|3}"

    def test_quotient_unpreserved_relation(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        rho = put(tmp_path, "rho.txt", "0 1\n2 3\n")
        code, out = run("quotient", z4, act, rho, "--format", "machine")
        assert code == 1
        assert lines_of(out)["VERDICT"] == "fail"


class TestPreconditions:
    """A group file that is not a group, an action table that breaks the
    action laws and constants that are not a Lie algebra are refused as a
    precondition, except by the subcommand that reports those axioms."""

    # An identity and inverses, but (aa)b = b while a(ab) = d.
    LOOP = ("elements: e a b c d\n"
            "e a b c d\na e c d b\nb d e a c\nc b d e a\nd c a b e\n")

    @pytest.fixture
    def loop_files(self, tmp_path):
        ones = put(tmp_path, "ones.txt", "e 1\na 1\nb 1\nc 1\nd 1\n")
        return {
            "ones": ones,
            "loop": put(tmp_path, "loop.txt", self.LOOP),
            "trivial": put(tmp_path, "act.txt", "".join(
                f"{g} {x} -> {x}\n" for g in "eabcd" for x in "pq")),
            "s": put(tmp_path, "s.txt", "p 1\nq 1\n"),
            "rho": put(tmp_path, "rho.txt", "p\nq\n"),
            "identity": put(tmp_path, "f.txt", f"source: {ones}\ntarget: {ones}\n"
                            + "".join(f"{x} -> {x}\n" for x in "eabcd")),
            "indiscrete": put(tmp_path, "top.txt", f"ambient: {ones}\nq=1\n"),
        }

    @pytest.mark.parametrize("argv", [
        ("check-topgroup", "loop", "indiscrete"),
        ("check-homomorphism", "identity", "loop", "loop"),
        ("check-action", "loop", "trivial"),
        ("check-invariant", "loop", "trivial", "s"),
        ("restrict", "loop", "trivial", "--subgroup", "e"),
        ("quotient", "loop", "trivial", "rho"),
    ], ids=lambda argv: argv[0])
    def test_non_group_is_refused(self, loop_files, argv):
        code, out = run(*(loop_files.get(a, a) for a in argv), "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "precondition"
        assert fields["WITNESS_REASON"] == "not a group: associativity fails at ('a','a','b')"
        assert fields["WITNESS_AT"] == "(a,a,b)"

    def test_check_subgroup_keeps_its_group_axioms_verdict(self, loop_files):
        code, out = run("check-subgroup", loop_files["loop"], loop_files["ones"],
                        "--format", "machine")
        assert code == 1
        assert lines_of(out)["PROVENANCE"] == "group-axioms"

    # Well-formed tables with no identity, and with no inverse for a.
    NON_GROUPS = {
        "no-identity": ("elements: a b\nb b\nb b\n", "table has no identity element", None),
        "no-inverse": ("elements: e a\ne a\na a\n", "element 'a' has no inverse", "a"),
    }

    @pytest.mark.parametrize("argv", [
        ("check-subgroup", "group", "missing"),
        ("check-homomorphism", "map", "group", "group"),
        ("check-topgroup", "group", "missing"),
        ("check-action", "group", "missing"),
        ("check-invariant", "group", "missing", "missing"),
        ("restrict", "group", "missing", "--subgroup", "a"),
        ("quotient", "group", "missing", "missing"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("table", NON_GROUPS)
    def test_table_without_identity_or_inverse_is_not_a_group(self, tmp_path, table, argv):
        """A refutation, exit 1, before the next file is opened; not a
        malformed file.  check-subgroup reports it as its verdict."""
        text, reason, at = self.NON_GROUPS[table]
        labels = text.split("\n", 1)[0].split()[1:]
        ones = put(tmp_path, "ones.txt", "".join(f"{x} 1\n" for x in labels))
        files = {
            "group": put(tmp_path, "g.txt", text),
            "map": put(tmp_path, "f.txt", f"source: {ones}\ntarget: {ones}\n"
                       + "".join(f"{x} -> {x}\n" for x in labels)),
            "missing": str(tmp_path / "missing.txt"),
        }
        code, out = run(*(files.get(a, a) for a in argv), "--format", "machine")
        fields = lines_of(out)
        assert (code, fields["VERDICT"]) == (1, "fail")
        if argv[0] == "check-subgroup":
            assert (fields["PROVENANCE"], fields["WITNESS_REASON"]) == ("group-axioms", reason)
        else:
            assert fields["PROVENANCE"] == "precondition"
            assert fields["WITNESS_REASON"] == f"not a group: {reason}"
        assert fields.get("WITNESS_AT") == at

    @pytest.fixture
    def collapse_files(self, tmp_path):
        """Z2 acting on {p, q} by every g.x = p, which misses q."""
        return {
            "z2": put(tmp_path, "z2.txt", "elements: 0 1\n0 1\n1 0\n"),
            "collapse": put(tmp_path, "act.txt", "0 p -> p\n0 q -> p\n1 p -> p\n1 q -> p\n"),
            "s": put(tmp_path, "s.txt", "p 1\nq 1\n"),
            "p_only": put(tmp_path, "p.txt", "p 1\nq 0\n"),
            "one_class": put(tmp_path, "rho.txt", "p q\n"),
        }

    @pytest.mark.parametrize("argv", [
        ("check-invariant", "z2", "collapse", "s"),
        ("restrict", "z2", "collapse", "--subgroup", "0"),
        ("restrict", "z2", "collapse", "--invariant", "p_only"),
        ("quotient", "z2", "collapse", "one_class"),
    ], ids=["check-invariant", "restrict-subgroup", "restrict-invariant", "quotient"])
    def test_non_action_is_refused(self, collapse_files, argv):
        code, out = run(*(collapse_files.get(a, a) for a in argv), "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "precondition"
        assert fields["WITNESS_REASON"] == "not an action: support point 'q' not reached"

    def test_check_action_keeps_its_action_laws_verdict(self, collapse_files):
        code, out = run("check-action", collapse_files["z2"], collapse_files["collapse"],
                        "--format", "machine")
        assert code == 1
        assert lines_of(out)["PROVENANCE"] == "group-action-laws"

    @pytest.mark.parametrize("command", ["check-lie-subalgebra", "check-lie-ideal"])
    def test_non_lie_constants_are_refused(self, tmp_path, command):
        sc = put(tmp_path, "sc.txt", "dim 3\n1 2 3 1\n")
        mu = put(tmp_path, "mu.txt", "default 1\n")
        code, out = run(command, sc, mu, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "precondition"
        assert fields["WITNESS_REASON"] == "not a Lie algebra: antisymmetry fails at c[0][1][2]"
        code, out = run("check-lie", sc, "--format", "machine")
        assert code == 1
        assert lines_of(out)["PROVENANCE"] == "lie-algebra-axioms"

    @pytest.mark.parametrize("command", ["check-lie-subalgebra", "check-lie-ideal"])
    @pytest.mark.parametrize("classifier, extra", [
        ("x1 = 0 -> 1\n", []),
        ("default 1\n", ["--samples", "missing.txt"]),
    ], ids=["no-default", "missing-samples"])
    def test_non_lie_constants_are_refused_before_the_next_file(
            self, tmp_path, command, classifier, extra):
        sc = put(tmp_path, "sc.txt", "dim 3\n1 2 3 1\n")
        mu = put(tmp_path, "mu.txt", classifier)
        code, out = run(command, sc, mu, *extra, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PROVENANCE"] == "precondition"
        assert fields["WITNESS_REASON"] == "not a Lie algebra: antisymmetry fails at c[0][1][2]"

    def test_samples_rule_comes_before_the_lie_axioms(self, tmp_path):
        sc = put(tmp_path, "sc.txt", "dim 4\n1 2 3 1\n")
        mu = put(tmp_path, "mu.txt", "default 1\n")
        code, out = run("check-lie-ideal", sc, mu, "--format", "machine")
        assert code == 2
        assert (lines_of(out)["WITNESS_REASON"]
                == "--samples is required for dimensions other than 3")


class TestHomomorphismCommand:
    def test_mod_two(self, tmp_path, z4):
        z2 = put(tmp_path, "z2.txt", "elements: 0 1\n0 1\n1 0\n")
        src = put(tmp_path, "src.txt", "0 1\n1 1\n2 1\n3 1\n")
        tgt = put(tmp_path, "tgt.txt", "0 1\n1 1\n")
        f = put(tmp_path, "f.txt",
                f"source: {src}\ntarget: {tgt}\n0 -> 0\n1 -> 1\n2 -> 0\n3 -> 1\n")
        assert run("check-homomorphism", f, z4, z2)[0] == 0


class TestLieCommands:
    CROSS = ("dim 3\n"
             "1 2 3 1\n2 1 3 -1\n"
             "2 3 1 1\n3 2 1 -1\n"
             "3 1 2 1\n1 3 2 -1\n")
    Z_AXIS = ("x1 = 0 & x2 = 0 & x3 = 0 -> 1\n"
              "x1 = 0 & x2 = 0 & x3 != 0 -> 1/4\n"
              "default 0\n")

    def test_check_lie(self, tmp_path):
        sc = put(tmp_path, "sc.txt", self.CROSS)
        assert run("check-lie", sc)[0] == 0
        bad = put(tmp_path, "bad.txt", "dim 2\n1 2 1 1\n")
        code, out = run("check-lie", bad, "--format", "machine")
        assert code == 1
        assert "antisymmetry" in lines_of(out)["WITNESS_REASON"]

    def test_subalgebra_and_ideal(self, tmp_path):
        sc = put(tmp_path, "sc.txt", self.CROSS)
        mu = put(tmp_path, "mu.txt", self.Z_AXIS)
        assert run("check-lie-subalgebra", sc, mu)[0] == 0
        code, out = run("check-lie-ideal", sc, mu, "--format", "machine")
        assert code == 1
        assert lines_of(out)["WITNESS_AT"].startswith("(bracket,(0,0,1),(1,1,1)")

    def test_custom_samples(self, tmp_path):
        sc = put(tmp_path, "sc.txt", self.CROSS)
        mu = put(tmp_path, "mu.txt", self.Z_AXIS)
        # without the refuting vectors in the sample set, no violation is seen
        s = put(tmp_path, "s.txt", "vector 0 0 0\nvector 0 0 1\nscalar -1\n")
        code, out = run("check-lie-ideal", sc, mu, "--samples", s,
                        "--format", "machine")
        assert code == 0

    def test_samples_required_off_dimension_three(self, tmp_path):
        sc = put(tmp_path, "sc.txt", "dim 2\n")
        mu = put(tmp_path, "mu.txt", "default 1\n")
        code, out = run("check-lie-subalgebra", sc, mu, "--format", "machine")
        assert code == 2
        assert (lines_of(out)["WITNESS_REASON"]
                == "--samples is required for dimensions other than 3")


class TestDemos:
    def test_example_demo_dual_verdict(self):
        code, out = run("demo-example-2-14", "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["SUBALGEBRA"] == "no-violation"
        assert fields["IDEAL"] == "violated"
        assert fields["WITNESS_X"] == "(0,0,1)"
        assert fields["WITNESS_Y"] == "(1,1,1)"
        assert fields["MU_BRACKET"] == "0"
        assert fields["MAX_GRADE"] == "1/4"

    def test_example_demo_subalgebra_part_passes(self):
        code, out = run("demo-example-2-14", "--part", "subalgebra",
                        "--format", "machine")
        assert code == 0

    def test_circle_demo_raw_and_normalized(self):
        code, out = run("demo-circle", "--samples-per-chart", "128",
                        "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PHI_COVER_DEFICIENCY"] == "0.5"
        assert fields["PSI_COVER_DEFICIENCY"] == "0.75"
        assert fields["PHI_TRANSITIONS_OK"] == "true"
        code, out = run("demo-circle", "--samples-per-chart", "128",
                        "--normalize-cover", "--format", "machine")
        assert code == 0

    def test_gl_demo(self):
        code, out = run("demo-gl", "--n", "1", "--count", "3", "--format", "machine")
        assert code == 0
        assert lines_of(out)["INCLUSION_RANK"] == "1"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_gl_demo_needs_a_sample(self, count):
        code, out = run("demo-gl", "--count", count, "--format", "machine")
        assert code == 2
        fields = lines_of(out)
        assert fields["VERDICT"] == "error"
        assert fields["WITNESS_REASON"] == f"--count must be between 1 and 10000, got {count}"

    @pytest.mark.parametrize("argv, reason", [
        (("demo-circle", "--samples-per-chart", "3"),
         "--samples-per-chart must be between 4 and 65536, got 3"),
        (("demo-circle", "--samples-per-chart", "-5"),
         "--samples-per-chart must be between 4 and 65536, got -5"),
        (("demo-circle", "--samples-per-chart", "65537"),
         "--samples-per-chart must be between 4 and 65536, got 65537"),
        (("demo-gl", "--count", "10001"), "--count must be between 1 and 10000, got 10001"),
        (("demo-gl", "--n", "0"), "--n must be between 1 and 4, got 0"),
        (("demo-gl", "--n", "5"), "--n must be between 1 and 4, got 5"),
        (("demo-gl", "--seed", "-1"), "--seed must be at least 0, got -1"),
    ])
    def test_demo_size_out_of_range_is_refused(self, argv, reason):
        code, out = run(*argv, "--format", "machine")
        assert code == 2
        fields = lines_of(out)
        assert (fields["VERDICT"], fields["WITNESS_REASON"]) == ("error", reason)

    @pytest.mark.parametrize("argv, builder, size", [
        (("demo-circle", "--samples-per-chart", "65536"), "circle_phi_atlas", 65536),
        (("demo-gl", "--count", "1"), "gl_demo", 1),
        (("demo-gl", "--count", "10000"), "gl_demo", 10000),
    ])
    def test_demo_size_at_the_ends_of_its_range_is_taken(self, monkeypatch, argv, builder, size):
        """The demo starts at each end of its range (demo-circle's lower end
        runs in full below); it is stopped where it starts, as the top ends
        take seconds."""
        class Started(Exception):
            pass

        def start(*args, **kwargs):
            raise Started(*args)

        monkeypatch.setattr(manifold, builder, start)
        with pytest.raises(Started) as started:
            run(*argv)
        assert size in started.value.args

    def test_circle_demo_at_four_samples_reaches_a_verdict(self):
        code, out = run("demo-circle", "--samples-per-chart", "4", "--format", "machine")
        assert code == 1
        assert lines_of(out)["WITNESS_REASON"] == (
            "cover supremum below 1 as the memberships are written")

    def test_bad_tolerance_name_rejected(self):
        code, out = run("demo-circle", "--samples-per-chart", "64",
                        "--tolerance", "nope=1", "--format", "machine")
        assert code == 2


class TestHumanFormat:
    """The default format: a header line, then one line per witness, metric
    and note.  Notes say where a pass rests on samples, and appear only here."""

    def test_pass(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", Z4_SUBGROUP_SET)
        assert run("check-subgroup", z4, mu) == (
            0, "check-subgroup: PASS  [fuzzy-subgroup-conditions]\n  order = 4\n")

    def test_fail_with_a_witness(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", Z4_BAD_SET)
        assert run("check-subgroup", z4, mu) == (1, (
            "check-subgroup: FAIL  [fuzzy-subgroup-conditions]\n"
            "  witness reason = mu('1''1')=1/4 < min=1/2\n"
            "  witness at = (pair,(1,1))\n"
            "  order = 4\n"))

    def test_lie_predicate_pass_has_its_note(self, tmp_path):
        sc = put(tmp_path, "sc.txt", TestLieCommands.CROSS)
        mu = put(tmp_path, "mu.txt", TestLieCommands.Z_AXIS)
        assert run("check-lie-subalgebra", sc, mu) == (0, (
            "check-lie-subalgebra: PASS  [fuzzy-lie-subalgebra]\n"
            "  sample_vectors = 125\n"
            "  note: no violation on the sample set; not a universal proof\n"))
        code, out = run("check-lie-ideal", sc, mu)
        assert code == 1 and "note:" not in out

    def test_tabulated_atlas_has_its_note(self, tmp_path):
        c1 = put(tmp_path, "c1.txt", "".join(f"{i/20} {i/20} {2*i/20} 1.0\n" for i in range(20)))
        c2 = put(tmp_path, "c2.txt",
                 "".join(f"{3*i/20 + 1} {i/20} {2*i/20} 1.0\n" for i in range(20)))
        assert run("check-atlas", c1, c2) == (0, (
            "check-atlas: PASS  [c1-atlas-checks]\n"
            "  charts = 2\n"
            "  cover_deficiency = 0.0\n"
            "  transitions = 2\n"
            "  transitions_ok = true\n"
            "  pair_chart0_chart1 = true\n"
            "  pair_chart1_chart0 = true\n"
            "  note: tabulated charts: derivative checks use coarse difference quotients\n"))

    @pytest.mark.parametrize("argv, note", [
        (("demo-circle", "--samples-per-chart", "128", "--normalize-cover"),
         "checked at sampled points of each chart; not a proof"),
        (("demo-gl", "--n", "1", "--count", "3"), "checked on random matrices; not a proof"),
        (("demo-example-2-14", "--part", "subalgebra"),
         "no violation on the sample set; not a universal proof"),
    ], ids=["circle", "gl", "example-2-14"])
    def test_sampled_demo_pass_ends_with_its_note(self, argv, note):
        code, out = run(*argv)
        assert code == 0 and out.startswith(f"{argv[0]}: PASS  [")
        assert out.splitlines()[-1] == f"  note: {note}"
        assert "note" not in run(*argv, "--format", "machine")[1].lower()

    @pytest.mark.parametrize("argv", [
        ("demo-circle", "--samples-per-chart", "128"),
        ("demo-example-2-14",),
    ], ids=["circle", "example-2-14"])
    def test_sampled_demo_fail_has_no_note(self, argv):
        code, out = run(*argv)
        assert code == 1 and ": FAIL  [" in out and "note:" not in out


class TestLevelSetCommand:
    def test_members_listed(self, tmp_path):
        mu = put(tmp_path, "mu.txt", "a 1\nb 1/2\nc 1/4\n")
        code, out = run("level-set", mu, "1/2", "--format", "machine")
        assert code == 0
        fields = lines_of(out)
        assert fields["MEMBERS"] == "a,b" and fields["SIZE"] == "2"


class TestAtlasCommand:
    def test_tabulated_atlas(self, tmp_path):
        rows1 = "".join(f"{i/20} {i/20} {2*i/20} 1.0\n" for i in range(20))
        rows2 = "".join(f"{3*i/20 + 1} {i/20} {2*i/20} 1.0\n" for i in range(20))
        c1 = put(tmp_path, "c1.txt", rows1)
        c2 = put(tmp_path, "c2.txt", rows2)
        code, out = run("check-atlas", c1, c2, "--format", "machine")
        assert code == 0
        assert lines_of(out)["TRANSITIONS_OK"] == "true"

    @pytest.mark.filterwarnings("error")
    def test_repeated_param_fails_without_warnings(self, tmp_path):
        c0 = put(tmp_path, "c0.txt", "0.1 1 1\n0.1 2 1\n0.3 3 1\n0.4 4 1\n")
        c1 = put(tmp_path, "c1.txt", "0.1 1 1\n0.2 2 1\n0.3 3 1\n0.4 4 1\n")
        code, out = run("check-atlas", c0, c1, "--format", "machine")
        assert code == 1
        fields = lines_of(out)
        assert fields["PAIR_CHART0_CHART1"] == "false"
        assert fields["WITNESS_REASON"] == "not injective on the table"
        assert fields["WITNESS_AT"] == "0.1"

    @pytest.mark.parametrize("row", ["nan 2 1", "inf 2 1", "0.1 -inf 1", "0.1 nan 1"])
    def test_non_finite_param_or_coordinate_is_two(self, tmp_path, row):
        c0 = put(tmp_path, "c0.txt", f"0.0 1 1\n{row}\n0.2 3 1\n0.3 4 1\n")
        c1 = put(tmp_path, "c1.txt", "0.0 1 1\n0.1 2 1\n0.2 3 1\n0.3 4 1\n")
        code, out = run("check-atlas", c0, c1, "--format", "machine")
        assert code == 2
        fields = lines_of(out)
        assert "c0.txt:2" in fields["WITNESS_REASON"]
        assert "finite" in fields["WITNESS_REASON"]

    def test_repeated_point_names_its_row(self, tmp_path):
        rows = "".join(f"{i / 100} {i / 100} 1\n" for i in range(100))
        c0 = put(tmp_path, "c0.txt", rows)
        c1 = put(tmp_path, "c1.txt", rows + "9.0 0.5 1\n")
        code, out = run("check-atlas", c0, c1, "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == f"{c1}:101: point 0.5 already listed on line 51"

    def test_a_point_both_charts_list_is_one_sample(self, tmp_path):
        c0 = put(tmp_path, "c0.txt", "".join(f"{i / 10} {i} {i % 3} 1\n" for i in range(10)))
        c1 = put(tmp_path, "c1.txt", "".join(f"{2 * i / 10} {i} {i % 3} 1\n" for i in range(10)))
        code, out = run("check-atlas", c0, c1, "--format", "machine")
        fields = lines_of(out)
        assert (code, fields["CHARTS"], fields["TRANSITIONS"]) == (0, "2", "2")

    def test_a_repeat_in_the_second_chart_names_that_chart_s_line(self, tmp_path):
        c0 = put(tmp_path, "c0.txt", "0 0.5 1\n1 1 1\n2 2 1\n")
        c1 = put(tmp_path, "c1.txt", "0 3 1\n1 4 1\n2 0.5 1\n3 5 1\n4 0.50 1\n")
        code, out = run("check-atlas", c0, c1, "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == f"{c1}:5: point 0.50 already listed on line 3"

    @pytest.mark.parametrize("order, point", [("ab", "(-0.0,1.0)"), ("ba", "(0.0,1.0)")])
    def test_points_match_by_value_and_keep_the_first_spelling(self, tmp_path, order, point):
        """-0.0 and 0.0, 0.5 and 0.50 are one point; the first chart's
        spelling names it."""
        files = {"a": put(tmp_path, "a.txt", "0.0 -0.0 1.0 0.5\n0.1 0.5 2 1\n0.2 1 3 1\n"),
                 "b": put(tmp_path, "b.txt", "1.0 0.0 1.0 0.5\n1.1 0.50 2 1\n1.2 1 3 1\n")}
        code, out = run("check-atlas", *(files[c] for c in order), "--format", "machine")
        fields = lines_of(out)
        assert (code, fields["TRANSITIONS"], fields["TRANSITIONS_OK"]) == (1, "2", "true")
        assert fields["WITNESS_REASON"] == "cover supremum below 1"
        assert fields["WITNESS_AT"] == fields["COVER_WORST_POINT"] == point


class TestToleranceValues:
    """A NaN bound fails every comparison and so switches its check off; a
    zero step divides by zero.  Both exit 2 naming the tolerance."""

    def test_nan_cap_cannot_pass_a_jump(self, tmp_path):
        c0 = put(tmp_path, "c0.txt", "".join(f"{i/1000} {i/1000} 1\n" for i in range(1000)))
        c1 = put(tmp_path, "c1.txt", "".join(
            f"{i/1000 if i < 500 else 3 * i/1000 - 1} {i/1000} 1\n" for i in range(1000)))
        code, out = run("check-atlas", c0, c1, "--format", "machine")
        assert code == 1 and "jumps" in lines_of(out)["WITNESS_REASON"]
        assert run("check-atlas", c0, c1, "--tolerance", "lipschitz_cap=1e4")[0] == 0
        code, out = run("check-atlas", c0, c1, "--tolerance", "lipschitz_cap=nan",
                        "--format", "machine")
        assert code == 2
        assert "lipschitz_cap" in lines_of(out)["WITNESS_REASON"]

    @pytest.mark.parametrize("item", ["eps_deriv=nan", "eps_inv=inf", "cover_eps=-1",
                                      "h_min=0", "h0=0", "h0=-0.001"])
    def test_non_finite_negative_or_zero_step_is_two(self, item):
        code, out = run("demo-circle", "--samples-per-chart", "64",
                        "--tolerance", item, "--format", "machine")
        assert code == 2
        assert item.split("=")[0] in lines_of(out)["WITNESS_REASON"]

    @pytest.mark.parametrize("item", ["h0=abc", "eps_inv=one", "cover_eps=1/2"])
    def test_non_number_names_the_tolerance(self, item):
        code, out = run("demo-circle", "--samples-per-chart", "64",
                        "--tolerance", item, "--format", "machine")
        name, value = item.split("=")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == (
            f"tolerance {name} must be finite and >= 0 (> 0 for h0), got {value}")

    def test_item_without_equals_sign_is_two(self):
        code, out = run("demo-circle", "--samples-per-chart", "64",
                        "--tolerance", "h0", "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == "--tolerance expects name=value, got 'h0'"

    @pytest.mark.parametrize("name", ["eps_inv", "eps_deriv", "h0", "h_min",
                                      "edge_margin_frac", "seam_margin_factor"])
    def test_check_atlas_refuses_what_it_does_not_read(self, tmp_path, name):
        """A tabulated atlas has no formulas to differentiate."""
        c = put(tmp_path, "c.txt", "0.0 1 1\n0.1 2 1\n0.2 3 1\n0.3 4 1\n")
        code, out = run("check-atlas", c, c, "--tolerance", f"{name}=0.5",
                        "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == (
            f"unknown tolerance {name!r}; known: ['cover_eps', 'lipschitz_cap']")

    def test_check_atlas_reads_cover_eps(self, tmp_path):
        half = put(tmp_path, "half.txt", "".join(f"{i/100} {i/100} 0.5\n" for i in range(100)))
        assert run("check-atlas", half, half)[0] == 1
        assert run("check-atlas", half, half, "--tolerance", "cover_eps=0.5")[0] == 0

    @pytest.mark.parametrize("name", Tolerances._fields)
    def test_demo_circle_takes_every_tolerance(self, name):
        plain = run("demo-circle", "--samples-per-chart", "64", "--format", "machine")
        assert run("demo-circle", "--samples-per-chart", "64", "--format", "machine",
                   "--tolerance", f"{name}={getattr(Tolerances(), name)}") == plain

    @pytest.mark.parametrize("name", ["edge_margin_frac", "seam_margin_factor"])
    def test_demo_circle_margins_are_no_tolerance(self, name):
        """The C1 scan's edge and seam margins are the module constants."""
        code, out = run("demo-circle", "--samples-per-chart", "64", "--format", "machine",
                        "--tolerance", f"{name}=0.5")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"].startswith(f"unknown tolerance {name!r}")

    def test_h_min_is_no_tolerance(self):
        """The stability tolerance's reference step is the constant H_REF."""
        code, out = run("demo-circle", "--samples-per-chart", "64",
                        "--tolerance", "h_min=1e-5", "--format", "machine")
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"].startswith("unknown tolerance 'h_min'; known:")

    def test_rank_rtol_is_no_tolerance(self):
        code, _ = run("demo-circle", "--samples-per-chart", "64",
                      "--tolerance", "rank_rtol=1", "--format", "machine")
        assert code == 2


class TestRejectedLines:
    """Repeated headers, duplicate generator elements and map or action
    lines naming points outside their sets exit 2 with file:line."""

    def reason(self, *argv):
        code, out = run(*argv, "--format", "machine")
        assert code == 2
        return lines_of(out)["WITNESS_REASON"]

    def topology(self, tmp_path, body):
        put(tmp_path, "amb.txt", "a 1\nb 1\n")
        put(tmp_path, "amb2.txt", "a 1\nc 1\n")
        return put(tmp_path, "topo.txt", body)

    def test_duplicate_generator_element(self, tmp_path):
        topo = self.topology(tmp_path, "ambient: amb.txt\nq=2\ngen:\na 1/2\na 1\n")
        reason = self.reason("check-topology", topo)
        assert "topo.txt:5" in reason and "duplicate element 'a'" in reason

    def test_second_ambient(self, tmp_path):
        topo = self.topology(tmp_path, "ambient: amb.txt\nq=2\ngen:\na 1/2\nambient: amb2.txt\n")
        assert "topo.txt:5" in self.reason("check-topology", topo)

    def test_second_lattice(self, tmp_path):
        topo = self.topology(tmp_path, "ambient: amb.txt\nq=2\nq=3\ngen:\na 1/2\n")
        assert "topo.txt:3" in self.reason("check-topology", topo)

    def map_file(self, tmp_path, lines):
        put(tmp_path, "src.txt", "0 1\n1 1\n2 1\n3 1\n")
        put(tmp_path, "tgt.txt", "0 1\n1 1\n")
        put(tmp_path, "z2.txt", "elements: 0 1\n0 1\n1 0\n")
        return put(tmp_path, "f.txt", "source: src.txt\ntarget: tgt.txt\n" + lines)

    @pytest.mark.parametrize("header", ["source: src.txt", "target: tgt.txt"])
    def test_second_map_header(self, tmp_path, z4, header):
        f = self.map_file(tmp_path, f"0 -> 0\n{header}\n1 -> 1\n2 -> 0\n3 -> 1\n")
        reason = self.reason("check-homomorphism", f, z4, str(tmp_path / "z2.txt"))
        assert "f.txt:4" in reason

    @pytest.mark.parametrize("line", ["9 -> 0", "1 -> 7"])
    def test_map_line_outside_source_or_target(self, tmp_path, z4, line):
        body = "0 -> 0\n1 -> 1\n2 -> 0\n3 -> 1\n".replace("1 -> 1", line)
        if line.startswith("9"):
            body += "1 -> 1\n"
        f = self.map_file(tmp_path, body)
        reason = self.reason("check-homomorphism", f, z4, str(tmp_path / "z2.txt"))
        assert "f.txt:4" in reason

    def test_action_value_outside_space(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION.replace("1 2 -> 3", "1 2 -> 9"))
        reason = self.reason("check-action", z4, act)
        assert "act.txt:7" in reason and "'9'" in reason

    def test_second_dim(self, tmp_path):
        sc = put(tmp_path, "sc.txt", "dim 3\n1 2 3 1\n2 1 3 -1\ndim 2\n")
        assert "sc.txt:4: repeated 'dim' line" in self.reason("check-lie", sc)

    def test_second_default(self, tmp_path):
        sc = put(tmp_path, "sc.txt", TestLieCommands.CROSS)
        mu = put(tmp_path, "mu.txt", TestLieCommands.Z_AXIS.replace(
            "default 0\n", "default 1/4\ndefault 0\n"))
        assert "mu.txt:4: repeated 'default' line" in self.reason("check-lie-subalgebra", sc, mu)

    def test_element_outside_carrier_names_its_line(self, tmp_path, z4):
        mu = put(tmp_path, "mu.txt", Z4_SUBGROUP_SET + "z 1\n")
        reason = self.reason("check-subgroup", z4, mu)
        assert "mu.txt:5: element 'z' not in the carrier" in reason


class TestFlagsPerCommand:
    """Each subcommand accepts only the flags its handler reads; any other
    flag is a usage error, not silently ignored."""

    @pytest.mark.parametrize("argv", [
        ["check-subgroup", "G", "MU", "--cap", "5"],
        ["check-subgroup", "G", "MU", "--tolerance", "foo=1"],
        ["check-lie", "SC", "--samples", "S"],
        ["level-set", "MU", "1/2", "--lattice-q", "4"],
        ["check-topology", "T", "--normalize-cover"],
        ["check-atlas", "C", "--cap", "5"],
        ["demo-gl", "--tolerance", "h0=1"],
    ])
    def test_ignored_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["demo-circle", "--samples", "16"],
        ["check-subgroup", "G", "MU", "--form", "machine"],
        ["check-atlas", "C", "--norm"],
    ])
    def test_abbreviation_is_usage_error(self, argv, capsys):
        """A flag is spelled in full: a prefix of another flag is not read as it."""
        with pytest.raises(SystemExit) as err:
            run(*argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


SRC = str(Path(fuzzcheck.__file__).resolve().parents[1])


def spawn(*argv, script=None, stdout=subprocess.PIPE):
    """The CLI as users start it: a fresh `python -m fuzzcheck.cli` (or, with
    `script`, `python -c script`) with PYTHONUNBUFFERED unset, so stdout is
    a block-buffered pipe.  Returns the finished CompletedProcess."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    cmd = ["-c", script] if script is not None else ["-m", "fuzzcheck.cli"]
    return subprocess.run([sys.executable, *cmd, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


def raising_main(exc):
    """A `-c` script whose handler prints a line, then raises `exc`."""
    return ("from fuzzcheck import cli\n"
            "def execute(argv=None):\n"
            "    print('partial')\n"
            f"    raise {exc}\n"
            "cli.execute = execute\n"
            "cli.main()\n")


class TestEntryPoint:
    """`main()` ends the process with os._exit once the report is flushed;
    stdout and the exit code must be what `execute` gives in-process."""

    def cases(self, tmp_path, z4):
        good = put(tmp_path, "good.txt", Z4_SUBGROUP_SET)
        bad = put(tmp_path, "bad.txt", Z4_BAD_SET)
        broken = put(tmp_path, "broken.txt", "0 5/4\n1 0\n2 0\n3 0\n")
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=4\n")
        return {
            0: ["check-subgroup", z4, good, "--format", "machine"],
            1: ["check-subgroup", z4, bad],
            2: ["check-subgroup", z4, broken, "--format", "machine"],
            3: ["check-topology", topo, "--cap", "2"],
        }

    def test_exit_codes_and_stdout_match_execute(self, tmp_path, z4):
        for code, argv in self.cases(tmp_path, z4).items():
            proc = spawn(*argv)
            assert (proc.returncode, proc.stderr) == (code, b""), argv
            assert run(*argv) == (code, proc.stdout.decode()), argv

    def test_import_generates_no_code(self):
        """The value classes are plain classes: importing the CLI leaves
        `dataclasses`, whose decorator writes and execs methods, unloaded."""
        proc = spawn(script="import sys, fuzzcheck.cli; print('dataclasses' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

    def test_every_fuzzcheck_module_is_imported_before_numpy(self):
        """The import system looks a module up before it compiles it, so this
        holds exactly when all of fuzzcheck compiles before numpy loads; see
        TestCompileMemory for why that matters.  (sys.modules cannot tell:
        a module moves to its end when its own imports are done.)"""
        proc = spawn(script=(
            "import sys\n"
            "class Spy:\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name == 'numpy' or name.startswith('fuzzcheck'):\n"
            "            print(name)\n"
            "sys.meta_path.insert(0, Spy)\n"
            "import fuzzcheck.cli\n"))
        assert (proc.returncode, proc.stderr) == (0, b"")
        names = proc.stdout.decode().split()
        assert names[names.index("numpy"):] == ["numpy"]

    def test_help_is_zero(self):
        proc = spawn("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: fuzzcheck")

    def test_usage_error_is_two_with_argparse_message(self):
        proc = spawn("check-subgroup")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"usage: fuzzcheck check-subgroup")
        assert proc.stderr.endswith(
            b"error: the following arguments are required: group, fuzzy_set\n")

    def test_raising_handler_prints_traceback_and_exits_one(self):
        proc = spawn(script=raising_main("RuntimeError('handler broke')"))
        assert (proc.returncode, proc.stdout) == (1, b"partial\n")
        assert proc.stderr.startswith(b"Traceback (most recent call last):")
        assert proc.stderr.endswith(b"RuntimeError: handler broke\n")

    def test_non_int_exit_code_leaves_through_the_interpreter(self):
        proc = spawn(script=raising_main("SystemExit('no report')"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"partial\n", b"no report\n")

    def test_failed_flush_is_reported_by_the_interpreter(self, tmp_path, z4):
        """With the reader gone the flush fails; the interpreter then reports
        the unflushable stdout and exits 120, as it did before os._exit."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = spawn(*self.cases(tmp_path, z4)[0], stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 120
        assert b"BrokenPipeError" in proc.stderr


class TestCommonDenominator:
    """The grades of one file may not combine into a common denominator
    above MAX_COMMON_DENOMINATOR; FuzzySet would rescale every grade to it."""

    @staticmethod
    def prime_file(tmp_path, n=8000):
        limit = 90_000  # the 8,000th prime is 81,799
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
        primes = [i for i in range(limit) if sieve[i]][:n]
        assert len(primes) == n
        # The line on which the product of the primes so far passes the bound.
        product, line = 1, 0
        while product <= MAX_COMMON_DENOMINATOR:
            product *= primes[line]
            line += 1
        path = put(tmp_path, "primes.txt", "".join(f"e{i} 1/{p}\n" for i, p in enumerate(primes)))
        return path, line

    def test_prime_denominators_exit_two_at_their_line(self, tmp_path):
        path, line = self.prime_file(tmp_path)
        start = time.perf_counter()
        code, out = run("level-set", path, "1/2", "--format", "machine")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert lines_of(out)["WITNESS_REASON"] == (
            f"{path}:{line}: common denominator of the grades exceeds 10**1000")

    # Spawns the CLI, waits for it and prints its exit code and wait4 peak
    # RSS in KiB.  On Linux a child's ru_maxrss counts its parent's RSS at
    # spawn time, so the CLI is spawned from this small interpreter rather
    # than from pytest, whose own RSS depends on the tests that ran before.
    LAUNCHER = ("import os, sys; "
                "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ); "
                "_, status, usage = os.wait4(pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")

    def test_prime_denominators_stay_small_in_memory(self, tmp_path):
        """Before the bound, this file peaked at 151 MiB."""
        path, line = self.prime_file(tmp_path)
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.run([sys.executable, "-c", self.LAUNCHER, "-m", "fuzzcheck.cli",
                                   "level-set", path, "1/2", "--format", "machine"],
                                  env=env, stdout=subprocess.PIPE, stderr=err)
        assert proc.returncode == 0
        out, _, tail = proc.stdout.rstrip(b"\n").rpartition(b"\n")
        code, maxrss_kib = map(int, tail.split())
        assert code == 2
        assert f"primes.txt:{line}:".encode() in out
        assert maxrss_kib / 1024 < 80  # MiB

    def test_one_large_denominator_is_still_read(self, tmp_path):
        q = 10**2000 + 1
        mu = put(tmp_path, "mu.txt", f"a 1/{q}\nb 2/{q}\nc 1\n")
        code, out = run("level-set", mu, f"2/{q}", "--format", "machine")
        assert code == 0
        assert lines_of(out)["MEMBERS"] == "b,c"


class TestAtlasMemory:
    @staticmethod
    def circle_tables(tmp_path, n):
        """Two smooth charts of the unit circle sampled at t = k/n: the
        angle t off a band around t = 0, and t or t - 1 off a band around
        t = 1/2."""
        rows = ([], [])
        for k in range(n):
            t = k / n
            point = f"{math.sin(2 * math.pi * t)!r} {math.cos(2 * math.pi * t)!r}"
            if 0.05 <= t <= 0.95:
                rows[0].append(f"{t!r} {point} 1.0\n")
            if not 0.45 <= t <= 0.55:
                rows[1].append(f"{t if t < 0.5 else t - 1.0!r} {point} 1.0\n")
        return [put(tmp_path, f"chart{j}_{n}.txt", "".join(r)) for j, r in enumerate(rows)]

    def test_a_large_atlas_stays_small_in_memory(self, tmp_path):
        """Chart tables of 16,384 rows peaked 11.5 MiB above tables of 64
        rows while each chart kept its rows in dicts and lists of floats,
        5.3 MiB above while the charts kept each point as a tuple, and 2.4
        MiB above with the coordinates in float columns.  Since the CLI
        compiles all of fuzzcheck before numpy loads, the 64-row request
        peaks about 1.3 MiB lower and the gap read 3.0 MiB: the larger
        request's data once filled the compiler's freed memory.  With each
        table one row-major buffer, the gap reads 2.7 MiB (medians of 9
        launches: 29.75 and 32.47 MiB, against 29.76 and 32.80 with one
        buffer per column).  A table's columns grew side by side, so their
        reallocations interleaved and left freed blocks between them; one
        buffer grows in place."""
        def peak(n):
            return passing_peak_mib("check-atlas", *self.circle_tables(tmp_path, n))
        assert peak(16384) - peak(64) <= 4


def passing_peak_mib(*argv, **env):
    """The wait4 peak RSS, in MiB, of a CLI request that must pass, spawned
    through TestCommonDenominator.LAUNCHER with `env` added to its
    environment."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    proc = subprocess.run([sys.executable, "-c", TestCommonDenominator.LAUNCHER,
                           "-m", "fuzzcheck.cli", *argv, "--format", "machine"],
                          env=env, stdout=subprocess.PIPE)
    assert proc.returncode == 0
    out, _, tail = proc.stdout.rstrip(b"\n").rpartition(b"\n")
    code, maxrss_kib = map(int, tail.split())
    assert code == 0 and lines_of(out.decode())["VERDICT"] == "pass"
    return maxrss_kib / 1024


class TestActionMemory:
    @staticmethod
    def cyclic_files(tmp_path, n):
        """Z_n, labelled g0 ... g(n-1), and its action on 2n points turning
        two rings of n points, p0 ... and q0 ...."""
        labels = [f"g{i}" for i in range(n)]
        rows = "".join(" ".join(labels[i:] + labels[:i]) + "\n" for i in range(n))
        action = "".join(f"g{i} {ring}{k} -> {ring}{(i + k) % n}\n"
                         for i in range(n) for ring in "pq" for k in range(n))
        return (put(tmp_path, f"z{n}.txt", "elements: " + " ".join(labels) + "\n" + rows),
                put(tmp_path, f"z{n}-action.txt", action))

    def test_a_large_action_stays_small_in_memory(self, tmp_path):
        """Z120 on 240 points peaked 11.9 MiB above Z4 on 8 points while the
        parsers kept a fresh string per cell and a (g, x) -> (y, line) dict,
        and 0.6 MiB above with one string per label.  Since the CLI compiles
        all of fuzzcheck before numpy loads, Z4 peaks about 1.3 MiB lower
        and Z120 about 0.1, so the gap reads 1.7 MiB."""
        def peak(n):
            return passing_peak_mib("check-action", *self.cyclic_files(tmp_path, n))
        assert peak(120) - peak(4) <= 3


class TestCompileMemory:
    def test_compiling_from_source_adds_little_to_the_peak(self, tmp_path):
        """A request that compiles fuzzcheck from source peaked 1.4 MiB above
        one that reads its bytecode while the CLI imported numpy before the
        modules it compiled last: the compiler's freed memory then sat on
        top of numpy's.  Each side runs a fresh copy of the package with
        PYTHONDONTWRITEBYTECODE set, so no request writes bytecode, and only
        the bytecode copy holds any; numpy's own cached bytecode serves both."""
        mu = put(tmp_path, "mu.txt", "a 1\nb 1/2\nc 1/4\nd 0\n")
        copies = {side: tmp_path / side for side in ("source", "bytecode")}
        for copy in copies.values():
            shutil.copytree(Path(SRC) / "fuzzcheck", copy / "fuzzcheck",
                            ignore=shutil.ignore_patterns("__pycache__"))
        assert compileall.compile_dir(copies["bytecode"] / "fuzzcheck", quiet=1)

        def peak(side):
            return statistics.median(
                passing_peak_mib("level-set", mu, "1/2", PYTHONPATH=str(copies[side]),
                                 PYTHONDONTWRITEBYTECODE="1")
                for _ in range(5))
        assert peak("source") - peak("bytecode") <= 0.5


class TestReadmeSynopsis:
    def test_synopsis_lists_exactly_the_subcommands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```", 2)[1]
        listed = [line.split()[1] for line in block.splitlines()
                  if line.startswith("fuzzcheck ")]
        parsers = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        assert listed == list(parsers.choices)


class TestWitnessSelfAudit:
    """Failure witnesses printed by the CLI must refute the property when
    re-evaluated against the library definitions."""

    def test_subgroup_witness_refutes(self, tmp_path, z4):
        from fractions import Fraction as F

        from fuzzcheck.groups import cyclic_group
        from fuzzcheck.sets import FuzzySet

        mu_file = put(tmp_path, "mu.txt", Z4_BAD_SET)
        _, out = run("check-subgroup", z4, mu_file, "--format", "machine")
        assert lines_of(out)["WITNESS_AT"] == "(pair,(1,1))"
        g = cyclic_group(4)
        mu = FuzzySet(g.carrier, (F(1), F(1, 2), F(1, 4), F(1, 2)))
        x = y = 1
        assert mu(g.op(x, y)) < min(mu(x), mu(y))

    def test_ideal_witness_refutes(self):
        from fractions import Fraction as F

        from fuzzcheck.lie import bracket, cross_product_fixture

        _, out = run("demo-example-2-14", "--format", "machine")
        fields = lines_of(out)
        assert fields["WITNESS_X"] == "(0,0,1)" and fields["WITNESS_Y"] == "(1,1,1)"
        sc, mu, _ = cross_product_fixture()
        x, y = (0, 0, 1), (1, 1, 1)
        assert mu.grade(bracket(sc, x, y)) == F(0)
        assert max(mu.grade(x), mu.grade(y)) == F(1, 4)
