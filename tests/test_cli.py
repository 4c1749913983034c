import contextlib
import io

import pytest

from fuzzcheck.cli import execute

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

    def test_cap_exceeded_is_three(self, tmp_path):
        amb = put(tmp_path, "amb.txt", "a 1\nb 1\n")
        topo = put(tmp_path, "topo.txt", f"ambient: {amb}\nq=4\n")
        code, out = run("check-topology", topo, "--cap", "2", "--format", "machine")
        assert code == 3
        assert lines_of(out)["VERDICT"] == "error"


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


class TestActionCommands:
    def test_check_action(self, tmp_path, z4):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        assert run("check-action", z4, act)[0] == 0

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

    def test_restrict_needs_exactly_one_mode(self, tmp_path, z4, capsys):
        act = put(tmp_path, "act.txt", Z4_TRANSLATION)
        with pytest.raises(SystemExit) as err:
            run("restrict", z4, act)
        assert err.value.code == 2

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

    def test_bad_tolerance_name_rejected(self):
        code, out = run("demo-circle", "--samples-per-chart", "64",
                        "--tolerance", "nope=1", "--format", "machine")
        assert code == 2


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
