import time
from fractions import Fraction as F

import pytest

from fuzzcheck.errors import ParseError
from fuzzcheck.groups import cyclic_group, validate_group, verify_action
from fuzzcheck.lie import bracket, validate_lie
from fuzzcheck.parsers import (
    MAX_STRUCTURE_DIM,
    load_action,
    load_chart_table,
    load_classifier,
    load_fuzzy_set,
    load_group,
    load_map,
    load_relation,
    load_samples,
    load_structure_constants,
    load_topology,
)
from fuzzcheck.sets import MAX_DECIMAL_EXPONENT, Carrier


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestFuzzySetFile:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "mu.txt", "# comment\na 1/2\nb 0.75  # inline\nc 1\n")
        mu = load_fuzzy_set(path)
        assert mu.carrier.elements == ("a", "b", "c")
        assert mu("b") == F(3, 4)

    def test_grade_out_of_range(self, tmp_path):
        path = write(tmp_path, "mu.txt", "a 5/4\n")
        with pytest.raises(ParseError) as err:
            load_fuzzy_set(path)
        assert err.value.line_no == 1
        assert "outside [0,1]" in str(err.value)

    def test_duplicate_element(self, tmp_path):
        path = write(tmp_path, "mu.txt", "a 1\na 0\n")
        with pytest.raises(ParseError) as err:
            load_fuzzy_set(path)
        assert err.value.line_no == 2

    def test_carrier_validation(self, tmp_path):
        path = write(tmp_path, "mu.txt", "a 1\n")
        with pytest.raises(ParseError):
            load_fuzzy_set(path, carrier=Carrier(("a", "b")))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "mu.txt", "# only a comment\n")
        with pytest.raises(ParseError):
            load_fuzzy_set(path)

    def test_decimal_exponent_within_bound(self, tmp_path):
        path = write(tmp_path, "mu.txt", f"a 1e-3\nb 1E-{MAX_DECIMAL_EXPONENT}\n")
        mu = load_fuzzy_set(path)
        assert mu("a") == F(1, 1000)
        assert mu("b") == F(1, 10**MAX_DECIMAL_EXPONENT)

    @pytest.mark.parametrize("literal", ["1e-10000000", "1e+10000000", "5E-1_000_000_000",
                                         "0.5e-" + "9" * 5000])
    def test_hostile_exponent_rejected_quickly(self, tmp_path, literal):
        path = write(tmp_path, "mu.txt", f"a 1\nb {literal}\n")
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            load_fuzzy_set(path)
        assert time.perf_counter() - start < 0.5
        assert err.value.line_no == 2
        assert f"{path}:2:" in str(err.value)
        assert "exponent" in str(err.value)


class TestMapFile:
    def test_basic(self, tmp_path):
        write(tmp_path, "src.txt", "x1 1\nx2 1\n")
        write(tmp_path, "tgt.txt", "y1 1\ny2 1/2\n")
        path = write(tmp_path, "f.txt",
                     "source: src.txt\ntarget: tgt.txt\nx1 -> y1\nx2 -> y1\n")
        f = load_map(path)
        assert f.of("x2") == "y1"
        assert f.target("y2") == F(1, 2)

    def test_partial_map_rejected(self, tmp_path):
        write(tmp_path, "src.txt", "x1 1\nx2 1\n")
        write(tmp_path, "tgt.txt", "y1 1\n")
        path = write(tmp_path, "f.txt", "source: src.txt\ntarget: tgt.txt\nx1 -> y1\n")
        with pytest.raises(ParseError) as err:
            load_map(path)
        assert "x2" in str(err.value)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "f.txt", "x1 -> y1\n")
        with pytest.raises(ParseError):
            load_map(path)


class TestGroupFile:
    Z2 = "elements: e g\ne g\ng e\n"

    def test_basic(self, tmp_path):
        g = load_group(write(tmp_path, "g.txt", self.Z2))
        assert validate_group(g).ok
        assert g.identity == "e" and g.op("g", "g") == "e"

    def test_short_row(self, tmp_path):
        path = write(tmp_path, "g.txt", "elements: e g\ne g\ng\n")
        with pytest.raises(ParseError) as err:
            load_group(path)
        assert err.value.line_no == 3
        assert "1 entries, expected 2" in str(err.value)

    def test_unknown_entry(self, tmp_path):
        path = write(tmp_path, "g.txt", "elements: e g\ne g\ng z\n")
        with pytest.raises(ParseError):
            load_group(path)

    def test_table_without_identity(self, tmp_path):
        path = write(tmp_path, "g.txt", "elements: a b\nb b\nb b\n")
        with pytest.raises(ParseError):
            load_group(path)


class TestTopologyFile:
    def test_basic(self, tmp_path):
        write(tmp_path, "amb.txt", "a 1\nb 1\n")
        path = write(tmp_path, "topo.txt",
                     "ambient: amb.txt\nq=2\ngen:\na 1/2\ngen:\nb 1\n")
        ambient, gens, lattice = load_topology(path)
        assert lattice.q == 2
        assert len(gens) == 2
        assert gens[0]("a") == F(1, 2) and gens[0]("b") == F(0)

    def test_unknown_element_in_generator(self, tmp_path):
        write(tmp_path, "amb.txt", "a 1\n")
        path = write(tmp_path, "topo.txt", "ambient: amb.txt\nq=2\ngen:\nz 1\n")
        with pytest.raises(ParseError) as err:
            load_topology(path)
        assert err.value.line_no == 4

    def test_missing_lattice(self, tmp_path):
        write(tmp_path, "amb.txt", "a 1\n")
        path = write(tmp_path, "topo.txt", "ambient: amb.txt\n")
        with pytest.raises(ParseError):
            load_topology(path)


class TestActionFile:
    def test_z2_swap(self, tmp_path):
        z2 = cyclic_group(2)
        # group elements print as 0 and 1
        path = write(tmp_path, "act.txt",
                     "0 p -> p\n0 q -> q\n1 p -> q\n1 q -> p\n")
        g = type(z2)(Carrier(("0", "1")),
                     (("0", "1"), ("1", "0")), "0", ("0", "1"))
        action = load_action(path, g)
        assert verify_action(action).ok
        assert action.act("1", "p") == "q"

    def test_undefined_pair(self, tmp_path):
        g = cyclic_group(2)
        path = write(tmp_path, "act.txt", "0 p -> p\n1 p -> p\n0 q -> q\n")
        with pytest.raises(ParseError):
            load_action(path, type(g)(Carrier(("0", "1")),
                                      (("0", "1"), ("1", "0")), "0", ("0", "1")))


class TestRelationFile:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "rho.txt", "p q\nr\n")
        rel = load_relation(path, Carrier(("p", "q", "r")))
        assert rel.class_of("q") == ("p", "q")

    def test_must_cover(self, tmp_path):
        path = write(tmp_path, "rho.txt", "p\n")
        with pytest.raises(ParseError):
            load_relation(path, Carrier(("p", "q")))

    def test_overlapping_classes(self, tmp_path):
        path = write(tmp_path, "rho.txt", "p q\nq\n")
        with pytest.raises(ParseError):
            load_relation(path, Carrier(("p", "q")))


class TestStructureConstantsFile:
    CROSS = ("dim 3\n"
             "1 2 3 1\n2 1 3 -1\n"
             "2 3 1 1\n3 2 1 -1\n"
             "3 1 2 1\n1 3 2 -1\n")

    def test_cross_product(self, tmp_path):
        sc = load_structure_constants(write(tmp_path, "sc.txt", self.CROSS))
        assert validate_lie(sc).ok
        assert bracket(sc, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)

    def test_one_based_indices(self, tmp_path):
        path = write(tmp_path, "sc.txt", "dim 2\n0 1 1 1\n")
        with pytest.raises(ParseError) as err:
            load_structure_constants(path)
        assert "out of range" in str(err.value)

    def test_duplicate_entry(self, tmp_path):
        path = write(tmp_path, "sc.txt", "dim 2\n1 2 1 1\n1 2 1 2\n")
        with pytest.raises(ParseError):
            load_structure_constants(path)

    def test_dimension_bounded(self, tmp_path):
        path = write(tmp_path, "sc.txt", "# huge\ndim 100000000\n1 2 3 1\n")
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            load_structure_constants(path)
        assert time.perf_counter() - start < 0.5
        assert err.value.line_no == 2
        assert str(MAX_STRUCTURE_DIM) in str(err.value)
        with pytest.raises(ParseError):
            load_structure_constants(
                write(tmp_path, "sc2.txt", f"dim {MAX_STRUCTURE_DIM + 1}\n"))

    def test_hostile_exponent_in_value_rejected(self, tmp_path):
        path = write(tmp_path, "sc.txt", "dim 2\n1 2 1 1e-10000000\n")
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            load_structure_constants(path)
        assert time.perf_counter() - start < 0.5
        assert err.value.line_no == 2


class TestClassifierFile:
    def test_z_axis(self, tmp_path):
        text = ("x1 = 0 & x2 = 0 & x3 = 0 -> 1\n"
                "x1 = 0 & x2 = 0 & x3 != 0 -> 1/4\n"
                "default 0\n")
        mu = load_classifier(write(tmp_path, "mu.txt", text), 3)
        assert mu.grade((0, 0, 0)) == F(1)
        assert mu.grade((0, 0, 2)) == F(1, 4)
        assert mu.grade((1, 1, 1)) == F(0)

    def test_sign_conditions(self, tmp_path):
        mu = load_classifier(
            write(tmp_path, "mu.txt", "x1 > 0 -> 1/2\nx1 < 0 -> 1/4\ndefault 0\n"), 1)
        assert mu.grade((3,)) == F(1, 2)
        assert mu.grade((-3,)) == F(1, 4)
        assert mu.grade((0,)) == F(0)

    def test_requires_default(self, tmp_path):
        with pytest.raises(ParseError):
            load_classifier(write(tmp_path, "mu.txt", "x1 = 0 -> 1\n"), 1)

    def test_nonzero_comparison_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_classifier(
                write(tmp_path, "mu.txt", "x1 = 1 -> 1\ndefault 0\n"), 1)


class TestSamplesFile:
    def test_basic(self, tmp_path):
        text = "vector 0 0 0\nvector 1 1/2 -2\nscalar -1\nscalar 1/2\n"
        samples = load_samples(write(tmp_path, "s.txt", text), 3)
        assert samples.vectors[1] == (F(1), F(1, 2), F(-2))
        assert samples.scalars == (F(-1), F(1, 2))

    def test_dimension_enforced(self, tmp_path):
        with pytest.raises(ParseError):
            load_samples(write(tmp_path, "s.txt", "vector 0 0\n"), 3)

    def test_zero_vector_required(self, tmp_path):
        with pytest.raises(ParseError):
            load_samples(write(tmp_path, "s.txt", "vector 1 0\n"), 2)

    def test_hostile_exponent_rejected(self, tmp_path):
        for text in ("vector 0 0\nvector 1 1e-10000000\n", "vector 0 0\nscalar 1e10000000\n"):
            start = time.perf_counter()
            with pytest.raises(ParseError) as err:
                load_samples(write(tmp_path, "s.txt", text), 2)
            assert time.perf_counter() - start < 0.5
            assert err.value.line_no == 2


class TestChartTableFile:
    def test_basic(self, tmp_path):
        text = "0.0 1.0 0.0 1.0\n0.25 0.0 1.0 1.0\n0.5 -1.0 0.0 0.5\n"
        params, points, memberships = load_chart_table(write(tmp_path, "c.txt", text))
        assert params == [0.0, 0.25, 0.5]
        assert points[1] == (0.0, 1.0)
        assert memberships[2] == 0.5

    def test_membership_range(self, tmp_path):
        with pytest.raises(ParseError):
            load_chart_table(write(tmp_path, "c.txt", "0.0 1.0 2.0\n"))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(ParseError):
            load_chart_table(write(tmp_path, "c.txt", "0 1 1\n0 1 1 1\n"))
