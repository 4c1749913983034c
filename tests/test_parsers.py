import time
from fractions import Fraction as F
from functools import partial

import pytest

from fuzzcheck.errors import ParseError
from fuzzcheck.groups import FiniteGroup, cyclic_group, validate_group, verify_action
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


# --- golden messages ---------------------------------------------------------------------
# One row per message a file can trigger: (loader, file text, line, message).  `{dir}` in a
# message stands for the directory holding the file.  Every row asserts the whole
# `path:line: message` string, so a reworded or moved error shows up here.

Z2 = FiniteGroup.from_table(("0", "1"), (("0", "1"), ("1", "0")))
ABC = Carrier(("a", "b", "c"))
AUX = {"src.txt": "x1 1\nx2 1\n", "tgt.txt": "y1 1\ny2 1\n", "amb.txt": "a 1\nb 1\n"}
HEAD = "source: src.txt\ntarget: tgt.txt\n"
MISSING = "[Errno 2] No such file or directory: '{dir}/nope.txt'"
on_ab = partial(load_fuzzy_set, carrier=Carrier(("a", "b")))
on_z2 = partial(load_action, group=Z2)
on_abc = partial(load_relation, space=ABC)
dim3 = partial(load_classifier, dim=3)
dim2 = partial(load_samples, dim=2)

GOLDEN = {
    "set-pair": (load_fuzzy_set, "a\n", 1, "expected 'element grade'"),
    "set-duplicate": (load_fuzzy_set, "a 1\na 0\n", 2, "duplicate element 'a'"),
    "set-unparsable": (load_fuzzy_set, "a 1\nb x\n", 2, "cannot parse grade 'x'"),
    "set-zero-denominator": (load_fuzzy_set, "a 1/0\n", 1, "cannot parse grade '1/0'"),
    "set-range": (load_fuzzy_set, "a 1\nb 5/4\n", 2, "grade outside [0,1]: '5/4'"),
    "set-exponent": (load_fuzzy_set, "a 1e-2000\n", 1, "exponent of '1e-2000' exceeds 1000"),
    "set-empty": (load_fuzzy_set, "# none\n", 1, "empty fuzzy set file"),
    "set-stray": (on_ab, "a 1\nz 1\n", 2, "element 'z' not in the carrier"),
    "set-no-grade": (on_ab, "a 1\n", 1, "element 'b' has no grade"),
    "map-repeated-source": (load_map, HEAD + "source: src.txt\n", 3, "repeated 'source:' line"),
    "map-repeated-target": (load_map, HEAD + "target: tgt.txt\n", 3, "repeated 'target:' line"),
    "map-no-arrow": (load_map, HEAD + "x1 y1\n", 3, "expected 'x -> y'"),
    "map-empty-side": (load_map, HEAD + "x1 ->\n", 3, "expected 'x -> y'"),
    "map-duplicate": (load_map, HEAD + "x1 -> y1\nx1 -> y2\n", 4, "duplicate mapping for 'x1'"),
    "map-missing-header": (load_map, "target: tgt.txt\nx1 -> y1\n", 1,
                           "missing 'source:' or 'target:' header"),
    "map-source-element": (load_map, HEAD + "x1 -> y1\nx2 -> y1\nz -> y1\n", 5,
                           "'z' is not a source element"),
    "map-target-value": (load_map, HEAD + "x1 -> y1\nx2 -> z\n", 4,
                         "map value 'z' not in target carrier"),
    "map-undefined": (load_map, HEAD + "x1 -> y1\n", 1, "map not defined at 'x2'"),
    "map-header-file": (load_map, "source: src.txt\ntarget: nope.txt\nx1 -> y1\nx2 -> y1\n",
                        2, MISSING),
    "group-empty-elements": (load_group, "elements:\n", 1, "empty element list"),
    "group-elements-first": (load_group, "e g\n", 1, "expected 'elements:' line first"),
    "group-short-row": (load_group, "elements: e g\ne g\ng\n", 3,
                        "Cayley row has 1 entries, expected 2"),
    "group-missing-elements": (load_group, "# none\n", 1, "missing 'elements:' line"),
    "group-row-count": (load_group, "elements: e g\ne g\n", 1, "expected 2 Cayley rows, got 1"),
    "group-stray-entry": (load_group, "elements: e g\ne g\ng z\n", 3,
                          "Cayley entry 'z' is not an element"),
    "group-repeated-elements": (load_group, "elements: 0 1\n0 1\n1 0\nelements: 0 1\n", 4,
                                "repeated 'elements:' line"),
    "group-duplicate-label": (load_group, "elements: e e\ne e\ne e\n", 1,
                              "carrier has duplicate labels"),
    "group-no-identity": (load_group, "elements: a b\nb b\nb b\n", 1,
                          "table has no identity element"),
    "group-no-inverse": (load_group, "elements: e a\ne a\na a\n", 1,
                         "element 'a' has no inverse"),
    "topo-repeated-ambient": (load_topology, "ambient: amb.txt\nambient: amb.txt\n", 2,
                              "repeated 'ambient:' line"),
    "topo-repeated-q": (load_topology, "ambient: amb.txt\nq=2\nq=2\n", 3, "repeated 'q=' line"),
    "topo-bad-q": (load_topology, "ambient: amb.txt\nq=x\n", 2, "expected q=<positive integer>"),
    "topo-zero-q": (load_topology, "q=0\n", 1, "expected q=<positive integer>"),
    "topo-gen-first": (load_topology, "q=2\ngen:\n", 2, "generator before 'ambient:' line"),
    "topo-expected-header": (load_topology, "ambient: amb.txt\na 1\n", 2,
                             "expected 'ambient:', 'q=', or 'gen:'"),
    "topo-stray": (load_topology, "ambient: amb.txt\nq=2\ngen:\nz 1\n", 4,
                   "element 'z' not in the ambient carrier"),
    "topo-missing-ambient": (load_topology, "q=2\n", 1, "missing 'ambient:' line"),
    "topo-missing-q": (load_topology, "ambient: amb.txt\n", 1, "missing 'q=' line"),
    "topo-empty-block": (load_topology, "ambient: amb.txt\nq=2\ngen:\ngen:\na 1\n", 3,
                         "empty generator block"),
    "topo-empty-last-block": (load_topology, "ambient: amb.txt\nq=2\ngen:\n", 3,
                              "empty generator block"),
    "topo-ambient-file": (load_topology, "q=2\nambient: nope.txt\n", 2, MISSING),
    "act-no-arrow": (on_z2, "0 p p\n", 1, "expected 'g x -> y'"),
    "act-one-label": (on_z2, "0 -> p\n", 1, "expected 'g x -> y'"),
    "act-group-element": (on_z2, "2 p -> p\n", 1, "'2' is not a group element"),
    "act-duplicate": (on_z2, "0 p -> p\n0 p -> p\n", 2, "duplicate entry for ('0','p')"),
    "act-empty": (on_z2, "# none\n", 1, "empty action file"),
    "act-value": (on_z2, "0 p -> z\n1 p -> p\n", 1, "action value 'z' is not a space point"),
    "act-undefined": (on_z2, "0 p -> p\n0 q -> q\n1 p -> q\n", 1,
                      "action undefined at ('1','q')"),
    "rel-stray": (on_abc, "a z\n", 1, "'z' is not a space point"),
    "rel-empty": (on_abc, "# none\n", 1, "empty relation file"),
    "rel-two-classes": (on_abc, "a b\nb c\n", 2, "element 'b' in two classes"),
    "rel-cover": (on_abc, "a b\n", 1, "classes do not cover the space"),
    "sc-repeated-dim": (load_structure_constants, "dim 2\ndim 2\n", 2, "repeated 'dim' line"),
    "sc-dim-form": (load_structure_constants, "dim\n", 1, "expected 'dim n'"),
    "sc-dim-int": (load_structure_constants, "dim x\n", 1, "expected 'dim n'"),
    "sc-dim-positive": (load_structure_constants, "dim 0\n", 1, "dimension must be positive"),
    "sc-dim-max": (load_structure_constants, "dim 101\n", 1, "dimension exceeds 100"),
    "sc-dim-first": (load_structure_constants, "1 2 1 1\n", 1, "expected 'dim n' first"),
    "sc-entry-form": (load_structure_constants, "dim 2\n1 2 1\n", 2, "expected 'i j k value'"),
    "sc-entry-index": (load_structure_constants, "dim 2\n1 b 1 1\n", 2,
                       "expected 'i j k value'"),
    "sc-entry-value": (load_structure_constants, "dim 2\n1 2 1 1/0\n", 2,
                       "expected 'i j k value'"),
    "sc-range": (load_structure_constants, "dim 2\n1 3 1 1\n", 2, "index out of range 1..2"),
    "sc-duplicate": (load_structure_constants, "dim 2\n1 2 1 1\n1 2 1 2\n", 3,
                     "duplicate entry for (1,2,1)"),
    "sc-missing-dim": (load_structure_constants, "# none\n", 1, "missing 'dim n' line"),
    "cls-repeated-default": (dim3, "default 0\ndefault 1\n", 2, "repeated 'default' line"),
    "cls-default-form": (dim3, "default\n", 1, "expected 'default grade'"),
    "cls-default-grade": (dim3, "default 2\n", 1, "grade outside [0,1]: '2'"),
    "cls-arrow": (dim3, "x1 = 0\ndefault 0\n", 1, "expected 'cond -> grade'"),
    "cls-case-grade": (dim3, "x1 = 0 -> 1/0\ndefault 0\n", 1, "cannot parse grade '1/0'"),
    "cls-compare": (dim3, "x1 = 1 -> 1\ndefault 0\n", 1, "conditions compare a coordinate with 0"),
    "cls-coord-name": (dim3, "y1 = 0 -> 1\ndefault 0\n", 1,
                       "expected coordinate 'x<i>', got 'y1'"),
    "cls-coord-int": (dim3, "xa = 0 -> 1\ndefault 0\n", 1, "bad coordinate 'xa'"),
    "cls-condition": (dim3, "x1 -> 1\ndefault 0\n", 1, "expected a condition like 'x1 = 0'"),
    "cls-coord-zero": (dim3, "default 0\nx0 = 0 -> 1\n", 2, "coordinate 'x0' out of range x1..x3"),
    "cls-coord-above": (dim3, "default 0\nx1 = 0 & x4 > 0 -> 1\n", 2,
                        "coordinate 'x4' out of range x1..x3"),
    "cls-missing-default": (dim3, "x1 = 0 -> 1\n", 1, "missing 'default grade' line"),
    "smp-count": (dim2, "vector 0\n", 1, "expected 2 coordinates"),
    "smp-coordinate": (dim2, "vector 0 x\n", 1, "bad rational coordinate"),
    "smp-scalar-form": (dim2, "vector 0 0\nscalar\n", 2, "expected 'scalar value'"),
    "smp-scalar": (dim2, "vector 0 0\nscalar 1/0\n", 2, "bad rational scalar"),
    "smp-keyword": (dim2, "vector 0 0\npoint 1\n", 2, "expected 'vector ...' or 'scalar ...'"),
    "smp-no-vector": (dim2, "scalar 1\n", 1, "sample set needs at least one vector"),
    "smp-zero": (dim2, "vector 1 0\n", 1, "sample set must contain the zero vector"),
    "chart-short": (load_chart_table, "0 1\n", 1, "expected 'param coords... membership'"),
    "chart-width": (load_chart_table, "0 1 1\n0 1 1 1\n", 2, "expected 3 columns"),
    "chart-number": (load_chart_table, "0 1 1\n0.5 x 1\n", 2, "bad numeric value"),
    "chart-finite": (load_chart_table, "0 nan 1\n", 1, "param and coordinates must be finite"),
    "chart-membership": (load_chart_table, "0 1 2\n", 1, "membership outside [0,1]"),
    "chart-empty": (load_chart_table, "# none\n", 1, "empty chart table"),
    "chart-repeated-point": (load_chart_table, "0 0.5 1\n1 1 1\n2 0.50 1\n", 3,
                             "point 0.50 already listed on line 1"),
}


@pytest.mark.parametrize("loader, text, line, message", GOLDEN.values(), ids=GOLDEN)
def test_golden_message(tmp_path, loader, text, line, message):
    for name, aux in AUX.items():
        write(tmp_path, name, aux)
    path = write(tmp_path, "in.txt", text)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value) == f"{path}:{line}: {message.format(dir=tmp_path)}"


class TestLineBoundaries:
    """Lines end at LF, CRLF or a lone CR, as in text mode, and each line is
    decoded on its own."""

    @pytest.mark.parametrize("data, line", [
        (b"a 1\nb x\n", 2),
        (b"a 1\r\nb x\r\n", 2),
        (b"a 1\rb x\r", 2),
        (b"a 1\r\r\nb 1\n\rc x", 5),
        (b"a 1\x0c\x0b\nb x\n", 2),  # form feed and vertical tab end no line
    ])
    def test_line_numbers(self, tmp_path, data, line):
        path = tmp_path / "mu.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_fuzzy_set(str(path))
        assert str(err.value) == f"{path}:{line}: cannot parse grade 'x'"

    @pytest.mark.parametrize("data, line", [(b"a 1\n\xffb 1\n", 2), (b"a 1\rb 1\r\nc \xe9\n", 3)])
    def test_undecodable_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "mu.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_fuzzy_set(str(path))
        assert err.value.line_no == line
        assert "'utf-8' codec can't decode byte" in err.value.message
