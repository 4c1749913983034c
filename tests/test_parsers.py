import os
import threading
import time
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import groups_oracle
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
        """Loads: that it is no group is validate_group's verdict."""
        g = load_group(write(tmp_path, "g.txt", "elements: a b\nb b\nb b\n"))
        v = validate_group(g)
        assert (v.ok, v.reason, v.witness) == (False, "table has no identity element", None)


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
        g = type(z2)(Carrier(("0", "1")), (("0", "1"), ("1", "0")))
        action = load_action(path, g)
        assert verify_action(action).ok
        assert action.act("1", "p") == "q"

    def test_undefined_pair(self, tmp_path):
        g = cyclic_group(2)
        path = write(tmp_path, "act.txt", "0 p -> p\n1 p -> p\n0 q -> q\n")
        with pytest.raises(ParseError):
            load_action(path, type(g)(Carrier(("0", "1")), (("0", "1"), ("1", "0"))))


class TestRelationFile:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "rho.txt", "p q\nr\n")
        rel = load_relation(path, Carrier(("p", "q", "r")))
        assert rel.classes == (("p", "q"), ("r",))

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
        params, coords, memberships = load_chart_table(write(tmp_path, "c.txt", text))
        assert list(params) == [0.0, 0.25, 0.5]
        assert [list(c) for c in coords] == [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        assert list(memberships) == [1.0, 1.0, 0.5]

    def test_membership_range(self, tmp_path):
        with pytest.raises(ParseError):
            load_chart_table(write(tmp_path, "c.txt", "0.0 1.0 2.0\n"))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(ParseError):
            load_chart_table(write(tmp_path, "c.txt", "0 1 1\n0 1 1 1\n"))

    def test_a_repeat_leaves_no_file_open(self, tmp_path):
        """The second read stops at the repeat and closes the file, though
        the error's traceback still holds the reader."""
        path = write(tmp_path, "c.txt", "0 0.5 1\n1 1 1\n2 0.50 1\n3 2 1\n")
        with pytest.raises(ParseError) as err:
            load_chart_table(path)
        assert err.value.line_no == 3
        targets = [os.path.realpath(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")]
        assert os.path.realpath(path) not in targets

    def test_a_repeat_in_a_pipe_is_refused_without_reading_it_again(self, tmp_path):
        """A regular file is read a second time for the repeat's line and
        spelling.  A pipe cannot be, and opening a named pipe again would
        wait for a writer that never comes: the repeat is named by its rows."""
        fifo = tmp_path / "c.fifo"
        os.mkfifo(fifo)
        outcome = []

        def read():
            try:
                load_chart_table(str(fifo))
            except ParseError as exc:
                outcome.append(str(exc))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        fifo.write_text("0 0.5 1\n1 1 1\n2 0.50 1\n")
        reader.join(timeout=30)
        assert outcome == [f"{fifo}:1: row 3 repeats the point of row 1"]


# --- golden messages ---------------------------------------------------------------------
# One row per message a file can trigger: (loader, file text, line, message).  `{dir}` in a
# message stands for the directory holding the file.  Every row asserts the whole
# `path:line: message` string, so a reworded or moved error shows up here.

Z2 = FiniteGroup(Carrier(("0", "1")), (("0", "1"), ("1", "0")))
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
    "set-denominator": (load_fuzzy_set, "a 1e-1000\nb 1/2\nc 1/3\n", 3,
                        "common denominator of the grades exceeds 10**1000"),
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
                              "duplicate element 'e'"),
    "group-duplicate-label-late": (load_group, "# c\n\nelements: e e\ne e\ne e\n", 3,
                                   "duplicate element 'e'"),
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
    "topo-denominator": (load_topology, "ambient: amb.txt\nq=2\ngen:\na 1e-1000\ngen:\n"
                         "a 1/3\nb 1e-1000\n", 7,
                         "common denominator of the grades exceeds 10**1000"),
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
    "act-forward-value": (on_z2, "0 p -> q\n0 q -> q\n1 p -> p\n", 1,
                          "action undefined at ('1','q')"),
    "act-value-order": (on_z2, "0 p -> q\n0 q -> z\n1 p -> w\n1 q -> p\n", 2,
                        "action value 'z' is not a space point"),
    "act-undefined-order": (on_z2, "0 r -> r\n1 p -> p\n0 q -> q\n1 q -> q\n", 1,
                            "action undefined at ('0','p')"),
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
    "chart-repeat-before-bad-line": (load_chart_table, "0 0.5 1\n1 -0 1\n2 0.50 1\n3 x 1\n",
                                     3, "point 0.50 already listed on line 1"),
    "chart-repeat-of-zero": (load_chart_table, "0 -0.0 1\n1 1 1\n2 0 1\n", 3,
                             "point 0 already listed on line 1"),
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


# --- group and action files against the parsers they replaced -----------------------------
# `groups_oracle.load_group` and `load_action` hold a fresh string per cell and a
# (g, x) -> (y, line) dict.  On any file, valid or corrupted, both versions must build equal
# structures or raise the same `path:line: message`; a built table must hold its carrier's
# own label strings.

# Labels of two or more characters: CPython shares one object per one-character string.
LABELS = ("ab", "cd", "ef", "gh")
STRAYS = ("zz", "wv", "vw")


def _outcome(loader, path, *args):
    try:
        return loader(path, *args)
    except ParseError as exc:
        return str(exc)


def _holds_its_own_labels(table, carrier):
    return all(v is carrier.elements[carrier.index(v)] for row in table for v in row)


@st.composite
def group_files(draw):
    """An `elements:` line, now and then with a duplicate label, and a Cayley table
    of drawn entries, then up to four corruptions: a stray entry, a short or a long
    row, a repeated `elements:` line, a lost row or a comment line."""
    n = draw(st.integers(1, 4))
    labels = LABELS[:n]
    header = "elements: " + " ".join(labels) + draw(st.sampled_from(["", "", "", " ab"]))
    row = st.lists(st.sampled_from(labels), min_size=n, max_size=n)
    lines = [header] + [" ".join(draw(row)) for _ in labels]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["stray", "short", "long", "elements", "drop", "comment"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "elements":
            lines.insert(at, header)
        elif kind == "comment":
            lines.insert(at, "# c")
        elif lines:
            at %= len(lines)
            if kind == "drop":
                del lines[at]
                continue
            words = lines[at].split()
            if not words:
                continue
            if kind == "stray":
                words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(STRAYS))
            elif kind == "short":
                words.pop()
            else:
                words.append(draw(st.sampled_from(labels + STRAYS[:1])))
            lines[at] = " ".join(words)
    return "".join(line + "\n" for line in lines)


ACTION_GROUPS = [FiniteGroup(Carrier(tuple(map(str, range(n)))),
                             tuple(tuple(str((i + j) % n) for j in range(n)) for i in range(n)))
                 for n in (1, 2, 3)]


@st.composite
def action_files(draw):
    """A group, then one `g x -> y` line per cell in a drawn order, so that a y
    often names a point first listed on a later line; then up to five corruptions:
    an unknown g, a repeated (g, x), stray values, a new point named first as a
    value, a lost cell or a malformed line."""
    group = draw(st.sampled_from(ACTION_GROUPS))
    points = LABELS[:draw(st.integers(1, 4))]
    value = st.sampled_from(points)
    cells = [[g, x, draw(value)] for g in group.carrier for x in points]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["stray", "forward", "drop", "duplicate", "stray",
                                     "forward", "drop", "malformed", "group"]))
        at = draw(st.integers(0, max(0, len(cells) - 1)))
        if not cells:
            break
        if kind == "forward":  # a new point, often named as a value before its own lines
            new = draw(st.sampled_from(("new", "nu")))
            cells[at][2] = new
            if all(c[1] != new for c in cells):
                cells += [[g, new, draw(value)] for g in group.carrier]
        elif kind == "group":
            cells[at][0] = draw(st.sampled_from(("7", "x")))
        elif kind == "duplicate":
            cells.insert(draw(st.integers(0, len(cells))), cells[at][:2] + [draw(value)])
        elif kind == "stray":
            cells[at][2] = draw(st.sampled_from(STRAYS))
        elif kind == "drop":
            del cells[at]
        else:
            line = draw(st.sampled_from(("0 -> ab", "0 ab ab", "0 ab cd -> ab")))
            cells[at] = [line, None, None]
    lines = [c[0] if c[1] is None else f"{c[0]} {c[1]} -> {c[2]}"
             for c in draw(st.permutations(cells))]
    return group, "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=400, deadline=None)
@given(text=group_files())
@example(text="elements: ab cd\nab cd\ncd ab\n")
@example(text="elements: ab cd\nab zz\ncd wv\n")
@example(text="elements: ab cd\nab cd\nelements: ab cd\ncd ab\n")
def test_group_file_matches_the_oracle(oracle_dir, text):
    path = write(oracle_dir, "group.txt", text)
    got = _outcome(load_group, path)
    assert got == _outcome(groups_oracle.load_group, path)
    if not isinstance(got, str):
        assert _holds_its_own_labels(got.table, got.carrier)


@settings(max_examples=400, deadline=None)
@given(case=action_files())
@example(case=(ACTION_GROUPS[1], "0 ab -> cd\n1 ab -> cd\n0 cd -> ab\n1 cd -> ab\n"))
@example(case=(ACTION_GROUPS[1], "0 ab -> zz\n1 ab -> wv\n0 cd -> ab\n"))
@example(case=(ACTION_GROUPS[1], "1 ab -> ab\n0 cd -> cd\n"))
def test_action_file_matches_the_oracle(oracle_dir, case):
    group, text = case
    path = write(oracle_dir, "action.txt", text)
    got = _outcome(load_action, path, group)
    assert got == _outcome(groups_oracle.load_action, path, group)
    if not isinstance(got, str):
        assert _holds_its_own_labels(got.table, got.space)
