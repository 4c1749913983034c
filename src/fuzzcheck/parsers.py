"""Parsers for the text input formats.

All formats are UTF-8, `#` starts a comment anywhere, blank lines are
ignored.  Every parse failure raises ParseError naming the file, line
and the expected token.
"""

from __future__ import annotations

import os

from .errors import ParseError
from .groups import EquivalenceRelation, FiniteAction, FiniteGroup
from .lie import (
    ClassifierCase,
    Condition,
    MembershipClassifier,
    SampleSet,
    StructureConstants,
)
from .sets import Carrier, FuzzySet, parse_grade, parse_rational
from .topology import GradeLattice

# Largest Lie algebra dimension accepted: the structure constants are held
# as a dense dim^3 table, and every check walks at least that many entries.
MAX_STRUCTURE_DIM = 100


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield no, line


def load_fuzzy_set(path, carrier: Carrier | None = None) -> FuzzySet:
    """One `element grade` pair per line; duplicate elements are an error.
    When a carrier is given the file must grade exactly its elements."""
    grades = {}
    order = []
    for no, line in _lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, no, "expected 'element grade'")
        elem, grade_text = parts
        if elem in grades:
            raise ParseError(path, no, f"duplicate element {elem!r}")
        try:
            grades[elem] = parse_grade(grade_text)
        except ValueError as exc:
            raise ParseError(path, no, str(exc)) from None
        order.append(elem)
    if not order:
        raise ParseError(path, 1, "empty fuzzy set file")
    if carrier is None:
        carrier = Carrier(tuple(order))
    else:
        missing = [x for x in carrier if x not in grades]
        if missing:
            raise ParseError(path, 1, f"element {missing[0]!r} has no grade")
        extra = [x for x in order if x not in carrier]
        if extra:
            raise ParseError(path, 1, f"element {extra[0]!r} not in the carrier")
    return FuzzySet.from_map(carrier, grades)


def load_map(path) -> tuple:
    """`source: <set file>` and `target: <set file>` headers, then one
    `x -> y` line per source element.  Paths resolve relative to the file."""
    base = os.path.dirname(os.path.abspath(path))
    source_path = target_path = None
    mapping = {}
    for no, line in _lines(path):
        if line.startswith("source:"):
            source_path = os.path.join(base, line.split(":", 1)[1].strip())
            continue
        if line.startswith("target:"):
            target_path = os.path.join(base, line.split(":", 1)[1].strip())
            continue
        if "->" not in line:
            raise ParseError(path, no, "expected 'x -> y'")
        lhs, rhs = (side.strip() for side in line.split("->", 1))
        if not lhs or not rhs:
            raise ParseError(path, no, "expected 'x -> y'")
        if lhs in mapping:
            raise ParseError(path, no, f"duplicate mapping for {lhs!r}")
        mapping[lhs] = rhs
    if source_path is None or target_path is None:
        raise ParseError(path, 1, "missing 'source:' or 'target:' header")
    source = load_fuzzy_set(source_path)
    target = load_fuzzy_set(target_path)
    from .maps import ProperFunction

    for x in source.carrier:
        if x not in mapping:
            raise ParseError(path, 1, f"map not defined at {x!r}")
    return ProperFunction.from_dict(source, target, mapping)


def load_group(path) -> FiniteGroup:
    """`elements: a b c ...` then one Cayley row per element."""
    elements = None
    rows = []
    for no, line in _lines(path):
        if line.startswith("elements:"):
            elements = tuple(line.split(":", 1)[1].split())
            if not elements:
                raise ParseError(path, no, "empty element list")
            continue
        if elements is None:
            raise ParseError(path, no, "expected 'elements:' line first")
        row = tuple(line.split())
        if len(row) != len(elements):
            raise ParseError(
                path, no, f"Cayley row has {len(row)} entries, expected {len(elements)}"
            )
        rows.append(row)
    if elements is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    if len(rows) != len(elements):
        raise ParseError(path, 1, f"expected {len(elements)} Cayley rows, got {len(rows)}")
    try:
        return FiniteGroup.from_table(elements, rows)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def load_topology(path) -> tuple:
    """`ambient: <set file>`, a `q=<int>` lattice line, then generator
    blocks each introduced by a `gen:` line.  Returns (ambient, generators,
    lattice)."""
    base = os.path.dirname(os.path.abspath(path))
    ambient = None
    lattice = None
    generators = []
    current = None

    def flush(no):
        if current is not None:
            if not current:
                raise ParseError(path, no, "empty generator block")
            generators.append(FuzzySet.from_map(ambient.carrier, dict(current)))

    for no, line in _lines(path):
        if line.startswith("ambient:"):
            ambient = load_fuzzy_set(os.path.join(base, line.split(":", 1)[1].strip()))
            continue
        if line.startswith("q="):
            try:
                lattice = GradeLattice(int(line[2:].strip()))
            except ValueError:
                raise ParseError(path, no, "expected q=<positive integer>") from None
            continue
        if line == "gen:":
            if ambient is None:
                raise ParseError(path, no, "generator before 'ambient:' line")
            flush(no)
            current = []
            continue
        if current is None:
            raise ParseError(path, no, "expected 'ambient:', 'q=', or 'gen:'")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, no, "expected 'element grade'")
        elem, grade_text = parts
        if elem not in ambient.carrier:
            raise ParseError(path, no, f"element {elem!r} not in the ambient carrier")
        try:
            current.append((elem, parse_grade(grade_text)))
        except ValueError as exc:
            raise ParseError(path, no, str(exc)) from None
    if ambient is None:
        raise ParseError(path, 1, "missing 'ambient:' line")
    if lattice is None:
        raise ParseError(path, 1, "missing 'q=' line")
    flush(0)
    return ambient, generators, lattice


def load_action(path, group: FiniteGroup) -> FiniteAction:
    """One `g x -> y` line per (group element, space point) pair; the space
    is the ordered set of points as first seen on the x side."""
    entries = {}
    space_order = []
    for no, line in _lines(path):
        if "->" not in line:
            raise ParseError(path, no, "expected 'g x -> y'")
        lhs, rhs = (side.strip() for side in line.split("->", 1))
        parts = lhs.split()
        if len(parts) != 2 or not rhs:
            raise ParseError(path, no, "expected 'g x -> y'")
        g, x = parts
        if g not in group.carrier:
            raise ParseError(path, no, f"{g!r} is not a group element")
        if (g, x) in entries:
            raise ParseError(path, no, f"duplicate entry for ({g!r},{x!r})")
        entries[(g, x)] = rhs
        if x not in space_order:
            space_order.append(x)
    if not entries:
        raise ParseError(path, 1, "empty action file")
    space = Carrier(tuple(space_order))
    for g in group.carrier:
        for x in space:
            if (g, x) not in entries:
                raise ParseError(path, 1, f"action undefined at ({g!r},{x!r})")
            if entries[(g, x)] not in space:
                raise ParseError(
                    path, 1, f"action value {entries[(g, x)]!r} is not a space point"
                )
    return FiniteAction.from_function(group, space, lambda g, x: entries[(g, x)])


def load_relation(path, space: Carrier) -> EquivalenceRelation:
    """One class per line, whitespace-separated."""
    classes = []
    for no, line in _lines(path):
        members = tuple(line.split())
        for x in members:
            if x not in space:
                raise ParseError(path, no, f"{x!r} is not a space point")
        classes.append(members)
    if not classes:
        raise ParseError(path, 1, "empty relation file")
    try:
        rel = EquivalenceRelation(tuple(classes))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None
    if not rel.covers(space):
        raise ParseError(path, 1, "classes do not cover the space")
    return rel


def load_structure_constants(path) -> StructureConstants:
    """`dim n` then nonzero entries `i j k value` with 1-based indices."""
    dim = None
    entries = {}
    for no, line in _lines(path):
        parts = line.split()
        if parts[0] == "dim":
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'dim n'")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(path, no, "expected 'dim n'") from None
            if dim < 1:
                raise ParseError(path, no, "dimension must be positive")
            if dim > MAX_STRUCTURE_DIM:
                raise ParseError(path, no, f"dimension exceeds {MAX_STRUCTURE_DIM}")
            continue
        if dim is None:
            raise ParseError(path, no, "expected 'dim n' first")
        if len(parts) != 4:
            raise ParseError(path, no, "expected 'i j k value'")
        try:
            i, j, k = (int(p) for p in parts[:3])
            value = parse_rational(parts[3])
        except (ValueError, ZeroDivisionError):
            raise ParseError(path, no, "expected 'i j k value'") from None
        if not all(1 <= idx <= dim for idx in (i, j, k)):
            raise ParseError(path, no, f"index out of range 1..{dim}")
        if (i - 1, j - 1, k - 1) in entries:
            raise ParseError(path, no, f"duplicate entry for ({i},{j},{k})")
        entries[(i - 1, j - 1, k - 1)] = value
    if dim is None:
        raise ParseError(path, 1, "missing 'dim n' line")
    return StructureConstants.from_entries(dim, entries)


_COND_OPS = {"=": "eq0", "!=": "ne0", ">": "gt0", "<": "lt0"}


def _parse_condition(text, path, no) -> Condition:
    text = text.strip()
    for sym in ("!=", "=", ">", "<"):
        if sym in text:
            coord_text, rhs = text.split(sym, 1)
            if rhs.strip() != "0":
                raise ParseError(path, no, "conditions compare a coordinate with 0")
            coord_text = coord_text.strip()
            if not coord_text.startswith("x"):
                raise ParseError(path, no, f"expected coordinate 'x<i>', got {coord_text!r}")
            try:
                coord = int(coord_text[1:]) - 1
            except ValueError:
                raise ParseError(path, no, f"bad coordinate {coord_text!r}") from None
            return Condition(coord, _COND_OPS[sym])
    raise ParseError(path, no, "expected a condition like 'x1 = 0'")


def load_classifier(path, dim: int) -> MembershipClassifier:
    """Ordered `cond [& cond...] -> grade` case lines plus a final
    `default grade` line."""
    cases = []
    default = None
    for no, line in _lines(path):
        if line.startswith("default"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'default grade'")
            try:
                default = parse_grade(parts[1])
            except ValueError as exc:
                raise ParseError(path, no, str(exc)) from None
            continue
        if "->" not in line:
            raise ParseError(path, no, "expected 'cond -> grade'")
        cond_text, grade_text = line.rsplit("->", 1)
        try:
            grade = parse_grade(grade_text.strip())
        except ValueError as exc:
            raise ParseError(path, no, str(exc)) from None
        conds = tuple(
            _parse_condition(c, path, no) for c in cond_text.split("&")
        )
        cases.append(ClassifierCase(conds, grade))
    if default is None:
        raise ParseError(path, 1, "missing 'default grade' line")
    try:
        return MembershipClassifier(dim, tuple(cases), default)
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def load_samples(path, dim: int) -> SampleSet:
    """`vector <coords...>` and `scalar <value>` lines."""
    vectors = []
    scalars = []
    for no, line in _lines(path):
        parts = line.split()
        if parts[0] == "vector":
            if len(parts) != dim + 1:
                raise ParseError(path, no, f"expected {dim} coordinates")
            try:
                vectors.append(tuple(parse_rational(p) for p in parts[1:]))
            except (ValueError, ZeroDivisionError):
                raise ParseError(path, no, "bad rational coordinate") from None
        elif parts[0] == "scalar":
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'scalar value'")
            try:
                scalars.append(parse_rational(parts[1]))
            except (ValueError, ZeroDivisionError):
                raise ParseError(path, no, "bad rational scalar") from None
        else:
            raise ParseError(path, no, "expected 'vector ...' or 'scalar ...'")
    try:
        return SampleSet(tuple(vectors), tuple(scalars))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def load_chart_table(path):
    """Rows `param x y ... membership`; returns (params, points, memberships)."""
    params, points, memberships = [], [], []
    width = None
    for no, line in _lines(path):
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(path, no, "expected 'param coords... membership'")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ParseError(path, no, f"expected {width} columns")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(path, no, "bad numeric value") from None
        if not 0.0 <= row[-1] <= 1.0:
            raise ParseError(path, no, "membership outside [0,1]")
        params.append(row[0])
        points.append(tuple(row[1:-1]))
        memberships.append(row[-1])
    if not params:
        raise ParseError(path, 1, "empty chart table")
    return params, points, memberships
