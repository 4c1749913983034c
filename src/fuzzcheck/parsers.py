"""Parsers for the text input formats.

All formats are UTF-8, `#` starts a comment anywhere, blank lines are
ignored.  Every parse failure raises ParseError naming the file, line
and the expected token.
"""

from __future__ import annotations

import math
import os
import sys

from .errors import ParseError
from .groups import EquivalenceRelation, FiniteAction, FiniteGroup
from .lie import (
    ClassifierCase,
    Condition,
    MembershipClassifier,
    SampleSet,
    StructureConstants,
)
from .maps import ProperFunction
from .sets import (
    MAX_COMMON_DENOMINATOR,
    MAX_DECIMAL_EXPONENT,
    Carrier,
    FuzzySet,
    parse_grade,
    parse_rational,
)
from .topology import GradeLattice

# Largest Lie algebra dimension accepted.  The constants are stored
# sparsely, but the Jacobi scan visits up to 3*dim triples per nonzero
# bracket and a file may list up to dim^3 entries.
MAX_STRUCTURE_DIM = 100


def _lines(path):
    """The lines that hold more than a comment, numbered as text mode numbers
    them: a line ends at LF, CRLF or a lone CR.  Each line is decoded on its
    own, so a byte that is not UTF-8 is reported at its line; UTF-8 uses the
    bytes of LF and CR for no other character."""
    no = 0
    with open(path, "rb") as fh:
        for chunk in fh:  # each chunk ends at an LF, so no CRLF is split
            for raw in chunk.splitlines():
                no += 1
                line = _parse(path, no, raw.decode, "utf-8").split("#", 1)[0].strip()
                if line:
                    yield no, line


def _parse(path, no, fn, *args, message=None):
    """Return fn(*args); a failed conversion or an unreadable file becomes a
    ParseError at line `no`, worded as `message` or else as the exception."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        raise ParseError(path, no, message or str(exc)) from None


def _arrow(path, no, line, form):
    """The two nonempty sides of a `lhs -> rhs` line written as `form`."""
    lhs, arrow, rhs = line.partition("->")
    lhs, rhs = lhs.strip(), rhs.strip()
    if not (lhs and arrow and rhs):
        raise ParseError(path, no, f"expected {form!r}")
    return lhs, rhs


def _once(path, no, value, header):
    """Reject a header line whose value an earlier line already set."""
    if value is not None:
        raise ParseError(path, no, f"repeated {header!r} line")


class _Grades(dict):
    """element -> grade for the lines of one set read so far, with the lcm
    of their denominators."""

    den = 1


def _read_grade(path, no, line, grades: _Grades):
    """Add an `element grade` line to `grades` and return the element; a
    malformed line, an element graded before or a grade that takes the
    common denominator past MAX_COMMON_DENOMINATOR is an error.  Above the
    bound, the common denominator may only be one grade's own."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(path, no, "expected 'element grade'")
    elem, grade_text = parts
    if elem in grades:
        raise ParseError(path, no, f"duplicate element {elem!r}")
    g = grades[elem] = _parse(path, no, parse_grade, grade_text)
    den = math.lcm(grades.den, g.denominator)
    if den > max(MAX_COMMON_DENOMINATOR, grades.den, g.denominator):
        raise ParseError(path, no, "common denominator of the grades exceeds "
                                   f"10**{MAX_DECIMAL_EXPONENT}")
    grades.den = den
    return elem


def load_fuzzy_set(path, carrier: Carrier | None = None) -> FuzzySet:
    """One `element grade` pair per line; duplicate elements are an error.
    When a carrier is given the file must grade exactly its elements."""
    grades = _Grades()
    for no, line in _lines(path):
        elem = _read_grade(path, no, line, grades)
        if carrier is not None and elem not in carrier:
            raise ParseError(path, no, f"element {elem!r} not in the carrier")
    if not grades:
        raise ParseError(path, 1, "empty fuzzy set file")
    if carrier is None:
        carrier = Carrier(tuple(grades))
    else:
        missing = [x for x in carrier if x not in grades]
        if missing:
            raise ParseError(path, 1, f"element {missing[0]!r} has no grade")
    return FuzzySet.from_map(carrier, grades)


def load_map(path) -> ProperFunction:
    """The `ProperFunction` from `source: <set file>` and `target: <set file>`
    headers, each once, then one `x -> y` line per source element.  Paths
    resolve relative to the file."""
    base = os.path.dirname(os.path.abspath(path))
    paths = {}  # header -> (set file, line number)
    mapping = {}  # x -> (y, line number)
    for no, line in _lines(path):
        header, _, rest = line.partition(":")
        if header in ("source", "target"):
            _once(path, no, paths.get(header), header + ":")
            paths[header] = os.path.join(base, rest.strip()), no
            continue
        lhs, rhs = _arrow(path, no, line, "x -> y")
        if lhs in mapping:
            raise ParseError(path, no, f"duplicate mapping for {lhs!r}")
        mapping[lhs] = rhs, no
    if len(paths) != 2:
        raise ParseError(path, 1, "missing 'source:' or 'target:' header")
    source, target = (_parse(path, no, load_fuzzy_set, set_path)
                      for set_path, no in (paths["source"], paths["target"]))
    for x, (y, no) in mapping.items():
        if x not in source.carrier:
            raise ParseError(path, no, f"{x!r} is not a source element")
        if y not in target.carrier:
            raise ParseError(path, no, f"map value {y!r} not in target carrier")
    for x in source.carrier:
        if x not in mapping:
            raise ParseError(path, 1, f"map not defined at {x!r}")
    return ProperFunction(source, target, tuple(mapping[x][0] for x in source.carrier))


def load_group(path) -> FiniteGroup:
    """`elements: a b c ...` then one Cayley row per element.  Every entry
    of the table is the `elements:` line's own label."""
    elements = None
    rows = []
    for no, line in _lines(path):
        if line.startswith("elements:"):
            _once(path, no, elements, "elements:")
            elements = tuple(line.split(":", 1)[1].split())
            if not elements:
                raise ParseError(path, no, "empty element list")
            own = dict(zip(elements, elements))  # label -> the elements line's string
            if len(own) < len(elements):
                dup = next(x for i, x in enumerate(elements) if x in elements[:i])
                raise ParseError(path, no, f"duplicate element {dup!r}")
            continue
        if elements is None:
            raise ParseError(path, no, "expected 'elements:' line first")
        row = line.split()
        if len(row) != len(elements):
            raise ParseError(
                path, no, f"Cayley row has {len(row)} entries, expected {len(elements)}"
            )
        try:
            rows.append(tuple(map(own.__getitem__, row)))
        except KeyError:
            stray = next(v for v in row if v not in own)
            raise ParseError(path, no, f"Cayley entry {stray!r} is not an element") from None
    if elements is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    if len(rows) != len(elements):
        raise ParseError(path, 1, f"expected {len(elements)} Cayley rows, got {len(rows)}")
    return FiniteGroup(Carrier(elements), rows)


def load_topology(path) -> tuple:
    """`ambient: <set file>` and a `q=<int>` lattice line, each once, then
    generator blocks each introduced by a `gen:` line.  Returns (ambient,
    generators, lattice)."""
    base = os.path.dirname(os.path.abspath(path))
    ambient = lattice = current = None
    generators = []

    def flush():
        """Close the block opened on line `gen_no`; an empty one is an error there."""
        if current is not None:
            if not current:
                raise ParseError(path, gen_no, "empty generator block")
            generators.append(FuzzySet.from_map(ambient.carrier, current))

    for no, line in _lines(path):
        if line.startswith("ambient:"):
            _once(path, no, ambient, "ambient:")
            ambient = _parse(path, no, load_fuzzy_set,
                             os.path.join(base, line.split(":", 1)[1].strip()))
            continue
        if line.startswith("q="):
            _once(path, no, lattice, "q=")
            lattice = _parse(path, no, lambda: GradeLattice(int(line[2:])),
                             message="expected q=<positive integer>")
            continue
        if line == "gen:":
            if ambient is None:
                raise ParseError(path, no, "generator before 'ambient:' line")
            flush()
            current, gen_no = _Grades(), no
            continue
        if current is None:
            raise ParseError(path, no, "expected 'ambient:', 'q=', or 'gen:'")
        elem = _read_grade(path, no, line, current)
        if elem not in ambient.carrier:
            raise ParseError(path, no, f"element {elem!r} not in the ambient carrier")
    if ambient is None:
        raise ParseError(path, 1, "missing 'ambient:' line")
    if lattice is None:
        raise ParseError(path, 1, "missing 'q=' line")
    flush()
    return ambient, generators, lattice


def load_action(path, group: FiniteGroup) -> FiniteAction:
    """One `g x -> y` line per (group element, space point) pair; the space
    is the ordered set of points as first seen on the x side, and a y may
    name a point first seen on a later line.  The first y that is never a
    point, in file order, is refused before the first undefined (g, x), in
    group x space order.  Every entry of the table is the space's own label."""
    pos = {}  # point -> its index in the space
    rows = {g: {} for g in group.carrier}  # per group element: point index -> y
    pending = []  # (y, line number) for each y not yet a point when its line is read
    intern = sys.intern  # a y that names a point is then that point's own string
    for no, line in _lines(path):
        lhs, rhs = _arrow(path, no, line, "g x -> y")
        parts = lhs.split()
        if len(parts) != 2:
            raise ParseError(path, no, "expected 'g x -> y'")
        g, x = parts
        row = rows.get(g)
        if row is None:
            raise ParseError(path, no, f"{g!r} is not a group element")
        i = pos.setdefault(intern(x), len(pos))
        if i in row:
            raise ParseError(path, no, f"duplicate entry for ({g!r},{x!r})")
        row[i] = y = intern(rhs)
        if y not in pos:
            pending.append((y, no))
    if not pos:
        raise ParseError(path, 1, "empty action file")
    for y, no in pending:
        if y not in pos:
            raise ParseError(path, no, f"action value {y!r} is not a space point")
    space = Carrier(tuple(pos))
    for g, row in rows.items():
        if len(row) < len(pos):
            x = next(x for x, i in pos.items() if i not in row)
            raise ParseError(path, 1, f"action undefined at ({g!r},{x!r})")
    table = tuple(tuple(map(row.__getitem__, range(len(pos)))) for row in rows.values())
    return FiniteAction(group, space, FuzzySet.ones(space), table)


def load_relation(path, space: Carrier) -> EquivalenceRelation:
    """One class per line, whitespace-separated."""
    classes = []
    seen = set()
    for no, line in _lines(path):
        members = tuple(line.split())
        for x in members:
            if x not in space:
                raise ParseError(path, no, f"{x!r} is not a space point")
            if x in seen:
                raise ParseError(path, no, f"element {x!r} in two classes")
            seen.add(x)
        classes.append(members)
    if not classes:
        raise ParseError(path, 1, "empty relation file")
    if len(seen) != len(space):
        raise ParseError(path, 1, "classes do not cover the space")
    return EquivalenceRelation(tuple(classes))


def load_structure_constants(path) -> StructureConstants:
    """`dim n` then nonzero entries `i j k value` with 1-based indices."""
    dim = None
    entries = {}
    for no, line in _lines(path):
        parts = line.split()
        if parts[0] == "dim":
            _once(path, no, dim, "dim")
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'dim n'")
            dim = _parse(path, no, int, parts[1], message="expected 'dim n'")
            if dim < 1:
                raise ParseError(path, no, "dimension must be positive")
            if dim > MAX_STRUCTURE_DIM:
                raise ParseError(path, no, f"dimension exceeds {MAX_STRUCTURE_DIM}")
            continue
        if dim is None:
            raise ParseError(path, no, "expected 'dim n' first")
        if len(parts) != 4:
            raise ParseError(path, no, "expected 'i j k value'")
        i, j, k, value = _parse(path, no, lambda: (*map(int, parts[:3]), parse_rational(parts[3])),
                                message="expected 'i j k value'")
        if not all(1 <= idx <= dim for idx in (i, j, k)):
            raise ParseError(path, no, f"index out of range 1..{dim}")
        if (i - 1, j - 1, k - 1) in entries:
            raise ParseError(path, no, f"duplicate entry for ({i},{j},{k})")
        entries[(i - 1, j - 1, k - 1)] = value
    if dim is None:
        raise ParseError(path, 1, "missing 'dim n' line")
    return StructureConstants.from_entries(dim, entries)


_COND_OPS = {"=": "eq0", "!=": "ne0", ">": "gt0", "<": "lt0"}


def _parse_condition(text, path, no, dim) -> Condition:
    text = text.strip()
    for sym in ("!=", "=", ">", "<"):
        if sym in text:
            coord_text, rhs = text.split(sym, 1)
            if rhs.strip() != "0":
                raise ParseError(path, no, "conditions compare a coordinate with 0")
            coord_text = coord_text.strip()
            if not coord_text.startswith("x"):
                raise ParseError(path, no, f"expected coordinate 'x<i>', got {coord_text!r}")
            coord = _parse(path, no, int, coord_text[1:], message=f"bad coordinate {coord_text!r}")
            if not 1 <= coord <= dim:
                raise ParseError(path, no, f"coordinate {coord_text!r} out of range x1..x{dim}")
            return Condition(coord - 1, _COND_OPS[sym])
    raise ParseError(path, no, "expected a condition like 'x1 = 0'")


def load_classifier(path, dim: int) -> MembershipClassifier:
    """Ordered `cond [& cond...] -> grade` case lines plus a final
    `default grade` line."""
    cases = []
    default = None
    for no, line in _lines(path):
        if line.startswith("default"):
            _once(path, no, default, "default")
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'default grade'")
            default = _parse(path, no, parse_grade, parts[1])
            continue
        if "->" not in line:
            raise ParseError(path, no, "expected 'cond -> grade'")
        cond_text, grade_text = line.rsplit("->", 1)
        grade = _parse(path, no, parse_grade, grade_text.strip())
        conds = tuple(_parse_condition(c, path, no, dim) for c in cond_text.split("&"))
        cases.append(ClassifierCase(conds, grade))
    if default is None:
        raise ParseError(path, 1, "missing 'default grade' line")
    return MembershipClassifier(dim, tuple(cases), default)


def load_samples(path, dim: int) -> SampleSet:
    """`vector <coords...>` and `scalar <value>` lines."""
    vectors = []
    scalars = []
    for no, line in _lines(path):
        parts = line.split()
        if parts[0] == "vector":
            if len(parts) != dim + 1:
                raise ParseError(path, no, f"expected {dim} coordinates")
            vectors.append(_parse(path, no, tuple, map(parse_rational, parts[1:]),
                                  message="bad rational coordinate"))
        elif parts[0] == "scalar":
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'scalar value'")
            scalars.append(_parse(path, no, parse_rational, parts[1],
                                  message="bad rational scalar"))
        else:
            raise ParseError(path, no, "expected 'vector ...' or 'scalar ...'")
    return _parse(path, 1, SampleSet, tuple(vectors), tuple(scalars))


def load_chart_table(path):
    """Rows `param x y ... membership`, one per point; returns (params,
    coordinate columns, memberships).  The rows go one after another into
    one row-major array('d'), and each column is a strided memoryview of
    it, so the table grows as one buffer.  A point listed twice is refused
    at its second row, before any later line's error."""
    from array import array  # numpy does not load it; importing it here spares every other request
    flat, width = array("d"), 0
    try:
        for no, line in _lines(path):
            parts = line.split()
            if len(parts) < 3:
                raise ParseError(path, no, "expected 'param coords... membership'")
            if not width:
                width = len(parts)
            elif len(parts) != width:
                raise ParseError(path, no, f"expected {width} columns")
            row = _parse(path, no, list, map(float, parts), message="bad numeric value")
            if not all(map(math.isfinite, row[:-1])):
                raise ParseError(path, no, "param and coordinates must be finite")
            if not 0.0 <= row[-1] <= 1.0:
                raise ParseError(path, no, "membership outside [0,1]")
            flat.extend(row)
    finally:
        from .manifold import first_repeat
        view = memoryview(flat)
        columns = [view[c::width] for c in range(width)]
        repeat = columns and first_repeat(columns[1:-1])
        if repeat:  # a regular file is read again for the two rows' lines and the repeat's spelling
            found = []
            if os.path.isfile(path):
                lines = _lines(path)
                found = [entry for r, entry in zip(range(repeat[0] + 1), lines) if r in repeat]
                lines.close()  # it stopped at the repeat, with the file open
            if len(found) < 2:  # a pipe, which cannot be read again, or a file changed since
                raise ParseError(path, 1, f"row {repeat[0] + 1} repeats the point of row "
                                          f"{repeat[1] + 1}")
            (first_no, _), (no, line) = found
            raise ParseError(path, no, f"point {' '.join(line.split()[1:-1])} already listed "
                                       f"on line {first_no}")
    if not columns:
        raise ParseError(path, 1, "empty chart table")
    return columns[0], columns[1:-1], columns[-1]
