"""Differential tests: the group and action scans on the index tables
against the label loops in `groups_oracle.py`.  Verdicts, reasons and
witnesses must be equal, and so must the actions built."""

import time
from fractions import Fraction as F
from types import SimpleNamespace

from hypothesis import assume, example, given, settings, strategies as st

import groups_oracle as oracle
from fuzzcheck.errors import DominationError
from fuzzcheck.groups import (
    EquivalenceRelation,
    FiniteAction,
    FiniteGroup,
    catalog,
    check_subgroup,
    cyclic_group,
    dihedral_group,
    is_fuzzy_subgroup,
    is_G_invariant,
    quotient_action,
    restrict_to_invariant,
    restrict_to_subgroup,
    symmetric_group,
    validate_group,
    verify_action,
)
from fuzzcheck.sets import Carrier, FuzzySet
from helpers import action_from_function, coset_action

GROUPS = list(catalog().values()) + [symmetric_group(4), dihedral_group(6)]
TABLES = [(group.carrier, group.table) for group in GROUPS]


@st.composite
def tables(draw):
    """A catalog group with a few Cayley entries replaced: anywhere (often
    leaving no identity, or an element without an inverse), or only off the
    identity's row and column and off the inverse positions, so that
    associativity decides; now and then by one or two labels outside the
    carrier.  Returns the carrier and the rows, which the constructor may refuse."""
    group = draw(st.sampled_from(GROUPS))
    elems = group.carrier.elements
    n = len(elems)
    rows = [list(row) for row in group.table]
    e = group.carrier.index(group.identity)
    inverse = [group.carrier.index(x) for x in group.inverses]
    keep_laws = draw(st.booleans())
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(index), draw(index)
        if keep_laws and (e in (a, b) or b == inverse[a]):
            continue
        rows[a][b] = elems[draw(index)]
    if draw(st.integers(0, 9)) == 0:
        for label in ("stray", "astray")[:draw(st.integers(1, 2))]:
            rows[draw(index)][draw(index)] = label
    return group.carrier, rows


def group_of(table):
    """The group built from (carrier, rows), or None where the constructor
    raises ValueError, with the label loop's verdict.  The constructor
    refuses exactly the tables in which the label loop finds an entry that
    is not an element, and names the same first one in row order."""
    carrier, rows = table
    try:
        group = FiniteGroup(carrier, rows)
    except ValueError as exc:
        # Before it finds a stray entry the label loop reads only these two.
        want = oracle.validate_group(SimpleNamespace(carrier=carrier, table=rows))
        assert (str(exc), want.reason) == (f"Cayley entry {want.witness!r} is not an element",
                                           f"product {want.witness!r} not an element")
        return None, want
    want = oracle.validate_group(group)
    assert not want.reason.endswith("not an element")
    return group, want


NONE_LABELLED = ((Carrier((None, 1)), ((None, 1), (1, None))),
                 (Carrier(("e", None)), (("e", None), (None, "e"))))
# The first stray in row order is "c"; the last in its row is "b", and the
# first in column order "a".
STRAYS = (Carrier((0, 1, 2)), ((0, "c", "b"), ("a", 2, 0), (2, 0, 1)))


@settings(max_examples=300, deadline=None)
@given(tables())
@example(NONE_LABELLED[0])
@example(NONE_LABELLED[1])
@example(STRAYS)
def test_validate_group_matches_triple_loop(table):
    group, want = group_of(table)
    if group is not None:
        got = validate_group(group)
        assert (got.ok, got.reason, repr(got.witness)) == (want.ok, want.reason, repr(want.witness))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(TABLES), tables()))
@example(NONE_LABELLED[0])
@example(NONE_LABELLED[1])
def test_identity_and_inverses_are_read_off_the_table(table):
    """Against their definitions on labels: the e with ex = x = xe for every
    x, which is unique when it exists, and per x the first y in carrier
    order with xy = e = yx; None where there is none."""
    group, _ = group_of(table)
    if group is None:
        return
    elems = group.carrier.elements
    units = [e for e in elems if all(group.op(e, x) == x == group.op(x, e) for x in elems)]
    assert len(units) <= 1
    e = units[0] if units else None
    assert group.identity == e
    assert group.inverses == tuple(
        next((y for y in elems if units and group.op(x, y) == e == group.op(y, x)), None)
        for x in elems)


def same(got, want):
    return (got.ok, got.reason, repr(got.witness)) == (want.ok, want.reason, repr(want.witness))


def outcome(fn, *args):
    """The result of fn, or the type, message and witness of what it raised."""
    try:
        return fn(*args)
    except (DominationError, ValueError) as exc:
        return type(exc).__name__, str(exc), repr(getattr(exc, "witness", None))


def groups(data):
    """A catalog group, or one with replaced Cayley entries but no stray
    label, an identity and an inverse for every element, so perhaps not
    associative: every scan but validate_group's reads the index table and
    the inverses."""
    group, _ = group_of(data.draw(st.one_of(st.sampled_from(TABLES), tables())))
    assume(group is not None and None not in group.inverses)
    return group


@st.composite
def graded(draw, group):
    """A fuzzy set on the group with grades k/q: drawn at random, or a chain
    of subgroups graded downward (a fuzzy subgroup), then maybe one grade
    moved."""
    q = draw(st.integers(1, 4))
    elems = group.carrier.elements
    index = st.integers(0, len(elems) - 1)
    if draw(st.booleans()):
        return FuzzySet(group.carrier, tuple(F(draw(st.integers(0, q)), q) for _ in elems))
    levels = sorted(draw(st.lists(st.integers(0, q), min_size=1, max_size=4)), reverse=True)
    grade, seeds = {}, []
    for level in levels:
        seeds.append(elems[draw(index)])
        for x in oracle.subgroup_closure(group, seeds):
            grade.setdefault(x, F(level, q))
    bottom = F(draw(st.integers(0, levels[-1])), q)
    grades = [grade.get(x, bottom) for x in elems]
    if draw(st.booleans()):
        grades[draw(index)] = F(draw(st.integers(0, q)), q)
    return FuzzySet(group.carrier, tuple(grades))


@st.composite
def subsets(draw, group):
    """Labels to test as a subgroup: any picks (maybe empty or without the
    identity), a generated subgroup, that subgroup less one element, or with
    a label outside the group."""
    elems = group.carrier.elements
    picked = draw(st.lists(st.sampled_from(elems), max_size=5))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return picked
    closure = list(oracle.subgroup_closure(group, picked))
    if kind == 2 and len(closure) > 1:
        del closure[draw(st.integers(0, len(closure) - 1))]
    if kind == 3:
        closure.insert(draw(st.integers(0, len(closure))), "stray")
    return draw(st.permutations(closure))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzy_subgroup_scans_match_label_loops(data):
    """Equal on every group.  The label loop also scans inverses, which the
    product condition covers only in a group: on a table that is not one
    the kernel passes where the loop fails on an inverse."""
    group = groups(data)
    mu = data.draw(graded(group))
    got, want = is_fuzzy_subgroup(mu, group), oracle.is_fuzzy_subgroup(mu, group)
    if want.witness is not None and want.witness[0] == "inverse":
        assert not validate_group(group) and got.ok
    else:
        assert same(got, want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_condition_implies_inverse_condition(data):
    """In a finite group x^-1 = x^(n-1), so mu(xy) >= min(mu(x), mu(y))
    forces mu(x^-1) = mu(x): the fact that lets is_fuzzy_subgroup skip the
    inverse scan."""
    group = data.draw(st.sampled_from(list(catalog().values())))
    mu = data.draw(graded(group))
    table, inverse = group._ints, group._inv
    if all(mu.nums[xy] >= min(mu.nums[x], mu.nums[y])
           for x, row in enumerate(table) for y, xy in enumerate(row)):
        assert all(mu.nums[inverse[x]] == mu.nums[x] for x in range(len(group)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subgroup_checks_match_label_loops(data):
    group = groups(data)
    elements = data.draw(subsets(group))
    assert same(check_subgroup(group, elements), oracle.check_subgroup(group, elements))
    if group in GROUPS:
        assert outcome(coset_action, group, elements) == outcome(
            oracle.coset_action, group, elements)


def components(action) -> list:
    """The connected components of the graph with edges x -- g.x."""
    root = {x: x for x in action.space}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for row in action.table:
        for x, y in zip(action.space, row):
            if y in root:
                root[find(x)] = find(y)
    parts = {}
    for x in action.space:
        parts.setdefault(find(x), []).append(x)
    return list(parts.values())


@st.composite
def actions(draw, stray=True):
    """A catalog group acting on the cosets of one or two subgroups side by
    side, with points in a drawn order and a few entries replaced (breaking
    the composition law), now and then by one or two points outside the
    space, or now and then collapsed onto one point.  Returns the constructor's
    arguments, which it may refuse."""
    group = draw(st.sampled_from(GROUPS))
    space, rows = [], [[] for _ in group.carrier]
    for tag in range(draw(st.integers(1, 2))):
        seed = draw(st.lists(st.sampled_from(group.carrier.elements), max_size=2))
        cosets = oracle.coset_action(group, oracle.subgroup_closure(group, seed))
        labels = [f"{tag}.{k}" for k in range(len(cosets.space))]
        space += labels
        for row, images in zip(rows, cosets.table):
            row += [labels[cosets.space.index(c)] for c in images]
    order = draw(st.permutations(range(len(space))))
    space, rows = [space[i] for i in order], [[row[i] for i in order] for row in rows]
    cell = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(space) - 1))
    for g, x in draw(st.lists(cell, max_size=3)):
        rows[g][x] = draw(st.sampled_from(space))
    if stray and draw(st.integers(0, 9)) == 0:
        for label in ("out", "away")[:draw(st.integers(1, 2))]:
            g, x = draw(cell)
            rows[g][x] = label
    grades = draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1)]),
                           min_size=len(space), max_size=len(space)))
    if draw(st.integers(0, 9)) == 0:
        # Every g sends every point to the ambient's one support point: the
        # composition law holds and the support is reached, but e moves the rest.
        rows = [[space[0]] * len(space) for _ in rows]
        grades = [F(1)] + [F(0)] * (len(space) - 1)
    carrier = Carrier(tuple(space))
    return group, carrier, FuzzySet(carrier, tuple(grades)), rows


def valid_actions():
    """Actions whose every entry is a point of the space, built."""
    return actions(stray=False).map(lambda args: FiniteAction(*args))


@st.composite
def fuzzy_subsets(draw, action):
    """Grades k/4 on the space: at random, or constant on each component of
    the action graph (an invariant set), then maybe one grade moved."""
    grade = st.integers(0, 4).map(lambda k: F(k, 4))
    if draw(st.booleans()):
        grades = {x: draw(grade) for x in action.space}
    else:
        grades = {x: g for part in components(action) for g in [draw(grade)] for x in part}
        if draw(st.booleans()):
            grades[draw(st.sampled_from(action.space.elements))] = draw(grade)
    return FuzzySet.from_map(action.space, grades)


@st.composite
def relations(draw, action):
    """A partition of the space into classes with members in a drawn order:
    unions of components (preserved by the action) or of single points."""
    if draw(st.booleans()):
        items = components(action)
    else:
        items = [[x] for x in action.space]
    block = draw(st.lists(st.integers(0, len(items) - 1),
                          min_size=len(items), max_size=len(items)))
    classes = [[x for item, b in zip(items, block) if b == k for x in item]
               for k in range(len(items))]
    return EquivalenceRelation([draw(st.permutations(c)) for c in classes if c])


# Every g.x = p, with p alone in the ambient's support: only e.q = p fails.
PQ = Carrier(("p", "q"))
COLLAPSE = (cyclic_group(2), PQ, FuzzySet(PQ, (1, 0)), (("p", "p"), ("p", "p")))
# The first point outside the space in row order is "y", the last in its row "x".
OFF_SPACE = (cyclic_group(2), PQ, FuzzySet.ones(PQ), (("p", "q"), ("y", "x")))


@settings(max_examples=200, deadline=None)
@given(actions())
@example(COLLAPSE)
@example(OFF_SPACE)
def test_verify_action_matches_label_loop(args):
    """The constructor refuses exactly the tables in which the label loop
    finds a point outside the space, and names the same first one."""
    try:
        action = FiniteAction(*args)
    except ValueError as exc:
        _, space, _, rows = args
        # Before it finds a stray point the label loop reads only these two.
        want = oracle.verify_action(SimpleNamespace(space=space, table=rows))
        assert (str(exc), want.reason) == (f"action value {want.witness!r} is not a space point",
                                           f"action leaves the space at {want.witness!r}")
    else:
        assert same(verify_action(action), oracle.verify_action(action))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_what_is_built_from_an_action_is_an_action(data):
    """Whatever restrict_to_subgroup, restrict_to_invariant, quotient_action
    and coset_action build from an action that passes verify_action, when
    they do not raise, passes too; so a caller that has checked the action
    need not check what it builds."""
    action = data.draw(valid_actions())
    assume(verify_action(action).ok)
    builds = [
        lambda: restrict_to_subgroup(action, data.draw(subsets(action.group))),
        lambda: restrict_to_invariant(action, data.draw(fuzzy_subsets(action))),
        lambda: quotient_action(action, data.draw(relations(action))),
        lambda: coset_action(action.group, data.draw(subsets(action.group))),
    ]
    for build in builds:
        built = outcome(build)
        if isinstance(built, FiniteAction):
            assert verify_action(built).ok


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_invariance_and_restrictions_match_label_loops(data):
    """The index scans read the action table, so these actions stay in their
    space, as every action that passed verify_action or the parser does."""
    action = data.draw(valid_actions())
    s = data.draw(fuzzy_subsets(action))
    assert same(is_G_invariant(action, s), oracle.is_G_invariant(action, s))
    assert outcome(restrict_to_invariant, action, s) == outcome(
        oracle.restrict_to_invariant, action, s)
    elements = data.draw(subsets(action.group))
    assert outcome(restrict_to_subgroup, action, elements) == outcome(
        oracle.restrict_to_subgroup, action, elements)
    rho = data.draw(relations(action))
    got, want = outcome(quotient_action, action, rho), outcome(oracle.quotient_action, action, rho)
    assert got == want
    if isinstance(got, FiniteAction):
        assert (got.space, got.table) == (want.space, want.table)


def test_s5_on_itself_is_fast():
    """One pass over the action table for invariance and one row-wise scan
    for the composition law.  On a 2-core VM they take about 0.01 s and
    0.04 s, and the label loops in groups_oracle.py 0.7 s and 1.7 s."""
    s5 = symmetric_group(5)
    action = action_from_function(s5, s5.carrier, s5.op)
    s = FuzzySet.constant(action.space, F(1, 2))
    for check in (lambda: is_G_invariant(action, s), lambda: verify_action(action)):
        start = time.perf_counter()
        assert check().ok
        assert time.perf_counter() - start < 0.25
