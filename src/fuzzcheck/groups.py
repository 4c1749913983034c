"""Finite groups, fuzzy subgroups, finite group actions and their
restriction / quotient constructions.

Every predicate returns a Verdict whose witness is the lexicographically
first violation under carrier order, so failures are reproducible.  A group
or an action converts its table to carrier indices once, when it is built,
and refuses a wrong shape or a stray label with ValueError; a group reads its
identity and inverses off that table.  The scans run on indices, and labels
come back only in reasons, witnesses and the structures built.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter

from .errors import CarrierMismatchError, DominationError
from .maps import ProperFunction, indices
from .record import Frozen
from .sets import Carrier, FuzzySet, Verdict, format_grade
from .topology import DEFAULT_CLOSURE_CAP, FuzzyTopology, check_map, product_topology


class FiniteGroup(Frozen):
    """Element list and square Cayley table; identity and inverses are read off it."""

    def __init__(self, carrier: Carrier, table):
        # table[i][j] = carrier.elements[i] * carrier.elements[j]
        table = tuple(tuple(row) for row in table)
        n = len(carrier)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("Cayley table must be square and match the element list")
        ints = tuple(indices(carrier, row, "Cayley entry {!r} is not an element") for row in table)
        self._set(carrier=carrier, table=table, _ints=ints)

    @cached_property
    def _e(self):
        """Index of the element whose row and column are the element list, or None."""
        return next((i for i, (row, col) in enumerate(zip(self.table, zip(*self.table)))
                     if row == self.carrier.elements == col), None)

    @cached_property
    def _inv(self) -> tuple:
        """Per element, in carrier order, the index of the first y with
        xy = yx = identity, or None where there is none."""
        return tuple(next((y for y, (a, b) in enumerate(zip(row, col)) if a == b == self._e), None)
                     for row, col in zip(self._ints, zip(*self._ints)))

    @cached_property
    def identity(self):
        """The identity's label; None also where the table has none."""
        return None if self._e is None else self.carrier.elements[self._e]

    @cached_property
    def inverses(self) -> tuple:
        """The inverses' labels; None also where an element has none."""
        return tuple(None if y is None else self.carrier.elements[y] for y in self._inv)

    def op(self, a, b):
        return self.table[self.carrier.index(a)][self.carrier.index(b)]

    def inv(self, a):
        return self.inverses[self.carrier.index(a)]

    def __len__(self):
        return len(self.carrier)


def _composition_failure(mul, act):
    """The first (g, h, x) in index order with (gh).x != g.(h.x), or None,
    found row by row: the row of gh must be g applied to the row of h.  With
    act = mul this is associativity, the left-regular action's law."""
    if len(act[0]) == 1:  # one point, which every g fixes; itemgetter would not give tuples
        return None
    apply = [itemgetter(*row) for row in act]  # apply[h](row of g) = g applied to row of h
    for g, (mul_g, act_g) in enumerate(zip(mul, act)):
        for h, gh in enumerate(mul_g):
            left, right = act[gh], apply[h](act_g)
            if left != right:
                return g, h, next(x for x, (l, r) in enumerate(zip(left, right)) if l != r)
    return None


def validate_group(group: FiniteGroup) -> Verdict:
    """An identity, an inverse for each element, associativity."""
    elems = group.carrier.elements
    if group._e is None:
        return Verdict.failed("table has no identity element")
    lost = next((x for x, y in enumerate(group._inv) if y is None), None)
    if lost is not None:
        return Verdict.failed(f"element {elems[lost]!r} has no inverse", witness=elems[lost])
    bad = _composition_failure(group._ints, group._ints)
    if bad is None:
        return Verdict.passed()
    w = tuple(elems[i] for i in bad)
    return Verdict.failed("associativity fails at ({!r},{!r},{!r})".format(*w), witness=w)


def is_fuzzy_subgroup(mu: FuzzySet, group: FiniteGroup) -> Verdict:
    """mu(xy) >= min(mu(x), mu(y)) for all pairs and mu(x^-1) = mu(x).

    Only the product condition is scanned: it implies the inverse one.  The
    group must pass validate_group.  Then x has a finite order n, so
    x^-1 = x^(n-1) and, by the product condition, mu(x^-1) >= mu(x); the
    same for x^-1 gives mu(x) >= mu(x^-1)."""
    if mu.carrier != group.carrier:
        raise CarrierMismatchError("fuzzy set carrier differs from the group's elements")
    elems, grade = group.carrier.elements, mu.nums
    for x, row in enumerate(group._ints):
        for y, xy in enumerate(row):
            if grade[xy] < min(grade[x], grade[y]):
                return Verdict.failed(
                    f"mu({elems[x]!r}{elems[y]!r})={format_grade(mu.grades[xy])} "
                    f"< min={format_grade(min(mu.grades[x], mu.grades[y]))}",
                    witness=("pair", (elems[x], elems[y])),
                )
    return Verdict.passed()


def is_fuzzy_topological_group(group: FiniteGroup, tau: FuzzyTopology,
                               cap: int = DEFAULT_CLOSURE_CAP) -> Verdict:
    """Multiplication and inversion fuzzy continuous for tau on the
    all-ones ambient over the group; tau x tau may hold up to `cap` opens."""
    ones = FuzzySet.ones(group.carrier)
    if tau.ambient != ones:
        raise CarrierMismatchError("topology ambient must be the all-ones set on the group")
    flags = check_map(ProperFunction(ones, ones, group.inverses), tau, tau)
    if not flags.continuous:
        return Verdict.failed("inversion is not fuzzy continuous", witness=flags.witness)
    tau2 = product_topology(tau, tau, cap)
    # The product carrier is row-major, as is the Cayley table.
    mult = ProperFunction(tau2.ambient, ones, tuple(itertools.chain.from_iterable(group.table)))
    flags = check_map(mult, tau2, tau)
    if not flags.continuous:
        return Verdict.failed("multiplication is not fuzzy continuous", witness=flags.witness)
    return Verdict.passed()


class FiniteAction(Frozen):
    """Group action on a finite space carrying an ambient fuzzy set."""

    def __init__(self, group: FiniteGroup, space: Carrier, ambient: FuzzySet, table):
        # table[gi][xi] = gi acting on point xi
        table = tuple(tuple(row) for row in table)
        if ambient.carrier != space:
            raise CarrierMismatchError("ambient fuzzy set must live on the action space")
        if len(table) != len(group) or any(len(r) != len(space) for r in table):
            raise ValueError("action table must have a row per group element, a column per point")
        ints = tuple(indices(space, row, "action value {!r} is not a space point") for row in table)
        self._set(group=group, space=space, ambient=ambient, table=table, _ints=ints)

    def act(self, g, x):
        return self.table[self.group.carrier.index(g)][self.space.index(x)]


def verify_action(action: FiniteAction) -> Verdict:
    """Composition law for every (g,h,x), surjectivity onto the support of
    the space's ambient fuzzy set, then e.x = x, which the first two force
    on an all-ones ambient: e.(g.x) = (eg).x = g.x."""
    act, points = action._ints, action.space.elements
    bad = _composition_failure(action.group._ints, act)
    if bad is not None:
        elems = action.group.carrier.elements
        w = (elems[bad[0]], elems[bad[1]], points[bad[2]])
        return Verdict.failed("composition law fails at ({!r},{!r},{!r})".format(*w), witness=w)
    reached = set().union(*act)
    for y, n in enumerate(action.ambient.nums):
        if n and y not in reached:
            return Verdict.failed(f"support point {points[y]!r} not reached", witness=points[y])
    moved = next((x for x, y in enumerate(act[action.group._e]) if y != x), None)
    if moved is not None:
        return Verdict.failed(f"identity law fails at {points[moved]!r}", witness=points[moved])
    return Verdict.passed()


def is_G_invariant(action: FiniteAction, s: FuzzySet) -> Verdict:
    """s(g.x) >= s(x) for every g and x, that is, the sup-min image of s
    (the max of s(x) over all (g,x) with g.x = y, as the group carries the
    all-ones fuzzy set) lies under s.  One pass over the action table; the
    witness is the least violating (y, g, x) in index order."""
    if s.carrier != action.space:
        raise CarrierMismatchError("fuzzy subset must live on the action space")
    grade, points = s.nums, action.space.elements
    bad = min(((y, g, x) for g, row in enumerate(action._ints) for x, y in enumerate(row)
               if grade[y] < grade[x]), default=None)
    if bad is None:
        return Verdict.passed()
    y, g, x = bad
    at, by, src = witness = (points[y], action.group.carrier.elements[g], points[x])
    return Verdict.failed(
        f"image grade {format_grade(s.grades[x])} at {at!r} exceeds "
        f"s({at!r})={format_grade(s.grades[y])} via ({by!r},{src!r})", witness=witness
    )


def check_subgroup(group: FiniteGroup, elements) -> Verdict:
    """Is the subset of a valid group nonempty and closed under products and inverses?"""
    subset = set(elements)
    if not subset:
        return Verdict.failed("empty subset is not a subgroup", witness=None)
    for x in elements:
        if x not in group.carrier:
            return Verdict.failed(f"{x!r} is not a group element", witness=x)
    elems, mul, inv = group.carrier.elements, group._ints, group._inv
    inside = [x in subset for x in elems]
    if not inside[group._e]:
        return Verdict.failed("identity missing", witness=elems[group._e])
    members = [x for x, m in enumerate(inside) if m]
    for x in members:
        if not inside[inv[x]]:
            return Verdict.failed(f"inverse of {elems[x]!r} missing", witness=elems[x])
        for y in members:
            if not inside[mul[x][y]]:
                return Verdict.failed(
                    f"product {elems[x]!r}{elems[y]!r} escapes", witness=(elems[x], elems[y])
                )
    return Verdict.passed()


def subgroup_of(group: FiniteGroup, elements) -> FiniteGroup:
    subset = set(elements)
    members = [i for i, x in enumerate(group.carrier) if x in subset]
    elems, mul = group.carrier.elements, group._ints
    return FiniteGroup(Carrier(tuple(elems[a] for a in members)),
                       tuple(tuple(elems[mul[a][b]] for b in members) for a in members))


def restrict_to_subgroup(action: FiniteAction, elements) -> FiniteAction:
    """Action of a verified subgroup by restriction."""
    check_subgroup(action.group, elements).require("not a subgroup")
    h = subgroup_of(action.group, elements)
    rows = (row for g, row in zip(action.group.carrier, action.table) if g in h.carrier)
    return FiniteAction(h, action.space, action.ambient, rows)


def restrict_to_invariant(action: FiniteAction, s: FuzzySet) -> FiniteAction:
    """Action restricted to the support of an invariant fuzzy subset, which
    the action maps into itself: s(g.x) >= s(x) > 0."""
    is_G_invariant(action, s).require("subset is not invariant")
    keep = [x for x, n in enumerate(s.nums) if n]
    space = Carrier(s.support())
    ambient = FuzzySet._from_nums(space, tuple(s.nums[x] for x in keep), s.den)
    rows = (tuple(row[x] for x in keep) for row in action.table)
    return FiniteAction(action.group, space, ambient, rows)


class EquivalenceRelation(Frozen):
    """Partition of the action space into disjoint nonempty classes."""

    def __init__(self, classes):  # classes: tuple of tuples of space elements
        self._set(classes=tuple(tuple(c) for c in classes))
        seen = set()
        for c in self.classes:
            if not c:
                raise ValueError("empty equivalence class")
            for x in c:
                if x in seen:
                    raise ValueError(f"element {x!r} in two classes")
                seen.add(x)

    def covers(self, space: Carrier) -> bool:
        return {x for c in self.classes for x in c} == set(space.elements)


def quotient_action(action: FiniteAction, rho: EquivalenceRelation) -> FiniteAction:
    """Action on equivalence classes; requires the relation to be preserved."""
    if not rho.covers(action.space):
        raise ValueError("relation classes must partition the action space")
    members = [tuple(map(action.space.index, c)) for c in rho.classes]
    klass = {x: k for k, c in enumerate(members) for x in c}  # space index -> class number
    table = []
    for g, row in zip(action.group.carrier, action._ints):
        for c, labels in zip(members, rho.classes):
            odd = next((i for i, x in enumerate(c) if klass[row[x]] != klass[row[c[0]]]), 0)
            if odd:
                raise DominationError(
                    f"relation not preserved at ({g!r},{labels[0]!r},{labels[odd]!r})",
                    witness=(g, labels[0], labels[odd]),
                )
        table.append([rho.classes[klass[row[c[0]]]] for c in members])
    space = Carrier(rho.classes)
    return FiniteAction(action.group, space, FuzzySet.ones(space), table)


# ---------------------------------------------------------------------------
# Built-in catalog of small groups (orders <= 8).

def cyclic_group(n: int) -> FiniteGroup:
    elems = tuple(range(n))
    rows = tuple(tuple((i + j) % n for j in elems) for i in elems)
    return FiniteGroup(Carrier(elems), rows)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elems = tuple((a, b) for a in g.carrier for b in h.carrier)
    rows = tuple(
        tuple((g.op(a1, a2), h.op(b1, b2)) for (a2, b2) in elems)
        for (a1, b1) in elems
    )
    return FiniteGroup(Carrier(elems), rows)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of range(n) as image tuples, composed left-to-right:
    (p*q)(i) = p(q(i))."""
    elems = tuple(sorted(itertools.permutations(range(n))))
    rows = tuple(
        tuple(tuple(p[q[i]] for i in range(n)) for q in elems) for p in elems
    )
    return FiniteGroup(Carrier(elems), rows)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon: labels ('r', k) and ('s', k)."""
    elems = tuple(("r", k) for k in range(n)) + tuple(("s", k) for k in range(n))

    def op(a, b):
        (ta, ka), (tb, kb) = a, b
        if ta == "r" and tb == "r":
            return ("r", (ka + kb) % n)
        if ta == "r" and tb == "s":
            return ("s", (ka + kb) % n)
        if ta == "s" and tb == "r":
            return ("s", (ka - kb) % n)
        return ("r", (ka - kb) % n)

    rows = tuple(tuple(op(a, b) for b in elems) for a in elems)
    return FiniteGroup(Carrier(elems), rows)


def quaternion_group() -> FiniteGroup:
    elems = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    sign = {e: (-1 if e.startswith("-") else 1) for e in elems}
    unit = {e: e.lstrip("-") for e in elems}
    mul1 = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def op(a, b):
        s, u = mul1[(unit[a], unit[b])]
        s *= sign[a] * sign[b]
        return u if s == 1 else "-" + u

    rows = tuple(tuple(op(a, b) for b in elems) for a in elems)
    return FiniteGroup(Carrier(elems), rows)


def catalog() -> dict:
    """Named small groups of order at most 8, in a stable order."""
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    groups = {f"Z{n}": cyclic_group(n) for n in range(2, 9)}
    groups["Z2xZ2"] = direct_product(z2, z2)
    groups["Z2xZ4"] = direct_product(z2, z4)
    groups["Z2xZ2xZ2"] = direct_product(z2, direct_product(z2, z2))
    groups["S3"] = symmetric_group(3)
    groups["D4"] = dihedral_group(4)
    groups["Q8"] = quaternion_group()
    return groups
