"""Finite groups, fuzzy subgroups, finite group actions and their
restriction / quotient constructions.

Every predicate returns a Verdict whose witness is the lexicographically
first violation under carrier order, so failures are reproducible.  The
scans run on element indices: a group and an action each cache their table
with every label replaced by its carrier index, and labels come back only
in reasons, witnesses and the structures built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import CarrierMismatchError, DominationError
from .maps import ProperFunction
from .sets import Carrier, FuzzySet, Verdict, format_grade, level_set
from .topology import FuzzyTopology, check_map, product_topology


@dataclass(frozen=True)
class FiniteGroup:
    """Element list, Cayley table, identity and inverse map."""

    carrier: Carrier
    table: tuple  # table[i][j] = carrier.elements[i] * carrier.elements[j]
    identity: object
    inverses: tuple  # aligned with carrier order

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        object.__setattr__(self, "inverses", tuple(self.inverses))

    @classmethod
    def from_table(cls, elements, rows) -> "FiniteGroup":
        """Build from a Cayley table, deriving identity and inverses.

        Raises ValueError when no identity or some inverse is missing; full
        axiom checking is validate_group's job.
        """
        carrier = Carrier(tuple(elements))
        elems = carrier.elements
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != len(elems) or any(len(r) != len(elems) for r in rows):
            raise ValueError("Cayley table must be square and match the element list")
        stray = [v for row in rows for v in row if v not in carrier]
        if stray:
            raise ValueError(f"Cayley entry {stray[0]!r} is not an element")
        columns = tuple(zip(*rows))
        identity = next((e for e, row, col in zip(elems, rows, columns)
                         if row == elems == col), None)
        if identity is None:
            raise ValueError("table has no identity element")
        inverses = []
        for x, row, col in zip(elems, rows, columns):
            inv = next((y for y, a, b in zip(elems, row, col) if a == b == identity), None)
            if inv is None:
                raise ValueError(f"element {x!r} has no inverse")
            inverses.append(inv)
        return cls(carrier, rows, identity, tuple(inverses))

    @cached_property
    def _ints(self) -> tuple:
        """The Cayley table on element indices; KeyError on a stray label."""
        return tuple(tuple(map(self.carrier.index, row)) for row in self.table)

    @cached_property
    def _inv(self) -> tuple:
        """The inverses as element indices."""
        return tuple(map(self.carrier.index, self.inverses))

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
    """Exhaustive closure, associativity, identity and inverse checks."""
    elems = group.carrier.elements
    stray = [v for row in group.table for v in row if v not in group.carrier]
    if stray:
        return Verdict.failed(f"product {stray[0]!r} not an element", witness=stray[0])
    mul, inv = group._ints, group._inv
    e = group.carrier.index(group.identity)
    for x, label in enumerate(elems):
        if mul[e][x] != x or mul[x][e] != x:
            return Verdict.failed(f"identity law fails at {label!r}", witness=label)
        if mul[x][inv[x]] != e or mul[inv[x]][x] != e:
            return Verdict.failed(f"inverse law fails at {label!r}", witness=label)
    bad = _composition_failure(mul, mul)
    if bad is None:
        return Verdict.passed()
    w = tuple(elems[i] for i in bad)
    return Verdict.failed("associativity fails at ({!r},{!r},{!r})".format(*w), witness=w)


def is_fuzzy_subgroup(mu: FuzzySet, group: FiniteGroup) -> Verdict:
    """mu(xy) >= min(mu(x), mu(y)) for all pairs and mu(x^-1) = mu(x)."""
    if mu.carrier != group.carrier:
        raise CarrierMismatchError("fuzzy set carrier differs from the group's elements")
    elems, grade = group.carrier.elements, mu.grades
    for x, row in enumerate(group._ints):
        for y, xy in enumerate(row):
            need = min(grade[x], grade[y])
            if grade[xy] < need:
                return Verdict.failed(
                    f"mu({elems[x]!r}{elems[y]!r})={format_grade(grade[xy])} "
                    f"< min={format_grade(need)}",
                    witness=("pair", (elems[x], elems[y])),
                )
    for x, inverse in enumerate(group._inv):
        if grade[inverse] != grade[x]:
            return Verdict.failed(
                f"mu({elems[x]!r}^-1) != mu({elems[x]!r})", witness=("inverse", elems[x])
            )
    return Verdict.passed()


def level_subgroup_oracle(mu: FuzzySet, group: FiniteGroup) -> bool:
    """Classical characterization used as an independent oracle: every
    level set at a grade of mu (all nonempty) is a subgroup."""
    if mu.carrier != group.carrier:
        raise CarrierMismatchError("fuzzy set carrier differs from the group's elements")
    return all(check_subgroup(group, level_set(mu, t)) for t in set(mu.grades))


def is_fuzzy_topological_group(group: FiniteGroup, tau: FuzzyTopology) -> Verdict:
    """Multiplication and inversion fuzzy continuous for tau on the
    all-ones ambient over the group."""
    ones = FuzzySet.ones(group.carrier)
    if tau.ambient != ones:
        raise CarrierMismatchError("topology ambient must be the all-ones set on the group")
    flags = check_map(ProperFunction(ones, ones, group.inverses), tau, tau)
    if not flags.continuous:
        return Verdict.failed("inversion is not fuzzy continuous", witness=flags.witness)
    tau2 = product_topology(tau, tau)
    # The product carrier is row-major, as is the Cayley table.
    mult = ProperFunction(tau2.ambient, ones, tuple(itertools.chain.from_iterable(group.table)))
    flags = check_map(mult, tau2, tau)
    if not flags.continuous:
        return Verdict.failed("multiplication is not fuzzy continuous", witness=flags.witness)
    return Verdict.passed()


@dataclass(frozen=True)
class FiniteAction:
    """Group action on a finite space carrying an ambient fuzzy set."""

    group: FiniteGroup
    space: Carrier
    ambient: FuzzySet
    table: tuple  # table[gi][xi] = action of group element gi on space element xi

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        if self.ambient.carrier != self.space:
            raise CarrierMismatchError("ambient fuzzy set must live on the action space")

    @classmethod
    def from_function(cls, group: FiniteGroup, space: Carrier, act, ambient=None) -> "FiniteAction":
        ambient = ambient if ambient is not None else FuzzySet.ones(space)
        table = tuple(tuple(act(g, x) for x in space) for g in group.carrier)
        return cls(group, space, ambient, table)

    @cached_property
    def _ints(self) -> tuple:
        """The action table on space indices; KeyError on a stray label."""
        return tuple(tuple(map(self.space.index, row)) for row in self.table)

    def act(self, g, x):
        return self.table[self.group.carrier.index(g)][self.space.index(x)]


def verify_action(action: FiniteAction) -> Verdict:
    """Composition law for every (g,h,x) plus surjectivity onto the support
    of the space's ambient fuzzy set."""
    stray = [y for row in action.table for y in row if y not in action.space]
    if stray:
        return Verdict.failed(f"action leaves the space at {stray[0]!r}", witness=stray[0])
    act, points = action._ints, action.space.elements
    bad = _composition_failure(action.group._ints, act)
    if bad is not None:
        elems = action.group.carrier.elements
        w = (elems[bad[0]], elems[bad[1]], points[bad[2]])
        return Verdict.failed("composition law fails at ({!r},{!r},{!r})".format(*w), witness=w)
    reached = set().union(*act)
    for y, grade in enumerate(action.ambient.grades):
        if grade > 0 and y not in reached:
            return Verdict.failed(f"support point {points[y]!r} not reached", witness=points[y])
    return Verdict.passed()


def is_G_invariant(action: FiniteAction, s: FuzzySet) -> Verdict:
    """s(g.x) >= s(x) for every g and x, that is, the sup-min image of s
    (the max of s(x) over all (g,x) with g.x = y, as the group carries the
    all-ones fuzzy set) lies under s.  One pass over the action table; the
    witness is the least violating (y, g, x) in index order."""
    if s.carrier != action.space:
        raise CarrierMismatchError("fuzzy subset must live on the action space")
    grade, points = s.grades, action.space.elements
    bad = min(((y, g, x) for g, row in enumerate(action._ints) for x, y in enumerate(row)
               if grade[y] < grade[x]), default=None)
    if bad is None:
        return Verdict.passed()
    y, g, x = bad
    at, by, src = witness = (points[y], action.group.carrier.elements[g], points[x])
    return Verdict.failed(
        f"image grade {format_grade(grade[x])} at {at!r} exceeds "
        f"s({at!r})={format_grade(grade[y])} via ({by!r},{src!r})", witness=witness
    )


def subgroup_closure(group: FiniteGroup, elements) -> tuple:
    """Closure of a subset under products and inverses, in carrier order:
    the fixpoint of adding the inverses and products of the members."""
    mul, inv = group._ints, group._inv
    members = set(map(group.carrier.index, (group.identity, *elements)))
    while True:
        grown = members.union((inv[x] for x in members),
                              (mul[x][y] for x in members for y in members))
        if grown == members:
            return tuple(group.carrier.elements[i] for i in sorted(members))
        members = grown


def check_subgroup(group: FiniteGroup, elements) -> Verdict:
    """Is the subset closed under products and inverses and nonempty?"""
    subset = set(elements)
    if not subset:
        return Verdict.failed("empty subset is not a subgroup", witness=None)
    for x in elements:
        if x not in group.carrier:
            return Verdict.failed(f"{x!r} is not a group element", witness=x)
    if group.identity not in subset:
        return Verdict.failed("identity missing", witness=group.identity)
    elems, mul, inv = group.carrier.elements, group._ints, group._inv
    inside = [x in subset for x in elems]
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
    elems, mul, inv = group.carrier.elements, group._ints, group._inv
    return FiniteGroup(
        Carrier(tuple(elems[a] for a in members)),
        tuple(tuple(elems[mul[a][b]] for b in members) for a in members),
        group.identity, tuple(elems[inv[a]] for a in members),
    )


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
    keep = [x for x, g in enumerate(s.grades) if g > 0]
    space = Carrier(s.support())
    ambient = FuzzySet._trusted(space, tuple(s.grades[x] for x in keep))
    rows = (tuple(row[x] for x in keep) for row in action.table)
    return FiniteAction(action.group, space, ambient, rows)


@dataclass(frozen=True)
class EquivalenceRelation:
    """Partition of the action space into disjoint nonempty classes."""

    classes: tuple  # tuple of tuples of space elements

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(tuple(c) for c in self.classes))
        seen = set()
        for c in self.classes:
            if not c:
                raise ValueError("empty equivalence class")
            for x in c:
                if x in seen:
                    raise ValueError(f"element {x!r} in two classes")
                seen.add(x)

    @classmethod
    def identity_on(cls, space: Carrier) -> "EquivalenceRelation":
        return cls(tuple((x,) for x in space))

    def covers(self, space: Carrier) -> bool:
        return {x for c in self.classes for x in c} == set(space.elements)

    def class_of(self, x):
        for c in self.classes:
            if x in c:
                return c
        raise KeyError(f"{x!r} not in any class")


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


def coset_action(group: FiniteGroup, subgroup_elements) -> FiniteAction:
    """Left-translation action on left cosets of a subgroup."""
    check_subgroup(group, subgroup_elements).require("not a subgroup")
    subset = set(subgroup_elements)
    elems, mul = group.carrier.elements, group._ints
    hs = [h for h, x in enumerate(elems) if x in subset]
    cosets = [tuple(sorted({row[h] for h in hs})) for row in mul]  # gH for each g
    firsts = [g for g, c in enumerate(cosets) if c[0] == g]  # each coset by its first element
    named = [tuple(elems[x] for x in c) for c in cosets]
    table = (tuple(named[row[g]] for g in firsts) for row in mul)
    space = Carrier(tuple(named[g] for g in firsts))
    return FiniteAction(group, space, FuzzySet.ones(space), table)


# ---------------------------------------------------------------------------
# Built-in catalog of small groups (orders <= 8).

def cyclic_group(n: int) -> FiniteGroup:
    elems = tuple(range(n))
    rows = tuple(tuple((i + j) % n for j in elems) for i in elems)
    return FiniteGroup.from_table(elems, rows)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elems = tuple((a, b) for a in g.carrier for b in h.carrier)
    rows = tuple(
        tuple((g.op(a1, a2), h.op(b1, b2)) for (a2, b2) in elems)
        for (a1, b1) in elems
    )
    return FiniteGroup.from_table(elems, rows)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of range(n) as image tuples, composed left-to-right:
    (p*q)(i) = p(q(i))."""
    elems = tuple(sorted(itertools.permutations(range(n))))
    rows = tuple(
        tuple(tuple(p[q[i]] for i in range(n)) for q in elems) for p in elems
    )
    return FiniteGroup.from_table(elems, rows)


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
    return FiniteGroup.from_table(elems, rows)


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
    return FiniteGroup.from_table(elems, rows)


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
