"""Finite groups, fuzzy subgroups, finite group actions and their
restriction / quotient constructions.

Every predicate returns a Verdict whose witness is the lexicographically
first violation under carrier order, so failures are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
        n = len(carrier)
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("Cayley table must be square and match the element list")
        for row in rows:
            for v in row:
                if v not in carrier:
                    raise ValueError(f"Cayley entry {v!r} is not an element")
        identity = None
        for i, e in enumerate(carrier.elements):
            if all(
                rows[i][j] == x and rows[j][i] == x
                for j, x in enumerate(carrier.elements)
            ):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverses = []
        for i, x in enumerate(carrier.elements):
            inv = next(
                (y for j, y in enumerate(carrier.elements)
                 if rows[i][j] == identity and rows[j][i] == identity),
                None,
            )
            if inv is None:
                raise ValueError(f"element {x!r} has no inverse")
            inverses.append(inv)
        return cls(carrier, rows, identity, tuple(inverses))

    def op(self, a, b):
        return self.table[self.carrier.index(a)][self.carrier.index(b)]

    def inv(self, a):
        return self.inverses[self.carrier.index(a)]

    def __len__(self):
        return len(self.carrier)


def validate_group(group: FiniteGroup) -> Verdict:
    """Exhaustive closure, associativity, identity and inverse checks."""
    elems = group.carrier.elements
    for row in group.table:
        for v in row:
            if v not in group.carrier:
                return Verdict.failed(f"product {v!r} not an element", witness=v)
    e = group.identity
    for x in elems:
        if group.op(e, x) != x or group.op(x, e) != x:
            return Verdict.failed(f"identity law fails at {x!r}", witness=x)
        if group.op(x, group.inv(x)) != e or group.op(group.inv(x), x) != e:
            return Verdict.failed(f"inverse law fails at {x!r}", witness=x)
    # Associativity row by row on the index table: for each (a, b), the
    # row of ab must equal a times the row of b.
    index = group.carrier.index
    table = [tuple(map(index, row)) for row in group.table]
    for a, row_a in enumerate(table):
        for b, ab in enumerate(row_a):
            left, right = table[ab], tuple(map(row_a.__getitem__, table[b]))
            if left != right:
                c = next(c for c, (l, r) in enumerate(zip(left, right)) if l != r)
                witness = (elems[a], elems[b], elems[c])
                return Verdict.failed(
                    "associativity fails at ({!r},{!r},{!r})".format(*witness), witness=witness
                )
    return Verdict.passed()


def is_fuzzy_subgroup(mu: FuzzySet, group: FiniteGroup) -> Verdict:
    """mu(xy) >= min(mu(x), mu(y)) for all pairs and mu(x^-1) = mu(x)."""
    if mu.carrier != group.carrier:
        raise CarrierMismatchError("fuzzy set carrier differs from the group's elements")
    for x in group.carrier:
        for y in group.carrier:
            need = min(mu(x), mu(y))
            got = mu(group.op(x, y))
            if got < need:
                return Verdict.failed(
                    f"mu({x!r}{y!r})={format_grade(got)} < min={format_grade(need)}",
                    witness=("pair", (x, y)),
                )
    for x in group.carrier:
        if mu(group.inv(x)) != mu(x):
            return Verdict.failed(
                f"mu({x!r}^-1) != mu({x!r})", witness=("inverse", x)
            )
    return Verdict.passed()


def level_subgroup_oracle(mu: FuzzySet, group: FiniteGroup) -> bool:
    """Classical characterization used as an independent oracle: every
    nonempty level set at a grade of mu is closed under products and
    inverses."""
    if mu.carrier != group.carrier:
        raise CarrierMismatchError("fuzzy set carrier differs from the group's elements")
    for t in sorted(set(mu.grades)):
        subset = set(level_set(mu, t))
        if not subset:
            continue
        for x in subset:
            if group.inv(x) not in subset:
                return False
            for y in subset:
                if group.op(x, y) not in subset:
                    return False
    return True


def is_fuzzy_topological_group(group: FiniteGroup, tau: FuzzyTopology) -> Verdict:
    """Multiplication and inversion fuzzy continuous for tau on the
    all-ones ambient over the group."""
    ones = FuzzySet.ones(group.carrier)
    if tau.ambient != ones:
        raise CarrierMismatchError("topology ambient must be the all-ones set on the group")
    inv_map = ProperFunction(ones, ones, tuple(group.inv(x) for x in group.carrier))
    flags = check_map(inv_map, tau, tau)
    if not flags.continuous:
        return Verdict.failed("inversion is not fuzzy continuous", witness=flags.witness)
    tau2 = product_topology(tau, tau)
    mult = ProperFunction(
        tau2.ambient, ones, tuple(group.op(x, y) for (x, y) in tau2.ambient.carrier)
    )
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

    def act(self, g, x):
        return self.table[self.group.carrier.index(g)][self.space.index(x)]


def verify_action(action: FiniteAction) -> Verdict:
    """Composition law for every (g,h,x) plus surjectivity onto the support
    of the space's ambient fuzzy set."""
    for row in action.table:
        for y in row:
            if y not in action.space:
                return Verdict.failed(f"action leaves the space at {y!r}", witness=y)
    for g in action.group.carrier:
        for h in action.group.carrier:
            gh = action.group.op(g, h)
            for x in action.space:
                if action.act(g, action.act(h, x)) != action.act(gh, x):
                    return Verdict.failed(
                        f"composition law fails at ({g!r},{h!r},{x!r})",
                        witness=(g, h, x),
                    )
    reached = {y for row in action.table for y in row}
    for y in action.ambient.support():
        if y not in reached:
            return Verdict.failed(f"support point {y!r} not reached", witness=y)
    return Verdict.passed()


def is_G_invariant(action: FiniteAction, s: FuzzySet) -> Verdict:
    """Sup-min image of s under the action must lie under s.

    The group carries the all-ones fuzzy set, so the image grade at y is
    the max of s(x) over all (g,x) with g.x = y.
    """
    if s.carrier != action.space:
        raise CarrierMismatchError("fuzzy subset must live on the action space")
    for y in action.space:
        for g in action.group.carrier:
            for x in action.space:
                if action.act(g, x) == y and s(x) > s(y):
                    return Verdict.failed(
                        f"image grade {format_grade(s(x))} at {y!r} exceeds "
                        f"s({y!r})={format_grade(s(y))} via ({g!r},{x!r})",
                        witness=(y, g, x),
                    )
    return Verdict.passed()


def subgroup_closure(group: FiniteGroup, elements) -> tuple:
    """Closure of a subset under products and inverses, in carrier order."""
    members = {group.identity}
    members.update(elements)
    changed = True
    while changed:
        changed = False
        for x in list(members):
            if group.inv(x) not in members:
                members.add(group.inv(x))
                changed = True
            for y in list(members):
                if group.op(x, y) not in members:
                    members.add(group.op(x, y))
                    changed = True
    return tuple(x for x in group.carrier if x in members)


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
    for x in group.carrier:
        if x not in subset:
            continue
        if group.inv(x) not in subset:
            return Verdict.failed(f"inverse of {x!r} missing", witness=x)
        for y in group.carrier:
            if y in subset and group.op(x, y) not in subset:
                return Verdict.failed(f"product {x!r}{y!r} escapes", witness=(x, y))
    return Verdict.passed()


def subgroup_of(group: FiniteGroup, elements) -> FiniteGroup:
    ordered = tuple(x for x in group.carrier if x in set(elements))
    sub_carrier = Carrier(ordered)
    table = tuple(tuple(group.op(a, b) for b in ordered) for a in ordered)
    return FiniteGroup(sub_carrier, table, group.identity,
                       tuple(group.inv(x) for x in ordered))


def restrict_to_subgroup(action: FiniteAction, elements) -> FiniteAction:
    """Action of a verified subgroup by restriction."""
    v = check_subgroup(action.group, elements)
    if not v:
        raise DominationError(f"not a subgroup: {v.reason}", witness=v.witness)
    h = subgroup_of(action.group, elements)
    return FiniteAction.from_function(h, action.space, action.act, action.ambient)


def restrict_to_invariant(action: FiniteAction, s: FuzzySet) -> FiniteAction:
    """Action restricted to the support of an invariant fuzzy subset."""
    v = is_G_invariant(action, s)
    if not v:
        raise DominationError(f"subset is not invariant: {v.reason}", witness=v.witness)
    support = s.support()
    space = Carrier(support)
    ambient = FuzzySet(space, tuple(s(x) for x in support))
    for g in action.group.carrier:
        for x in support:
            if action.act(g, x) not in space:
                # Unreachable for genuinely invariant subsets; guards the contract.
                raise DominationError(
                    f"action leaves the support at ({g!r},{x!r})", witness=(g, x)
                )
    return FiniteAction.from_function(action.group, space, action.act, ambient)


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
    for g in action.group.carrier:
        for c in rho.classes:
            rep = rho.class_of(action.act(g, c[0]))
            for x in c[1:]:
                if rho.class_of(action.act(g, x)) != rep:
                    raise DominationError(
                        f"relation not preserved at ({g!r},{c[0]!r},{x!r})",
                        witness=(g, c[0], x),
                    )
    space = Carrier(rho.classes)
    return FiniteAction.from_function(
        action.group, space, lambda g, c: rho.class_of(action.act(g, c[0]))
    )


def coset_action(group: FiniteGroup, subgroup_elements) -> FiniteAction:
    """Left-translation action on left cosets of a subgroup."""
    v = check_subgroup(group, subgroup_elements)
    if not v:
        raise DominationError(f"not a subgroup: {v.reason}", witness=v.witness)
    subset = set(subgroup_elements)
    cosets = []
    covered = set()
    for g in group.carrier:
        if g in covered:
            continue
        coset = tuple(x for x in group.carrier if x in {group.op(g, h) for h in subset})
        cosets.append(coset)
        covered.update(coset)
    space = Carrier(tuple(cosets))

    def act(g, coset):
        rep = group.op(g, coset[0])
        return next(c for c in cosets if rep in c)

    return FiniteAction.from_function(group, space, act)


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
