"""The label scans that `fuzzcheck.groups` replaced, kept as differential
oracles: every law is tested on labels through `FiniteGroup.op`,
`FiniteGroup.inv` and `FiniteAction.act`, in carrier order.  The group and
action file parsers that `fuzzcheck.parsers` replaced are kept here too:
they hold a fresh string per table cell and a `(g, x) -> (y, line)` entry
dict."""

from fuzzcheck.errors import CarrierMismatchError, DominationError, ParseError
from fuzzcheck.groups import FiniteAction, FiniteGroup
from fuzzcheck.parsers import _arrow, _lines, _once
from fuzzcheck.sets import Carrier, FuzzySet, Verdict, format_grade, level_set
from helpers import action_from_function, class_of


def validate_group(group: FiniteGroup) -> Verdict:
    """Exhaustive closure, identity, inverse and associativity checks, with
    the identity and the inverses searched for through `op`."""
    elems = group.carrier.elements
    for row in group.table:
        for v in row:
            if v not in group.carrier:
                return Verdict.failed(f"product {v!r} not an element", witness=v)
    units = [e for e in elems if all(group.op(e, x) == x == group.op(x, e) for x in elems)]
    if not units:
        return Verdict.failed("table has no identity element")
    e = units[0]
    for x in elems:
        if not any(group.op(x, y) == e == group.op(y, x) for y in elems):
            return Verdict.failed(f"element {x!r} has no inverse", witness=x)
    for a in elems:
        for b in elems:
            for c in elems:
                if group.op(group.op(a, b), c) != group.op(a, group.op(b, c)):
                    return Verdict.failed(
                        f"associativity fails at ({a!r},{b!r},{c!r})", witness=(a, b, c)
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
    """Every nonempty level set at a grade of mu is closed under products
    and inverses."""
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


def verify_action(action: FiniteAction) -> Verdict:
    """Composition law for every (g,h,x), surjectivity onto the support of
    the space's ambient fuzzy set, then e.x = x for every x."""
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
    for x in action.space:
        if action.act(action.group.identity, x) != x:
            return Verdict.failed(f"identity law fails at {x!r}", witness=x)
    return Verdict.passed()


def is_G_invariant(action: FiniteAction, s: FuzzySet) -> Verdict:
    """The image grade at y is the max of s(x) over all (g,x) with g.x = y;
    it must lie under s(y)."""
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
    return FiniteGroup(sub_carrier, table)


def restrict_to_subgroup(action: FiniteAction, elements) -> FiniteAction:
    v = check_subgroup(action.group, elements)
    if not v:
        raise DominationError(f"not a subgroup: {v.reason}", witness=v.witness)
    h = subgroup_of(action.group, elements)
    return action_from_function(h, action.space, action.act, action.ambient)


def restrict_to_invariant(action: FiniteAction, s: FuzzySet) -> FiniteAction:
    v = is_G_invariant(action, s)
    if not v:
        raise DominationError(f"subset is not invariant: {v.reason}", witness=v.witness)
    support = s.support()
    space = Carrier(support)
    ambient = FuzzySet(space, tuple(s(x) for x in support))
    for g in action.group.carrier:
        for x in support:
            if action.act(g, x) not in space:
                raise DominationError(
                    f"action leaves the support at ({g!r},{x!r})", witness=(g, x)
                )
    return action_from_function(action.group, space, action.act, ambient)


def quotient_action(action: FiniteAction, rho) -> FiniteAction:
    if not rho.covers(action.space):
        raise ValueError("relation classes must partition the action space")
    for g in action.group.carrier:
        for c in rho.classes:
            rep = class_of(rho, action.act(g, c[0]))
            for x in c[1:]:
                if class_of(rho, action.act(g, x)) != rep:
                    raise DominationError(
                        f"relation not preserved at ({g!r},{c[0]!r},{x!r})",
                        witness=(g, c[0], x),
                    )
    space = Carrier(rho.classes)
    return action_from_function(
        action.group, space, lambda g, c: class_of(rho, action.act(g, c[0]))
    )


def coset_action(group: FiniteGroup, subgroup_elements) -> FiniteAction:
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

    return action_from_function(group, space, act)


def load_group(path) -> FiniteGroup:
    """`elements: a b c ...` then one Cayley row per element."""
    elements = None
    rows = []
    for no, line in _lines(path):
        if line.startswith("elements:"):
            _once(path, no, elements, "elements:")
            elements = tuple(line.split(":", 1)[1].split())
            if not elements:
                raise ParseError(path, no, "empty element list")
            known = set(elements)
            if len(known) < len(elements):
                dup = next(x for i, x in enumerate(elements) if x in elements[:i])
                raise ParseError(path, no, f"duplicate element {dup!r}")
            continue
        if elements is None:
            raise ParseError(path, no, "expected 'elements:' line first")
        row = tuple(line.split())
        if len(row) != len(elements):
            raise ParseError(
                path, no, f"Cayley row has {len(row)} entries, expected {len(elements)}"
            )
        stray = next((v for v in row if v not in known), None)
        if stray is not None:
            raise ParseError(path, no, f"Cayley entry {stray!r} is not an element")
        rows.append(row)
    if elements is None:
        raise ParseError(path, 1, "missing 'elements:' line")
    if len(rows) != len(elements):
        raise ParseError(path, 1, f"expected {len(elements)} Cayley rows, got {len(rows)}")
    return FiniteGroup(Carrier(elements), rows)


def load_action(path, group: FiniteGroup) -> FiniteAction:
    """One `g x -> y` line per (group element, space point) pair; the space
    is the ordered set of points as first seen on the x side."""
    entries = {}  # (g, x) -> (y, line number)
    for no, line in _lines(path):
        lhs, rhs = _arrow(path, no, line, "g x -> y")
        parts = lhs.split()
        if len(parts) != 2:
            raise ParseError(path, no, "expected 'g x -> y'")
        g, x = parts
        if g not in group.carrier:
            raise ParseError(path, no, f"{g!r} is not a group element")
        if (g, x) in entries:
            raise ParseError(path, no, f"duplicate entry for ({g!r},{x!r})")
        entries[(g, x)] = rhs, no
    if not entries:
        raise ParseError(path, 1, "empty action file")
    space = Carrier(tuple(dict.fromkeys(x for _, x in entries)))
    for y, no in entries.values():
        if y not in space:
            raise ParseError(path, no, f"action value {y!r} is not a space point")
    missing = [(g, x) for g in group.carrier for x in space if (g, x) not in entries]
    if missing:
        raise ParseError(path, 1, "action undefined at ({!r},{!r})".format(*missing[0]))
    table = tuple(tuple(entries[g, x][0] for x in space) for g in group.carrier)
    return FiniteAction(group, space, FuzzySet.ones(space), table)
