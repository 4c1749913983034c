"""Constructors only the tests need: actions and maps built from Python
callables and dicts, the coset action, composition of maps, and the class of
an element under a relation."""

from fuzzcheck.errors import CarrierMismatchError
from fuzzcheck.groups import (
    EquivalenceRelation, FiniteAction, FiniteGroup, check_subgroup, quotient_action,
)
from fuzzcheck.maps import ProperFunction
from fuzzcheck.sets import Carrier, FuzzySet


def action_from_function(group: FiniteGroup, space: Carrier, act, ambient=None) -> FiniteAction:
    """The action g . x = act(g, x), carrying `ambient` (all ones by default)."""
    ambient = ambient if ambient is not None else FuzzySet.ones(space)
    table = tuple(tuple(act(g, x) for x in space) for g in group.carrier)
    return FiniteAction(group, space, ambient, table)


def coset_action(group: FiniteGroup, subgroup_elements) -> FiniteAction:
    """Left-translation action on left cosets of a subgroup: the quotient of
    the left-regular action by the cosets, ordered by their least elements."""
    check_subgroup(group, subgroup_elements).require("not a subgroup")
    subset, elems = set(subgroup_elements), group.carrier.elements
    hs = [h for h, x in enumerate(elems) if x in subset]
    cosets = sorted({tuple(sorted(row[h] for h in hs)) for row in group._ints})  # each gH
    regular = FiniteAction(group, group.carrier, FuzzySet.ones(group.carrier), group.table)
    return quotient_action(regular, EquivalenceRelation([[elems[x] for x in c] for c in cosets]))


def map_from_dict(source: FuzzySet, target: FuzzySet, mapping: dict) -> ProperFunction:
    try:
        images = tuple(mapping[x] for x in source.carrier)
    except KeyError as exc:
        raise ValueError(f"map not defined at {exc.args[0]!r}") from None
    return ProperFunction(source, target, images)


def compose(f: ProperFunction, g: ProperFunction) -> ProperFunction:
    """g after f; requires f's target to be g's source."""
    if f.target != g.source:
        raise CarrierMismatchError("target of first map must equal source of second")
    return ProperFunction(f.source, g.target, tuple(g.of(y) for y in f.images))


def class_of(rho: EquivalenceRelation, x) -> tuple:
    for c in rho.classes:
        if x in c:
            return c
    raise KeyError(f"{x!r} not in any class")
