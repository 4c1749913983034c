"""Constructors only the tests need: actions and maps built from Python
callables and dicts, composition of maps, and the class of an element under
a relation."""

from fuzzcheck.errors import CarrierMismatchError
from fuzzcheck.groups import EquivalenceRelation, FiniteAction, FiniteGroup
from fuzzcheck.maps import ProperFunction
from fuzzcheck.sets import Carrier, FuzzySet


def action_from_function(group: FiniteGroup, space: Carrier, act, ambient=None) -> FiniteAction:
    """The action g . x = act(g, x), carrying `ambient` (all ones by default)."""
    ambient = ambient if ambient is not None else FuzzySet.ones(space)
    table = tuple(tuple(act(g, x) for x in space) for g in group.carrier)
    return FiniteAction(group, space, ambient, table)


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
