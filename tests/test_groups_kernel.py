"""Differential tests: `validate_group`'s row-wise associativity check on
the index table against the triple loop in `groups_oracle.py`.  Verdicts,
reasons and witnesses must be equal."""

from hypothesis import given, settings, strategies as st

import groups_oracle as oracle
from fuzzcheck.groups import FiniteGroup, catalog, dihedral_group, symmetric_group, validate_group

GROUPS = list(catalog().values()) + [symmetric_group(4), dihedral_group(6)]


@st.composite
def tables(draw):
    """A catalog group with a few Cayley entries replaced: anywhere (often
    breaking the identity or inverse law first), or only off the identity's
    row and column and off the inverse positions, so that associativity
    decides; now and then by a label outside the carrier."""
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
        rows[draw(index)][draw(index)] = "stray"
    return FiniteGroup(group.carrier, rows, group.identity, group.inverses)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_validate_group_matches_triple_loop(group):
    got, want = validate_group(group), oracle.validate_group(group)
    assert (got.ok, got.reason, repr(got.witness)) == (want.ok, want.reason, repr(want.witness))
