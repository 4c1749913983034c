"""Differential tests: `image`, `preimage` and `is_fuzzy_homomorphism` on
the images as target indices against the label loops in `maps_oracle.py`.
Fuzzy sets, verdicts, reasons and witnesses must be equal."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import maps_oracle as oracle
from fuzzcheck.errors import DominationError
from fuzzcheck.groups import catalog, cyclic_group, dihedral_group, symmetric_group
from fuzzcheck.maps import ProperFunction, image, is_fuzzy_homomorphism, preimage
from fuzzcheck.sets import Carrier, FuzzySet, intersection

GROUPS = list(catalog().values()) + [symmetric_group(4), dihedral_group(6)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except DominationError as exc:
        return str(exc), repr(exc.witness)


@st.composite
def graded(draw, carrier, q):
    return FuzzySet(carrier, tuple(F(draw(st.integers(0, q)), q) for _ in carrier))


@st.composite
def maps(draw):
    """A map between small carriers with grades k/q."""
    q = draw(st.integers(1, 4))
    source = Carrier(tuple(f"x{i}" for i in range(draw(st.integers(1, 5)))))
    target = Carrier(tuple(f"y{i}" for i in range(draw(st.integers(1, 5)))))
    images = draw(st.lists(st.sampled_from(target.elements),
                           min_size=len(source), max_size=len(source)))
    return ProperFunction(draw(graded(source, q)), draw(graded(target, q)), images), q


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_image_and_preimage_match_label_loops(data):
    """A and B lie under their bounds, or are drawn freely and then mostly
    exceed them."""
    f, q = data.draw(maps())
    a = data.draw(graded(f.source.carrier, q))
    b = data.draw(graded(f.target.carrier, q))
    if data.draw(st.booleans()):
        a, b = intersection([a, f.source]), intersection([b, f.target])
    assert outcome(image, f, a) == outcome(oracle.image, f, a)
    assert outcome(preimage, f, b) == outcome(oracle.preimage, f, b)


def _homomorphisms():
    """Identities, trivial maps, and reduction Zn -> Zm for m dividing n."""
    homs = [(g, g, g.carrier.elements) for g in GROUPS]
    homs += [(g, h, (h.identity,) * len(g)) for g in GROUPS[:3] + GROUPS[-2:]
             for h in GROUPS[:3]]
    homs += [(cyclic_group(n), cyclic_group(m), tuple(x % m for x in range(n)))
             for n in range(2, 9) for m in range(2, n + 1) if n % m == 0]
    return homs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_homomorphisms()), st.data())
def test_homomorphism_scan_matches_label_loop(hom, data):
    """A homomorphism with up to two images replaced."""
    src, tgt, images = hom
    images = list(images)
    for _ in range(data.draw(st.integers(0, 2))):
        images[data.draw(st.integers(0, len(images) - 1))] = data.draw(
            st.sampled_from(tgt.carrier.elements))
    f = ProperFunction(FuzzySet.ones(src.carrier), FuzzySet.ones(tgt.carrier), images)
    got, want = is_fuzzy_homomorphism(f, src, tgt), oracle.is_fuzzy_homomorphism(f, src, tgt)
    assert (got.ok, got.reason, repr(got.witness)) == (want.ok, want.reason, repr(want.witness))
