"""The value classes' record contract.  Each is built through its public
constructor, by keyword and by position, and must show as
`Name(field=value, ...)`, compare equal field by field and only to its own
class, differ once one field differs, and keep its constructor defaults.  A
frozen class hashes equal instances equally and refuses every attribute
assignment; a mutable one is unhashable and takes assignments.  Every
argument below is given in the form the constructor stores, so the stored
fields are the arguments themselves."""

from fractions import Fraction as F

import pytest

from fuzzcheck.groups import EquivalenceRelation, FiniteAction, FiniteGroup
from fuzzcheck.lie import (
    ClassifierCase, Condition, MembershipClassifier, SampleSet, StructureConstants,
)
from fuzzcheck.manifold import (
    Atlas, AtlasReport, C1Report, CoverReport, GLDemoReport, PairCheck, SampledChart,
    Tolerances, TransitionMap, circle_phi_atlas, transition_map,
)
from fuzzcheck.maps import MapFlags, ProperFunction
from fuzzcheck.record import Frozen, Record
from fuzzcheck.report import Report
from fuzzcheck.sets import Carrier, FuzzyPoint, FuzzySet, Verdict
from fuzzcheck.topology import FuzzyTopology, GradeLattice, TopoMapFlags

AB = Carrier(("a", "b"))
ONES = FuzzySet.ones(AB)
HALF = FuzzySet(AB, (F(1, 2), 1))
Z2 = FiniteGroup(Carrier(("e", "g")), (("e", "g"), ("g", "e")))
CHART = SampledChart("c", abs, float, None)
POSITIVE_X = Condition(0, "gt0")

# (class, every field and its value in constructor order, the defaults of
# the trailing fields that have one, a field to change and its new value)
CASES = [
    (Verdict, dict(ok=False, reason="r", witness=("a", 1)),
     dict(reason="", witness=None), ("witness", "b")),
    (Carrier, dict(elements=("a", "b")), {}, ("elements", ("b", "a"))),
    (FuzzyPoint, dict(base="a", height=F(1, 2)), {}, ("height", F(1, 3))),
    (GradeLattice, dict(q=4), {}, ("q", 2)),
    (FuzzyTopology, dict(ambient=ONES, opens=frozenset({FuzzySet.zero(AB), ONES}),
                         lattice=GradeLattice(1)), {}, ("lattice", GradeLattice(2))),
    (TopoMapFlags, dict(continuous=True, open=False, homeomorphism=False, witness=("image", HALF)),
     dict(witness=None), ("open", True)),
    (ProperFunction, dict(source=ONES, target=ONES, images=("b", "a")), {},
     ("images", ("a", "b"))),
    (MapFlags, dict(injective=True, surjective=False, bijective=False, witness="b"),
     dict(witness=None), ("surjective", True)),
    (FiniteGroup, dict(carrier=Z2.carrier, table=Z2.table), {},
     ("table", (("e", "g"), ("g", "g")))),
    (FiniteAction, dict(group=Z2, space=AB, ambient=ONES, table=(("a", "b"), ("b", "a"))), {},
     ("table", (("a", "b"), ("a", "b")))),
    (EquivalenceRelation, dict(classes=(("a",), ("b",))), {}, ("classes", (("a", "b"),))),
    (StructureConstants, dict(dim=2, scale=1, ints={(0, 1): ((0, 1),)}), {}, ("ints", {})),
    (Condition, dict(coord=0, op="gt0"), {}, ("op", "lt0")),
    (ClassifierCase, dict(conditions=(POSITIVE_X,), grade=F(1, 2)), {}, ("grade", F(1, 4))),
    (MembershipClassifier, dict(dim=2, cases=(ClassifierCase((POSITIVE_X,), 1),), default=F(0)),
     {}, ("default", F(1, 4))),
    (SampleSet, dict(vectors=((F(0), F(0)), (F(1), F(0))), scalars=(F(2),)), {},
     ("scalars", (F(3),))),
    (Tolerances, dict(eps_inv=1e-8, eps_deriv=1e-5, h0=1e-2, cover_eps=0.1, lipschitz_cap=10.0),
     dict(eps_inv=1e-9, eps_deriv=1e-6, h0=1e-3, cover_eps=0.0, lipschitz_cap=1e3),
     ("cover_eps", 0.2)),
    (SampledChart, dict(label="c", membership=abs, coord=float, coord_inverse=None), {},
     ("label", "d")),
    (Atlas, dict(charts=(CHART,), samples=(0.0, 0.5), tolerances=Tolerances(h0=0.1),
                 seam_points=(0.5,)),
     dict(tolerances=Tolerances(), seam_points=()), ("samples", (0.0,))),
    (CoverReport, dict(ok=False, max_deficiency=0.5, worst_point=0.25), {},
     ("worst_point", 0.75)),
    (TransitionMap, dict(source=CHART, target=CHART, coords=(0.0, 1.0), values=(1.0, 2.0),
                         seams=()), {}, ("seams", (0.5,))),
    (C1Report, dict(ok=False, reason="r", witness=0.5, max_stability_error=1e-7,
                    max_derivative_jump=2.0, checked_points=3),
     dict(reason="", witness=None, max_stability_error=0.0, max_derivative_jump=0.0,
          checked_points=0), ("checked_points", 4)),
    (PairCheck, dict(source_label="c0", target_label="c1", report=C1Report(True)), {},
     ("target_label", "c2")),
    (AtlasReport, dict(cover=CoverReport(True, 0.0, None), pairs=[], transitions_ok=True), {},
     ("transitions_ok", False)),
    (GLDemoReport, dict(n=2, samples=3, max_det_gradient_error=1e-9, max_mult_instability=1e-10,
                        max_inv_instability=1e-8, max_orthogonality_error=1e-15,
                        inclusion_rank=4, ok=True), {}, ("inclusion_rank", 3)),
    (Report, dict(command="c", verdict="pass", provenance="p", witness={"at": 1},
                  metrics={"m": 2}, notes=["n"]),
     dict(witness={}, metrics={}, notes=[]), ("verdict", "fail")),
]
MUTABLE = {C1Report, PairCheck, AtlasReport, GLDemoReport, Report}


@pytest.mark.parametrize("cls, fields, defaults, change", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, fields, defaults, change):
    a, b = cls(**fields), cls(*fields.values())
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == repr(b) == f"{cls.__name__}({body})"
    assert a == b and not a != b
    assert a != tuple(fields.values())
    name, value = change
    assert a != cls(**{**fields, name: value})
    required = {k: v for k, v in fields.items() if k not in defaults}
    assert {k: getattr(cls(**required), k) for k in defaults} == defaults
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, value)
        assert getattr(a, name) == value
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        assert getattr(a, name) == fields[name]


def test_transition_map_of_an_atlas_keeps_the_contract():
    """transition_map stores its table as tuples of floats, so the map of
    one chart pair compares and hashes equal to itself rebuilt."""
    atlas = circle_phi_atlas(16)
    a, b = transition_map(atlas, 0, 1), transition_map(atlas, 0, 1)
    assert a == b and hash(a) == hash(b) and a != transition_map(atlas, 1, 0)
    assert {type(v) for v in a.coords + a.values} == {float}
    assert list(a.coords) == sorted(a.coords) and len(a.coords) == len(a.values) == 14


def test_fuzzy_set_contract():
    """FuzzySet keeps its own repr and compares by (carrier, nums, den)."""
    a, b = FuzzySet(AB, (F(1, 2), 1)), FuzzySet(AB, ("2/4", 1))
    assert repr(a) == "FuzzySet('a':1/2, 'b':1)"
    assert a == b and hash(a) == hash(b) and (a.nums, a.den) == ((1, 2), 2)
    assert a != FuzzySet(AB, (F(1, 2), F(1, 2))) and a != FuzzySet(Carrier(("a", "c")), a.grades)
    with pytest.raises(AttributeError):
        a.den = 4
    assert a.grades == (F(1, 2), F(1)) and a.grades is a.grades  # cached past the frozen setattr


def test_every_record_class_is_covered():
    """The 27 value classes: the 26 above and FuzzySet."""
    classes = {*Record.__subclasses__(), *Frozen.__subclasses__()} - {Frozen}
    assert classes == {case[0] for case in CASES} | {FuzzySet}
    assert len(classes) == 27
