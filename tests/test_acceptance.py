"""Acceptance gate: the nine end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import contextlib
import io
import itertools
import math
import random
import time
from fractions import Fraction as F

from fuzzcheck.cli import execute
from fuzzcheck.groups import (
    EquivalenceRelation,
    catalog,
    cyclic_group,
    is_G_invariant,
    is_fuzzy_subgroup,
    quotient_action,
    restrict_to_subgroup,
    symmetric_group,
    verify_action,
)
from fuzzcheck.manifold import (
    check_atlas,
    check_cover_condition,
    circle_phi_atlas,
    circle_psi_atlas,
    gl_demo,
    transition_map,
)
from fuzzcheck.maps import ProperFunction, image, preimage
from fuzzcheck.sets import Carrier, FuzzySet, is_subset
from fuzzcheck.topology import (
    DEFAULT_CLOSURE_CAP,
    GradeLattice,
    check_map,
    generate,
    verify_axioms,
)
from groups_oracle import level_subgroup_oracle, subgroup_closure
from helpers import action_from_function, compose, coset_action


def _verdict(number: int, title: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {title}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


def test_criterion_1_bracket_demo_reproduction():
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = execute(["demo-example-2-14", "--format", "machine"])
    elapsed = time.perf_counter() - start
    fields = dict(line.split("=", 1) for line in buf.getvalue().strip().splitlines())
    ok = (
        code == 1
        and fields["SUBALGEBRA"] == "no-violation"
        and fields["IDEAL"] == "violated"
        and fields["WITNESS_X"] == "(0,0,1)"
        and fields["WITNESS_Y"] == "(1,1,1)"
        and fields["MU_BRACKET"] == "0"
        and fields["MAX_GRADE"] == "1/4"
        and elapsed < 5.0
    )
    _verdict(1, "cross-product bracket demo with exact witness", ok)


def test_criterion_2_circle_transitions():
    start = time.perf_counter()
    phi = circle_phi_atlas(1024)
    psi = circle_psi_atlas(1024)

    tr_phi = transition_map(phi, 0, 1)
    ok = True
    for s, v in zip(tr_phi.coords, tr_phi.values):
        expected = s if s < 0.5 else s - 1.0
        ok = ok and abs(v - expected) <= 1e-9
    tr_psi = transition_map(psi, 0, 1)
    for s, v in zip(tr_psi.coords, tr_psi.values):
        ok = ok and abs(v - math.sqrt(1.0 - s * s)) <= 1e-9

    for rep in (check_atlas(phi), check_atlas(psi)):
        ok = ok and rep.transitions_ok
        ok = ok and all(p.report.max_stability_error < 1e-4 for p in rep.pairs)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(2, "circle transition maps exact and C1 at 1024 samples", ok)


def test_criterion_3_cover_diagnostics():
    phi = circle_phi_atlas(1024)
    psi = circle_psi_atlas(1024)
    raw_phi = check_cover_condition(phi)
    raw_psi = check_cover_condition(psi)
    ok = (
        raw_phi.max_deficiency == 0.5
        and raw_phi.worst_point == 0.0
        and raw_psi.max_deficiency == 0.75
        and check_cover_condition(phi, normalize=True).max_deficiency == 0.0
        and check_cover_condition(psi, normalize=True).max_deficiency == 0.0
    )
    _verdict(3, "cover deficiency 1/2 (seam chart) and 3/4 (projection charts)", ok)


def test_criterion_4_level_set_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240814)
    agree = 0
    total = 0
    for group in catalog().values():
        for _ in range(1000):
            mu = FuzzySet(
                group.carrier,
                tuple(F(rng.randint(0, 8), 8) for _ in group.carrier),
            )
            total += 1
            if is_fuzzy_subgroup(mu, group).ok == level_subgroup_oracle(mu, group):
                agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == total and total == 13000 and elapsed < 60.0
    _verdict(4, f"subgroup predicate agrees with level-set oracle on {total} cases", ok)


def test_criterion_5_topology_generation_soundness():
    rng = random.Random(5150)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        q = rng.randint(1, 4)
        carrier = Carrier(tuple(f"e{i}" for i in range(n)))
        lattice = GradeLattice(q)
        ambient = FuzzySet.ones(carrier)
        gens = [
            FuzzySet(carrier, tuple(F(rng.randint(0, q), q) for _ in carrier))
            for _ in range(rng.randint(0, 3))
        ]
        tau = generate(ambient, gens, lattice)
        ok = ok and verify_axioms(tau).ok
        ok = ok and generate(ambient, tau.sorted_opens(), lattice).opens == tau.opens
        ok = ok and len(tau.opens) <= DEFAULT_CLOSURE_CAP
    _verdict(5, "200 random generated topologies verify and regenerate", ok)


def _random_topology(rng, carrier, q):
    lattice = GradeLattice(q)
    ambient = FuzzySet.ones(carrier)
    gens = [
        FuzzySet(carrier, tuple(F(rng.randint(0, q), q) for _ in carrier))
        for _ in range(rng.randint(0, 2))
    ]
    return generate(ambient, gens, lattice)


def test_criterion_6_identity_and_composition_continuity():
    rng = random.Random(606)
    ok = True
    for _ in range(100):
        carrier = Carrier(tuple(f"e{i}" for i in range(rng.randint(1, 3))))
        tau = _random_topology(rng, carrier, rng.randint(1, 3))
        ident = ProperFunction(tau.ambient, tau.ambient, carrier.elements)
        flags = check_map(ident, tau, tau)
        ok = ok and flags.continuous and flags.open and flags.homeomorphism
    for _ in range(100):
        q = rng.randint(1, 3)
        c1 = Carrier(tuple(f"a{i}" for i in range(rng.randint(1, 3))))
        c2 = Carrier(tuple(f"b{i}" for i in range(rng.randint(1, 3))))
        c3 = Carrier(tuple(f"c{i}" for i in range(rng.randint(1, 3))))
        tau3 = _random_topology(rng, c3, q)
        g = ProperFunction(
            FuzzySet.ones(c2), tau3.ambient,
            tuple(rng.choice(c3.elements) for _ in c2),
        )
        # coarsest topology making g continuous
        tau2 = generate(g.source, [preimage(g, nu) for nu in tau3.sorted_opens()],
                        GradeLattice(q))
        f = ProperFunction(
            FuzzySet.ones(c1), tau2.ambient,
            tuple(rng.choice(c2.elements) for _ in c1),
        )
        tau1 = generate(f.source, [preimage(f, nu) for nu in tau2.sorted_opens()],
                        GradeLattice(q))
        assert check_map(f, tau1, tau2).continuous
        assert check_map(g, tau2, tau3).continuous
        ok = ok and check_map(compose(f, g), tau1, tau3).continuous
    _verdict(6, "identity maps are homeomorphisms; continuity composes", ok)


def test_criterion_7_action_suite():
    s3 = symmetric_group(3)
    space = Carrier((1, 2, 3))
    natural = action_from_function(s3, space, lambda p, x: p[x - 1] + 1)
    ok = verify_action(natural).ok

    rng = random.Random(707)
    groups = list(catalog().values())
    for _ in range(100):
        group = rng.choice(groups)
        seed = rng.sample(group.carrier.elements, k=rng.randint(1, 2))
        action = coset_action(group, subgroup_closure(group, seed))
        ok = ok and verify_action(action).ok
        level = F(rng.randint(0, 4), 4)
        ok = ok and is_G_invariant(action, FuzzySet.constant(action.space, level)).ok

    z4 = cyclic_group(4)
    translation = action_from_function(z4, z4.carrier, z4.op)
    quotient = quotient_action(translation, EquivalenceRelation(((0, 2), (1, 3))))
    ok = ok and verify_action(quotient).ok

    def parity(p):
        return sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2

    a3 = [p for p in s3.carrier if parity(p) == 0]
    ok = ok and verify_action(restrict_to_subgroup(natural, a3)).ok
    _verdict(7, "symmetric, restricted, quotient, and coset actions all verify", ok)


def test_criterion_8_galois_inequality_exhaustive():
    grades = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    ok = True
    for m in range(1, 5):
        src = Carrier(tuple(f"x{i}" for i in range(m)))
        for n in range(1, 5):
            tgt = Carrier(tuple(f"y{i}" for i in range(n)))
            ones_src, ones_tgt = FuzzySet.ones(src), FuzzySet.ones(tgt)
            for imgs in itertools.product(tgt.elements, repeat=m):
                fn = ProperFunction(ones_src, ones_tgt, imgs)
                for gs in itertools.product(grades, repeat=m):
                    a = FuzzySet(src, gs)
                    ok = ok and is_subset(a, preimage(fn, image(fn, a))).ok
    _verdict(8, "A <= preimage(image(A)) over the full small-carrier enumeration", ok)


def test_criterion_9_gl_determinant_gradient():
    ok = True
    for n in (1, 2, 3):
        rep = gl_demo(n, sample_count=50, seed=0)
        ok = ok and rep.max_det_gradient_error < 1e-4 and rep.ok
    _verdict(9, "determinant gradient matches the adjugate formula for n=1..3", ok)
