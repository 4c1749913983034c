"""Textbook checks of the benchmark's oracles.

    python3 -m pytest -q perfbench/test_oracles.py

The oracles must be right on their own, since they, not fuzzcheck, decide
whether the benchmark's answers are correct.  Each faster characterisation
is also compared with a brute-force one on small random cases.
"""

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fixtures  # noqa: E402
import oracles as O  # noqa: E402


def naive_closure(ambient, gens, q):
    """Pairwise union/intersection closure, the definition itself."""
    fam = set(O.cuts(ambient, q)) | set(gens)
    while True:
        new = {f(a, b) for a in fam for b in fam for f in (O.meet, O.join)} - fam
        if not new:
            return frozenset(fam)
        fam |= new


def naive_hausdorff(ambient, opens, q, labels):
    for x, tx in enumerate(ambient):
        for p in range(1, tx + 1):
            for y, ty in enumerate(ambient):
                if y == x:
                    continue
                for r in range(1, ty + 1):
                    if not any(not any(O.meet(u, v)) for u in opens if u[x] >= p
                               for v in opens if v[y] >= r):
                        return O.fmt_tuple([O.fmt_tuple([labels[x], O.frac(p, q)]),
                                            O.fmt_tuple([labels[y], O.frac(r, q)])])
    return None


LABELS = ["x0", "x1", "x2"]


def test_frac_formats_lowest_terms():
    assert O.frac(2, 4) == "1/2"
    assert O.frac(4, 4) == "1"
    assert O.frac(0, 7) == "0"
    assert O.frac(-3, 6) == "-1/2"


def test_discrete_topology_is_all_of_L_to_the_K():
    q, n = 2, 3
    opens = O.generated_sublattice((q,) * n, fixtures.discrete_gens(n, q), q)
    assert opens == frozenset(itertools.product(range(q + 1), repeat=n))
    assert O.t1_witness((q,) * n, opens, q, LABELS) is None
    assert O.hausdorff_witness((q,) * n, opens, q, LABELS) is None


def test_indiscrete_topology_fails_separation_at_the_first_point():
    q, n = 4, 3
    opens = O.generated_sublattice((q,) * n, [], q)
    assert len(opens) == q + 1
    assert O.t1_witness((q,) * n, opens, q, LABELS) == "(x0,1/4)"
    assert O.hausdorff_witness((q,) * n, opens, q, LABELS) == "((x0,1/4),(x1,1/4))"


def test_literal_family_without_cuts_misses_the_zero_cut():
    assert O.axioms_witness((2, 2), [(2, 0)], 2, LABELS) == "(cut,0)"


def test_sublattice_and_hausdorff_match_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n, q = rng.randrange(2, 4), rng.randrange(1, 4)
        ambient = tuple(rng.randrange(1, q + 1) for _ in range(n))
        gens = [tuple(rng.randrange(a + 1) for a in ambient) for _ in range(rng.randrange(4))]
        opens = O.generated_sublattice(ambient, gens, q)
        assert opens == naive_closure(ambient, gens, q)
        assert O.axioms_witness(ambient, opens, q, LABELS) is None
        assert O.hausdorff_witness(ambient, opens, q, LABELS) == \
            naive_hausdorff(ambient, opens, q, LABELS)


def test_identity_and_constant_maps_are_continuous():
    q, n = 2, 2
    ones = (q,) * n
    tau = O.generated_sublattice(ones, [(2, 1)], q)
    cont, opn, homeo, wit = O.map_flags([0, 1], ones, tau, ones, tau, q, LABELS, LABELS)
    assert (cont, opn, homeo, wit) == (True, True, True, None)
    cont, _, homeo, _ = O.map_flags([1, 1], ones, tau, ones, tau, q, LABELS, LABELS)
    assert cont and not homeo


def test_indiscrete_to_discrete_identity_is_not_continuous():
    q, n = 1, 2
    ones = (q,) * n
    indiscrete = O.generated_sublattice(ones, [], q)
    discrete = O.generated_sublattice(ones, fixtures.discrete_gens(n, q), q)
    cont, opn, _, wit = O.map_flags([0, 1], ones, indiscrete, ones, discrete, q,
                                    LABELS, LABELS)
    assert not cont and opn
    assert wit == "(preimage,FuzzySet('x0':0, 'x1':1))"


def test_product_topology_membership_matches_its_closure():
    q, n = 1, 2
    opens = O.generated_sublattice((q, q), [(1, 0)], q)
    products = [tuple(min(a, b) for a in u for b in v) for u in opens for v in opens]
    closure = naive_closure((q,) * 4, products, q)
    for w in itertools.product(range(q + 1), repeat=n * n):
        assert O.in_product_topology(w, opens, n) == (w in closure)


def test_z2_point_topology_is_not_a_topological_group():
    table = fixtures.cyclic_table(2)
    opens = O.generated_sublattice((1, 1), [(1, 0)], 1)
    reason, _ = O.topgroup_witness(table, O.inverses_of(table), opens, 1, ["0", "1"])
    assert reason == "multiplication is not fuzzy continuous"
    indiscrete = O.generated_sublattice((1, 1), [], 1)
    assert O.topgroup_witness(table, O.inverses_of(table), indiscrete, 1, ["0", "1"]) is None


def test_subgroups_of_cyclic_groups_are_the_divisor_subgroups():
    for n in (6, 8, 12):
        table = fixtures.cyclic_table(n)
        found = {frozenset(s) for k in range(1, n + 1)
                 for s in itertools.combinations(range(n), k) if O.is_subgroup(table, s)}
        expected = {frozenset(range(0, n, d)) for d in range(1, n + 1) if n % d == 0}
        assert found == expected


def test_level_sets_and_pair_scan_agree():
    rng = random.Random(3)
    groups = [fixtures.cyclic_table(6), fixtures.symmetric_table(3)[1]]
    for table in groups:
        assert O.is_group(table)
        labels = [str(i) for i in range(len(table))]
        for _ in range(200):
            grades = [rng.randrange(4) for _ in table]
            assert (O.fuzzy_subgroup_witness(table, grades, labels) is None) == \
                O.fuzzy_subgroup_by_levels(table, grades)


def test_group_constructions():
    perms, s4 = fixtures.symmetric_table(4)
    assert len(s4) == 24 and O.is_group(s4)
    _, a4 = fixtures.alternating_table(4)
    assert len(a4) == 12 and O.is_group(a4)
    labels = [str(i) for i in range(24)]
    act = fixtures.left_action(s4, 2)
    assert O.action_witness(s4, act, labels, [str(i) for i in range(48)]) is None


def test_homomorphisms_between_cyclic_groups():
    z12, z4, z5 = (fixtures.cyclic_table(n) for n in (12, 4, 5))
    labels = [str(i) for i in range(12)]
    assert O.homomorphism_witness(z12, z4, [x % 4 for x in range(12)], labels) is None
    assert O.homomorphism_witness(z12, z5, [x % 5 for x in range(12)], labels) is not None


def test_classical_lie_algebras_pass():
    for dim, c in (fixtures.so3_constants(), fixtures.heisenberg_constants(),
                   fixtures.gl_constants(2), fixtures.gl_constants(3)):
        assert O.antisymmetry_witness(dim, c) is None
        assert O.jacobi_witness(dim, c) is None


def test_perturbed_tables_fail():
    dim, c = fixtures.so3_constants()
    c[(0, 1, 2)] = 2
    assert O.antisymmetry_witness(dim, c) == "(0,1,2)"
    # [e1,e2] = e1, [e2,e3] = e2, [e1,e3] = e3 is antisymmetric, but the
    # Jacobi sum on (e1,e2,e3) is e1 - e2 - e3.
    c = {(0, 1, 0): 1, (1, 0, 0): -1, (1, 2, 1): 1, (2, 1, 1): -1, (0, 2, 2): 1, (2, 0, 2): -1}
    assert O.antisymmetry_witness(3, c) is None
    assert O.jacobi_witness(3, c) == "(0,1,2)"


def test_gl2_bracket_is_the_matrix_commutator():
    dim, c = fixtures.gl_constants(2)
    rows = {}
    for (i, j, k), v in c.items():
        rows.setdefault((i, j), []).append((k, v))
    rng = random.Random(5)
    for _ in range(20):
        a = [rng.randrange(-3, 4) for _ in range(4)]
        b = [rng.randrange(-3, 4) for _ in range(4)]
        ab = [sum(a[2 * r + m] * b[2 * m + s] for m in range(2))
              for r in range(2) for s in range(2)]
        ba = [sum(b[2 * r + m] * a[2 * m + s] for m in range(2))
              for r in range(2) for s in range(2)]
        assert O.bracket(rows, a, b) == tuple(x - y for x, y in zip(ab, ba))


def test_example_2_14_ideal_witness():
    dim, c = fixtures.so3_constants()
    cases = [([(0, "="), (1, "="), (2, "=")], 4), ([(0, "="), (1, "="), (2, "!=")], 1)]
    head = [(0, 0, 1), (1, 1, 1), (-1, 1, 0)]
    vectors = head + [v for v in itertools.product(range(-2, 3), repeat=3) if v not in head]
    assert O.lie_conditions_witness(c, cases, 0, 4, vectors, fixtures.SCALARS,
                                    ideal=False) is None
    assert O.lie_conditions_witness(c, cases, 0, 4, vectors, fixtures.SCALARS,
                                    ideal=True) == "(bracket,(0,0,1),(1,1,1),0,1/4)"


def test_heisenberg_centre_is_an_ideal():
    dim, c = fixtures.heisenberg_constants()
    cases = [([(0, "="), (1, "="), (2, "=")], 2), ([(0, "="), (1, "="), (2, "!=")], 1)]
    vectors = list(itertools.product((-1, 0, 2), repeat=3))
    assert O.lie_conditions_witness(c, cases, 0, 2, vectors, fixtures.SCALARS,
                                    ideal=True) is None


def test_classifier_grades_by_sign_pattern():
    cases = [([(0, ">")], 3), ([(1, "<"), (0, "=")], 2)]
    assert O.classify(cases, 1, (1, 0)) == 3
    assert O.classify(cases, 1, (0, -1)) == 2
    assert O.classify(cases, 1, (0, 1)) == 1
