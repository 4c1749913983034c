"""Answer oracles for the benchmark, independent of the fuzzcheck package.

Everything here works on integer tuples: a fuzzy set over a carrier of n
points on the grade lattice {k/q} is a tuple of n numerators, a group is a
Cayley table of element indices, a Lie algebra is a sparse map of integer
structure constants.  The algorithms are chosen to differ from the
program's where a cheaper characterisation exists (the sublattice is built
as joins of meets, Hausdorff separation uses minimal neighbourhoods, fuzzy
subgroups are decided by level sets), and each oracle reports the witness
in the program's documented scan order so the witness can be compared too.

Witness strings are formatted here as the machine report prints them.
"""

from __future__ import annotations

from math import gcd


# --- formatting --------------------------------------------------------------

def frac(num: int, den: int = 1) -> str:
    """Lowest-terms rational as the report prints it: 'p/q', or an integer."""
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den) or 1
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def fmt_tuple(items) -> str:
    return "(" + ",".join(items) + ")"


def fmt_fuzzy_set(labels, nums, q) -> str:
    body = ", ".join(f"{x!r}:{frac(k, q)}" for x, k in zip(labels, nums))
    return f"FuzzySet({body})"


# --- lattice-valued fuzzy sets and topologies ---------------------------------

def meet(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def cuts(ambient, q):
    return [tuple(min(t, g) for g in ambient) for t in range(q + 1)]


def generated_sublattice(ambient, generators, q) -> frozenset:
    """The sublattice generated by the generators and every constant cut.

    In a distributive lattice that is the set of joins of meets of the
    generating family, so it is built in two passes, each adding one
    generator (or meet) at a time.
    """
    family = set(cuts(ambient, q)) | {tuple(g) for g in generators}
    meets = set()
    for s in family:
        meets |= {meet(m, s) for m in meets}
        meets.add(s)
    joins = set()
    for m in meets:
        joins |= {join(j, m) for j in joins}
        joins.add(m)
    return frozenset(joins)


def axioms_witness(ambient, family, q, labels):
    """First missing constant cut, then first sorted pair whose union or
    intersection is missing; None when the family is a topology."""
    fam = set(family)
    for t in range(q + 1):
        if tuple(min(t, g) for g in ambient) not in fam:
            return fmt_tuple(["cut", frac(t, q)])
    opens = sorted(fam)
    for i, a in enumerate(opens):
        for b in opens[i:]:
            for kind, c in (("union", join(a, b)), ("intersection", meet(a, b))):
                if c not in fam:
                    return fmt_tuple([kind, fmt_fuzzy_set(labels, a, q),
                                      fmt_fuzzy_set(labels, b, q)])
    return None


def t1_witness(ambient, opens, q, labels):
    """First (point, height) whose complement in the ambient set is not open."""
    for x, top in enumerate(ambient):
        for p in range(1, top + 1):
            comp = ambient[:x] + (top - p,) + ambient[x + 1:]
            if comp not in opens:
                return fmt_tuple([labels[x], frac(p, q)])
    return None


def minimal_neighbourhood(opens, x, p):
    """Least open containing the fuzzy point (x, p); opens is meet-closed."""
    it = (u for u in opens if u[x] >= p)
    best = next(it)
    for u in it:
        best = meet(best, u)
    return best


def hausdorff_witness(ambient, opens, q, labels):
    """Two fuzzy points admit disjoint open neighbourhoods exactly when their
    minimal neighbourhoods are disjoint."""
    opens = list(opens)
    nbhd = {
        (x, p): minimal_neighbourhood(opens, x, p)
        for x, top in enumerate(ambient) for p in range(1, top + 1)
    }
    for x, top_x in enumerate(ambient):
        for p in range(1, top_x + 1):
            for y, top_y in enumerate(ambient):
                if y == x:
                    continue
                for r in range(1, top_y + 1):
                    if any(meet(nbhd[x, p], nbhd[y, r])):
                        return fmt_tuple([fmt_tuple([labels[x], frac(p, q)]),
                                          fmt_tuple([labels[y], frac(r, q)])])
    return None


def preimage(f, src_ambient, nu):
    return tuple(min(g, nu[y]) for g, y in zip(src_ambient, f))


def image(f, src_ambient, delta, n_target):
    out = [0] * n_target
    for x, y in enumerate(f):
        out[y] = max(out[y], min(src_ambient[x], delta[x]))
    return tuple(out)


def map_flags(f, src_ambient, tau_src, tgt_ambient, tau_tgt, q, tgt_labels, src_labels):
    """(continuous, open, homeomorphism, witness string or None)."""
    witness = None
    continuous = True
    for nu in sorted(tau_tgt):
        if preimage(f, src_ambient, nu) not in tau_src:
            continuous = False
            witness = fmt_tuple(["preimage", fmt_fuzzy_set(tgt_labels, nu, q)])
            break
    is_open = True
    for delta in sorted(tau_src):
        if image(f, src_ambient, delta, len(tgt_ambient)) not in tau_tgt:
            is_open = False
            if witness is None:
                witness = fmt_tuple(["image", fmt_fuzzy_set(src_labels, delta, q)])
            break
    injective = len(set(f)) == len(f)
    surjective = all(g == 0 or y in set(f) for y, g in enumerate(tgt_ambient))
    return continuous, is_open, injective and surjective and continuous and is_open, witness


def base_witness(opens, base, q, labels):
    """First sorted open that is not the union of the base members under it."""
    n = len(next(iter(opens)))
    for nu in sorted(opens):
        rebuilt = (0,) * n
        for b in base:
            if all(x <= y for x, y in zip(b, nu)):
                rebuilt = join(rebuilt, b)
        if rebuilt != nu:
            return fmt_fuzzy_set(labels, nu, q)
    return None


def in_product_topology(w, opens, n):
    """Is w (indexed x*n + y) a union of products u(x) ^ v(y) of opens?

    Products of opens are closed under meets and include the constant cuts,
    so the topology they generate is the set of their joins: w belongs to it
    exactly when it equals the join of the products lying under it.
    """
    rebuilt = [0] * (n * n)
    for u in opens:
        for v in opens:
            prod = [min(a, b) for a in u for b in v]
            if all(p <= c for p, c in zip(prod, w)):
                rebuilt = [max(r, p) for r, p in zip(rebuilt, prod)]
    return tuple(rebuilt) == tuple(w)


def topgroup_witness(table, inverse, opens, q, labels):
    """Reason and witness for the first failing continuity condition of
    inversion, then multiplication; None when both hold."""
    n = len(table)
    ones = (q,) * n
    for nu in sorted(opens):
        if preimage(inverse, ones, nu) not in opens:
            return ("inversion is not fuzzy continuous",
                    fmt_tuple(["preimage", fmt_fuzzy_set(labels, nu, q)]))
    for nu in sorted(opens):
        pre = [nu[table[x][y]] for x in range(n) for y in range(n)]
        if not in_product_topology(pre, opens, n):
            return ("multiplication is not fuzzy continuous",
                    fmt_tuple(["preimage", fmt_fuzzy_set(labels, nu, q)]))
    return None


# --- finite groups -----------------------------------------------------------

def identity_of(table):
    n = len(table)
    return next(e for e in range(n)
                if all(table[e][x] == x and table[x][e] == x for x in range(n)))


def inverses_of(table):
    e = identity_of(table)
    n = len(table)
    return tuple(next(y for y in range(n) if table[x][y] == e and table[y][x] == e)
                 for x in range(n))


def is_group(table) -> bool:
    n = len(table)
    rng = range(n)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in rng for b in rng for c in rng)


def is_subgroup(table, members) -> bool:
    inv = inverses_of(table)
    s = set(members)
    return bool(s) and all(inv[x] in s and all(table[x][y] in s for y in s) for x in s)


def fuzzy_subgroup_by_levels(table, grades) -> bool:
    """A grade map is a fuzzy subgroup iff every nonempty level set is one."""
    return all(is_subgroup(table, [x for x, g in enumerate(grades) if g >= t])
               for t in set(grades))


def fuzzy_subgroup_witness(table, grades, labels):
    inv = inverses_of(table)
    n = len(table)
    for x in range(n):
        for y in range(n):
            if grades[table[x][y]] < min(grades[x], grades[y]):
                return fmt_tuple(["pair", fmt_tuple([labels[x], labels[y]])])
    for x in range(n):
        if grades[inv[x]] != grades[x]:
            return fmt_tuple(["inverse", labels[x]])
    return None


def homomorphism_witness(src, tgt, f, labels):
    n = len(src)
    for x in range(n):
        for z in range(n):
            if f[src[x][z]] != tgt[f[x]][f[z]]:
                return fmt_tuple([labels[x], labels[z]])
    return None


def action_witness(table, act, group_labels, space_labels):
    """Composition law in (g, h, x) order, then every point reached."""
    n, m = len(table), len(act[0])
    for g in range(n):
        for h in range(n):
            gh = table[g][h]
            for x in range(m):
                if act[g][act[h][x]] != act[gh][x]:
                    return fmt_tuple([group_labels[g], group_labels[h], space_labels[x]])
    reached = {y for row in act for y in row}
    for y in range(m):
        if y not in reached:
            return space_labels[y]
    return None


def invariant_witness(act, s, group_labels, space_labels):
    n, m = len(act), len(act[0])
    for y in range(m):
        for g in range(n):
            for x in range(m):
                if act[g][x] == y and s[x] > s[y]:
                    return fmt_tuple([space_labels[y], group_labels[g], space_labels[x]])
    return None


def subgroup_witness(table, members, labels):
    """Why a subset is not a subgroup, in the order the restriction checks:
    identity, then per member in carrier order its inverse and products."""
    e = identity_of(table)
    inv = inverses_of(table)
    s = set(members)
    if e not in s:
        return labels[e]
    for x in sorted(s):
        if inv[x] not in s:
            return labels[x]
        for y in sorted(s):
            if table[x][y] not in s:
                return fmt_tuple([labels[x], labels[y]])
    return None


def quotient_witness(act, classes, group_labels, space_labels):
    """First (g, class head, x) whose image leaves the class of the head's image."""
    cls = {x: i for i, c in enumerate(classes) for x in c}
    for g, row in enumerate(act):
        for c in classes:
            for x in c[1:]:
                if cls[row[x]] != cls[row[c[0]]]:
                    return fmt_tuple([group_labels[g], space_labels[c[0]], space_labels[x]])
    return None


def relation_preserved(act, classes) -> bool:
    cls = {x: i for i, c in enumerate(classes) for x in c}
    return all(len({cls[row[x]] for x in c}) == 1 for row in act for c in classes)


# --- Lie algebras ------------------------------------------------------------

def antisymmetry_witness(dim, c):
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if c.get((i, j, k), 0) != -c.get((j, i, k), 0):
                    return fmt_tuple([str(i), str(j), str(k)])
    return None


def jacobi_witness(dim, c):
    """First basis triple with a nonzero Jacobi sum, from sparse constants."""
    rows = {}
    for (i, j, k), v in c.items():
        if v:
            rows.setdefault((i, j), []).append((k, v))

    def br_basis_vec(i, vec):
        out = {}
        for m, a in vec.items():
            for k, v in rows.get((i, m), ()):
                out[k] = out.get(k, 0) + a * v
        return out

    def basis_br(i, j):
        return {k: v for k, v in rows.get((i, j), ())}

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                total = {}
                for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                    for key, v in br_basis_vec(a, basis_br(b, d)).items():
                        total[key] = total.get(key, 0) + v
                if any(total.values()):
                    return fmt_tuple([str(i), str(j), str(k)])
    return None


def bracket(rows, x, y):
    out = [0] * len(x)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, v in rows.get((i, j), ()):
                        out[k] += xi * yj * v
    return tuple(out)


_SIGN_TESTS = {"=": lambda s: s == 0, "!=": lambda s: s != 0,
               ">": lambda s: s > 0, "<": lambda s: s < 0}


def classify(cases, default, vec_signs):
    """First matching case's grade; cases are ([(coord, op)], grade)."""
    for conds, grade in cases:
        if all(_SIGN_TESTS[op](vec_signs[i]) for i, op in conds):
            return grade
    return default


def _signs(v):
    return tuple((a > 0) - (a < 0) for a in v)


def lie_conditions_witness(c, cases, default, den, vectors, scalars, ideal):
    """Sum, scalar and bracket scans over integer sample vectors.

    Grades are numerators over `den`; scalars are (num, den) pairs.  Only
    signs reach the classifier, so a scalar multiple is graded by its sign
    pattern without forming the rational vector.  Returns the witness
    string of the first violation, or None.
    """
    rows = {}
    for (i, j, k), v in c.items():
        if v:
            rows.setdefault((i, j), []).append((k, v))
    grade = {v: classify(cases, default, _signs(v)) for v in vectors}

    def g(v):
        if v not in grade:
            grade[v] = classify(cases, default, _signs(v))
        return grade[v]

    def vec(v):
        return fmt_tuple(str(a) for a in v)

    for x in vectors:
        for y in vectors:
            if g(tuple(a + b for a, b in zip(x, y))) < min(g(x), g(y)):
                return fmt_tuple(["sum", vec(x), vec(y)])
    for num, sden in scalars:
        s = (num > 0) - (num < 0)
        for x in vectors:
            if classify(cases, default, tuple(s * t for t in _signs(x))) < g(x):
                return fmt_tuple(["scale", frac(num, sden), vec(x)])
    for x in vectors:
        for y in vectors:
            bound = max(g(x), g(y)) if ideal else min(g(x), g(y))
            gb = g(bracket(rows, x, y))
            if gb < bound:
                return fmt_tuple(["bracket", vec(x), vec(y), frac(gb, den), frac(bound, den)])
    return None
