"""Seeded input files for the benchmark workloads, each with the answer the
oracles expect.

A workload is a list of request classes.  Each class writes its input
files once per run into its own directory, asks the oracles for the
expected exit code, verdict and witness, and yields one `Request`.  The
run then replays the classes in rounds, each round a seeded shuffle of the
workload's classes, so no class ever runs in a block of its own.

The seed chooses the contents of the inputs (random generators, subgroup
chains, maps, perturbed entries, sample coordinates) but never their
sizes, so different seeds cost about the same.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
from dataclasses import dataclass

import oracles as O

DEFAULT_SEED = 1
MACHINE = ["--format", "machine"]


@dataclass
class Request:
    key: str          # stable class name (with its ladder rung), the reference key
    argv: list        # CLI arguments, paths relative to the work directory
    expect: dict      # machine-output key -> expected value (None: absent)
    exit_code: int
    reason_prefix: str | None = None   # expected start of WITNESS_REASON
    input_digest: str = ""

    @property
    def subcommand(self) -> str:
        return self.argv[0]


class Writer:
    """Writes one class's files under <work>/<key>/ and remembers them."""

    def __init__(self, work: str, key: str):
        self.work = work
        self.dir = key.replace("/", "_")
        os.makedirs(os.path.join(work, self.dir), exist_ok=True)
        self.files = []

    def put(self, name: str, text: str) -> str:
        rel = f"{self.dir}/{name}"
        with open(os.path.join(self.work, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files.append((rel, text))
        return rel


def finish(w: Writer, req: Request) -> Request:
    h = hashlib.sha256("\0".join(req.argv).encode())
    for rel, text in sorted(w.files):
        h.update(b"\0" + rel.encode() + b"\0" + text.encode())
    req.input_digest = h.hexdigest()
    return req


def verdict_expect(verdict, witness=None, **metrics):
    """Expected machine lines; witness None means no WITNESS_AT line."""
    out = {"VERDICT": verdict, "WITNESS_AT": witness}
    out.update({k.upper(): v for k, v in metrics.items()})
    return out


def exit_of(verdict: str) -> int:
    return {"pass": 0, "fail": 1}.get(verdict, 2)


# --- file text ----------------------------------------------------------------

def fuzzy_set_text(labels, nums, q) -> str:
    return "".join(f"{x} {O.frac(k, q)}\n" for x, k in zip(labels, nums))


def topology_text(ambient_file, q, labels, generators) -> str:
    out = [f"ambient: {os.path.basename(ambient_file)}", f"q={q}"]
    for g in generators:
        out.append("gen:")
        out += [f"{x} {O.frac(k, q)}" for x, k in zip(labels, g)]
    return "\n".join(out) + "\n"


def group_text(labels, table) -> str:
    rows = [" ".join(labels[v] for v in row) for row in table]
    return "elements: " + " ".join(labels) + "\n" + "\n".join(rows) + "\n"


def action_text(group_labels, space_labels, act) -> str:
    return "".join(f"{group_labels[g]} {space_labels[x]} -> {space_labels[act[g][x]]}\n"
                   for g in range(len(act)) for x in range(len(act[0])))


def constants_text(dim, c) -> str:
    lines = [f"dim {dim}"]
    lines += [f"{i + 1} {j + 1} {k + 1} {v}" for (i, j, k), v in sorted(c.items()) if v]
    return "\n".join(lines) + "\n"


def classifier_text(cases, default, den) -> str:
    lines = [" & ".join(f"x{i + 1} {op} 0" for i, op in conds) + f" -> {O.frac(g, den)}"
             for conds, g in cases]
    return "\n".join(lines + [f"default {O.frac(default, den)}"]) + "\n"


def samples_text(vectors, scalars) -> str:
    lines = ["vector " + " ".join(map(str, v)) for v in vectors]
    lines += [f"scalar {O.frac(n, d)}" for n, d in scalars]
    return "\n".join(lines) + "\n"


# --- structures -----------------------------------------------------------------

def point_labels(n):
    return [f"x{i}" for i in range(n)]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(k):
    """S_k on sorted permutation tuples, (p*r)(i) = p(r(i))."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[r[i]] for i in range(k))] for r in perms] for p in perms]
    return perms, table


def alternating_table(k):
    perms, _ = symmetric_table(k)
    even = [p for p in perms
            if sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 0]
    index = {p: i for i, p in enumerate(even)}
    table = [[index[tuple(p[r[i]] for i in range(k))] for r in even] for p in even]
    return even, table


def group_labels(n, prefix="g"):
    return [f"{prefix}{i}" for i in range(n)]


def subgroup_generated(table, gens):
    e = O.identity_of(table)
    members = {e} | set(gens)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (table[x][y], table[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return sorted(members)


def gl_constants(n):
    """gl_n on the basis E_ab (index a*n+b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    c = {}
    for a, b, cc, d in itertools.product(range(n), repeat=4):
        i, j = a * n + b, cc * n + d
        if b == cc:
            c[(i, j, a * n + d)] = c.get((i, j, a * n + d), 0) + 1
        if d == a:
            c[(i, j, cc * n + b)] = c.get((i, j, cc * n + b), 0) - 1
    return n * n, {k: v for k, v in c.items() if v}


def so3_constants():
    c = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[(i, j, k)], c[(j, i, k)] = 1, -1
    return 3, c


def heisenberg_constants():
    return 3, {(0, 1, 2): 1, (1, 0, 2): -1}


def permute_basis(dim, c, perm):
    return {(perm[i], perm[j], perm[k]): v for (i, j, k), v in c.items()}


# --- request classes: topology ------------------------------------------------------

def discrete_gens(n, q):
    return [tuple(q if y == x else 0 for y in range(n)) for x in range(n)]


def random_gens(rng, n, q, band):
    """Three seeded random generators whose topology has a number of opens
    in the band (lo, hi), so that seeds cost about the same."""
    ones = (q,) * n
    lo, hi = band
    while True:
        gens = [tuple(rng.randrange(q + 1) for _ in range(n)) for _ in range(3)]
        size = len(O.generated_sublattice(ones, gens, q))
        if lo <= size <= hi:
            return gens


def topology_files(w, n, q, gens, name="topo.txt", amb_name="amb.txt"):
    labels = point_labels(n)
    amb = w.put(amb_name, fuzzy_set_text(labels, (q,) * n, q))
    return w.put(name, topology_text(amb, q, labels, gens))


def family(kind, rng, n, q, band):
    if kind == "discrete":
        return discrete_gens(n, q)
    if kind == "indiscrete":
        return []
    return random_gens(rng, n, q, band)


def topo_check(kind, n, q, band=None):
    key = f"topology/check-topology/{kind}/n{n}q{q}"

    def make(work, rng):
        w = Writer(work, key)
        gens = family(kind, rng, n, q, band)
        topo = topology_files(w, n, q, gens)
        opens = O.generated_sublattice((q,) * n, gens, q)
        return finish(w, Request(key, ["check-topology", topo] + MACHINE,
                                 verdict_expect("pass", OPENS=str(len(opens))), 0))
    return make


def topo_literal(n, q, band, drop):
    """A random closure written out literally; with drop, one open is
    removed so the axiom scan fails at a pair the oracle finds."""
    key = f"topology/check-topology-literal/{'gap' if drop else 'closed'}/n{n}q{q}"

    def make(work, rng):
        w = Writer(work, key)
        labels = point_labels(n)
        ones = (q,) * n
        gens = random_gens(rng, n, q, band)
        fam = set(O.generated_sublattice(ones, gens, q))
        if drop:
            fam.discard(rng.choice(sorted(fam - set(O.cuts(ones, q)))))
        topo = topology_files(w, n, q, sorted(fam))
        wit = O.axioms_witness(ones, fam, q, labels)
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, ["check-topology", topo, "--literal"] + MACHINE,
                                 verdict_expect(verdict, wit, OPENS=str(len(fam))),
                                 exit_of(verdict)))
    return make


def topo_base(n, q, complete):
    """--base with the fuzzy points (a base of the discrete topology), or
    with one height left out."""
    key = f"topology/check-topology-base/{'points' if complete else 'short'}/n{n}q{q}"

    def make(work, rng):
        w = Writer(work, key)
        labels = point_labels(n)
        gens = discrete_gens(n, q)
        topo = topology_files(w, n, q, gens)
        opens = O.generated_sublattice((q,) * n, gens, q)
        base = [tuple(p if y == x else 0 for y in range(n))
                for x in range(n) for p in range(1, q + 1)]
        if not complete:
            base.remove(base[rng.randrange(len(base))])
        files = [w.put(f"b{i}.txt", fuzzy_set_text(labels, b, q)) for i, b in enumerate(base)]
        wit = O.base_witness(opens, base, q, labels)
        expect = {"VERDICT": "fail" if wit else "pass", "WITNESS_AT": None,
                  "OPENS": str(len(opens)), "OPEN_BASE": "false" if wit else "true"}
        return finish(w, Request(key, ["check-topology", topo, "--base", *files] + MACHINE,
                                 expect, 1 if wit else 0,
                                 "open is not a union of base members" if wit else None))
    return make


def separation(command, kind, n, q, band=None):
    key = f"topology/{command}/{kind}/n{n}q{q}"
    oracle = O.t1_witness if command == "check-t1" else O.hausdorff_witness

    def make(work, rng):
        w = Writer(work, key)
        gens = family(kind, rng, n, q, band)
        topo = topology_files(w, n, q, gens)
        ones = (q,) * n
        opens = O.generated_sublattice(ones, gens, q)
        wit = oracle(ones, opens, q, point_labels(n))
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, [command, topo] + MACHINE,
                                 verdict_expect(verdict, wit, OPENS=str(len(opens))),
                                 exit_of(verdict)))
    return make


def continuity(kind, n, q):
    """identity between random topologies, a constant map, or the identity
    from the indiscrete to the discrete topology."""
    key = f"topology/check-continuity/{kind}/n{n}q{q}"

    def make(work, rng):
        w = Writer(work, key)
        labels = point_labels(n)
        ones = (q,) * n
        if kind == "indiscrete-to-discrete":
            src_gens, tgt_gens, f = [], discrete_gens(n, q), list(range(n))
        elif kind == "constant":
            src_gens = random_gens(rng, n, q, (20, 30))
            tgt_gens = random_gens(rng, n, q, (20, 30))
            f = [rng.randrange(n)] * n
        else:
            src_gens = random_gens(rng, n, q, (20, 30))
            tgt_gens = src_gens[:2]
            f = list(range(n))
        src = topology_files(w, n, q, src_gens, "src.txt")
        tgt = topology_files(w, n, q, tgt_gens, "tgt.txt")
        mapf = w.put("map.txt", "source: amb.txt\ntarget: amb.txt\n"
                     + "".join(f"{labels[x]} -> {labels[y]}\n" for x, y in enumerate(f)))
        tau_s = O.generated_sublattice(ones, src_gens, q)
        tau_t = O.generated_sublattice(ones, tgt_gens, q)
        cont, opn, homeo, wit = O.map_flags(f, ones, tau_s, ones, tau_t, q, labels, labels)
        verdict = "pass" if cont else "fail"
        b = {True: "true", False: "false"}
        return finish(w, Request(key, ["check-continuity", mapf, src, tgt] + MACHINE,
                                 verdict_expect(verdict, wit, CONTINUOUS=b[cont],
                                                OPEN=b[opn], HOMEOMORPHISM=b[homeo]),
                                 exit_of(verdict)))
    return make


def topgroup(order, kind, q):
    key = f"topology/check-topgroup/{kind}/Z{order}q{q}"

    def make(work, rng):
        w = Writer(work, key)
        labels = [str(i) for i in range(order)]
        table = cyclic_table(order)
        if kind == "indiscrete":
            gens = []
        elif kind == "coset":
            gens = [tuple(q if x % 2 == 0 else 0 for x in range(order))]
        else:
            point = rng.randrange(order)
            gens = [tuple(q if x == point else 0 for x in range(order))]
        amb = w.put("amb.txt", fuzzy_set_text(labels, (q,) * order, q))
        topo = w.put("topo.txt", topology_text(amb, q, labels, gens))
        grp = w.put("group.txt", group_text(labels, table))
        opens = O.generated_sublattice((q,) * order, gens, q)
        res = O.topgroup_witness(table, O.inverses_of(table), opens, q, labels)
        verdict = "fail" if res else "pass"
        return finish(w, Request(key, ["check-topgroup", grp, topo] + MACHINE,
                                 verdict_expect(verdict, res and res[1], OPENS=str(len(opens))),
                                 exit_of(verdict), res and res[0]))
    return make


# --- request classes: groups --------------------------------------------------------

def named_group(name):
    """(labels, Cayley table) of Zn, Sn or An."""
    if name.startswith("Z"):
        n = int(name[1:])
        table = cyclic_table(n)
        return group_labels(n), table
    if name.startswith("S"):
        _, table = symmetric_table(int(name[1:]))
        return group_labels(len(table)), table
    _, table = alternating_table(int(name[1:]))
    return group_labels(len(table)), table


def random_chain(rng, table, depth=2):
    """A descending chain G > H1 > ... of subgroups generated by random
    elements, each a proper subgroup of the last where possible."""
    n = len(table)
    chain = [list(range(n))]
    for _ in range(depth):
        parent = chain[-1]
        for _ in range(20):
            h = subgroup_generated(table, [rng.choice(parent)])
            if 1 < len(h) < len(parent):
                break
        chain.append(h)
    return chain


def chain_grades(n, chain, den):
    """Grade k/den on the k-th subgroup of the chain, the whole group being
    the first, so smaller subgroups grade higher."""
    grades = [0] * n
    for level, members in enumerate(chain, start=1):
        for x in members:
            grades[x] = level
    return grades


def subgroup_check(name, good):
    key = f"algebra/check-subgroup/{'chain' if good else 'broken'}/{name}"

    def make(work, rng):
        w = Writer(work, key)
        labels, table = named_group(name)
        chain = random_chain(rng, table)
        den = len(chain) + 1
        grades = chain_grades(len(table), chain, den)
        if not good:
            outside = [x for x in range(len(table)) if grades[x] == 1]
            grades[rng.choice(outside)] = den
        grp = w.put("group.txt", group_text(labels, table))
        mu = w.put("mu.txt", fuzzy_set_text(labels, grades, den))
        wit = O.fuzzy_subgroup_witness(table, grades, labels)
        if (wit is None) != O.fuzzy_subgroup_by_levels(table, grades):
            raise RuntimeError(f"{key}: level-set and pair-scan oracles disagree")
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, ["check-subgroup", grp, mu] + MACHINE,
                                 verdict_expect(verdict, wit, ORDER=str(len(table))),
                                 exit_of(verdict)))
    return make


def homomorphism(n, m):
    """x -> kx mod m from Z_n to Z_m for a seeded k; a hom iff m | kn."""
    key = f"algebra/check-homomorphism/Z{n}-Z{m}"

    def make(work, rng):
        w = Writer(work, key)
        k = rng.randrange(1, m)
        f = [(k * x) % m for x in range(n)]
        src_l, tgt_l = group_labels(n, "a"), group_labels(m, "b")
        src, tgt = cyclic_table(n), cyclic_table(m)
        g1 = w.put("src_group.txt", group_text(src_l, src))
        g2 = w.put("tgt_group.txt", group_text(tgt_l, tgt))
        w.put("src.txt", fuzzy_set_text(src_l, [1] * n, 1))
        w.put("tgt.txt", fuzzy_set_text(tgt_l, [1] * m, 1))
        mapf = w.put("map.txt", "source: src.txt\ntarget: tgt.txt\n"
                     + "".join(f"{src_l[x]} -> {tgt_l[y]}\n" for x, y in enumerate(f)))
        wit = O.homomorphism_witness(src, tgt, f, src_l)
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, ["check-homomorphism", mapf, g1, g2] + MACHINE,
                                 verdict_expect(verdict, wit), exit_of(verdict)))
    return make


def left_action(table, copies=1, twist=None):
    """Left multiplication on `copies` disjoint copies of the group."""
    n = len(table)
    act = [[table[g][x % n] + n * (x // n) for x in range(n * copies)] for g in range(n)]
    if twist is not None:
        g, x, y = twist
        act[g][x] = y
    return act


def action_check(name, copies, broken):
    key = f"algebra/check-action/{'broken' if broken else 'left'}/{name}x{copies}"

    def make(work, rng):
        w = Writer(work, key)
        labels, table = named_group(name)
        n = len(table)
        twist = None
        if broken:
            g, x = rng.randrange(1, n), rng.randrange(n * copies)
            act0 = left_action(table, copies)
            twist = (g, x, act0[g][(x + 1) % (n * copies)])
        act = left_action(table, copies, twist)
        space = group_labels(n * copies, "s")
        grp = w.put("group.txt", group_text(labels, table))
        actf = w.put("action.txt", action_text(labels, space, act))
        wit = O.action_witness(table, act, labels, space)
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, ["check-action", grp, actf] + MACHINE,
                                 verdict_expect(verdict, wit), exit_of(verdict)))
    return make


def invariant_check(name, broken):
    key = f"algebra/check-invariant/{'broken' if broken else 'orbits'}/{name}"

    def make(work, rng):
        w = Writer(work, key)
        labels, table = named_group(name)
        n = len(table)
        act = left_action(table, 2)
        space = group_labels(2 * n, "s")
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        s = [a] * n + [b] * n
        if broken:
            s[rng.randrange(2 * n)] = 4
        grp = w.put("group.txt", group_text(labels, table))
        actf = w.put("action.txt", action_text(labels, space, act))
        sf = w.put("s.txt", fuzzy_set_text(space, s, 4))
        wit = O.invariant_witness(act, s, labels, space)
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, ["check-invariant", grp, actf, sf] + MACHINE,
                                 verdict_expect(verdict, wit), exit_of(verdict)))
    return make


def restrict_check(name, mode):
    """restrict --subgroup with a cyclic subgroup or with one element too
    many, or restrict --invariant with the first of two orbits."""
    key = f"algebra/restrict/{mode}/{name}"

    def make(work, rng):
        w = Writer(work, key)
        labels, table = named_group(name)
        n = len(table)
        space = group_labels(2 * n, "s")
        act = left_action(table, 2)
        grp = w.put("group.txt", group_text(labels, table))
        actf = w.put("action.txt", action_text(labels, space, act))
        if mode == "invariant":
            s = [rng.randrange(1, 5)] * n + [0] * n
            argv = ["--invariant", w.put("s.txt", fuzzy_set_text(space, s, 4))]
            wit, g = None, rng.randrange(n)
        else:
            h = random_chain(rng, table, 1)[1]
            if mode == "non-subgroup":
                h = sorted(set(h) | {rng.choice([x for x in range(n) if x not in h])})
            argv = ["--subgroup", ",".join(labels[x] for x in h)]
            wit, g = O.subgroup_witness(table, h, labels), rng.choice(h)
        exp = verdict_expect("fail" if wit else "pass", wit)
        if not wit:
            x = rng.randrange(n)
            exp[f"ACT_{labels[g]}_{space[x]}".upper()] = space[act[g][x]]
        return finish(w, Request(key, ["restrict", grp, actf, *argv] + MACHINE,
                                 exp, 1 if wit else 0))
    return make


def quotient_check(name, preserved):
    """Left multiplication modulo the left cosets xH of a cyclic subgroup
    (preserved), or modulo the right cosets Hx of a non-normal one."""
    key = f"algebra/quotient/{'cosets' if preserved else 'unpreserved'}/{name}"

    def make(work, rng):
        w = Writer(work, key)
        labels, table = named_group(name)
        n = len(table)
        act = left_action(table)
        space = group_labels(n, "s")
        while True:
            h = random_chain(rng, table, 1)[1]
            classes = []
            for x in range(n):
                cls = sorted({table[x][y] if preserved else table[y][x] for y in h})
                if cls not in classes:
                    classes.append(cls)
            if O.relation_preserved(act, classes) == preserved:
                break
        grp = w.put("group.txt", group_text(labels, table))
        actf = w.put("action.txt", action_text(labels, space, act))
        rel = w.put("rel.txt", "".join(" ".join(space[x] for x in c) + "\n" for c in classes))
        wit = O.quotient_witness(act, classes, labels, space)
        exp = verdict_expect("fail" if wit else "pass", wit)
        if not wit:
            exp["CLASSES"] = str(len(classes))
        return finish(w, Request(key, ["quotient", grp, actf, rel] + MACHINE,
                                 exp, 1 if wit else 0,
                                 "relation not preserved" if wit else None))
    return make


# --- request classes: Lie -------------------------------------------------------------

def lie_table(kind, rng, shuffle=True):
    if kind.startswith("gl"):
        dim, c = gl_constants(int(kind[2:]))
    elif kind == "so3":
        dim, c = so3_constants()
    else:
        dim, c = heisenberg_constants()
    perm = list(range(dim))
    if shuffle:
        rng.shuffle(perm)
    return dim, permute_basis(dim, c, perm)


def check_lie(kind, perturb=None):
    key = f"algebra/check-lie/{kind}" + (f"-{perturb}" if perturb else "")

    def make(work, rng):
        w = Writer(work, key)
        dim, c = lie_table(kind, rng)
        if perturb:
            i, j, k = rng.choice(sorted(c))
            c[(i, j, k)] += 1
            if perturb == "jacobi":
                c[(j, i, k)] = c.get((j, i, k), 0) - 1
        wit = O.antisymmetry_witness(dim, c) or O.jacobi_witness(dim, c)
        verdict = "fail" if wit else "pass"
        sc = w.put("constants.txt", constants_text(dim, c))
        return finish(w, Request(key, ["check-lie", sc] + MACHINE,
                                 verdict_expect(verdict, wit, DIM=str(dim)),
                                 exit_of(verdict)))
    return make


SCALARS = [(-2, 1), (-1, 1), (0, 1), (1, 2), (1, 1), (2, 1)]


def axis_classifier(dim, rng, den=4):
    """Grade 1 at the origin, a seeded grade on the last axis, 0 elsewhere."""
    zero = [(i, "=") for i in range(dim)]
    axis = [(i, "=") for i in range(dim - 1)] + [(dim - 1, "!=")]
    return [(zero, den), (axis, rng.randrange(1, den))], 0, den


def sample_grid(rng, dim, width):
    """width^dim integer vectors on a seeded coordinate set containing 0."""
    coords = {0}
    while len(coords) < width:
        coords.add(rng.choice([-1, 1]) * rng.randrange(1, 6))
    return list(itertools.product(sorted(coords), repeat=dim))


def lie_predicate(command, kind, width):
    key = f"algebra/{command}/{kind}/w{width}"

    def make(work, rng):
        w = Writer(work, key)
        dim, c = lie_table(kind, rng, shuffle=False)
        cases, default, den = axis_classifier(dim, rng)
        vectors = sample_grid(rng, dim, width)
        sc = w.put("constants.txt", constants_text(dim, c))
        mu = w.put("classifier.txt", classifier_text(cases, default, den))
        sm = w.put("samples.txt", samples_text(vectors, SCALARS))
        wit = O.lie_conditions_witness(c, cases, default, den, vectors, SCALARS,
                                       ideal=command == "check-lie-ideal")
        verdict = "fail" if wit else "pass"
        return finish(w, Request(key, [command, sc, mu, "--samples", sm] + MACHINE,
                                 verdict_expect(verdict, wit,
                                                SAMPLE_VECTORS=str(len(vectors))),
                                 exit_of(verdict)))
    return make


def demo_example(part):
    """Example 2.14: cross product, z-axis classifier, fixed sample set."""
    key = f"algebra/demo-example-2-14/{part}"

    def make(work, rng):
        w = Writer(work, key)
        dim, c = so3_constants()
        cases = [([(0, "="), (1, "="), (2, "=")], 4), ([(0, "="), (1, "="), (2, "!=")], 1)]
        head = [(0, 0, 1), (1, 1, 1), (-1, 1, 0)]
        vectors = head + [v for v in itertools.product(range(-2, 3), repeat=3) if v not in head]
        exp = {"VERDICT": "pass", "SAMPLE_VECTORS": str(len(vectors))}
        if part in ("subalgebra", "both"):
            sub = O.lie_conditions_witness(c, cases, 0, 4, vectors, SCALARS, ideal=False)
            exp["SUBALGEBRA"] = "violated" if sub else "no-violation"
            if sub:
                exp["VERDICT"] = "fail"
        if part in ("ideal", "both"):
            ideal = O.lie_conditions_witness(c, cases, 0, 4, vectors, SCALARS, ideal=True)
            exp["IDEAL"] = "violated" if ideal else "no-violation"
            if ideal:
                exp["VERDICT"] = "fail"
                x, y, got, bound = _split_bracket(ideal)
                exp.update(WITNESS_X=x, WITNESS_Y=y, MU_BRACKET=got, MAX_GRADE=bound)
        return finish(w, Request(key, ["demo-example-2-14", "--part", part] + MACHINE,
                                 exp, exit_of(exp["VERDICT"])))
    return make


def _split_bracket(witness):
    """'(bracket,(a,b,c),(d,e,f),g,h)' -> ['(a,b,c)', '(d,e,f)', 'g', 'h']."""
    body = witness[len("(bracket,"):-1]
    x_end = body.index(")") + 1
    y_end = body.index(")", x_end + 1) + 1
    got, bound = body[y_end + 1:].split(",")
    return [body[:x_end], body[x_end + 1:y_end], got, bound]


# --- request classes: cli-mix -----------------------------------------------------------

def level_set_check(n):
    key = f"cli-mix/level-set/n{n}"

    def make(work, rng):
        w = Writer(work, key)
        labels = point_labels(n)
        grades = [rng.randrange(5) for _ in range(n)]
        t = rng.randrange(1, 5)
        sf = w.put("set.txt", fuzzy_set_text(labels, grades, 4))
        members = [x for x, g in zip(labels, grades) if g >= t]
        exp = {"VERDICT": "pass", "THRESHOLD": O.frac(t, 4),
               "MEMBERS": ",".join(members), "SIZE": str(len(members))}
        return finish(w, Request(key, ["level-set", sf, O.frac(t, 4)] + MACHINE, exp, 0))
    return make


def circle_rows(n, chart, kink=False, dip=False):
    """Chart tables on the unit circle sampled at t = k/n.

    chart 0 uses the angle t and leaves out a band around t = 0; chart 1
    uses t or t - 1 and leaves out a band around t = 1/2, so both
    transitions are linear on each of their two pieces.  `kink` bends
    chart 1's coordinate at t = 1/4 (a derivative jump of n), and `dip`
    lowers chart 0's membership to 1/2 on a quarter of the circle, where
    chart 1 is absent, so the cover supremum falls below 1 there.
    """
    rows = []
    for k in range(n):
        t = k / n
        x, y = repr(math.sin(2 * math.pi * t)), repr(math.cos(2 * math.pi * t))
        if chart == 0:
            if t < 0.05 or t > 0.95:
                continue
            member = 0.5 if dip and 0.45 <= t <= 0.55 else 1.0
            param = t
        else:
            if 0.45 <= t <= 0.55:
                continue
            member = 1.0
            param = t if t < 0.5 else t - 1.0
            if kink and 0.25 <= t < 0.5:
                param = 0.25 + 3.0 * (t - 0.25)
        rows.append(f"{param!r} {x} {y} {member!r}")
    return "\n".join(rows) + "\n"


def atlas_check(rows, variant):
    key = f"cli-mix/check-atlas/{variant}/rows{rows}"

    def make(work, rng):
        w = Writer(work, key)
        c0 = w.put("chart0.txt", circle_rows(rows, 0, dip=variant.startswith("dip")))
        c1 = w.put("chart1.txt", circle_rows(rows, 1, kink=variant == "kink"))
        flags = ["--normalize-cover"] if variant == "dip-normalized" else []
        exp = {"VERDICT": "pass" if variant in ("smooth", "dip-normalized") else "fail",
               "CHARTS": "2", "TRANSITIONS": "2",
               "TRANSITIONS_OK": "false" if variant == "kink" else "true"}
        reason = {"kink": "difference quotient jumps between adjacent rows",
                  "dip": "cover supremum below 1"}.get(variant)
        return finish(w, Request(key, ["check-atlas", c0, c1, *flags] + MACHINE,
                                 exp, exit_of(exp["VERDICT"]), reason))
    return make


def demo_circle(samples, normalize):
    """The circle fixture: phi1 has membership 1 off t = 0 and phi2 has 1/2
    off t = 1/2, so as written the phi cover is 1/2 short at t = 0, and the
    psi charts (membership 1/4) are 3/4 short everywhere; every transition
    is smooth, so normalising the cover passes."""
    key = f"cli-mix/demo-circle/{'normalized' if normalize else 'raw'}/s{samples}"

    def make(work, rng):
        w = Writer(work, key)
        argv = ["demo-circle", "--samples-per-chart", str(samples)]
        if normalize:
            exp = {"VERDICT": "pass", "PHI_COVER_DEFICIENCY": "0.0",
                   "PSI_COVER_DEFICIENCY": "0.0"}
            argv.append("--normalize-cover")
        else:
            exp = {"VERDICT": "fail", "WITNESS_AT": "0.0", "PHI_COVER_DEFICIENCY": "0.5",
                   "PSI_COVER_DEFICIENCY": "0.75"}
        exp.update(PHI_TRANSITIONS_OK="true", PSI_TRANSITIONS_OK="true",
                   CROSS_TRANSITIONS_OK="true", SAMPLES_PER_CHART=str(samples))
        return finish(w, Request(key, argv + MACHINE,
                                 exp, exit_of(exp["VERDICT"])))
    return make


def demo_gl(n):
    key = f"cli-mix/demo-gl/n{n}"

    def make(work, rng):
        w = Writer(work, key)
        seed = rng.randrange(1000)
        exp = {"VERDICT": "pass", "N": str(n), "SAMPLES": "20", "INCLUSION_RANK": str(n * n)}
        return finish(w, Request(key, ["demo-gl", "--n", str(n), "--count", "20",
                                  "--seed", str(seed)] + MACHINE, exp, 0))
    return make


def malformed(kind):
    """Ordinary input mistakes: each must exit 2 naming the file and line."""
    key = f"cli-mix/malformed/{kind}"

    def make(work, rng):
        w = Writer(work, key)
        labels = [str(i) for i in range(4)]
        if kind == "short-row":
            rows = cyclic_table(4)
            bad = rng.randrange(4)
            text = group_text(labels, rows).splitlines()
            text[bad + 1] = " ".join(text[bad + 1].split()[:-1])
            grp = w.put("group.txt", "\n".join(text) + "\n")
            mu = w.put("mu.txt", fuzzy_set_text(labels, [1, 1, 1, 1], 1))
            argv, line, msg = ["check-subgroup", grp, mu], bad + 2, "Cayley row has 3 entries"
            path = grp
        elif kind == "grade-range":
            bad = rng.randrange(4)
            text = fuzzy_set_text(labels, [1, 0, 1, 0], 2).splitlines()
            text[bad] = f"{labels[bad]} 3/2"
            path = w.put("set.txt", "\n".join(text) + "\n")
            argv, line, msg = ["level-set", path, "1/2"], bad + 1, "grade outside [0,1]"
        elif kind == "lie-index":
            path = w.put("constants.txt", "dim 3\n1 2 3 1\n2 1 3 -1\n1 4 2 1\n")
            argv, line, msg = ["check-lie", path], 4, "index out of range 1..3"
        else:
            path = w.put("chart.txt", "0.0 1.0 0.0 1.0\n0.5 0.0 x 1.0\n")
            argv, line, msg = ["check-atlas", path], 2, "bad numeric value"
        exp = {"VERDICT": "error", "PROVENANCE": "input"}
        return finish(w, Request(key, argv + MACHINE, exp, 2,
                                 f"{path}:{line}: {msg}"))
    return make


# --- workloads ---------------------------------------------------------------------------

WORKLOADS = {
    # Fourteen light classes and six heavy ones of similar cost, so that the
    # p80 over class medians falls inside the heavy group, not between groups.
    "topology": [
        topo_check("discrete", 2, 4),
        topo_check("random", 3, 5, band=(45, 55)),
        topo_literal(3, 3, band=(20, 30), drop=True),
        topo_base(2, 3, complete=True),
        topo_base(2, 3, complete=False),
        separation("check-t1", "indiscrete", 4, 10),
        separation("check-hausdorff", "discrete", 2, 4),
        separation("check-hausdorff", "indiscrete", 3, 6),
        continuity("identity", 3, 3),
        continuity("constant", 3, 3),
        continuity("indiscrete-to-discrete", 3, 3),
        topgroup(2, "point", 2),
        topgroup(3, "indiscrete", 4),
        topgroup(4, "coset", 2),
        topo_check("discrete", 3, 4),
        topo_check("random", 4, 6, band=(115, 130)),
        topo_literal(4, 6, band=(140, 160), drop=False),
        separation("check-t1", "discrete", 3, 4),
        separation("check-t1", "random", 4, 6, band=(110, 130)),
        separation("check-hausdorff", "random", 3, 8, band=(95, 110)),
    ],
    "algebra": [
        check_lie("gl2"),
        check_lie("gl3"),
        check_lie("gl4"),
        check_lie("so3"),
        check_lie("heisenberg"),
        check_lie("gl3", perturb="jacobi"),
        check_lie("gl3", perturb="antisymmetry"),
        lie_predicate("check-lie-subalgebra", "so3", 3),
        lie_predicate("check-lie-ideal", "heisenberg", 4),
        lie_predicate("check-lie-ideal", "gl2", 3),
        demo_example("ideal"),
        subgroup_check("S4", good=True),
        subgroup_check("A5", good=False),
        subgroup_check("Z60", good=True),
        homomorphism(120, 36),
        action_check("S4", 2, broken=False),
        action_check("A5", 1, broken=True),
        invariant_check("S4", broken=False),
        invariant_check("Z24", broken=True),
        restrict_check("S4", "subgroup"),
        restrict_check("A5", "non-subgroup"),
        restrict_check("S4", "invariant"),
        quotient_check("S4", preserved=True),
        quotient_check("S4", preserved=False),
    ],
    "cli-mix": [
        level_set_check(6),
        check_lie("so3"),
        lie_predicate("check-lie-subalgebra", "so3", 3),
        lie_predicate("check-lie-ideal", "so3", 3),
        subgroup_check("S3", good=True),
        homomorphism(8, 6),
        action_check("Z8", 1, broken=False),
        invariant_check("Z6", broken=True),
        restrict_check("S3", "subgroup"),
        quotient_check("S3", preserved=True),
        topo_check("discrete", 2, 2),
        topo_base(2, 2, complete=False),
        separation("check-t1", "indiscrete", 3, 2),
        separation("check-hausdorff", "discrete", 2, 2),
        continuity("indiscrete-to-discrete", 2, 2),
        topgroup(2, "indiscrete", 2),
        atlas_check(1024, "smooth"),
        atlas_check(4096, "kink"),
        atlas_check(16384, "smooth"),
        atlas_check(2048, "dip"),
        demo_circle(256, normalize=False),
        demo_circle(4096, normalize=True),
        demo_gl(2),
        demo_gl(3),
        demo_example("ideal"),
        malformed("short-row"),
        malformed("grade-range"),
        malformed("lie-index"),
        malformed("chart-value"),
    ],
}


def build(workload: str, seed: int, work: str) -> list:
    """Write every class's inputs for this seed; return the requests."""
    out = []
    for i, make in enumerate(WORKLOADS[workload]):
        rng = random.Random(f"{workload}:{seed}:{i}")
        out.append(make(work, rng))
    return out


def schedule(requests: list, seed: int, rounds: int):
    """Rounds of the classes, each in its own seeded order."""
    rng = random.Random(f"order:{seed}")
    for _ in range(rounds):
        order = list(requests)
        rng.shuffle(order)
        yield from order
