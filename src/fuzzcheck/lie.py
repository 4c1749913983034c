"""Finite-dimensional Lie brackets via structure constants, plus the fuzzy
subalgebra / ideal predicates over finite sample sets.

All vectors and scalars are exact rationals: the membership classifiers
decide sign/zero conditions on coordinates, which float sampling would
misclassify on measure-zero sets such as an axis.  Fractions appear at
the interface only: the checks run on the structure constants and the
samples scaled to ints, by positive factors that keep every sign.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from .record import Frozen
from .sets import Verdict, as_grade, format_grade


def _vec(values) -> tuple:
    return tuple(Fraction(v) for v in values)


class StructureConstants(Frozen):
    """Nonzero coefficients, scaled to ints: [e_i, e_j] = sum of c / scale
    * e_k over the (k, c) pairs of ints[(i, j)], in ascending k; unlisted
    pairs bracket to 0.  `scale` is the lcm of the rational coefficients'
    denominators."""

    def __init__(self, dim: int, scale: int, ints: dict):
        self._set(dim=dim, scale=scale, ints=ints)

    def __hash__(self):  # the dict of constants is left out
        return hash((self.dim, self.scale))

    @classmethod
    def from_entries(cls, dim: int, entries: dict) -> "StructureConstants":
        """entries maps (i, j, k) zero-based index triples to rationals;
        unlisted entries are zero.  No antisymmetry is inferred."""
        table = {}
        for (i, j, k), v in sorted(entries.items()):
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(f"index {idx} out of range for dim {dim}")
            v = Fraction(v)
            if v:
                table.setdefault((i, j), []).append((k, v))
        scale = math.lcm(1, *(c.denominator for terms in table.values() for _, c in terms))
        ints = {key: tuple((k, c.numerator * (scale // c.denominator)) for k, c in terms)
                for key, terms in table.items()}
        return cls(dim, scale, ints)

    def basis(self, i: int) -> tuple:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))


def cross_product_constants() -> StructureConstants:
    """The bracket [x, y] = x cross y on rational 3-space."""
    return StructureConstants.from_entries(
        3,
        {
            (0, 1, 2): 1, (1, 0, 2): -1,
            (1, 2, 0): 1, (2, 1, 0): -1,
            (2, 0, 1): 1, (0, 2, 1): -1,
        },
    )


def _walk(sc: StructureConstants, x, y) -> list:
    """`scale` times [x, y], summed over the nonzero brackets only."""
    out = [0] * sc.dim
    for (i, j), terms in sc.ints.items():
        p = x[i] * y[j]
        if p:
            for k, c in terms:
                out[k] += p * c
    return out


def bracket(sc: StructureConstants, x, y) -> tuple:
    """Bilinear expansion through the structure constants, exact."""
    x, y = _vec(x), _vec(y)
    if len(x) != sc.dim or len(y) != sc.dim:
        raise ValueError("vector dimension mismatch")
    return tuple(Fraction(v, sc.scale) for v in _walk(sc, x, y))


def validate_lie(sc: StructureConstants) -> Verdict:
    """Antisymmetry of the constants and the Jacobi identity on all basis
    triples; bilinearity is structural in this representation.

    Both scans visit, in ascending order, only the cases that can fail,
    each once.  Antisymmetry scans i <= j over the listed entries and their
    mirrors.  Once it holds, the Jacobi sum is alternating: zero on a
    repeated index, and failing on a triple exactly when it fails on the
    sorted triple.  So Jacobi scans i < j < k where one of [e_j, e_k],
    [e_k, e_i] or [e_i, e_j] is nonzero.  A scan over every ordering would
    first fail on a sorted case too, so the witness is the same.  Jacobi
    runs on the ints, which scales every sum by scale**2.
    """
    ints = sc.ints
    coef = {(i, j, k): c for (i, j), terms in ints.items() for k, c in terms}
    for i, j, k in sorted({(min(i, j), max(i, j), k) for i, j, k in coef}):
        if coef.get((i, j, k), 0) != -coef.get((j, i, k), 0):
            return Verdict.failed(
                f"antisymmetry fails at c[{i}][{j}][{k}]", witness=(i, j, k)
            )
    candidates = {tuple(sorted((a, b, m))) for a, b in ints if a < b
                  for m in range(sc.dim) if m != a and m != b}
    for i, j, k in sorted(candidates):
        total = {}
        # [e_p, [e_q, e_r]] for the three cyclic orders of (i, j, k)
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c1 in ints.get((q, r), ()):
                for l, c2 in ints.get((p, m), ()):
                    total[l] = total.get(l, 0) + c1 * c2
        if any(total.values()):
            return Verdict.failed(
                f"Jacobi identity fails on basis triple ({i},{j},{k})",
                witness=(i, j, k),
            )
    return Verdict.passed()


# Condition operators over a single coordinate of a rational vector.
_OPS = {
    "eq0": lambda v: v == 0,
    "ne0": lambda v: v != 0,
    "gt0": lambda v: v > 0,
    "lt0": lambda v: v < 0,
}


class Condition(Frozen):
    def __init__(self, coord: int, op: str):  # coord is zero-based
        if op not in _OPS:
            raise ValueError(f"unknown condition operator {op!r}")
        self._set(coord=coord, op=op)

    def holds(self, vector) -> bool:
        return _OPS[self.op](vector[self.coord])


class ClassifierCase(Frozen):
    def __init__(self, conditions, grade: Fraction):  # conditions: a conjunction of Condition
        self._set(conditions=tuple(conditions), grade=as_grade(grade))

    def matches(self, vector) -> bool:
        return all(c.holds(vector) for c in self.conditions)


class MembershipClassifier(Frozen):
    """First-match list of (conjunctive condition, grade) cases plus default."""

    def __init__(self, dim: int, cases, default: Fraction):  # cases: a tuple of ClassifierCase
        self._set(dim=dim, cases=tuple(cases), default=as_grade(default))
        for case in self.cases:
            for cond in case.conditions:
                if not 0 <= cond.coord < dim:
                    raise ValueError(f"coordinate {cond.coord} out of range")

    def grade(self, vector) -> Fraction:
        v = _vec(vector)
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        for case in self.cases:
            if case.matches(v):
                return case.grade
        return self.default


class SampleSet(Frozen):
    """Finite witness domain for the universally quantified conditions."""

    def __init__(self, vectors, scalars):  # rational vectors, rationals
        vectors = tuple(_vec(v) for v in vectors)
        scalars = tuple(Fraction(s) for s in scalars)
        if not vectors:
            raise ValueError("sample set needs at least one vector")
        dim = len(vectors[0])
        if any(len(v) != dim for v in vectors):
            raise ValueError("sample vectors of mixed dimension")
        if tuple(Fraction(0) for _ in range(dim)) not in vectors:
            raise ValueError("sample set must contain the zero vector")
        self._set(vectors=vectors, scalars=scalars)


def _sign_grader(mu: MembershipClassifier):
    """Grade ranks of integer vectors under mu, memoized on the signs of
    the coordinates its conditions read: every operator tests a sign, so
    vectors with equal signs there have equal grades.  Returns the grader
    and the ascending list of grades that the ranks index."""
    coords = sorted({cond.coord for case in mu.cases for cond in case.conditions})
    levels = sorted({case.grade for case in mu.cases} | {mu.default})
    rank = {g: r for r, g in enumerate(levels)}
    memo = {}

    def grade(v) -> int:
        key = tuple([(v[i] > 0) - (v[i] < 0) for i in coords])
        r = memo.get(key)
        if r is None:
            r = memo[key] = rank[mu.grade(v)]
        return r

    return grade, levels


def _check_conditions(mu, sc, samples, bracket_bound) -> Verdict:
    """Shared scan: additivity, scalar stability, then the bracket condition
    with the supplied lower bound (min for subalgebras, max for ideals).

    Scans are in sample order so the reported witness is the first one.
    A pass means "no violation on this sample set", not a universal proof.

    The scan runs on the samples times the lcm of their denominators, as
    ints: sums, scalar multiples (by the numerator) and brackets then come
    out as positive multiples of the exact ones, with the same grades.
    Grades are compared as ranks; a pair whose bound is the lowest grade
    cannot fail and is skipped.

    The sum condition is symmetric, so y runs from x's position on: a pair
    that fails with y before x fails swapped, earlier, so the first witness
    is the one a scan of all ordered pairs finds.
    """
    if len(samples.vectors[0]) != sc.dim:
        raise ValueError("sample dimension differs from the algebra's")
    if mu.dim != sc.dim:
        raise ValueError("vector dimension mismatch")
    grade, levels = _sign_grader(mu)
    scale = math.lcm(1, *(v.denominator for x in samples.vectors for v in x))
    points = []
    for x in samples.vectors:
        X = [v.numerator * (scale // v.denominator) for v in x]
        points.append((x, X, grade(X)))
    for n, (x, X, gx) in enumerate(points):
        for y, Y, gy in points[n:]:
            low = min(gx, gy)
            if low:
                gsum = grade(list(map(add, X, Y)))
                if gsum < low:
                    return Verdict.failed(
                        f"mu(x+y)={format_grade(levels[gsum])} < min grade "
                        f"{format_grade(levels[low])} at x={x}, y={y}",
                        witness=("sum", x, y),
                    )
    for alpha in samples.scalars:
        p = alpha.numerator
        for x, X, gx in points:
            if gx:
                gs = grade([p * v for v in X])
                if gs < gx:
                    return Verdict.failed(
                        f"mu(alpha*x)={format_grade(levels[gs])} < "
                        f"mu(x)={format_grade(levels[gx])} at alpha={alpha}, x={x}",
                        witness=("scale", alpha, x),
                    )
    for x, X, gx in points:
        for y, Y, gy in points:
            bound = bracket_bound(gx, gy)
            if bound:
                gb = grade(_walk(sc, X, Y))
                if gb < bound:
                    return Verdict.failed(
                        f"mu([x,y])={format_grade(levels[gb])} < "
                        f"{format_grade(levels[bound])} at x={x}, y={y}",
                        witness=("bracket", x, y, levels[gb], levels[bound]),
                    )
    return Verdict.passed()


def is_fuzzy_lie_subalgebra(mu: MembershipClassifier, sc: StructureConstants,
                            samples: SampleSet) -> Verdict:
    """Bracket grades bounded below by the min of the argument grades."""
    return _check_conditions(mu, sc, samples, min)


def is_fuzzy_lie_ideal(mu: MembershipClassifier, sc: StructureConstants,
                       samples: SampleSet) -> Verdict:
    """Bracket grades bounded below by the max of the argument grades."""
    return _check_conditions(mu, sc, samples, max)


def z_axis_classifier() -> MembershipClassifier:
    """Grade 1 at the origin, 1/4 on the rest of the z-axis, 0 elsewhere."""
    return MembershipClassifier(
        3,
        (
            ClassifierCase(
                (Condition(0, "eq0"), Condition(1, "eq0"), Condition(2, "eq0")),
                Fraction(1),
            ),
            ClassifierCase(
                (Condition(0, "eq0"), Condition(1, "eq0"), Condition(2, "ne0")),
                Fraction(1, 4),
            ),
        ),
        Fraction(0),
    )


def cross_product_fixture():
    """Cross-product bracket, the z-axis classifier, and the default sample
    set: the two refuting vectors and their bracket first, then the integer
    grid [-2,2]^3; scalars {-2,-1,0,1/2,1,2}.

    The refuting vectors come first so the first reported ideal witness is
    the canonical one.
    """
    sc = cross_product_constants()
    mu = z_axis_classifier()
    head = [(0, 0, 1), (1, 1, 1), (-1, 1, 0)]
    grid = [v for v in itertools.product(range(-2, 3), repeat=3) if v not in head]
    samples = SampleSet(
        tuple(head + grid),
        (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)),
    )
    return sc, mu, samples
