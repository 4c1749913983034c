"""The dense Lie kernel that `fuzzcheck.lie` replaced, kept as the
differential oracle: a dim^3 table of Fractions, a Jacobi check that
brackets basis vectors over every triple, and the condition scan that
grades every sample on Fractions.  Verdicts, reasons and witnesses of the
sparse integer kernel must equal these."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fuzzcheck.sets import Verdict, format_grade


def _vec(values) -> tuple:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class DenseConstants:
    """Coefficients c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    dim: int
    c: tuple  # c[i][j][k], rank-3, Fraction entries

    def __post_init__(self):
        c = tuple(
            tuple(tuple(Fraction(v) for v in row) for row in plane) for plane in self.c
        )
        n = self.dim
        if len(c) != n or any(len(p) != n or any(len(r) != n for r in p) for p in c):
            raise ValueError("structure constants must be dim^3")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_entries(cls, dim: int, entries: dict) -> "DenseConstants":
        """entries maps (i, j, k) zero-based index triples to rationals;
        unlisted entries are zero.  No antisymmetry is inferred."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), v in entries.items():
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(f"index {idx} out of range for dim {dim}")
            c[i][j][k] = Fraction(v)
        return cls(dim, tuple(tuple(tuple(r) for r in p) for p in c))

    def basis(self, i: int) -> tuple:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))


def bracket(sc: DenseConstants, x, y) -> tuple:
    """Bilinear expansion through the structure constants, exact."""
    x, y = _vec(x), _vec(y)
    if len(x) != sc.dim or len(y) != sc.dim:
        raise ValueError("vector dimension mismatch")
    out = [Fraction(0)] * sc.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            row = sc.c[i][j]
            for k in range(sc.dim):
                if row[k]:
                    out[k] += xi * yj * row[k]
    return tuple(out)


def vec_add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(_vec(x), _vec(y)))


def vec_scale(alpha, x) -> tuple:
    alpha = Fraction(alpha)
    return tuple(alpha * a for a in _vec(x))


def validate_lie(sc: DenseConstants) -> Verdict:
    """Antisymmetry of the constants and the Jacobi identity on all basis
    triples; bilinearity is structural in this representation."""
    n = sc.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if sc.c[i][j][k] != -sc.c[j][i][k]:
                    return Verdict.failed(
                        f"antisymmetry fails at c[{i}][{j}][{k}]", witness=(i, j, k)
                    )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei, ej, ek = sc.basis(i), sc.basis(j), sc.basis(k)
                total = vec_add(
                    vec_add(
                        bracket(sc, ei, bracket(sc, ej, ek)),
                        bracket(sc, ej, bracket(sc, ek, ei)),
                    ),
                    bracket(sc, ek, bracket(sc, ei, ej)),
                )
                if any(v != 0 for v in total):
                    return Verdict.failed(
                        f"Jacobi identity fails on basis triple ({i},{j},{k})",
                        witness=(i, j, k),
                    )
    return Verdict.passed()


def _check_conditions(mu, sc, samples, bracket_bound) -> Verdict:
    """Shared scan: additivity, scalar stability, then the bracket condition
    with the supplied lower bound (min for subalgebras, max for ideals).

    Scans are in sample order so the reported witness is the first one.
    A pass means "no violation on this sample set", not a universal proof.
    """
    if len(samples.vectors[0]) != sc.dim:
        raise ValueError("sample dimension differs from the algebra's")
    for x in samples.vectors:
        for y in samples.vectors:
            gx, gy = mu.grade(x), mu.grade(y)
            gsum = mu.grade(vec_add(x, y))
            if gsum < min(gx, gy):
                return Verdict.failed(
                    f"mu(x+y)={format_grade(gsum)} < min grade "
                    f"{format_grade(min(gx, gy))} at x={x}, y={y}",
                    witness=("sum", x, y),
                )
    for alpha in samples.scalars:
        for x in samples.vectors:
            gx = mu.grade(x)
            gs = mu.grade(vec_scale(alpha, x))
            if gs < gx:
                return Verdict.failed(
                    f"mu(alpha*x)={format_grade(gs)} < mu(x)={format_grade(gx)} "
                    f"at alpha={alpha}, x={x}",
                    witness=("scale", alpha, x),
                )
    for x in samples.vectors:
        for y in samples.vectors:
            gx, gy = mu.grade(x), mu.grade(y)
            bound = bracket_bound(gx, gy)
            gb = mu.grade(bracket(sc, x, y))
            if gb < bound:
                return Verdict.failed(
                    f"mu([x,y])={format_grade(gb)} < {format_grade(bound)} "
                    f"at x={x}, y={y}",
                    witness=("bracket", x, y, gb, bound),
                )
    return Verdict.passed()
