"""Independent references for the tests: one reduced row echelon form over
Fraction, sharing no code with altchain's integer elimination, and the
tuple generators enumerated by brute force."""

import itertools
from fractions import Fraction
from math import lcm


def _rref(rows):
    """(reduced rows, pivot columns, determinant factor) of a dense matrix.

    The determinant factor is the product of the pivots met, with the sign
    of the row swaps; it is the determinant when the matrix is square and
    of full rank.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    factor = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            factor = -factor
        factor *= mat[r][c]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots, factor


def fraction_rank(rows) -> int:
    return len(_rref(rows)[1])


def fraction_det(rows) -> Fraction:
    _, pivots, factor = _rref(rows)
    return factor if len(pivots) == len(rows) else Fraction(0)


def integer_kernel(rows) -> list:
    """Integer vectors spanning the rational null space of a matrix with at
    least one row: one per non-pivot column, denominators cleared."""
    mat, pivots, _ = _rref(rows)
    basis = []
    for f in range(len(mat[0])):
        if f in pivots:
            continue
        vec = [Fraction(0)] * len(mat[0])
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][f]
        scale = lcm(*(v.denominator for v in vec))
        basis.append([int(v * scale) for v in vec])
    return basis


def product_filter_generators(K, max_degree: int) -> list:
    """The degree-n tuple generators for n = 0..max_degree, found the long
    way: every tuple over each simplex's vertices that uses all of them,
    sorted lexicographically."""
    out = []
    for n in range(max_degree + 1):
        tuples = []
        for s in K.simplex_set:
            members = sorted(s)
            if len(members) > n + 1:
                continue
            full = frozenset(members)
            for t in itertools.product(members, repeat=n + 1):
                if frozenset(t) == full:
                    tuples.append(t)
        tuples.sort()
        out.append(tuple(tuples))
    return out
