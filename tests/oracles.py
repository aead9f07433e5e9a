"""Independent references for the tests: one reduced row echelon form over
Fraction, sharing no code with altchain's integer elimination, the
boundary matrices of tuple complexes summed one face per entry, the
coboundary matrices as transposed boundary matrices, the tuple generators
enumerated by brute force, the quotient boundary built by descending
each generator's boundary through ``AltChain``, the reorderings of k
positions with signs counted from their inversions, and the cochain operations
on plain ``{tuple: Fraction}`` maps, with the scaled projector matrix
built from the projector of each indicator.  Matrices are dense lists of rows;
:func:`sparse_rows` gives the rows the elimination reads."""

import itertools
from fractions import Fraction
from math import factorial, lcm

from altchain import SimplicialComplex
from altchain.alt_chains import AltChain, boundary


def sparse_rows(dense) -> dict:
    """The nonzero rows ``{row: {col: nonzero}}`` of a list of rows."""
    return {r: {c: int(v) for c, v in enumerate(row) if v}
            for r, row in enumerate(dense) if any(row)}


def transpose(dense) -> list:
    return [list(col) for col in zip(*dense)]


def face_sum_matrix(columns, row_of) -> list:
    """The ordered boundary sum_i (-1)^i (g without entry i) of each column
    tuple, one face per entry with the coefficients accumulated, as a
    len(row_of) x len(columns) matrix."""
    dense = [[0] * len(columns) for _ in range(len(row_of))]
    for j, g in enumerate(columns):
        for i in range(len(g)):
            dense[row_of[g[:i] + g[i + 1:]]][j] += (-1) ** i
    return dense


def ordered_boundary_matrix(index, n: int) -> list:
    """The boundary of the full tuple complex, degree n to n-1."""
    return face_sum_matrix(index.generators(n), index.positions(n - 1))


def simplicial_boundary_matrix(K, n: int) -> list:
    """The classical simplicial boundary, degree n to n-1, on sorted simplices."""
    rows = K.simplices_of_dim(n - 1)
    return face_sum_matrix(K.simplices_of_dim(n), {s: i for i, s in enumerate(rows)})


def coboundary_matrix(index, n: int) -> list:
    """delta_n of the full tuple complex on the generator bases, degree n to
    n+1: the transpose of the degree-(n+1) ordered boundary matrix."""
    return transpose(ordered_boundary_matrix(index, n + 1))


def alt_coboundary_matrix(K, n: int) -> list:
    """delta_n on the alternating bases (the sorted simplices): the
    transpose of the degree-(n+1) simplicial boundary matrix."""
    return transpose(simplicial_boundary_matrix(K, n + 1))


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
        # only the pivot row's nonzero entries change another row
        nonzero = [(j, b * inv) for j, b in enumerate(mat[r]) if b]
        for j, b in nonzero:
            mat[r][j] = b
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f, row = mat[i][c], mat[i]
                for j, b in nonzero:
                    row[j] -= f * b
        pivots.append(c)
    return mat, pivots, factor


def fraction_rank(rows) -> int:
    # zero rows add no rank, and a projector matrix is mostly zero rows
    return len(_rref([row for row in rows if any(row)])[1])


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


def descended_boundary_matrices(free_generators, torsion_generators) -> list:
    """The lifted boundary of a sign-quotient presentation, degree n -> n-1
    for n = 1..D (index 0 is ``[]``): each generator's quotient boundary,
    :func:`altchain.alt_chains.boundary`, written into the column of the
    combined generator list, free generators first."""
    out = [[]]
    for n in range(1, len(free_generators)):
        rows = free_generators[n - 1] + torsion_generators[n - 1]
        row_of = {t: i for i, t in enumerate(rows)}
        columns = free_generators[n] + torsion_generators[n]
        dense = [[0] * len(columns) for _ in rows]
        for j, g in enumerate(columns):
            image = boundary(AltChain.from_generator(g))
            for t, c in list(image.free.items()) + list(image.torsion.items()):
                dense[row_of[t]][j] += c
        out.append(dense)
    return out


def subdivision(K):
    """The barycentric subdivision: one vertex per simplex of K, one facet
    per maximal chain of faces."""
    order = sorted(K.simplex_set, key=lambda s: (len(s), sorted(s)))
    vertex = {s: i for i, s in enumerate(order)}

    def chains(s):
        if len(s) == 1:
            return [[s]]
        return [c + [s] for v in s for c in chains(s - {v})]
    facets = [[vertex[s] for s in c] for f in K.facets for c in chains(f)]
    return SimplicialComplex.from_facets(len(order), facets, name=f"sd({K.name})")


# ---------------------------------------------------------------------------
# cochains as {tuple: nonzero Fraction}, one value at a time

def _nonzero(values: dict) -> dict:
    return {g: v for g, v in values.items() if v}


def _parity(order) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(order, 2))
    return -1 if inversions % 2 else 1


def reorderings(k: int):
    """Every reordering of k positions as (images, sign), in lexicographic
    order of the images: g reordered is ``reorder(images, g)``, and the
    sign is counted from the inversions."""
    for images in itertools.permutations(range(k)):
        yield images, _parity(images)


def reorder(images, g) -> tuple:
    """Entry j of the result is g[images[j]]."""
    return tuple(g[j] for j in images)


def fraction_sum(a: dict, b: dict, sign: int = 1) -> dict:
    return _nonzero({g: a.get(g, 0) + sign * b.get(g, 0) for g in {*a, *b}})


def fraction_scale(a: dict, k) -> dict:
    return _nonzero({g: Fraction(k) * v for g, v in a.items()})


def fraction_coboundary(index, a: dict, n: int) -> dict:
    """Gathered: the signed sum of the face values at every generator."""
    return _nonzero({g: sum((-1) ** i * a.get(g[:i] + g[i + 1:], 0)
                            for i in range(n + 2))
                     for g in index.generators(n + 1)})


def fraction_cup(index, a: dict, p: int, b: dict, q: int) -> dict:
    """Every generator of degree p + q split into its front p-face and
    back q-face."""
    return _nonzero({t: a.get(t[:p + 1], 0) * b.get(t[p:], 0)
                     for t in index.generators(p + q)})


def fraction_projector(a: dict, n: int) -> dict:
    """The parity-weighted mean over the whole symmetric group, at every
    reordering of every supported tuple."""
    orders = [(o, _parity(o)) for o in itertools.permutations(range(n + 1))]
    closure = {h for g in a for h in itertools.permutations(g)}
    return _nonzero({g: sum(sign * a.get(tuple(g[i] for i in o), 0)
                            for o, sign in orders) / Fraction(len(orders))
                     for g in closure})


def scaled_projector_matrix(index, n: int) -> list:
    """(n+1)! times the projector on the degree-n generator basis, an
    integer matrix: column j is the image of the j-th indicator under
    :func:`fraction_projector`.  It is symmetric, so row j is that image too."""
    gens = index.generators(n)
    row_of = {g: i for i, g in enumerate(gens)}
    dense = [[0] * len(gens) for _ in gens]
    for j, g in enumerate(gens):
        for h, v in fraction_projector({g: 1}, n).items():
            dense[row_of[h]][j] = int(v * factorial(n + 1))
    return dense


def fraction_alternating(tau: tuple, value) -> dict:
    return _nonzero({tuple(tau[i] for i in o): _parity(o) * Fraction(value)
                     for o in itertools.permutations(range(len(tau)))})


def fraction_pull_back(f, domain_index, a: dict, n: int) -> dict:
    """The value at every domain generator read at its image tuple."""
    return _nonzero({g: a.get(f.apply(g), 0) for g in domain_index.generators(n)})
