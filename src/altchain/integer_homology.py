"""Exact integer and rational linear algebra for homology computation.

Everything here is arbitrary-precision.  Integer diagonalization has two
phases, after Dumas, Saunders & Villard (J. Symb. Comput. 2001): sparse
elimination reads the rows in order and pivots each on a +-1 entry where
it can, which needs no division, and the leftover core, if any, goes to a
dense phase that diagonalizes it by row/column reduction with
minimal-absolute-value pivoting.  ``canonical_invariant_factors`` turns
any such diagonal into the divisibility chain of invariant factors.

Homology and rational cohomology share one driver.  The coboundary
delta_n is the transposed boundary d_{n+1}, with the same invariant
factors, so every group comes from eliminating delta_0, delta_1, ...
bottom-up, each without the columns that the unit pivots of the one
before it account for.  For a tuple complex (ordered tuples or sorted
simplices) row r of delta_n is the face list of tuple r one degree up,
built when the elimination reads it, with no matrix in between; as in
Ripser (Bauer 2021), which builds each column only when the reduction
asks for it, the rows after delta_n reaches full rank are never built.
A complex whose torsion generators have order 2 is read as a free block,
a free chain complex, and a torsion block whose rank mod 2 adds the Z/2
summands.  Nothing here checks the chain-complex law: the tuple
complexes are face-closed, and the presentation reader checks what it
reads.

Matrix conventions: one sparse form, a dict ``{index: nonzero}`` per row
or column.  The elimination reads rows ``(row, {col: nonzero})``.  A
boundary for degree n is stored as its columns, one ``{row: nonzero}``
per degree-n generator with a row per degree-(n-1) generator, so column
c of d_{n+1} is row c of delta_n as it stands.  Composition "later
degree after earlier" is the product of the two (:func:`product_entries`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Sequence

from .complex_model import GeneratorIndex, SimplicialComplex
from .errors import Record


# ---------------------------------------------------------------------------
# Smith normal form (dense)

def _nearest_quotient(a: int, d: int) -> int:
    # quotient minimizing |a - q*d|; keeps reduction residues at half the
    # pivot and avoids the coefficient blowup of plain floor division
    q = a // d
    r = a - q * d
    if 2 * abs(r) > abs(d):
        q += 1  # the floor remainder shares d's sign, so +1 always shrinks
    return q


def canonical_invariant_factors(diagonal) -> tuple:
    """Divisibility chain determined by any unimodular diagonalization.

    Units divide everything, so only the entries above 1 go through the
    gcd/lcm fix-up; the units lead the chain.
    """
    ds = sorted(abs(d) for d in diagonal if d)
    units = ds.count(1)
    ds = ds[units:]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        if changed:
            ds.sort()
    return (1,) * units + tuple(ds)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple:
    """Invariant factors d_1 | d_2 | ... (all positive) of a dense integer
    matrix, by elementary row/column operations.

    Each step moves an entry of least absolute value in the remaining
    submatrix to the diagonal and reduces its column and row with
    round-to-nearest quotients, which leaves every residue at most half the
    pivot.  While residues remain, the step repeats on an entry no larger
    than the least of them, so the pivot at least halves and the loop ends.
    The diagonal this leaves is unimodularly equivalent to the matrix, and
    ``canonical_invariant_factors`` puts it in canonical form.
    """
    D = [list(map(int, row)) for row in rows]
    m = len(D)
    n = len(D[0]) if m else 0
    diagonal = []
    t = 0
    while t < min(m, n):
        best = 0
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        D[t], D[pi] = D[pi], D[t]
        if pj != t:
            for row in D[t:]:
                row[t], row[pj] = row[pj], row[t]
        prow = D[t]
        p = prow[t]
        for row in D[t + 1:]:
            if row[t]:
                q = _nearest_quotient(row[t], p)
                for j in range(t, n):
                    if prow[j]:
                        row[j] -= q * prow[j]
        for j in range(t + 1, n):
            if prow[j]:
                q = _nearest_quotient(prow[j], p)
                for row in D[t:]:
                    if row[t]:
                        row[j] -= q * row[t]
        if not (any(prow[t + 1:]) or any(row[t] for row in D[t + 1:])):
            diagonal.append(p)
            t += 1
    return canonical_invariant_factors(diagonal)


# ---------------------------------------------------------------------------
# sparse diagonalization (unit pivots, then the dense core)

def _eliminate(rows, live=None) -> tuple:
    """(diagonal, unit pivots) of a diagonalization of the matrix whose
    rows are the pairs ``(row, {col: nonzero})`` of ``rows``, a dict or an
    iterable read in order, which it consumes: the unit pivots in the order
    they were made, then the invariant factors of the core; and
    ``{row: pivot column}`` for the unit pivots, never a row of the core.

    Each row read is reduced by the pivot rows made before it, in the order
    they were made (a heap of their creation indices), by exact row
    operations ``q = a * pivot``; its first +-1 entry left, if any, becomes
    a pivot, and the row is kept as it stands.  A row with no +-1 entry
    waits; after the last row the waiting rows are reduced again and
    pivoted while a pass makes a new pivot, and the rows left form the
    core, which goes to ``smith_normal_form``.  A pivot row holds no column
    of an earlier pivot, so the pivot rows on their pivot columns form a
    triangle with +-1 on the diagonal: determinant +-1.  Column operations
    would then sweep each pivot row without touching the core, so the
    pivots and the core's invariant factors diagonalize the matrix, and
    each core entry is a minor of it.  Boundary and coboundary matrices of
    tuple complexes usually leave no core.

    ``live``, when given, bounds the rank: once that many pivots are made,
    every later row would reduce to zero, and no further row is read.
    """
    made, pivot_of, pivots, waiting = [], {}, {}, []

    def place(r, row):
        heap = [pivot_of[c] for c in row if c in pivot_of]
        heapify(heap)
        while heap:
            pc, pv, prow = made[heappop(heap)]
            a = row.pop(pc, 0)
            if not a:
                continue
            q = a * pv
            for c, v in prow.items():
                nv = row.get(c, 0) - q * v
                if not nv:
                    del row[c]
                    continue
                if c not in row and c in pivot_of:
                    heappush(heap, pivot_of[c])
                row[c] = nv
        pc = next((c for c, v in row.items() if v in (1, -1)), None)
        if pc is None:
            if row:
                waiting.append((r, row))
            return
        pivot_of[pc] = len(made)
        made.append((pc, row.pop(pc), row))
        pivots[r] = pc

    pairs = iter(rows.items() if isinstance(rows, dict) else rows)
    while len(pivots) != live and (pair := next(pairs, None)):
        place(*pair)
    # a waiting row may hold columns of pivots made after it
    count = None
    while waiting and count != len(pivots):
        count, rest, waiting = len(pivots), waiting, []
        for pair in rest:
            place(*pair)
    diag = [pv for _, pv, _ in made]
    if waiting:
        core_cols = sorted({c for _, row in waiting for c in row})
        diag.extend(smith_normal_form([[row.get(c, 0) for c in core_cols] for _, row in waiting]))
    return diag, pivots


def product_entries(outer, inner) -> list:
    """The nonzero entries ``(row, col, value)`` of the product of two
    matrices stored as columns ``{row: nonzero}``, column by column:
    column c of the product is the sum over k of inner[c][k] * outer[k].
    With outer the boundary of degree n and inner that of degree n+1 it
    is d_n d_{n+1}."""
    out = []
    for c, column in enumerate(inner):
        acc: dict = {}
        for k, v in column.items():
            for r, w in outer[k].items():
                acc[r] = acc.get(r, 0) + v * w
        out.extend((r, c, x) for r, x in acc.items() if x)
    return out


# ---------------------------------------------------------------------------
# abelian groups and homology

class AbelianGroup(Record):
    """Finitely generated abelian group in canonical form."""

    free_rank: int
    torsion: tuple = ()

    @classmethod
    def canonical(cls, free_rank: int, torsion) -> "AbelianGroup":
        chain = canonical_invariant_factors(torsion)
        return cls(free_rank, tuple(d for d in chain if d > 1))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _coboundary_diagonals(degrees: int, rows_of) -> list:
    """Diagonals of delta_0, ..., delta_{degrees-1} of a cochain complex,
    eliminated bottom-up with clearing across degrees.

    ``rows_of(n, cleared, rank)`` returns ``(rows, live)``: delta_n as rows
    for ``_eliminate`` without the columns in ``cleared``, which are the
    unit-pivot rows of delta_{n-1}, and a bound on its rank or None;
    ``rank`` is the rank of delta_{n-1} (0 for n = 0).  That
    pivot block, rows P and columns Q of delta_{n-1}, has determinant +-1,
    so the delta_{n-1} e_q (q in Q) and the e_i (i not in P) form a basis
    of delta_n's domain, over Z and mod 2.  delta_n kills the
    delta_{n-1} e_q, since the two compose to zero, so it keeps its
    invariant factors (and F2 rank) on the rest.  That law is taken for
    granted, not checked.
    """
    diags, cleared = [], {}
    for n in range(degrees):
        diag, cleared = _eliminate(*rows_of(n, cleared, len(diags[-1]) if diags else 0))
        diags.append(diag)
    return diags


def _groups(dims: Sequence[int], diags: list) -> list:
    # H_n of the chain complex with d_{n+1} = delta_n transposed, for
    # n = 0..len(diags)-1: free rank dims_n - r(delta_{n-1}) - r(delta_n),
    # torsion the invariant factors of delta_n
    ranks = [0] + [len(diag) for diag in diags]
    return [AbelianGroup.canonical(dims[n] - ranks[n] - ranks[n + 1], diags[n])
            for n in range(len(diags))]


def _tuple_homology(levels: Sequence[Sequence[tuple]]) -> list:
    """Homology of degrees 0..D-1 of a face-closed tuple complex:
    ``levels[n]`` lists the degree-n tuples for n = 0..D, and every face
    of a tuple in ``levels[n + 1]`` is in ``levels[n]``; ``levels[D]`` may
    be any iterable, which is read once and only as far as the sweep
    needs.  Row r of delta_n is the face row (:func:`_face_row`) of tuple
    r of ``levels[n + 1]``, built only when the elimination reads it: the
    image of delta_{n-1} lies in the kernel of delta_n, so the rank of
    delta_n is at most len(levels[n]) - rank(delta_{n-1}), and the rows
    after it reaches that are never built."""
    def face_rows(n, col_of):
        for r, g in enumerate(levels[n + 1]):
            row = _face_row(g, col_of)
            row.pop(-1, None)
            yield r, row

    def rows_of(n, cleared, rank):
        # every face in a cleared column lands in column -1, which is dropped
        col_of = {g: -1 if j in cleared else j for j, g in enumerate(levels[n])}
        return face_rows(n, col_of), len(levels[n]) - rank
    return _groups([len(level) for level in levels[:-1]],
                   _coboundary_diagonals(len(levels) - 1, rows_of))


def homology_presented(pres) -> list:
    """Homology of a complex whose torsion generators have order 2.

    ``pres`` provides ``max_degree``, ``free_generators`` and
    ``torsion_generators`` (one sequence per degree), and ``columns``:
    per degree n, the boundary d_n as one column ``{row: nonzero}`` per
    degree-n generator, free generators first and rows numbered the same
    way one degree down.  Column c of d_{n+1} is row c of delta_n, so each
    of the two blocks goes as it is stored through the sweep of
    ``_coboundary_diagonals``.  The free block is a free chain complex.
    The torsion block is read mod 2, each odd entry as 1, and adds
    t_n - r_n - r_{n+1} summands Z/2 in degree n (t_n torsion generators,
    r_n the F2 rank of the degree-n block).  The boundaries must obey the
    law of ``alt_chains.presented_law_violation``, which is not checked
    here.  Raises ``ValueError`` when a degree has not one column per
    generator.
    """
    D, columns = pres.max_degree, pres.columns
    free = [len(pres.free_generators[n]) for n in range(D + 1)]
    tors = [len(pres.torsion_generators[n]) for n in range(D + 1)]
    for n in range(D + 1):
        if len(columns[n]) != free[n] + tors[n]:
            raise ValueError(f"boundary {n} has wrong shape")

    def free_rows(n, cleared, _rank):
        return {c: {r: v for r, v in column.items() if r not in cleared}
                for c, column in enumerate(columns[n + 1][:free[n + 1]])}, None

    def torsion_rows(n, cleared, _rank):
        return {c: {r: 1 for r, v in column.items() if v % 2 and r not in cleared}
                for c, column in enumerate(columns[n + 1][free[n + 1]:], free[n + 1])}, None
    # unimodular integer operations stay invertible mod 2, so the odd
    # diagonal entries count the F2 rank
    f2 = [0] + [sum(d % 2 for d in diag) for diag in _coboundary_diagonals(D, torsion_rows)]
    return [AbelianGroup.canonical(g.free_rank, g.torsion + (2,) * (tors[n] - f2[n] - f2[n + 1]))
            for n, g in enumerate(_groups(free, _coboundary_diagonals(D, free_rows)))]


def cohomology_rational(levels: Sequence[Sequence[tuple]]) -> list:
    """Betti numbers of the cochain complex of a face-closed tuple complex,
    ``levels`` as in ``_tuple_homology``, for degrees 0..D-1: over Q they
    are the free ranks of its homology."""
    return [g.free_rank for g in _tuple_homology(levels)]


# ---------------------------------------------------------------------------
# the standard tuple complexes

def _face_row(g: tuple, row_of: dict) -> dict:
    """Ordered boundary of the tuple g, sum_i (-1)^i (g without entry i),
    as {row of the face: sign}, in the order of i.  All entries of a run
    of equal entries give one face, so a run starting at index i adds
    (-1)^i if its length is odd."""
    row, n, i = {}, len(g), 0
    while i < n:
        k = i + 1
        while k < n and g[k] == g[i]:
            k += 1
        if (k - i) % 2:
            row[row_of[g[:i] + g[i + 1:]]] = -1 if i % 2 else 1
        i = k
    return row


def simplicial_homology(K: SimplicialComplex) -> list:
    """Simplicial homology of the complex in all degrees 0..dim."""
    return _tuple_homology([K.simplices_of_dim(n) for n in range(K.dimension() + 2)])


def ordered_homology(index: GeneratorIndex) -> list:
    """Homology of the full tuple complex for degrees 0..max_degree-1."""
    D = index.max_degree
    return _tuple_homology([index.generators(n) for n in range(D)] + [index.stream(D)])

