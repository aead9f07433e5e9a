"""Finite simplicial complexes and their ordered-tuple generator sets.

A degree-n generator is a plain tuple of n+1 vertex indices, repeats
allowed, whose set of distinct entries spans a simplex of the complex.
These tuples are closed under the face maps (delete one entry) and under
the symmetric group action (reorder entries), which is exactly what the
chain and cochain algebra downstream needs.

:class:`GeneratorIndex` predicts its counts, builds each degree's tuples
when first read, and reads membership off the simplex set.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property

from .errors import BudgetExceededError, DegreeCapError, FormatError, Record

DEFAULT_GENERATOR_BUDGET = 1_000_000

COMPLEX_FORMAT_VERSION = 1
_COMPLEX_FIELDS = {"format_version", "name", "provenance", "vertices", "facets"}


class SimplicialComplex(Record):
    """A finite abstract simplicial complex on vertices 0..vertex_count-1.

    ``simplex_set`` is the downward closure of the facets: every nonempty
    subset of a facet, as a frozenset of vertex indices.
    """

    vertex_count: int
    facets: frozenset
    simplex_set: frozenset
    name: str = ""
    vertex_names: tuple = ()

    @classmethod
    def from_facets(cls, vertex_count: int, facets, name: str = "",
                    vertex_names=()) -> "SimplicialComplex":
        if vertex_count < 0:
            raise FormatError("vertex count must be nonnegative")
        clean = set()
        for f in facets:
            fs = frozenset(f)
            if not fs:
                raise FormatError("empty facet")
            for v in fs:
                if not isinstance(v, int) or not 0 <= v < vertex_count:
                    raise FormatError(f"vertex index {v!r} out of range 0..{vertex_count - 1}")
            clean.add(fs)
        closure = set()
        for f in clean:
            members = sorted(f)
            for k in range(1, len(members) + 1):
                closure.update(frozenset(c) for c in itertools.combinations(members, k))
        return cls(vertex_count=vertex_count, facets=frozenset(clean),
                   simplex_set=frozenset(closure), name=name,
                   vertex_names=tuple(vertex_names))

    def dimension(self) -> int:
        if not self.simplex_set:
            return -1
        return max(len(s) for s in self.simplex_set) - 1

    def simplices_of_dim(self, n: int) -> list:
        """Sorted vertex tuples of the n-simplices, in lexicographic order,
        as a fresh list."""
        return list(self._simplices_by_dim.get(n, ()))

    @cached_property
    def _simplices_by_dim(self) -> dict:
        """Dimension -> its simplices as sorted vertex tuples, in
        lexicographic order; built once."""
        table: dict = {}
        for s in sorted(tuple(sorted(s)) for s in self.simplex_set):
            table.setdefault(len(s) - 1, []).append(s)
        return {n: tuple(level) for n, level in table.items()}

    def has_simplex(self, vertices) -> bool:
        return frozenset(vertices) in self.simplex_set

    @cached_property
    def coface_vertices(self) -> dict:
        """For each simplex, the sorted vertices v for which the simplex
        plus v is again a simplex; its own vertices are among them."""
        table = {s: set(s) for s in self.simplex_set}
        for s in self.simplex_set:
            if len(s) > 1:
                for v in s:
                    table[s - {v}].add(v)
        return {s: tuple(sorted(vs)) for s, vs in table.items()}

    def f_vector(self) -> tuple:
        counts = {}
        for s in self.simplex_set:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return tuple(counts.get(n, 0) for n in range(self.dimension() + 1))


def load_complex(description) -> SimplicialComplex:
    """Parse a complex description (JSON text or an already-decoded dict).

    Schema: ``{"format_version": 1, "vertices": <count or name list>,
    "facets": [[v, ...], ...]}`` with optional ``name`` and ``provenance``
    strings.  Unknown fields are rejected.  When ``vertices`` is a list of
    distinct name strings, facet entries are names and indices are assigned
    by position in that list.
    """
    if isinstance(description, (str, bytes)):
        try:
            data = json.loads(description)
        except (ValueError, RecursionError) as exc:  # also Python's parser limits
            raise FormatError(f"invalid JSON: {exc}") from exc
    else:
        data = description
    if not isinstance(data, dict):
        raise FormatError("complex description must be a JSON object")
    unknown = set(data) - _COMPLEX_FIELDS
    if unknown:
        raise FormatError(f"unknown fields in complex description: {sorted(unknown)}")
    version = data.get("format_version", COMPLEX_FORMAT_VERSION)
    if type(version) is not int or version != COMPLEX_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    if "vertices" not in data or "facets" not in data:
        raise FormatError("complex description needs 'vertices' and 'facets'")
    for key in ("name", "provenance"):
        if not isinstance(data.get(key, ""), str):
            raise FormatError(f"{key!r} must be a string, got {data[key]!r}")

    vertices = data["vertices"]
    facets = data["facets"]
    if not isinstance(facets, list):
        raise FormatError("'facets' must be a list of vertex lists")

    names: tuple = ()
    if type(vertices) is int:
        count = vertices
        index_of = None
    elif isinstance(vertices, list):
        if not all(isinstance(v, str) for v in vertices):
            raise FormatError("vertex names must be strings")
        if len(set(vertices)) != len(vertices):
            raise FormatError("duplicate vertex names")
        names = tuple(vertices)
        index_of = {v: i for i, v in enumerate(vertices)}
        count = len(vertices)
    else:
        raise FormatError("'vertices' must be a count or a list of names")

    indexed_facets = []
    for f in facets:
        if not isinstance(f, list) or not f:
            raise FormatError(f"facet must be a nonempty list, got {f!r}")
        if index_of is None:
            row = []
            for v in f:
                if type(v) is not int:
                    raise FormatError(f"facet entry {v!r} is not an integer index")
                row.append(v)
        else:
            for v in f:
                if not isinstance(v, str):
                    raise FormatError(f"facet entry {v!r} is not a vertex name")
            try:
                row = [index_of[v] for v in f]
            except KeyError as exc:
                raise FormatError(f"unknown vertex name {exc.args[0]!r}") from exc
        indexed_facets.append(row)

    return SimplicialComplex.from_facets(count, indexed_facets,
                                         name=data.get("name", ""),
                                         vertex_names=names)


def face(g: tuple, i: int) -> tuple:
    """Delete entry i of the tuple; the i-th face of a degree >= 1 generator."""
    n = len(g) - 1
    if n < 1:
        raise ValueError("degree 0 generators have no faces")
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range 0..{n}")
    return g[:i] + g[i + 1:]


def _surjection_count(length: int, support_size: int) -> int:
    # inclusion-exclusion: tuples of the given length using every one of
    # support_size symbols at least once
    total = 0
    binom = 1
    for j in range(support_size + 1):
        total += (-1) ** j * binom * (support_size - j) ** length
        binom = binom * (support_size - j) // (j + 1)
    return total


def check_generator_budget(counts, budget: int) -> tuple:
    """Raise :class:`BudgetExceededError` at the first degree where the
    running total of ``counts`` (one predicted generator count per degree,
    ascending) passes ``budget``; otherwise return the counts as a tuple.

    The total is kept as it runs, so the check costs one addition per
    degree read; stopping at the budget bounds the degrees read wherever
    they have generators, and the total reported is a lower bound.
    """
    seen = []
    total = 0
    for count in counts:
        seen.append(count)
        total += count
        if total > budget:
            raise BudgetExceededError(total, budget)
    return tuple(seen)


class GeneratorIndex(Record):
    """Per-degree dense indexing of all tuple generators up to a degree cap.

    A degree's list and position table are built when a caller first reads
    them: degree n is g + (v,) for each degree-(n-1) generator g in order
    and each v in ``coface_vertices[frozenset(g)]``, which is lexicographic,
    so indices are stable across runs.  ``is_generator`` needs no list: its
    length in range and its set of entries a simplex.
    """

    complex: SimplicialComplex
    max_degree: int
    _counts: tuple
    _unshown = ("_counts",)

    def __init__(self, complex, max_degree, _counts):
        super().__init__(complex, max_degree, _counts)
        self.__dict__.update(_levels=[], _tables={})  # caches, not fields

    def count(self, n: int) -> int:
        self._check_degree(n)
        return self._counts[n]

    def generators(self, n: int) -> tuple:
        self._check_degree(n)
        levels = self._levels
        if not levels:
            levels.append(tuple(self.complex.simplices_of_dim(0)))
        while len(levels) <= n:
            levels.append(tuple(self.stream(len(levels))))
        return levels[n]

    def stream(self, n: int):
        """The degree-n generators in the order of :meth:`generators`, each
        built as it is read and not kept, unless degree n is kept already."""
        self._check_degree(n)
        if n == 0 or n < len(self._levels):
            return iter(self.generators(n))
        coface_vertices = self.complex.coface_vertices
        return (g + (v,) for g in self.generators(n - 1)
                for v in coface_vertices[frozenset(g)])

    def positions(self, n: int) -> dict:
        """The degree-n generator -> position table (read it, do not mutate it)."""
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = {g: i for i, g in enumerate(self.generators(n))}
        return table

    def is_generator(self, g: tuple) -> bool:
        return (1 <= len(g) <= self.max_degree + 1
                and frozenset(g) in self.complex.simplex_set)

    def _check_degree(self, n: int) -> None:
        if not 0 <= n <= self.max_degree:
            raise DegreeCapError(
                f"degree {n} outside enumerated range 0..{self.max_degree}")


def enumerate_generators(K: SimplicialComplex, max_degree: int,
                         budget: int = DEFAULT_GENERATOR_BUDGET) -> GeneratorIndex:
    """Index every vertex tuple of length <= max_degree+1 spanning a simplex.

    The count of each degree is predicted by inclusion-exclusion and checked
    with :func:`check_generator_budget`; no list is built here.
    """
    if max_degree < 0:
        raise ValueError("degree cap must be nonnegative")
    f = K.f_vector()
    counts = check_generator_budget(
        (sum(how_many * _surjection_count(n + 1, d + 1)
             for d, how_many in enumerate(f) if d <= n)
         for n in range(max_degree + 1)), budget)
    return GeneratorIndex(complex=K, max_degree=max_degree, _counts=counts)
