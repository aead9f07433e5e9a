"""Simplicial maps, induced chain/cochain maps, and the prism operator.

Two simplicial maps are treated as homotopic when they are contiguous:
the images of each simplex under both maps jointly span a simplex of the
codomain.  That is precisely what makes every front/back vertex list of
the prism construction a valid generator, on every reordering of every
tuple.  The induced map and the prism commute with reordering, so both
descend to the sign quotient through :func:`altchain.alt_chains.descend`;
a torsion generator stays torsion under both, because its image, and
every front/back list of its sorted representative, keeps a repeat.
"""

from __future__ import annotations

import itertools

from .alt_chains import AltChain, descend
from .cochain_algebra import Cochain
from .complex_model import SimplicialComplex
from .errors import Record


class SimplicialMap(Record):
    """Vertex assignment sending simplices of the domain into simplices
    of the codomain."""

    domain: SimplicialComplex
    codomain: SimplicialComplex
    assignment: tuple

    def __init__(self, domain, codomain, assignment):
        super().__init__(domain, codomain, tuple(assignment))
        if len(self.assignment) != self.domain.vertex_count:
            raise ValueError("assignment must cover every domain vertex")
        for v in self.assignment:
            if not 0 <= v < self.codomain.vertex_count:
                raise ValueError(f"vertex image {v} outside the codomain")
        for facet in self.domain.facets:
            image = {self.assignment[v] for v in facet}
            if not self.codomain.has_simplex(image):
                raise ValueError(
                    f"image of facet {sorted(facet)} does not span a simplex")

    def __call__(self, v: int) -> int:
        return self.assignment[v]

    def apply(self, g: tuple) -> tuple:
        return tuple(self.assignment[v] for v in g)

    @classmethod
    def identity(cls, K: SimplicialComplex) -> "SimplicialMap":
        return cls(K, K, tuple(range(K.vertex_count)))

    @classmethod
    def constant(cls, K: SimplicialComplex, L: SimplicialComplex, w: int) -> "SimplicialMap":
        return cls(K, L, (w,) * K.vertex_count)


def push_forward(f: SimplicialMap, chain: dict) -> dict:
    """Relabel every generator of an ordered chain {tuple: coeff}."""
    out: dict = {}
    for g, c in chain.items():
        t = f.apply(g)
        out[t] = out.get(t, 0) + c
    return {t: c for t, c in out.items() if c}


def push_forward_alt(f: SimplicialMap, chain: AltChain) -> AltChain:
    """The induced map on the sign quotient."""
    return descend(lambda c: push_forward(f, c), chain, chain.degree)


def pull_back(f: SimplicialMap, alpha: Cochain) -> Cochain:
    """Precompose a codomain cochain with the map: value on g is the value
    on the image tuple of g.  Preserves the alternating property and
    commutes with the projector."""
    preimages = [[] for _ in range(f.codomain.vertex_count)]
    for v, w in enumerate(f.assignment):
        preimages[w].append(v)
    out = {}
    for h, val in alpha.num.items():
        for g in itertools.product(*(preimages[w] for w in h)):
            if f.domain.has_simplex(set(g)):
                out[g] = val
    # the same denominator, reduced again when values have no preimage
    return Cochain._reduced(alpha.degree, out, alpha.den)


class CombinatorialHomotopy(Record):
    """A contiguous pair of simplicial maps between the same complexes.

    Contiguity (joint images of each simplex span a simplex) is checked on
    facets at construction; subsets inherit it by downward closure.
    """

    start: SimplicialMap
    end: SimplicialMap

    def __init__(self, start, end):
        super().__init__(start, end)
        f, g = start, end
        if f.domain is not g.domain and f.domain != g.domain:
            raise ValueError("maps must share their domain")
        if f.codomain is not g.codomain and f.codomain != g.codomain:
            raise ValueError("maps must share their codomain")
        for facet in f.domain.facets:
            joint = {f(v) for v in facet} | {g(v) for v in facet}
            if not f.codomain.has_simplex(joint):
                raise ValueError(
                    f"maps are not contiguous on facet {sorted(facet)}")


def prism_generator(h: CombinatorialHomotopy, g: tuple) -> dict:
    """Prism of one generator: the signed sum over split positions of
    (start images of the head, end images of the tail)."""
    f_img = h.start.apply(g)
    g_img = h.end.apply(g)
    out: dict = {}
    for i in range(len(g)):
        t = f_img[:i + 1] + g_img[i:]
        out[t] = out.get(t, 0) + (-1) ** i
    return {t: c for t, c in out.items() if c}


def prism(h: CombinatorialHomotopy, chain: dict) -> dict:
    """Prism operator on ordered chains; one degree up.

    Satisfies boundary(prism) + prism(boundary) = end - start on chains.
    """
    out: dict = {}
    for g, c in chain.items():
        for t, v in prism_generator(h, g).items():
            out[t] = out.get(t, 0) + c * v
    return {t: c for t, c in out.items() if c}


def prism_alt(h: CombinatorialHomotopy, chain: AltChain) -> AltChain:
    """Prism on the sign quotient; one degree up."""
    return descend(lambda c: prism(h, c), chain, chain.degree + 1)
