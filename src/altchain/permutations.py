"""Symmetric group machinery used throughout the chain/cochain algebra.

Permutations act on vertex tuples from the right: ``act(s, g)[j] = g[s(j)]``.
For the composite ``t(j) = s2(s1(j))`` the action satisfies
``act(t, g) == act(s1, act(s2, g))``, the convention under which
pulling a permutation through a face map produces the induced face
permutation computed by :func:`induced_face_perm`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter

GROUP_SIZE_CAP = 8


def parity(seq) -> int:
    """(-1) to the number of inversions of ``seq``: the sign of the
    permutation that sorts it, when its entries are distinct."""
    inv = 0
    k = len(seq)
    for a in range(k):
        for b in range(a + 1, k):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


class Permutation:
    """A bijection on {0, ..., k-1} with its parity and its tuple
    reordering (read by :func:`act`) precomputed.

    Immutable; safe to share and to use as a dict key.
    """

    __slots__ = ("images", "sign", "_reorder")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "sign", parity(images))
        object.__setattr__(self, "_reorder",
                           itemgetter(*images) if len(images) > 1 else tuple)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def act(s: Permutation, g: tuple) -> tuple:
    """Right action on a vertex tuple: entry j of the result is g[s(j)]."""
    if len(s.images) != len(g):
        raise ValueError(f"permutation size {len(s)} does not match tuple length {len(g)}")
    return s._reorder(g)


def induced_face_perm(s: Permutation, i: int) -> Permutation:
    """Restriction of ``s`` after deleting ``i`` from its domain and s(i) from its range.

    Both deleted points are renumbered away, so the result acts on one fewer
    point.  Satisfies s.sign == (-1)**(i - s(i)) * induced_face_perm(s, i).sign.
    """
    n = len(s) - 1
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for S_{n + 1}")
    si = s(i)
    out = []
    for j in range(n):
        v = s(j) if j < i else s(j + 1)
        out.append(v if v < si else v - 1)
    return Permutation(out)


@lru_cache(maxsize=None)
def _group_cached(k: int) -> tuple:
    return tuple(Permutation(p) for p in itertools.permutations(range(k)))


def enumerate_group(k: int) -> tuple:
    """All k! permutations of {0,...,k-1} in lexicographic order of images,
    for k up to ``GROUP_SIZE_CAP``."""
    if k < 0:
        raise ValueError("group size must be nonnegative")
    if k > GROUP_SIZE_CAP:
        raise ValueError(f"S_{k} exceeds the enumeration cap of S_{GROUP_SIZE_CAP}")
    return _group_cached(k)


@lru_cache(maxsize=None)
def _signed_orders(k: int) -> tuple:
    """Every ordering of k positions as (getter, parity), in lexicographic
    order of the orders; the getter reads a tuple in that order."""
    if k <= 1:
        return ((tuple, 1),)
    return tuple((itemgetter(*order), parity(order))
                 for order in itertools.permutations(range(k)))


class _Table(dict):
    """``build(key)`` for each key read, built on first read and kept while
    the values hold at most ``bound`` entries in all, ``size(value)`` each;
    a value that would pass the bound empties the table first.  Read it,
    do not write it: a value depends on its key alone."""

    def __init__(self, build, bound: int, size):
        self.build, self.bound, self.size, self.held = build, bound, size, 0

    def __missing__(self, key):
        value = self.build(key)
        size = self.size(value)
        if self.held + size > self.bound:
            self.clear()
            self.held = 0
        if size <= self.bound:
            self[key] = value
            self.held += size
        return value


def _signed_class(g: tuple) -> tuple:
    key = tuple(sorted(g))
    return key, parity(g) if len(set(key)) == len(key) else 0


# g -> (sorted g, sign of the sorting reordering), or (sorted g, 0) when g
# repeats an entry; at most 2**16 tuples
_signed_classes = _Table(_signed_class, 1 << 16, lambda cls: 1)
# strictly increasing key -> {each reordering of key: its sign}; at most
# 2**16 reorderings in all, an orbit of k entries holding k! of them
_orbits = _Table(lambda key: {get(key): sgn for get, sgn in _signed_orders(len(key))},
                 1 << 16, len)
