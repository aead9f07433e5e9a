"""Signs of reorderings, read by the chain/cochain algebra.

A reordering of k positions is its image tuple: ``images`` reads a tuple
g as ``tuple(g[j] for j in images)``, and its sign is ``parity(images)``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter


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


@lru_cache(maxsize=None)
def _signed_orders(k: int) -> tuple:
    """Every reordering of k positions as (images, getter, parity), in
    lexicographic order of the images; the getter reads a sequence in that
    order and returns a tuple."""
    if k <= 1:  # itemgetter of one index returns the entry, not a tuple
        return ((tuple(range(k)), tuple, 1),)
    return tuple((order, itemgetter(*order), parity(order))
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
_orbits = _Table(lambda key: {get(key): sgn for _, get, sgn in _signed_orders(len(key))},
                 1 << 16, len)
