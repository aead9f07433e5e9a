import inspect
import itertools

import pytest
from hypothesis import given, strategies as st

from altchain import alt_chains, cochain_algebra, permutations, verify
from altchain.permutations import parity
from oracles import reorder, reorderings


def getters(k):
    """images -> getter, for every reordering of k positions."""
    return {images: get for images, get, _ in permutations._signed_orders(k)}


def compose(s, t):
    """Function composition of image tuples: compose(s, t)[j] == s[t[j]]."""
    return tuple(s[j] for j in t)


def brute_sign(images):
    # independent parity: count inversions directly
    inv = sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
              if images[a] > images[b])
    return -1 if inv % 2 else 1


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.permutations(list(range(k))))


def test_sign_examples():
    assert parity((0, 1, 2)) == 1
    assert parity((1, 0)) == -1
    # 3-cycle 0->1->2->0 sends position 0 to value 1: images (1, 2, 0)
    assert parity((1, 2, 0)) == 1


@given(perm_strategy)
def test_sign_matches_inversion_count(images):
    assert parity(tuple(images)) == brute_sign(images)


def bubble_sort_sign(seq):
    # parity oracle: bubble sort and count the swaps
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


@given(st.lists(st.integers(), max_size=7, unique=True))
def test_parity_matches_bubble_sort(entries):
    # any distinct entries, not only a permutation of 0..k-1
    assert parity(tuple(entries)) == bubble_sort_sign(entries)


@given(perm_strategy, perm_strategy)
def test_sign_multiplicative(im1, im2):
    if len(im1) != len(im2):
        return
    assert parity(compose(im1, im2)) == parity(im1) * parity(im2)


def test_signed_orders_match_the_reorderings_oracle():
    # images, order and sign of every reordering through S_6 against
    # itertools and an inversion count, and every getter's read a tuple,
    # at k = 0 and 1 too
    for k in range(7):
        listed = permutations._signed_orders(k)
        assert [(images, sign) for images, _, sign in listed] == list(reorderings(k))
        g = tuple(range(10, 10 + k))
        for images, get, _ in listed:
            assert type(get(g)) is tuple and get(g) == reorder(images, g)


def test_act_examples():
    # a reordering's getter puts g[images[j]] at entry j
    assert getters(3)[(1, 2, 0)](("a", "b", "c")) == ("b", "c", "a")
    assert getters(2)[(0, 1)]((5, 7)) == (5, 7)
    assert getters(2)[(1, 0)]((3, 3)) == (3, 3)


def test_act_on_sizes_zero_and_one():
    # the smallest orders still return tuples, whatever sequence they read
    assert getters(0)[()](()) == ()
    assert getters(1)[(0,)]((7,)) == (7,)
    assert getters(1)[(0,)]([7]) == (7,)
    assert getters(2)[(1, 0)]([7, 8]) == (8, 7)


def test_action_composition_convention():
    # reading g by compose(s2, s1) reads it by s2 and then by s1: the
    # right-action round trip that the induced face reordering depends on
    g = (10, 20, 30, 40)
    get = getters(4)
    for s1 in get:
        for s2 in get:
            assert get[compose(s2, s1)](g) == get[s1](get[s2](g))


def test_composition_is_function_composition():
    # reading the images of s by t composes them: entry j is s[t[j]]
    s, t = (2, 0, 1), (1, 2, 0)
    get = getters(3)
    assert get[t](s) == compose(s, t) == (0, 1, 2)
    for a in get:
        for b in get:
            assert get[b](a) == tuple(a[b[j]] for j in range(3))


def test_induced_face_perm_examples():
    assert verify._induced_face((0, 1, 2), 1) == (0, 1)
    assert verify._induced_face((1, 2, 0), 1) == (1, 0)
    assert verify._induced_face((1, 0), 0) == (0,)


def test_induced_face_perm_range_check():
    with pytest.raises(IndexError):
        verify._induced_face((0, 1, 2), 3)


def test_sign_identity_exhaustive():
    # parity bookkeeping under deletion, for every reordering through S_5
    for k in range(1, 6):
        for images, _, sign in permutations._signed_orders(k):
            for i in range(k):
                face_sign = parity(verify._induced_face(images, i))
                assert sign == (-1) ** (i - images[i]) * face_sign


def test_enumerate_group_sizes_and_signs():
    assert [images for images, _, _ in permutations._signed_orders(1)] == [(0,)]
    assert [sign for _, _, sign in permutations._signed_orders(2)] == [1, -1]
    signs = [sign for _, _, sign in permutations._signed_orders(4)]
    assert len(signs) == 24
    assert signs.count(1) == 12
    assert sum(signs) == 0


def test_group_laws_exhaustive_small():
    for k in (2, 3, 4):
        sign = {images: sgn for images, _, sgn in permutations._signed_orders(k)}
        for a in sign:
            for b in sign:
                assert sign[compose(a, b)] == sign[a] * sign[b]
                for c in sign:
                    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_face_action_compatibility_through_degree_four(sphere):
    # deleting entry i after reordering equals reordering the deleted-face
    # tuple by the induced reordering; exhaustive through degree 4
    from altchain import enumerate_generators, face

    index = enumerate_generators(sphere, 4)
    for n in range(1, 5):
        group = list(reorderings(n + 1))
        step = 1 if n < 4 else 7
        for g in index.generators(n)[::step]:
            for images, _ in group:
                reordered = reorder(images, g)
                for i in range(n + 1):
                    assert face(reordered, i) == \
                        reorder(verify._induced_face(images, i), face(g, images[i]))


def test_sign_tables_agree_with_parity_on_every_short_tuple():
    # every tuple over {0, 1, 2, 3} of length 1 to 5, repeats included, read
    # twice so that the second read comes from the table
    for _ in range(2):
        for k in range(1, 6):
            for g in itertools.product(range(4), repeat=k):
                key = tuple(sorted(g))
                if len(set(g)) < k:  # torsion: sign 0
                    assert permutations._signed_classes[g] == (key, 0)
                    assert alt_chains.canonicalize(g) == (key, True, 1)
                    continue
                assert permutations._signed_classes[g] == (key, parity(g))
                assert alt_chains.canonicalize(g) == (key, False, parity(g))
                orbit = permutations._orbits[key]
                assert orbit == {h: parity(h) for h in itertools.permutations(key)}


def test_sign_tables_are_bounded_in_entries():
    for table in (permutations._signed_classes, permutations._orbits):
        assert 0 < table.bound <= 1 << 16 and table.held <= table.bound
        assert table.held == sum(map(table.size, table.values()))
    # a value that would pass the bound empties the table first, and a value
    # larger than the bound is returned but not kept
    table = permutations._Table(lambda k: list(range(k)), 5, len)
    assert (table[3], table[2]) == ([0, 1, 2], [0, 1])
    assert table.held == 5 and list(table) == [3, 2]
    assert table[1] == [0] and table.held == 1 and list(table) == [1]
    assert table[6] == list(range(6)) and table.held == 0 and not table


def test_sign_readers_stay_plain_functions():
    # the tracer wraps functions only, and the mutants patch these names
    for fn in (alt_chains.canonicalize, cochain_algebra.alternative_maker,
               cochain_algebra.is_alternative, cochain_algebra.alternating_cochain):
        assert inspect.isfunction(fn), fn
