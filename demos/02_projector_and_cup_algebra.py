# The parity-averaging projector and the modified cup product.
#
# A cochain is "alternating" when reordering a generator multiplies its
# value by the permutation's parity.  Averaging over all reorderings with
# parity weights projects any rational cochain onto the alternating ones,
# and applying that projector to the usual front/back cup product gives a
# product with wedge-like graded commutativity and a Leibniz rule.

from fractions import Fraction

from altchain import (Cochain, alt_cup, alternating_cochain,
                      alternative_maker, coboundary, cup,
                      enumerate_generators, is_alternative, split)
from altchain.corpus import load_corpus_complex

sphere = load_corpus_complex("sphere_s2")
index = enumerate_generators(sphere, 3)

print("Projecting the indicator of one ordered edge:")
spike = Cochain.indicator((0, 1))
proj = alternative_maker(spike)
print(f"  before: {spike}")
print(f"  after:  {proj}")
print(f"  alternating now? {is_alternative(proj)}")

print()
print("Splitting: every cochain = alternating part + projector kernel.")
alpha = Cochain(1, {(0, 1): Fraction(3), (1, 1): Fraction(5), (2, 0): 1})
alt, ker = split(alpha)
print(f"  alternating part: {alt}")
print(f"  kernel part:      {ker}")
assert alt + ker == alpha and alternative_maker(ker).is_zero()

print()
print("Dimension bookkeeping in degree 1 on the 2-sphere:")
# the projector maps each basis cochain to 0 or to +-1/2 times the
# alternating cochain of one edge; those have disjoint supports, so the
# rank is the number of distinct nonzero images up to sign
images = []
for g in index.generators(1):
    image = alternative_maker(Cochain.indicator(g))
    if not image.is_zero() and image not in images and -image not in images:
        images.append(image)
rank = len(images)
print(f"  dim C^1 = {index.count(1)}, projector rank = {rank} "
      f"(= number of edges), kernel = {index.count(1) - rank}")

print()
print("Graded commutativity of the projected cup product (degrees 1 and 1):")
a = alternating_cochain((0, 1))
b = alternating_cochain((1, 2))
ab = alt_cup(index, a, b)
ba = alt_cup(index, b, a)
print(f"  a cupA b = {ab}")
print(f"  b cupA a = {ba}")
assert ba == ab.scale(-1)

print()
print("Leibniz rule: the coboundary is a graded derivation:")
lhs = coboundary(index, alt_cup(index, a, b))
rhs = alt_cup(index, coboundary(index, a), b) + \
    alt_cup(index, a, coboundary(index, b)).scale(-1)
assert lhs == rhs
print("  coboundary(a cupA b) == coboundary(a) cupA b - a cupA coboundary(b)")

print()
print("A caveat discovered by the verification suite: the projected cup")
print("product is NOT associative at the cochain level.  The smallest")
print("counterexample uses two vertex indicators and one edge cochain:")
d0 = Cochain.indicator((0,))
chi = alternating_cochain((0, 1))
lhs = alt_cup(index, alt_cup(index, d0, d0), chi)
rhs = alt_cup(index, d0, alt_cup(index, d0, chi))
print(f"  (d0 cupA d0) cupA chi01 = {lhs}")
print(f"  d0 cupA (d0 cupA chi01) = {rhs}")
print("  ... the two nests disagree by a factor coming from the shared")
print("  pivot vertex of the cup product.  The product IS associative")
print("  after passing to cohomology classes.")
