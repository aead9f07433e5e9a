# The sign-quotient chain complex and its order-2 torsion.
#
# Identifying every reordered generator with +/- its sorted form splits
# each chain group into a free part (one Z per strictly increasing tuple)
# and a torsion part (one Z/2 per sorted tuple with a repeated entry: the
# odd swap of the equal entries fixes the tuple, so twice its class is
# zero).  The boundary descends to this quotient and keeps torsion inside
# torsion.

from altchain import (AltChain, alt_chain_complex, boundary, canonicalize,
                      homology_presented)
from altchain.alt_chains import presentation_to_json
from altchain.corpus import load_corpus_complex

print("Canonicalizing reordered tuples:")
for g in [(1, 0, 2), (2, 0, 1), (0, 0, 1)]:
    t, is_torsion, coeff = canonicalize(g)
    kind = "torsion (order 2)" if is_torsion else "free"
    print(f"  {g} -> {coeff:+d} * {t}  [{kind}]")

print()
print("Boundaries in the quotient:")
print(f"  d[(0,1)]   = {boundary(AltChain.from_generator((0, 1)))}")
print(f"  d[(0,0)]   = {boundary(AltChain.from_generator((0, 0)))}")
print(f"  d[(0,0,1)] = {boundary(AltChain.from_generator((0, 0, 1)))}")
print("  The last one shows the cancellation pattern: the two faces that")
print("  delete one copy of the repeated vertex cancel exactly, and the")
print("  remaining face is itself a torsion class.")

print()
print("Presented complexes (free generators | torsion generators):")
for name in ("point", "sphere_s2", "rp2_6"):
    K = load_corpus_complex(name)
    pres = alt_chain_complex(K, 3)
    free = [len(f) for f in pres.free_generators]
    torsion = [len(t) for t in pres.torsion_generators]
    print(f"  {name:10s} free {free}  torsion {torsion}")

print()
print("The one-point space is the cleanest torsion story: one Z/2")
print("generator per positive degree, boundary alternating 0 and 1,")
print("so every positive-degree homology group dies:")
point = load_corpus_complex("point")
pres = alt_chain_complex(point, 4)
print(f"  lifted boundary matrices: "
      f"{list(pres.boundaries[1:])}")
print(f"  homology: {[str(g) for g in homology_presented(pres)]}")

print()
print("Presentations serialize to JSON (generators plus boundary")
print("matrices) for external tools.  The relations are not written:")
print("they are 2*e_t on each torsion generator t, so the torsion lists")
print("determine them.")
data = presentation_to_json(alt_chain_complex(point, 2))
print(f"  point, degrees 0..2: {data['degrees']}")
print(f"  format_version {data['format_version']}, keys {sorted(data)}")
