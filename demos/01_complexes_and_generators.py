# Tour of the combinatorial layer: finite complexes and their ordered
# tuple generators.
#
# A degree-n generator is a tuple of n+1 vertices (repeats allowed) whose
# set of entries spans a simplex.  The tuples of each degree are closed
# under deleting an entry (face maps) and under reordering entries (the
# symmetric group action), which is all the chain algebra needs.

from altchain import enumerate_generators, face
from altchain.corpus import load_corpus

for name, K in load_corpus():
    index = enumerate_generators(K, 3)
    counts = [index.count(n) for n in range(4)]
    print(f"{name:10s}  f-vector {K.f_vector()}  tuple generators {counts}")

print()
print("The 2-sphere (boundary of the tetrahedron) in degree 1:")
_, sphere = load_corpus()[1]
index = enumerate_generators(sphere, 3)
print(f"  {index.count(1)} generators = 12 ordered distinct pairs "
      f"+ 4 repeated pairs")
print(f"  first few: {index.generators(1)[:6]}")

print()
print("Faces delete one entry; reordering permutes the entries:")
g = (0, 1, 2)
print(f"  g = {g}")
for i in range(3):
    print(f"  face(g, {i}) = {face(g, i)}")
images = (1, 2, 0)  # entry j of the reordered tuple is g[images[j]]
print(f"  g reordered by {images} = {tuple(g[j] for j in images)}")

print()
print("Closure: every face and every reordering of a generator is again "
      "a generator.")
for g in index.generators(2)[:3]:
    faces = [face(g, i) for i in range(3)]
    assert all(index.is_generator(f) for f in faces)
    print(f"  {g} -> faces {faces}")
