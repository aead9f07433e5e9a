import pytest
from hypothesis import settings

from altchain import SimplicialComplex, enumerate_generators
from altchain.corpus import load_corpus_complex

# every @given test draws the same examples on every run and host
settings.register_profile("altchain", derandomize=True, deadline=None)
settings.load_profile("altchain")


@pytest.fixture(scope="session")
def sphere():
    return load_corpus_complex("sphere_s2")


@pytest.fixture(scope="session")
def sphere_index(sphere):
    return enumerate_generators(sphere, 3)


@pytest.fixture(scope="session")
def point():
    return load_corpus_complex("point")


@pytest.fixture(scope="session")
def rp2():
    return load_corpus_complex("rp2_6")


@pytest.fixture(scope="session")
def torus():
    return load_corpus_complex("torus_7")


@pytest.fixture(scope="session")
def klein():
    return load_corpus_complex("klein_8")


@pytest.fixture(scope="session")
def corpus(point, sphere, rp2, torus, klein):
    return [("point", point), ("sphere_s2", sphere), ("rp2_6", rp2),
            ("torus_7", torus), ("klein_8", klein)]


@pytest.fixture(scope="session")
def full_triangle():
    return SimplicialComplex.from_facets(3, [[0, 1, 2]], name="full_triangle")


@pytest.fixture(scope="session")
def full_tetrahedron():
    return SimplicialComplex.from_facets(4, [[0, 1, 2, 3]], name="full_tetrahedron")
