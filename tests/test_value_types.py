"""The package's value types: construction, equality, hashing, immutability
and repr, and what importing the command line front end loads."""

import subprocess
import sys
from pathlib import Path

import pytest

from altchain.alt_chains import AltComplexPresentation
from altchain.complex_model import GeneratorIndex, SimplicialComplex
from altchain.homotopy_prism import CombinatorialHomotopy, SimplicialMap
from altchain.integer_homology import AbelianGroup
from altchain.verify import ComplexContext, SuiteResult, VerificationReport

ROOT = Path(__file__).resolve().parent.parent

P = SimplicialComplex.from_facets(1, [[0]], name="point")
E = SimplicialComplex.from_facets(2, [[0, 1]])
P_REPR = ("SimplicialComplex(vertex_count=1, facets=frozenset({frozenset({0})}), "
          "simplex_set=frozenset({frozenset({0})}), name='point', vertex_names=())")
E_REPR = ("SimplicialComplex(vertex_count=2, facets=frozenset({frozenset({0, 1})}), "
          "simplex_set=frozenset({frozenset({0, 1}), frozenset({1}), frozenset({0})}), "
          "name='', vertex_names=())")
TO_0, TO_1 = SimplicialMap(P, E, (0,)), SimplicialMap(P, E, (1,))
TO_0_REPR = f"SimplicialMap(domain={P_REPR}, codomain={E_REPR}, assignment=(0,))"
COLUMNS = ([{}], [{}])

# (class, its fields in order, one field with another value, repr); the
# reprs are those the earlier dataclass-generated code printed
CASES = [
    (SimplicialComplex, dict(vertex_count=1, facets=P.facets, simplex_set=P.simplex_set,
                             name="point", vertex_names=()),
     ("name", "dot"), P_REPR),
    (GeneratorIndex, dict(complex=P, max_degree=1, _counts=(1, 1)),
     ("_counts", (1, 2)), f"GeneratorIndex(complex={P_REPR}, max_degree=1)"),
    (AltComplexPresentation, dict(complex=None, max_degree=1,
                                  free_generators=(((0,),), ()),
                                  torsion_generators=((), ((0, 0),)), columns=COLUMNS),
     ("columns", (COLUMNS[0], [{0: 1}])),
     "AltComplexPresentation(complex=None, max_degree=1, free_generators=(((0,),), ()), "
     "torsion_generators=((), ((0, 0),)))"),
    (SimplicialMap, dict(domain=P, codomain=E, assignment=(0,)),
     ("assignment", (1,)), TO_0_REPR),
    (CombinatorialHomotopy, dict(start=TO_0, end=TO_0),
     ("end", TO_1), f"CombinatorialHomotopy(start={TO_0_REPR}, end={TO_0_REPR})"),
    (AbelianGroup, dict(free_rank=1, torsion=(2,)),
     ("torsion", (2, 2)), "AbelianGroup(free_rank=1, torsion=(2,))"),
    (ComplexContext, dict(name="point", complex=P, index=None, presentation=None),
     ("index", GeneratorIndex(P, 0, (1,))),
     f"ComplexContext(name='point', complex={P_REPR}, index=None, presentation=None)"),
    (SuiteResult, dict(suite_id="s", statement="law", complexes=("point",), cases=3,
                       passed=False, counterexample={"degree": 1}),
     ("cases", 4), "SuiteResult(suite_id='s', statement='law', complexes=('point',), "
                   "cases=3, passed=False, counterexample={'degree': 1})"),
    (VerificationReport, dict(seed=5, cases_requested=10, degree_cap=3, budget=100,
                              complexes=("point",), results=()),
     ("seed", 6), "VerificationReport(seed=5, cases_requested=10, degree_cap=3, "
                  "budget=100, complexes=('point',), results=())"),
]
# a dict field makes a value unhashable
UNHASHABLE = {AltComplexPresentation, SuiteResult}


@pytest.mark.parametrize("cls, fields, changed, expected_repr", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type_semantics(cls, fields, changed, expected_repr):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword and not by_position != by_keyword
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
    name, value = changed
    assert cls(**dict(fields, **{name: value})) != by_position
    assert by_position != tuple(fields.values())
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, field, fields[field])
        with pytest.raises(AttributeError):
            delattr(by_position, field)
    with pytest.raises(AttributeError):
        by_position.extra = 1
    assert by_position == by_keyword
    assert repr(by_position) == expected_repr
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1], **{list(fields)[0]: None})


def test_defaults_and_caches():
    assert AbelianGroup(3) == AbelianGroup(3, ()) == AbelianGroup(free_rank=3)
    K = SimplicialComplex(1, P.facets, P.simplex_set)
    assert (K.name, K.vertex_names) == ("", ())
    with pytest.raises(TypeError):
        SimplicialComplex(1, P.facets)
    # the cached property is stored once on the frozen complex
    assert K.coface_vertices is K.coface_vertices == {frozenset({0}): (0,)}
    assert K == SimplicialComplex(1, P.facets, P.simplex_set)
    # the generator lists and position tables are caches, not compared
    read, fresh = GeneratorIndex(E, 2, (2, 4, 8)), GeneratorIndex(E, 2, (2, 4, 8))
    assert len(read.generators(2)) == 8 and read.positions(1)
    assert read == fresh and hash(read) == hash(fresh)
    # a map stores its assignment as a tuple, so it stays comparable
    assert SimplicialMap(P, E, [1]) == TO_1


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    # every CLI process pays for what importing the front end loads;
    # perfbench's tracer reads its modules from sys.modules after
    # `import altchain.cli`, so all of them must be loaded by then
    script = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
        "import altchain.cli",
        "loaded = set(sys.modules)",
        "from tracer import MODULES",
        "print(sorted({'dataclasses', 'inspect'} & loaded))",
        "print(len(MODULES), [m for m in MODULES if 'altchain.' + m not in loaded])",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n8 []\n"
