"""The package's value types: construction, equality, hashing, immutability
and repr; the names the package exports; and what importing the command
line front end, and running each subcommand, loads."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import altchain
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


def _run_isolated(script: str, *argv: str) -> str:
    """stdout of ``script`` in a fresh interpreter without site packages,
    with the package and perfbench on its path."""
    prelude = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
               f"{str(ROOT / 'perfbench')!r}]\n")
    return subprocess.run([sys.executable, "-S", "-c", prelude + script, *argv],
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    # every CLI process pays for what importing the front end loads;
    # perfbench's tracer reads its modules from sys.modules after
    # `import altchain.cli`, so all of them must be registered by then
    # (the package registers each lazily: it runs on first attribute read)
    script = "\n".join([
        "import altchain.cli",
        "loaded = set(sys.modules)",
        "from tracer import MODULES",
        "print(sorted({'dataclasses', 'inspect'} & loaded))",
        "print(len(MODULES), [m for m in MODULES if 'altchain.' + m not in loaded])",
    ])
    out = _run_isolated(script)
    assert out == "[]\n8 []\n"


# a lazy module not yet run is an instance of a subclass of ModuleType, and
# type() does not trigger its load
EXECUTED_MODULES = """\
import types
import altchain.cli
code = altchain.cli.main(sys.argv[1:])
print(code, sorted(name[9:] for name, m in sys.modules.items()
                   if name.startswith("altchain.") and type(m) is types.ModuleType),
      "fractions" in sys.modules)
"""
HOMOLOGY = ["cli", "complex_model", "corpus", "errors", "integer_homology"]
# the quotient's presentation reads no reordering sign, so it runs
# neither permutations nor the cochain modules
PRESENTATION = sorted(HOMOLOGY + ["alt_chains"])
COCHAINS = ["cli", "cochain_algebra", "complex_model", "corpus", "errors"]
EVERY = ["alt_chains", "cli", "cochain_algebra", "complex_model", "corpus", "errors",
         "homotopy_prism", "integer_homology", "permutations", "verify"]


@pytest.mark.parametrize("argv, executed, fractions", [
    (["homology", "{sphere}", "--variant", "simplicial"], HOMOLOGY, False),
    (["homology", "{sphere}", "--variant", "ordered"], HOMOLOGY, False),
    (["homology", "{sphere}", "--variant", "alternative"], PRESENTATION, False),
    (["export-presentation", "{sphere}", "-o", "{out}"], PRESENTATION, False),
    (["cohomology", "{sphere}"], HOMOLOGY, False),
    (["cohomology", "{sphere}", "--variant", "alternative"], HOMOLOGY, False),
    (["cup", "{sphere}", "{alpha}", "{alpha}"], COCHAINS, False),
    (["cup", "{sphere}", "{alpha}", "{alpha}", "--alternative"], COCHAINS, False),
    (["residual", "{sphere}", "{alpha}"], sorted(COCHAINS + ["permutations"]), False),
    (["verify", "{point}", "--cases", "2", "--max-dim", "2"], EVERY, False),
], ids=["homology-simplicial", "homology-ordered", "homology-alternative",
        "export-presentation", "cohomology-full",
        "cohomology-alternative", "cup", "cup-alternative", "residual", "verify"])
def test_each_subcommand_executes_only_the_modules_it_runs(tmp_path, argv, executed,
                                                           fractions):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"degree": 1, "values": [[[0, 1], 1], [[1, 0], -1]]}))
    data = ROOT / "src" / "altchain" / "data"
    paths = dict(sphere=data / "sphere_s2.json", point=data / "point.json", alpha=alpha,
                 out=tmp_path / "out.json")
    out = _run_isolated(EXECUTED_MODULES, *(arg.format(**paths) for arg in argv))
    assert out.splitlines()[-1] == f"0 {executed} {fractions}"


# values are integer pairs inside: only a view that returns a Fraction
# (values, a call, repr) imports fractions, and with it decimal and numbers
NUMBER_MODULES = "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"


def test_setup_probe_and_cochain_reader_import_no_fractions(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from runner import SETUP_PROBE
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"degree": 1, "values": [
        [[0, 1], "1/2"], [[1, 0], "-0.5"], [[0, 2], 3], [[2, 0], "-6/2"]]}))
    sphere = ROOT / "src" / "altchain" / "data" / "sphere_s2.json"
    out = _run_isolated(SETUP_PROBE + NUMBER_MODULES, str(sphere), str(alpha))
    assert out == "[]\n"


def test_fraction_views_import_fractions_on_first_use():
    script = "\n".join([
        "from altchain.cochain_algebra import cochain_from_json",
        "alpha = cochain_from_json({'degree': 1, 'values': [[[0, 1], '1/2'], [[1, 0], -3]]})",
        "print('fractions' in sys.modules)",
        "print(alpha.values, alpha((0, 1)), alpha((1, 1)))",
        "print(repr(alpha), 'fractions' in sys.modules)",
    ])
    assert _run_isolated(script) == (
        "False\n{(0, 1): Fraction(1, 2), (1, 0): Fraction(-3, 1)} 1/2 0\n"
        "Cochain(deg 1, {(0, 1): 1/2, (1, 0): -3}) True\n")


TRACED = """\
import altchain.cli
import tracer
publics = dict(permutations="parity", complex_model="enumerate_generators",
               alt_chains="alt_chain_complex", cochain_algebra="cup",
               integer_homology="simplicial_homology", homotopy_prism="prism",
               verify="run_all", cli="main")
mods = {short: sys.modules["altchain." + short] for short in tracer.MODULES}
cli, verify = mods["cli"], mods["verify"]
def bound():
    return ([getattr(mods[short], name) for short, name in publics.items()]
            + [cli.enumerate_generators, cli.ih.simplicial_homology]
            + [fn for _, _, fn in verify.REGISTRY])
spans = tracer.Tracer()
spans.install()
wrappers = bound()
print(len(wrappers), all(fn.__code__.co_filename == tracer.__file__ for fn in wrappers))
spans.uninstall()
print(all(fn is wrapper.__wrapped__ for fn, wrapper in zip(bound(), wrappers)))
"""


def test_tracer_wraps_every_module_the_cli_registers():
    # the order of `run.py --trace 1`: the tracer's own reads run the
    # modules that `import altchain.cli` only registered
    assert _run_isolated(TRACED) == "27 True\nTrue\n"


# the names the package re-exports, by the module that defines them
EXPORTED = {
    "errors": "BudgetExceededError DegreeCapError FormatError",
    "complex_model": "SimplicialComplex GeneratorIndex load_complex "
                     "enumerate_generators face",
    "integer_homology": "AbelianGroup smith_normal_form homology_presented "
                        "cohomology_rational simplicial_homology ordered_homology",
    "alt_chains": "AltChain AltComplexPresentation canonicalize boundary "
                  "alt_chain_complex face_class_compat ordered_boundary",
    "cochain_algebra": "Cochain coboundary is_alternative alternative_maker split cup "
                       "alt_cup nonlinear_residual alternating_cochain",
    "homotopy_prism": "SimplicialMap CombinatorialHomotopy push_forward "
                      "push_forward_alt pull_back prism prism_alt",
}


def test_package_exports_resolve_to_their_modules():
    names = [(module, name) for module, names in EXPORTED.items()
             for name in names.split()]
    assert len(names) == 37
    for module, name in names:
        namespace = {}
        exec(f"from altchain import {name}", namespace)
        owner = importlib.import_module(f"altchain.{module}")
        assert namespace[name] is getattr(owner, name) is getattr(altchain, name)
        assert getattr(altchain, module) is owner is sys.modules[owner.__name__]
    assert not hasattr(altchain, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        altchain.no_such_name
    with pytest.raises(ImportError):
        exec("from altchain import no_such_name", {})
