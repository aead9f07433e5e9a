"""Exact alternating (oriented) chain and cochain algebra on finite
simplicial complexes: tuple generator models, the parity-averaging
projector with its modified cup product, the sign-quotient chain complex
with its order-2 torsion bookkeeping, and integer/rational homology by
sparse elimination.

Each submodule is registered in ``sys.modules`` when the package is
imported but compiled and run only when an attribute is first read from
it, so a CLI process pays only for the modules its subcommand uses.  The
names below resolve through the module ``__getattr__``."""

import importlib.util
import sys

_EXPORTS = {
    "errors": ("BudgetExceededError", "DegreeCapError", "FormatError"),
    "complex_model": ("SimplicialComplex", "GeneratorIndex", "load_complex",
                      "enumerate_generators", "face"),
    "permutations": (),
    "integer_homology": ("AbelianGroup", "smith_normal_form", "homology_presented",
                         "cohomology_rational", "simplicial_homology",
                         "ordered_homology"),
    "alt_chains": ("AltChain", "AltComplexPresentation", "canonicalize", "boundary",
                   "alt_chain_complex", "face_class_compat", "ordered_boundary"),
    "cochain_algebra": ("Cochain", "coboundary", "is_alternative", "alternative_maker",
                        "split", "cup", "alt_cup", "nonlinear_residual",
                        "alternating_cochain"),
    "homotopy_prism": ("SimplicialMap", "CombinatorialHomotopy", "push_forward",
                       "push_forward_alt", "pull_back", "prism", "prism_alt"),
    "verify": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
