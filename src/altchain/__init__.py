"""Exact alternating (oriented) chain and cochain algebra on finite
simplicial complexes: tuple generator models, the parity-averaging
projector with its modified cup product, the sign-quotient chain complex
with its order-2 torsion bookkeeping, and integer/rational homology via
Smith normal forms."""

from .complex_model import (
    SimplicialComplex,
    GeneratorIndex,
    load_complex,
    enumerate_generators,
    face,
)
from .permutations import Permutation, sign, act, induced_face_perm, enumerate_group
from .cochain_algebra import (
    Cochain,
    AltBasis,
    coboundary,
    is_alternative,
    alternative_maker,
    split,
    cup,
    alt_cup,
    nonlinear_residual,
    alt_basis,
    alternating_cochain,
)
from .alt_chains import (
    AltChain,
    AltComplexPresentation,
    canonicalize,
    boundary,
    alt_chain_complex,
    face_class_compat,
    ordered_boundary,
)
from .integer_homology import (
    IntegerMatrix,
    AbelianGroup,
    smith_normal_form,
    homology_free,
    homology_presented,
    cohomology_rational,
    verify_cohomology_splitting,
    simplicial_homology,
    ordered_homology,
)
from .homotopy_prism import (
    SimplicialMap,
    CombinatorialHomotopy,
    push_forward,
    push_forward_alt,
    pull_back,
    prism,
    prism_alt,
)
from .errors import BudgetExceededError, DegreeCapError, FormatError

__version__ = "0.1.0"
