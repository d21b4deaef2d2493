"""Exact combinatorial syzygies of semigroup algebras.

The library computes, entirely in exact arithmetic, the fiber simplicial
complexes attached to the degrees of a finitely generated semigroup, their
reduced homology with deterministically fixed bases, and from those bases
minimal generators and minimal syzygies of the associated toric ideal,
assembled into verified fragments of the minimal free resolution.
"""

from .complexes import (
    DeltaComplex,
    NablaComplex,
    build_delta,
    build_nabla,
)
from .config import Config
from .homology import (
    ChainBasis,
    FieldError,
    NotACycle,
    PrimeField,
    RationalField,
    betti_reduced,
    boundary_matrix,
    chain_boundary,
    fixed_cycle_basis,
    gauss_reduce,
    get_field,
)
from .orders import DEGREVLEX, LEX, TermOrder, mono_str
from .resolution import (
    Binomial,
    CheckFailed,
    DecompositionResult,
    GeneratorRecord,
    GeneratorRegistry,
    LiftFailed,
    NotAFace,
    NotASyzygy,
    NotHomogeneous,
    NotInIdeal,
    ResolutionEngine,
    ResolutionError,
    ResolutionFragment,
)
from .semigroup import (
    NotCombinatoriallyFinite,
    Semigroup,
    SemigroupError,
    ZeroGenerator,
)

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "ChainBasis",
    "CheckFailed",
    "Config",
    "DEGREVLEX",
    "DecompositionResult",
    "DeltaComplex",
    "FieldError",
    "GeneratorRecord",
    "GeneratorRegistry",
    "LEX",
    "LiftFailed",
    "NablaComplex",
    "NotACycle",
    "NotAFace",
    "NotASyzygy",
    "NotCombinatoriallyFinite",
    "NotHomogeneous",
    "NotInIdeal",
    "PrimeField",
    "RationalField",
    "ResolutionEngine",
    "ResolutionError",
    "ResolutionFragment",
    "Semigroup",
    "SemigroupError",
    "TermOrder",
    "ZeroGenerator",
    "betti_reduced",
    "boundary_matrix",
    "build_delta",
    "build_nabla",
    "chain_boundary",
    "fixed_cycle_basis",
    "gauss_reduce",
    "get_field",
    "mono_str",
]
