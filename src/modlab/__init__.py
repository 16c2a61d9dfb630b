"""modlab: explicit finite rings and finite right modules, their
submodule lattices, cosingularity radicals, lifting and dual-Baer style
predicates, and exhaustive verification suites for the equivalence
theorems relating them."""

from .catalog import GenerationPolicy, ModuleCatalog, enumerate_modules
from .config import Limits
from .cosingular import CosingularProfile, classify, zbar, zbar2
from .errors import (
    IdempotentSearchExceeded,
    IllFormedConstants,
    InvalidConfig,
    ModlabError,
    NoIdentity,
    NonAssociative,
    NotSubmodule,
    ParentMismatch,
    RingMismatch,
    SizeLimitExceeded,
)
from .lattice import (
    SubmoduleLattice,
    intersect_submodules,
    is_essential,
    is_small,
    radical,
    socle,
    submodules,
    sum_submodules,
)
from .modules import (
    EndRing,
    FiniteModule,
    ModuleHom,
    Submodule,
    direct_sum,
    direct_sum_with_maps,
    end_ring,
    find_isomorphism,
    hom_group,
    hom_set,
    identity_hom,
    is_isomorphic,
    kernel_image,
    quotient_module,
    regular_module,
    span,
    submodule_as_module,
    zero_module,
)
from .reports import PropertyReport, TheoremReport, profile_module
from .rings import (
    FiniteRing,
    RingElement,
    build_ring,
    builtin_ring,
    builtin_ring_ids,
    cyclic_ring,
    opposite_ring,
    polynomial_quotient_ring,
    product_ring,
    ring_from_constants,
    upper_triangular_ring,
)
from .structure import (
    Decomposition,
    character_dual,
    complement_of,
    dual_hom,
    injective_hull,
    is_amply_supplemented,
    is_coclosed,
    is_direct_summand,
    is_injective,
    is_lifting,
    is_small_module,
    is_supplement,
    projective_cover,
    supplements_of,
)
from .suites import SUITES, verify_theorem
from .tpredicates import (
    EndoSubset,
    d_set,
    is_dual_baer,
    is_regular,
    is_semisimple,
    is_t_coclosed,
    is_t_dual_baer,
    is_t_lifting,
    is_t_small,
    k_module_class,
    t_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
