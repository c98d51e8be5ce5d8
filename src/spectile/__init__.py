"""Exact computations with spectral sets and tiles in finite cyclic groups."""

# set before the submodules load: survey cursors are fingerprinted with it
__version__ = "0.1.0"

from .errors import (
    DomainError,
    InvariantViolation,
    ParseError,
    PreconditionError,
    SpectileError,
)
from .zn import (
    CycloPoly,
    GroupContext,
    MaskMultiset,
    ZeroSet,
    cyclic_product,
    cyclotomic,
    difference_set,
    dilate,
    divisors,
    factorize,
    group,
    is_full_group_product,
    parse_multiset,
    restrict_class,
    vanishes_at,
    zero_set,
)
from .cm import (
    CmReport,
    build_laba_spectrum,
    build_tiling_complement_cm,
    check_t1t2,
    maxpower_check,
    nopq_complement,
    tiling_implies_spectral,
)
from .cycles import (
    CycleDecomposition,
    is_cycle_union,
    lam_leung_decompose,
    ma_lemma_check,
    preroothunt_check,
    roothunt_check,
)
from .pairs import (
    AbsorptionReport,
    ExclusionVerdict,
    MemberProfile,
    RootProfile,
    SpectralPair,
    TilingPair,
    absorption_free_closure,
    check_wt1,
    check_wt2,
    classify_absorption,
    deficit_bounds_check,
    exclusion_predicate,
    extend_pair,
    is_primitive,
    k_set,
    required_roots_panel,
    root_profile,
    scale_spectrum,
    symmetry_check,
    verify_spectral_pair,
    verify_tiling_pair,
)
from .search import (
    SearchOutcome,
    SurveyOptions,
    SurveyResult,
    canonical_sets,
    enumerate_tiling_complements,
    find_spectrum,
    find_tiling_complement,
    fuglede_survey,
    orbit_count,
)
