"""Exact tools for monomial ideals and their lcm-semilattices.

The package extracts lcm-semilattices from generator sets, inverts and
validates weight maps, realizes abstract finite join-semilattices as
monomial families, computes Stanley depth and projective dimension
exactly, applies structure-preserving ideal transforms, and enumerates
small atomistic semilattices with conjecture checks.
"""

from .config import Config, DEFAULT
from .errors import (
    CyclicRelation,
    EmptyModule,
    InternalError,
    InvalidDeformation,
    InvalidInput,
    InvalidWeighting,
    LcmlatError,
    LimitExceeded,
    NotAntichain,
    NotASemilattice,
    NotAtomistic,
    NotJoinPreserving,
    NotMeetIrreducible,
    NotSquarefree,
    NotSurjective,
)
from .lattice import (
    FactorStep,
    JoinMap,
    MonotoneMap,
    Semilattice,
    boolean_semilattice,
    canonical_form,
    collapse,
    factor_chain,
    factor_map,
    free_cover_map,
    is_isomorphic,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    pseudo_inverse,
)
from .monomials import (
    GeneratorSet,
    LcmLattice,
    Monomial,
    QuotientPair,
    Weighting,
    colon,
    deform,
    gens_from_json,
    gens_to_json,
    ideal_pair,
    inflate,
    is_generic,
    lcm_semilattice,
    m_coprime,
    pair_from_json,
    pair_to_json,
    parse_monomial,
    polarize,
    quotient_ring_pair,
    radical,
    reconstruct,
    render_monomial,
    restrict_variable,
    squarefree_check,
    strictly_divides,
    union_generators,
    validate_deformation,
    weight_map,
    weighting_from_json,
    weighting_to_json,
)
from .realize import (
    canonical_realization,
    canonical_weighting,
    chain_weighting,
    equalize_degrees,
    realize,
    single_degree_pair,
    validate_weighting,
)
from .resolution import (
    BettiTable,
    MapCheck,
    pdim_pair_invariance,
    rank_exact,
    rank_mod_p,
    taylor_betti,
)
from .sdepth import (
    CharacteristicPoset,
    SdepthReport,
    characteristic_poset,
    sdepth_solve,
    sdepth_value,
    sdepth_values,
    verify_decomposition,
)
from .classify import (
    ConjectureReport,
    LatticeInvariants,
    census,
    check_conjectures,
    enumerate_atomistic,
    lattice_invariants,
    random_weighting,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
