"""Permutoids, pseudogroups, and bounded searches for finite developments."""

from .core import (
    EMPTY_COMPOSITION,
    NO_WITNESS,
    Morphism,
    MorphismKind,
    PartialPermutation,
    Permutoid,
    canonical_form,
    compose_partial,
    enumerate_quotients,
    identity_map,
    is_rigid_permutoid,
    validate_morphism,
    validate_permutoid,
    witness_triples,
)
from .develop import (
    BudgetExceeded,
    Development,
    DevelopmentProblem,
    ExhaustedUpTo,
    Found,
    ProbeReport,
    probe_finite_quotient,
    search_development,
    verify_development,
)
from .groups import (
    CameronPermutoid,
    CayleyBall,
    FiniteQuotientEvidence,
    FreeGroup,
    Presentation,
    RealizedGroup,
    cameron_permutoid,
    cayley_ball,
    format_presentation,
    free_reduce,
    group_from_table,
    parse_presentation,
    radius_extension,
    realize_backend,
    render_word,
    todd_coxeter,
    triangulate,
    universal_group,
    verify_quotient_hom,
)
from .pseudogroup import (
    Pseudogroup,
    RigidDevelopment,
    extend_to_maximal,
    generate_pseudogroup,
    group_action_pseudogroup,
    is_rigid_pseudogroup,
    maximal_permutoid,
    search_rigid_development,
)

__version__ = "0.1.0"
