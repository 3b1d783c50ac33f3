"""braidkit: closed braids as transverse and topological link representatives.

Braid words and their closures, Garside left normal forms and super summit
sets (deciding braid isotopy of closed braids), the Markov / exchange /
flype move repertoire with weighted block-strand templates, the Bennequin
self-linking number, and exact Jones / Alexander oracles for certifying
that moves preserve link type.
"""

from .garside import (
    ConjugacyKey,
    NormalForm,
    SuperSummitCapError,
    are_conjugate,
    cycling,
    decycling,
    left_normal_form,
    super_summit_set,
)
from .invariants import (
    AlexanderCapExceeded,
    CrossingCapExceeded,
    alexander_polynomial,
    alexander_with_flag,
    burau_reduced,
    jones_polynomial,
    kauffman_bracket,
    template_soundness_check,
)
from .laurent import LaurentPolynomial, PolyMatrix
from .moves import (
    BlockSlot,
    BlockStrandDiagram,
    BraidingAssignment,
    Crossing,
    ExchangeDecomposition,
    FlypeData,
    MoveSequence,
    MoveStep,
    Template,
    apply_flype,
    apply_move,
    builtin_templates,
    expand_weights,
    find_exchange_decompositions,
    find_flype_decompositions,
    instantiate_template,
    match_flype_3braid,
    replay,
    stabilize,
    try_destabilize,
    winding_iterates,
)
from .search import SearchBounds, SearchResult, connect, scramble
from .transverse import (
    TransverseInvariants,
    component_invariants,
    is_transverse_move,
    negative_stabilization_beta_drop,
    self_linking,
)
from .words import (
    BraidSyntaxError,
    BraidWord,
    ComponentPartition,
    CrossingRecord,
    InternalConsistencyError,
    ResourceLimitError,
    closure_components,
    conjugate,
    crossing_records,
    exponent_sum,
    format_word,
    invert,
    mirror,
    multiply,
    parse_braid_word,
    underlying_permutation,
)

__version__ = "0.1.0"

# The one bracket implementation, named for tools that record which one ran.
BRACKET_BACKEND = "python"
