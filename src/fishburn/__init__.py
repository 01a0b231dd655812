"""Exact combinatorics of four equinumerous families.

Ascent sequences, unlabeled (2+2)-free posets, permutations avoiding the
bivincular pattern (231,{1},{1}), and fixed-point-free involutions with
no neighbour nesting -- with the bijections between them, the statistics
the bijections preserve, and exact generating-function enumeration.
"""

from .errors import (
    BruteForceCapError,
    EmptyObjectError,
    FishburnError,
    FixedPointError,
    LengthMismatchError,
    NeighbourNestingError,
    NotAscentSequenceError,
    NotInRError,
    NotInvolutionError,
    NotModifiedSequenceError,
    NotPartialOrderError,
    NotPermutationError,
    NotTwoPlusTwoFreeError,
    ParseError,
    SettingError,
)
from .objects import (
    AscentSequence,
    ChordInvolution,
    ModifiedAscentSequence,
    Permutation,
    Poset,
    RelationMatrix,
    enumerate_ascent_sequences,
    enumerate_fixed_point_free_involutions,
    enumerate_permutations,
    in_I2n,
    is_r_permutation,
    poset_from_relations,
    poset_to_relations,
)
from .bijections import (
    canonical_labelling,
    dual,
    enumerate_family,
    from_modified,
    involution_to_poset,
    perm_to_sequence,
    poset_to_involution,
    poset_to_perm,
    poset_to_sequence,
    remove_neighbour_nestings,
    sequence_to_perm,
    sequence_to_perm_by_insertion,
    sequence_to_poset,
    to_modified,
)
from .patterns import (
    BivincularPattern,
    R_PATTERN,
    avoids_barred,
    complement,
    compose,
    contains,
    find_occurrence,
    inverse,
    is_self_modified,
    reverse,
)
from .statistics import StatRecord, components, direct_sum, stats_of_perm, stats_of_poset, stats_of_sequence
from .series import (
    CountTable,
    F_n_polynomial,
    barred_avoiders_by_rlmin,
    count_barred_avoiders,
    p_series,
    verify_functional_equation,
    verify_kernel_solution,
    verify_S_identity,
)

__version__ = "0.1.0"
