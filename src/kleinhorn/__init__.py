"""Existence of long exact sequences of finite abelian p-group types.

The answer depends only on the tuple of types (partitions), never on the
prime: short exact sequences of p-groups exist iff the corresponding
Littlewood-Richardson coefficient is nonzero, and the long case reduces to
chains of such coefficients.  This package provides the exact coefficient
kernels, the Horn-type inequality description of the feasibility cone for
odd tuple lengths, a closed form for single-part types, and a brute-force
witness-chain oracle that everything is cross-checked against.
"""

from .partitions import (
    Partition,
    adjusted_conjugate,
    conjugate,
    contains,
    format_partition,
    format_subset,
    is_partition,
    normalize,
    pad_to,
    parse_partition,
    parse_rational_parts,
    parse_rational_rows,
    partition_of_subset,
    partitions_in_box,
    subpartitions,
)
from .tableaux import gen_lr, kostka_number, lr_coefficient, lr_complements
from .quiver import (
    APEX,
    Quiver,
    build_star,
    dimvector_of_subsets,
    euler_form,
    quiver_to_json_dict,
    star_dimension,
    subsets_of_dimvector,
    tuple_of_weight,
    vector_to_json_dict,
    weight_of_tuple,
    weight_pairing,
)
from .cone import (
    CrossCheckReport,
    Inequality,
    MembershipVerdict,
    UnsupportedLengthError,
    cross_check,
    horn_index_set,
    inequality_system,
    interior_point,
    member_cone,
    member_single_row,
    system_rows,
)
from .oracle import (
    SearchOutcome,
    WitnessChain,
    chain_is_valid,
    rational_member,
    search_canonical,
    witness_chain,
    witness_search,
)

__version__ = "0.1.0"
