"""finsemi: finite semigroups as Cayley tables — stratification structure,
Green's relations, semilattice decompositions of conditionally completely
regular semigroups, and strict ideal extensions of Clifford semigroups."""

from .core import (
    Partition,
    Semigroup,
    adjoin_identity,
    adjoin_zero,
    base_set,
    closure,
    congruence_witness,
    direct_product,
    enumerate_congruences,
    format_sgt,
    from_table,
    ideal_witness,
    identity_partition,
    interchangeable,
    is_congruence,
    is_globally_idempotent,
    is_ideal,
    is_left_ideal,
    is_right_ideal,
    is_subsemigroup,
    is_weakly_reductive,
    isomorphic,
    load_sgt,
    monoid_completion,
    pair_index,
    parse_sgt,
    power_set,
    product_set,
    quotient_by_congruence,
    rees_quotient,
    restrict,
    save_sgt,
    semilattice_witness,
    subsemigroup_witness,
    universal_partition,
)
from .decompose import (
    ComponentReport,
    DecompositionReport,
    archimedean,
    kje_partition,
    rho_partition,
    verify_rho,
    weak_inverse_location,
)
from .extend import (
    CliffordDecomposition,
    ExtensionClassification,
    ExtensionWitness,
    PartialHom,
    build_extension,
    canonical_phi,
    classify_extension,
    clifford_decompose,
    format_phm,
    parse_phm,
    recover_partial_hom,
    validate_partial_hom,
)
from .green import (
    GreenStructure,
    green,
    idempotents,
    inverses,
    is_clifford,
    is_completely_simple,
    is_conditionally_completely_regular,
    k_class,
    maximal_subgroup,
    regular_elements,
    weak_inverses,
)
from .stratify import (
    Classification,
    StratificationReport,
    classify,
    depth,
    is_grillet_stratified,
    stratify,
)

from . import errors, properties, render, zoo  # noqa: F401  (public namespaces)

__version__ = "0.1.0"
