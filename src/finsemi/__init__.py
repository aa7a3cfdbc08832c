"""finsemi: finite semigroups as Cayley tables — stratification structure,
Green's relations, semilattice decompositions of conditionally completely
regular semigroups, and strict ideal extensions of Clifford semigroups."""

from .core import (
    Partition,
    Semigroup,
    adjoin_identity,
    adjoin_zero,
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
    rho_partition,
    verify_rho,
    weak_inverse_location,
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
    base_set,
    classify,
    depth,
    is_globally_idempotent,
    is_grillet_stratified,
    power_set,
    stratify,
)

from . import errors  # noqa: F401  (public namespace)

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so a call that runs no extension, property
# suite, rendering or fixture does not compile those modules.  The import
# system binds each module here once it is loaded; the extend names are
# read from extend on every access and never stored here.
_LAZY_MODULES = frozenset({"extend", "properties", "render", "zoo"})
_EXTEND_NAMES = frozenset({
    "CliffordDecomposition",
    "ExtensionClassification",
    "ExtensionWitness",
    "PartialHom",
    "build_extension",
    "canonical_phi",
    "classify_extension",
    "clifford_decompose",
    "format_phm",
    "parse_phm",
    "recover_partial_hom",
})


def __getattr__(name):
    from importlib import import_module
    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _EXTEND_NAMES:
        return getattr(import_module(f"{__name__}.extend"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY_MODULES | _EXTEND_NAMES)
