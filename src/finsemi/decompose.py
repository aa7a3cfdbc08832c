"""The semilattice decomposition of conditionally completely regular
semigroups.

rho relates two elements when their idempotent powers are J-related: its
classes are the K_{J_e}.  On finite CCR input it is the partition by equal
weak-inverse footprints over D, a congruence with a semilattice quotient
and archimedean classes (Putcha, Semigroup Forum 6, 1973; Bogdanovic &
Ciric, Filomat 7, 1993).  Violations of these statements are theorems
failing, so they raise InternalTheoremViolation, not a report entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .core import (
    Partition,
    Semigroup,
    _cached,
    _is_subsemigroup,
    _members,
    _semigroup,
    quotient_by_congruence,
    semilattice_witness,
    subsemigroup_witness,
)
from .errors import (InternalTheoremViolation, NotACongruence,
                     NotASubsemigroup, NotConditionallyCompletelyRegular)
from .green import (
    _idempotent_power,
    ccr_witness,
    green,
    regular_elements,
    weak_inverses,
)


def rho_partition(S):
    """K_{J_e} classes (requires CCR input): s rho t iff the idempotent
    powers of s and t are J-related, one walk up each element's powers.

    The partition is cached on S; the CCR check runs on every call.
    """
    if (w := ccr_witness(_semigroup(S, "S"))) is not None:
        raise NotConditionallyCompletelyRegular(w)
    return _cached(S, "rho", lambda: _rho(S))


def _rho(S):
    J = green(S).J
    return Partition.from_index([J.index_of[_idempotent_power(S, s)]
                                 for s in S.elements])


@dataclass(frozen=True)
class ComponentReport:
    """One rho-class and its regular elements.

    The four verdicts are True by theorem on finite CCR input, so they are
    class constants that no caller can set: each rho-class is E-dense and a
    nil-extension of a completely simple semigroup, its base (Putcha,
    Semigroup Forum 6, 1973; Bogdanovic & Ciric, Filomat 7, 1993).
    `properties.check_decompose` recomputes all four.
    """

    elements: frozenset
    regular_part: frozenset
    is_archimedean = True
    is_e_dense = True
    completely_simple_base = True
    finitely_stratified = True

    def to_json(self):
        return {
            "elements": sorted(self.elements),
            "regular_part": sorted(self.regular_part),
            "is_archimedean": self.is_archimedean,
            "is_e_dense": self.is_e_dense,
            "completely_simple_base": self.completely_simple_base,
            "finitely_stratified": self.finitely_stratified,
        }


@dataclass(frozen=True)
class DecompositionReport:
    rho: Partition
    quotient: Semigroup
    quotient_map: tuple
    components: tuple

    @property
    def quotient_order(self):
        """Pairs (a, b) of component indices with a <= b, i.e. ab = a."""
        return frozenset(self._order_pairs())

    def _order_pairs(self):
        # sorted as built, so to_json needs no set of them
        return [(a, b) for a, row in enumerate(self.quotient._rows)
                for b, ab in enumerate(row) if ab == a]

    def to_json(self):
        return {
            "rho_classes": self.rho.as_lists(),
            "quotient_table": [list(row) for row in self.quotient._rows],
            "components": [c.to_json() for c in self.components],
            "quotient_order": self._order_pairs(),
        }


def verify_rho(S):
    """Build the full decomposition report, asserting every theorem.

    Raises NotConditionallyCompletelyRegular (with the witness H-class) on
    a non-CCR input, and InternalTheoremViolation if rho is not a
    congruence or S/rho is not a semilattice.  The per-class verdicts are
    theorem constants (see `ComponentReport`), so no rho-class is
    restricted, stratified or given its own Green structure here.
    """
    rho = rho_partition(S)
    quotient, qmap = _semilattice_quotient(S, rho, "rho", "S/rho")
    reg = regular_elements(S)
    comps = tuple(ComponentReport(cls, reg & cls) for cls in rho.classes)
    return DecompositionReport(rho=rho, quotient=quotient, quotient_map=qmap,
                               components=comps)


def _semilattice_quotient(S, p, name, qname):
    """(S/p, quotient map); InternalTheoremViolation, calling p name and S/p
    qname, unless p is a congruence whose quotient is a semilattice."""
    try:
        quotient, qmap = quotient_by_congruence(S, p)
    except NotACongruence as e:
        raise InternalTheoremViolation(
            f"{name} is not a congruence, witness {e.witness}")
    w = semilattice_witness(quotient)
    if w is not None:
        raise InternalTheoremViolation(
            f"{qname} has a non-idempotent element" if w[0] == w[1]
            else f"{qname} is not commutative")
    return quotient, qmap


def archimedean(S, A):
    """Every a has a power inside A^1 b A^1, for all a, b in A.

    The kernel test, O(|A|^2): the product z of all of A lies in the least
    ideal K(A), so K(A) = A^1 z A^1, and a finite A is archimedean iff
    every idempotent lies in K(A), which is inside every A^1 b A^1.
    """
    A = _members(S, A)
    if not A:
        return False
    if not _is_subsemigroup(S, A):
        raise NotASubsemigroup(subsemigroup_witness(S, A))
    elems = sorted(A)
    t = S._rows
    z = reduce(lambda p, a: t[p][a], elems)
    left = {z}.union([t[x][z] for x in elems])  # A^1 z
    kernel = left.union(*([t[x][y] for y in elems] for x in left))
    return all(e in kernel for e in elems if t[e][e] == e)


def weak_inverse_location(S, s):
    """For each rho-class index, whether W(s) meets that class."""
    rho = rho_partition(S)
    w = weak_inverses(S, s)
    return {k: bool(w & cls) for k, cls in enumerate(rho.classes)}
