"""The semilattice decomposition of conditionally completely regular
semigroups.

Two elements are related when their weak inverses meet exactly the same
D-classes; on a CCR semigroup this is a congruence whose quotient is a
semilattice, and on group-bound input it coincides with the partition into
K_{J_e} = union of K_f over idempotents f in the J-class of e.  Violations
of these statements are theorems failing, so they raise
InternalTheoremViolation instead of flowing into the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Partition,
    Semigroup,
    _cached,
    is_subsemigroup,
    quotient_by_congruence,
    restrict,
    semilattice_witness,
    subsemigroup_witness,
)
from .errors import InternalTheoremViolation, NotACongruence, NotASubsemigroup
from .green import (
    ccr_check,
    green,
    idempotents,
    is_completely_simple,
    k_class,
    regular_elements,
    weak_inverses,
)
from .stratify import stratify


def footprint(S, s):
    """The set of D-class indices whose classes meet W(s)."""
    g = green(S)
    return frozenset(g.D.index_of[x] for x in weak_inverses(S, s))


def rho_partition(S):
    """Partition by equal weak-inverse footprints (requires CCR input).

    The partition is cached on S; the CCR check runs on every call.
    """
    ccr_check(S)
    return _cached(S, "rho", lambda: _rho(S))


def _rho(S):
    return Partition.from_index([footprint(S, s) for s in S.elements])


@dataclass(frozen=True)
class ComponentReport:
    """The verdicts on one rho-class.

    `is_e_dense` and `finitely_stratified` are True by theorem on finite
    input: every finite semigroup is E-dense and has a nonempty base.  The
    oracles in `properties.check_decompose` recompute both.
    """

    elements: frozenset
    regular_part: frozenset
    is_archimedean: bool
    is_e_dense: bool
    completely_simple_base: bool
    finitely_stratified: bool

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
    quotient_order: frozenset  # pairs (a, b) of component indices with a <= b

    def to_json(self):
        return {
            "rho_classes": self.rho.as_lists(),
            "quotient_table": [list(row) for row in self.quotient._rows],
            "components": [c.to_json() for c in self.components],
            "quotient_order": sorted(self.quotient_order),
        }


def verify_rho(S):
    """Build the full decomposition report, asserting every theorem.

    Raises NotConditionallyCompletelyRegular (with the witness H-class) on
    a non-CCR input, and InternalTheoremViolation if any statement the
    theorems guarantee fails to hold.
    """
    rho = rho_partition(S)
    try:
        quotient, qmap = quotient_by_congruence(S, rho)
    except NotACongruence as e:
        raise InternalTheoremViolation(
            f"rho is not a congruence, witness {e.witness}")
    w = semilattice_witness(quotient)
    if w is not None:
        raise InternalTheoremViolation(
            "S/rho has a non-idempotent element" if w[0] == w[1]
            else "S/rho is not commutative")
    t = quotient._rows
    k = quotient.order

    reg = regular_elements(S)
    comps = []
    for cls in rho.classes:
        sub, elems = restrict(S, cls)
        rep = stratify(sub)
        reg_inside = frozenset(elems[i] for i in regular_elements(sub))
        if reg_inside != reg & cls:
            raise InternalTheoremViolation(
                "regularity inside a rho-class differs from regularity in S")
        comps.append(ComponentReport(
            elements=frozenset(cls),
            regular_part=reg & cls,
            is_archimedean=archimedean(S, cls),
            is_e_dense=True,
            completely_simple_base=is_completely_simple(sub, rep.base),
            finitely_stratified=True,
        ))
    order = frozenset((a, b) for a in range(k) for b in range(k)
                      if t[a][b] == a)
    return DecompositionReport(rho=rho, quotient=quotient, quotient_map=qmap,
                               components=tuple(comps), quotient_order=order)


def kje_partition(S):
    """Partition into K_{J_e} sets (CCR input; finite input is group-bound).

    K_e is the set of elements with a power in the maximal subgroup at e;
    K_{J_e} glues the K_f together over all idempotents f in the J-class
    of e.
    """
    ccr_check(S)
    g = green(S)
    blocks = {}
    for e in idempotents(S):
        blocks.setdefault(g.J.index_of[e], set()).update(k_class(S, e))
    classes = list(blocks.values())
    if sum(len(c) for c in classes) != S.order:
        raise InternalTheoremViolation("K_{J_e} sets do not partition S")
    return Partition(classes, n=S.order)


def archimedean(S, A):
    """Every a has a power inside A^1 b A^1, for all a, b in A."""
    A = frozenset(A)
    if not A:
        return False
    if not is_subsemigroup(S, A):
        raise NotASubsemigroup(subsemigroup_witness(S, A))
    elems = sorted(A)
    t = S._rows
    left = {x: {x}.union([t[y][x] for y in elems]) for x in elems}  # A^1 x
    powers = []
    for a in elems:
        seen = {a}
        p = a
        while (p := t[p][a]) not in seen:
            seen.add(p)
        powers.append(seen)
    # A^1 b A^1 = A^1 (b A^1) depends only on the right ideal b A^1
    done = set()
    for b in elems:
        right = frozenset([t[b][y] for y in elems]) | {b}
        if right in done:
            continue
        done.add(right)
        ideal = set().union(*map(left.__getitem__, right))
        if any(ideal.isdisjoint(pw) for pw in powers):
            return False
    return True


def weak_inverse_location(S, s):
    """For each rho-class index, whether W(s) meets that class."""
    rho = rho_partition(S)
    w = weak_inverses(S, s)
    return {k: bool(w & cls) for k, cls in enumerate(rho.classes)}
