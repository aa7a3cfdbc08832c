"""Ideal extensions: building them from partial homomorphisms, classifying
them as strict/pure, recovering the partial homomorphism from a strict
extension of a weakly reductive semigroup, and decomposing strict extensions
of Clifford semigroups into semilattices of group extensions.

Index conventions for a built extension Sigma of S by T: the ideal copy of
S occupies 0..|S|-1 in S's order, followed by the nonzero elements of T in
T's order.  rees_quotient puts its collapsed zero last, so when T's zero is
its last index the round trip recover(build(phi)) == phi is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Partition,
    Semigroup,
    ideal_witness,
    interchangeable_pair,
    is_ideal,
    isomorphic,
    quotient_by_congruence,
    rees_quotient,
    restrict,
    semilattice_witness,
)
from .errors import (
    GroupUnionNotIdeal,
    InternalTheoremViolation,
    InvalidArgument,
    LawViolation,
    NoZeroInSource,
    NonAssociative,
    NotACongruence,
    NotAnIdeal,
    NotClifford,
    NotStrict,
    NotWeaklyReductive,
    SgtParseError,
)
from .green import green, idempotents, is_clifford


class ResultNotAssociative(InternalTheoremViolation):
    """The construction theorem guarantees associativity; this is a bug."""


@dataclass(frozen=True)
class PartialHom:
    """A map from the nonzero part of T into S preserving nonzero products."""
    source: Semigroup   # T, with zero
    target: Semigroup   # S
    mapping: dict       # T-index (nonzero) -> S-index

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))


def validate_partial_hom(T, S, mapping):
    """Check the domain and the law map(AB) = map(A)map(B) when AB != 0."""
    if T.zero is None:
        raise NoZeroInSource("source semigroup has no zero")
    nonzero = [x for x in T.elements if x != T.zero]
    mapping = {int(k): int(v) for k, v in mapping.items()}
    if sorted(mapping) != nonzero:
        raise InvalidArgument(f"mapping keys must be exactly T \\ {{{T.zero}}}")
    if any(not 0 <= v < S.order for v in mapping.values()):
        raise InvalidArgument("mapping value outside the target")
    for a in nonzero:
        for b in nonzero:
            ab = T.mul(a, b)
            if ab != T.zero and mapping[ab] != S.mul(mapping[a], mapping[b]):
                raise LawViolation(a, b)
    return PartialHom(source=T, target=S, mapping=mapping)


@dataclass(frozen=True)
class ExtensionWitness:
    """A built extension plus the bookkeeping bijections.

    s_map: ideal element of sigma -> element of S
    t_map: outside element of sigma -> nonzero element of T
    """
    sigma: Semigroup
    ideal: frozenset
    s_map: dict
    t_map: dict

    def __post_init__(self):
        object.__setattr__(self, "ideal", frozenset(self.ideal))
        object.__setattr__(self, "s_map", dict(self.s_map))
        object.__setattr__(self, "t_map", dict(self.t_map))


def build_extension(phi):
    """The extension Sigma = S ∪ (T \\ {0}) defined by the partial hom.

    A*B = AB when AB != 0 in T, else map(A)map(B); A*s = map(A)s;
    s*A = s map(A); s*t = st.
    """
    T, S, f = phi.source, phi.target, phi.mapping
    ns = S.order
    outside = [x for x in T.elements if x != T.zero]
    pos = {x: ns + i for i, x in enumerate(outside)}
    n = ns + len(outside)
    rows = [[0] * n for _ in range(n)]
    for s in range(ns):
        for t in range(ns):
            rows[s][t] = S.mul(s, t)
    for a in outside:
        fa = f[a]
        for s in range(ns):
            rows[pos[a]][s] = S.mul(fa, s)
            rows[s][pos[a]] = S.mul(s, fa)
        for b in outside:
            ab = T.mul(a, b)
            if ab != T.zero:
                rows[pos[a]][pos[b]] = pos[ab]
            else:
                rows[pos[a]][pos[b]] = S.mul(fa, f[b])
    labels = None
    if S.labels and T.labels:
        labels = list(S.labels) + [T.label(x) for x in outside]
    try:
        sigma = Semigroup(rows, labels=labels)
    except NonAssociative as e:
        raise ResultNotAssociative(
            f"partial-hom extension broke associativity at {e.triple}")
    return ExtensionWitness(
        sigma=sigma,
        ideal=frozenset(range(ns)),
        s_map={i: i for i in range(ns)},
        t_map={pos[x]: x for x in outside},
    )


@dataclass(frozen=True)
class ExtensionClassification:
    kind: str          # "strict" | "pure" | "neither"
    per_element: dict  # outside element -> True if it acts as some ideal element

    def __post_init__(self):
        object.__setattr__(self, "per_element", dict(self.per_element))


def _action(S, x, members):
    return (tuple(S.mul(x, y) for y in members),
            tuple(S.mul(y, x) for y in members))


def classify_extension(sigma, ideal):
    """Strict, pure, or neither; per-element verdicts included.

    An outside element counts as strict when some ideal element has the same
    two-sided action on the ideal.  With no outside elements the extension
    is trivially strict.
    """
    return _classify(sigma, ideal)[0]


def _classify(sigma, ideal):
    """classify_extension plus the sorted ideal and every element's action
    on it, each action computed once."""
    ideal = frozenset(ideal)
    if not is_ideal(sigma, ideal):
        raise NotAnIdeal(ideal_witness(sigma, ideal))
    members = sorted(ideal)
    actions = {x: _action(sigma, x, members) for x in sigma.elements}
    inner = {actions[s] for s in members}
    per = {x: actions[x] in inner
           for x in sigma.elements if x not in ideal}
    if all(per.values()):
        kind = "strict"
    elif not any(per.values()):
        kind = "pure"
    else:
        kind = "neither"
    return ExtensionClassification(kind=kind, per_element=per), members, actions


def recover_partial_hom(sigma, ideal):
    """Invert build_extension on a strict extension of a weakly reductive
    ideal: source is the Rees quotient sigma/ideal, target the ideal as a
    standalone semigroup, and each outside element maps to the unique ideal
    element with the same two-sided action."""
    cls, members, actions = _classify(sigma, ideal)
    if cls.kind != "strict":
        bad = next(x for x, ok in sorted(cls.per_element.items()) if not ok)
        raise NotStrict(bad)
    target, elems = restrict(sigma, ideal)
    pair = interchangeable_pair(target)
    if pair is not None:
        raise NotWeaklyReductive((elems[pair[0]], elems[pair[1]]))
    source, qmap = rees_quotient(sigma, ideal)
    pos = {a: i for i, a in enumerate(members)}
    # every outside element is strict, so its action is some member's
    twin = {actions[s]: s for s in members}
    mapping = {qmap[x]: pos[twin[actions[x]]]
               for x in sigma.elements if x not in ideal}
    return PartialHom(source=source, target=target, mapping=mapping)


@dataclass(frozen=True)
class CliffordDecomposition:
    """Sigma as a semilattice of ideal extensions of groups."""
    components: tuple       # (alpha, sigma_alpha, g_alpha) per quotient index
    quotient: Semigroup
    quotient_map: tuple
    structure_semilattice: Semigroup   # Y of the Clifford ideal

    def component_sets(self):
        return [(sa, ga) for _, sa, ga in self.components]


def clifford_decompose(sigma, ideal):
    """Split a strict extension of a Clifford ideal along the ideal's
    structure semilattice: Sigma_alpha = G_alpha ∪ {A : map(A) in G_alpha}.

    Asserts (raising InternalTheoremViolation on failure, since these are
    the theorem's claims): the classes form a congruence, the quotient is a
    semilattice isomorphic to Y, and each G_alpha is an ideal of its
    component.
    """
    ideal = frozenset(ideal)
    sub, elems = restrict(sigma, ideal)
    if not is_clifford(sub):
        raise NotClifford("the ideal is not a Clifford semigroup")
    phi = recover_partial_hom(sigma, ideal)   # also enforces strictness

    g = green(sub)
    groups = [frozenset(elems[i] for i in cls) for cls in g.J.classes]
    y_sem, _ = quotient_by_congruence(sub, g.J)

    lift = {i: elems[i] for i in range(sub.order)}
    comp_of = {}
    for k, grp in enumerate(groups):
        for x in grp:
            comp_of[x] = k
    outside = [y for y in sigma.elements if y not in ideal]
    for qx, x in enumerate(outside):
        comp_of[x] = comp_of[lift[phi.mapping[qx]]]
    tilde = Partition.from_index([comp_of[x] for x in sigma.elements])

    try:
        quotient, qmap2 = quotient_by_congruence(sigma, tilde)
    except NotACongruence as e:
        raise InternalTheoremViolation(
            f"~ is not a congruence, witness {e.witness}")
    if semilattice_witness(quotient) is not None:
        raise InternalTheoremViolation("Sigma/~ is not a semilattice")
    if not isomorphic(quotient, y_sem):
        raise InternalTheoremViolation("Sigma/~ is not isomorphic to Y")

    comps = []
    for k, cls in enumerate(tilde.classes):
        grp = next(grp for grp in groups if grp <= cls)
        comp_sub, comp_elems = restrict(sigma, cls)
        inner = frozenset(comp_elems.index(x) for x in grp)
        if not is_ideal(comp_sub, inner):
            raise InternalTheoremViolation(
                "component group is not an ideal of its component")
        comps.append((k, frozenset(cls), grp))
    return CliffordDecomposition(components=tuple(comps), quotient=quotient,
                                 quotient_map=qmap2,
                                 structure_semilattice=y_sem)


def canonical_phi(sigma, components):
    """The canonical partial homomorphism phi(A) = A*e_alpha of a
    semilattice of group extensions.

    `components` lists (sigma_alpha, g_alpha) pairs partitioning sigma with
    the g_alpha groups; their union must be an ideal.  build_extension of
    the result reproduces sigma's multiplication exactly (up to the standard
    index order: ideal first)."""
    pairs = [(frozenset(sa), frozenset(ga)) for sa, ga in components]
    Partition([sa for sa, _ in pairs], n=sigma.order)  # disjoint cover check
    union = frozenset().union(*(ga for _, ga in pairs))
    if not is_ideal(sigma, union):
        raise GroupUnionNotIdeal(ideal_witness(sigma, union))
    target, elems = restrict(sigma, union)
    pos = {a: i for i, a in enumerate(elems)}
    source, qmap = rees_quotient(sigma, union)
    mapping = {}
    for sa, ga in pairs:
        sub, sub_elems = restrict(sigma, ga)
        ids = [sub_elems[e] for e in idempotents(sub)]
        if len(ids) != 1:
            raise NotClifford(f"component part {sorted(ga)} is not a group")
        e_alpha = ids[0]
        for a in sa - ga:
            mapping[qmap[a]] = pos[sigma.mul(a, e_alpha)]
    return validate_partial_hom(source, target, mapping)


# ---------------------------------------------------------------------------
# .phm files: line 1 references T's .sgt, line 2 references S's .sgt, then
# one "t_index s_index" pair per nonzero element of T.


def parse_phm(text, resolve):
    """Parse a .phm file into a PartialHom.

    `resolve(ref)` turns each of the first two non-comment lines (a path or
    a zoo: tag) into a Semigroup.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise SgtParseError(1, "expected references to T and S")
    T = resolve(lines[0])
    S = resolve(lines[1])
    mapping = {}
    for k, ln in enumerate(lines[2:], start=3):
        parts = ln.split()
        if len(parts) != 2:
            raise SgtParseError(k, f"expected 't_index s_index', got {ln!r}")
        try:
            t_idx, s_idx = int(parts[0]), int(parts[1])
        except ValueError:
            raise SgtParseError(k, f"non-integer pair {ln!r}")
        if t_idx in mapping:
            raise SgtParseError(k, f"duplicate t_index {t_idx}")
        mapping[t_idx] = s_idx
    return validate_partial_hom(T, S, mapping)


def format_phm(phi, t_ref, s_ref):
    lines = [t_ref, s_ref]
    lines += [f"{a} {phi.mapping[a]}" for a in sorted(phi.mapping)]
    return "\n".join(lines) + "\n"
