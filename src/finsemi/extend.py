"""Ideal extensions: building them from partial homomorphisms, each checked
once when it is made, classifying them as strict/pure, recovering the
partial homomorphism from a strict extension of a weakly reductive
semigroup, and decomposing strict extensions of Clifford semigroups into
semilattices of group extensions.

Index conventions for a built extension Sigma of S by T: the ideal copy of
S occupies 0..|S|-1 in S's order, followed by the nonzero elements of T in
T's order.  rees_quotient puts its collapsed zero last, so when T's zero is
its last index the round trip recover(build(phi)) == phi is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from types import MappingProxyType

from .core import (
    Partition,
    Semigroup,
    _cached,
    _first_alike,
    _getter,
    _is_ideal,
    _law_failure,
    _members,
    _must,
    _semigroup,
    ideal_witness,
    rees_quotient,
    restrict,
)
from .decompose import _semilattice_quotient
from .errors import (
    GroupUnionNotIdeal,
    InvalidArgument,
    LawViolation,
    NoZeroInSource,
    NotAnIdeal,
    NotClifford,
    NotStrict,
    NotWeaklyReductive,
    SgtParseError,
)
from .green import _idempotent_power, is_clifford, is_group


@dataclass(frozen=True)
class PartialHom:
    """A map from the nonzero part of T into S preserving nonzero products,
    checked when made, by one C-level gather of each row of T plus one
    mapped row for each element with a nonzero product: T needs a zero,
    InvalidArgument names a non-mapping, the first key or value that is
    not an integer (Python or numpy), or a wrong domain or range, and
    LawViolation the first failing pair.  The mapping is stored read-only,
    so the law keeps holding."""
    source: Semigroup           # T, with zero
    target: Semigroup           # S
    mapping: MappingProxyType   # T-index (nonzero) -> S-index

    def __post_init__(self):
        T = _semigroup(self.source, "source")
        S = _semigroup(self.target, "target")
        if T.zero is None:
            raise NoZeroInSource("source semigroup has no zero")
        try:
            items = self.mapping.items()
        except AttributeError:
            raise InvalidArgument(
                f"mapping = {self.mapping!r} is not a mapping") from None
        nonzero = [x for x in T.elements if x != T.zero]
        # index, unlike int, rejects floats, strings and None
        pairs = []
        for k, v in items:
            k = _must(index, k, "mapping key", "an integer")
            pairs.append((k, _must(index, v, f"mapping[{k}]", "an integer")))
        mapping = dict(pairs)
        # the pairs' keys, unlike the dict's, keep two keys that index alike
        if sorted(k for k, _ in pairs) != nonzero:
            raise InvalidArgument(f"mapping keys must be exactly T \\ {{{T.zero}}}")
        if any(not 0 <= v < S.order for v in mapping.values()):
            raise InvalidArgument("mapping value outside the target")
        if pair := _law_failure(T, S, mapping, nonzero):
            raise LawViolation(*pair)
        object.__setattr__(self, "mapping", MappingProxyType(mapping))


@dataclass(frozen=True)
class ExtensionWitness:
    """A built extension sigma and its ideal, the copy of S at 0..|S|-1;
    T \\ {0} follows in T's order, as the module's index conventions say."""
    sigma: Semigroup
    ideal: frozenset

    def __post_init__(self):
        object.__setattr__(self, "ideal", _must(
            frozenset, self.ideal, "ideal", "a set of elements"))


def build_extension(phi):
    """The extension Sigma = S ∪ (T \\ {0}) defined by the partial hom.

    A*B = AB when AB != 0 in T, else map(A)map(B); A*s = map(A)s;
    s*A = s map(A); s*t = st.

    phi obeys the law, as it was checked when it was made, so Sigma is
    associative by Clifford's theorem (Extensions of semigroups, Trans.
    AMS 68, 1950), and its table skips the O(n^3) check.  The map
    bar(phi) = id_S ∪ phi is a homomorphism Sigma -> S by the law, and so
    is psi: Sigma -> T, fixing T \\ {0} and sending S to 0.  A product
    xyz lies in the ideal S exactly when psi(x)psi(y)psi(z) = 0, whatever
    the bracketing; there both bracketings equal their bar(phi)-image
    bar(phi)(x)bar(phi)(y)bar(phi)(z), computed in S.  Otherwise x, y, z
    and every partial product lie in T \\ {0}, and both bracketings are
    the product in T.

    The table costs O(|S|·|Sigma|), plus one mapped row for each a in
    T \\ {0} with a nonzero product ab: when every ab is zero, row a is
    map(a)'s row, and Sigma shares that tuple.
    """
    if not isinstance(phi, PartialHom):
        raise InvalidArgument(f"phi = {phi!r} is not a PartialHom")
    T, S, f = phi.source, phi.target, phi.mapping
    ns = S.order
    outside = [x for x in T.elements if x != T.zero]
    # nonzero(ab, s): the index of ab in sigma; the zero of T is no key, so
    # a zero product ab falls through to the default s = map(a)map(b)
    nonzero = {x: ns + i for i, x in enumerate(outside)}.get
    srows, trows = S._rows, T._rows
    pick, pick_images = _getter(outside), _getter([f[b] for b in outside])
    images = [pick_images(srow) for srow in srows]   # s*map(b), b outside
    rows = [srow + image for srow, image in zip(srows, images)]
    # a row whose products ab are all zero is the row of map(a), shared
    zero_row = (T.zero,) * len(outside)
    rows += [rows[f[a]] if (ab := pick(trows[a])) == zero_row
             else srows[f[a]] + tuple(map(nonzero, ab, images[f[a]]))
             for a in outside]
    labels = None
    if S.labels and T.labels:
        labels = list(S.labels) + [T.label(x) for x in outside]
    return ExtensionWitness(sigma=Semigroup._derived(rows, labels),
                            ideal=frozenset(range(ns)))


@dataclass(frozen=True)
class ExtensionClassification:
    kind: str          # "strict" | "pure" | "neither"
    per_element: dict  # outside element -> True if it acts as some ideal element

    def __post_init__(self):
        object.__setattr__(self, "per_element", _must(
            dict, self.per_element, "per_element", "a mapping"))


def _actions(S, members):
    """x -> (x*y for y in members, y*x for y in members), for every x."""
    rows, pick = S._rows, _getter(members)
    # the transpose of the members' rows: column x read at the members
    cols = zip(*map(rows.__getitem__, members))
    return {x: (pick(row), col) for x, (row, col) in enumerate(zip(rows, cols))}


def classify_extension(sigma, ideal):
    """Strict, pure, or neither; per-element verdicts included.

    An outside element counts as strict when some ideal element has the same
    two-sided action on the ideal.  With no outside elements the extension
    is trivially strict.
    """
    twin, _ = _analysis(_semigroup(sigma, "sigma"), ideal)
    per = {x: s is not None for x, s in twin.items()}
    kind = ("strict" if all(per.values()) else
            "neither" if any(per.values()) else "pure")
    return ExtensionClassification(kind=kind, per_element=per)


def _analysis(sigma, ideal):
    """(twin, alike), cached on sigma: each outside element -> the least ideal
    element acting like it, or None, read-only; `_first_alike` of the ideal."""
    ideal = _members(sigma, ideal)

    def analyze():
        if not _is_ideal(sigma, ideal):
            raise NotAnIdeal(ideal_witness(sigma, ideal))
        actions = _actions(sigma, members := sorted(ideal))
        least = {actions[s]: s for s in reversed(members)}
        twin = {x: least.get(actions[x])
                for x in sigma.elements if x not in ideal}
        return MappingProxyType(twin), _first_alike(members, actions)

    return _cached(sigma, ("extension", ideal), analyze)


def _twins(sigma, ideal):
    """Outside element -> its twin; NotStrict names the first without one,
    NotWeaklyReductive the first two ideal elements that act alike."""
    twin, alike = _analysis(sigma, ideal)
    if None in twin.values():
        raise NotStrict(next(x for x, s in twin.items() if s is None))
    if alike:
        raise NotWeaklyReductive(alike)
    return twin


def recover_partial_hom(sigma, ideal):
    """Invert build_extension on a strict extension of a weakly reductive
    ideal: source is the Rees quotient sigma/ideal, target the ideal as a
    standalone semigroup, and each outside element maps to its twin."""
    ideal = _members(_semigroup(sigma, "sigma"), ideal)
    return _phi_from(sigma, ideal, _twins(sigma, ideal))


def _phi_from(sigma, ideal, image):
    """The PartialHom of sigma/ideal into the ideal, as a standalone
    semigroup, sending each outside element x to the ideal element image[x];
    cached on sigma, so equal input is law-checked once."""
    def make():
        target, elems = restrict(sigma, ideal)
        source, qmap = rees_quotient(sigma, ideal)
        pos = {a: i for i, a in enumerate(elems)}
        return PartialHom(source, target,
                          {qmap[x]: pos[s] for x, s in image.items()})

    return _cached(sigma, ("phi", ideal, frozenset(image.items())), make)


@dataclass(frozen=True)
class CliffordDecomposition:
    """Sigma as a semilattice of ideal extensions of groups; `quotient`,
    Sigma/~, is the ideal's structure semilattice Y indexed by component."""
    components: tuple       # (alpha, sigma_alpha, g_alpha) per quotient index
    quotient: Semigroup
    quotient_map: tuple

    def component_sets(self):
        return [(sa, ga) for _, sa, ga in self.components]


def clifford_decompose(sigma, ideal):
    """Split a strict extension of a Clifford ideal I along its structure
    semilattice Y = I/J: Sigma_alpha = G_alpha ∪ {A : map(A) in G_alpha}.

    InternalTheoremViolation unless the classes ~ form a congruence with a
    semilattice quotient; the rest of the theorem follows.  Each ~-class
    holds exactly one group, so the quotient map restricted to I is onto
    Sigma/~ with kernel J, and class k -> its group is an isomorphism
    Sigma/~ ≅ I/J = Y (Howie, Fundamentals of Semigroup Theory, 1995).
    An outside x with twin s in G_alpha has xg = sg and gx = gs for all g
    in I, as `_twins` read off the table, so the group G_alpha is an ideal
    of its component Sigma_alpha.
    """
    ideal = _members(_semigroup(sigma, "sigma"), ideal)
    if not is_clifford(restrict(sigma, ideal)[0]):
        raise NotClifford("the ideal is not a Clifford semigroup")
    twins = _twins(sigma, ideal)   # strictness; Clifford is weakly reductive

    # on a Clifford semigroup the groups are the J-classes, and each
    # element's group is named by its idempotent power; x ~ its twin, and
    # an element of the ideal is its own twin
    tilde = Partition.from_index([_idempotent_power(sigma, twins.get(x, x))
                                  for x in sigma.elements])
    quotient, qmap = _semilattice_quotient(sigma, tilde, "~", "Sigma/~")
    comps = tuple((k, cls, cls & ideal) for k, cls in enumerate(tilde.classes))
    return CliffordDecomposition(comps, quotient, qmap)


def canonical_phi(sigma, components):
    """The canonical partial homomorphism phi(A) = A*e_alpha of a
    semilattice of group extensions.

    `components` lists (sigma_alpha, g_alpha) pairs partitioning sigma with
    the g_alpha groups; their union must be an ideal, a g_alpha that is not
    closed raises NotASubsemigroup (from `restrict`), and one that is closed
    but not a group (`green.is_group`) NotClifford.  build_extension of
    the result reproduces sigma's multiplication exactly (up to the standard
    index order: ideal first)."""
    try:
        pairs = [(frozenset(sa), frozenset(ga)) for sa, ga in components]
    except (TypeError, ValueError):
        raise InvalidArgument(f"components = {components!r} is not a "
                              "collection of (sigma_alpha, g_alpha) pairs") from None
    _semigroup(sigma, "sigma")
    Partition([sa for sa, _ in pairs], n=sigma.order)  # disjoint cover check
    union = _members(sigma, frozenset().union(*(ga for _, ga in pairs)))
    if not _is_ideal(sigma, union):
        raise GroupUnionNotIdeal(ideal_witness(sigma, union))
    image = {}
    for sa, ga in pairs:
        sub, sub_elems = restrict(sigma, ga)
        if not is_group(sub):
            raise NotClifford(f"component part {sorted(ga)} is not a group")
        e_alpha = sub_elems[sub.identity]
        image.update((a, sigma.mul(a, e_alpha)) for a in sa - ga)
    return _phi_from(sigma, union, image)


# ---------------------------------------------------------------------------
# .phm files: line 1 references T's .sgt, line 2 references S's .sgt, then
# one "t_index s_index" pair per nonzero element of T.


def parse_phm(text, resolve):
    """Parse a .phm file into a PartialHom.

    `resolve(ref)` turns each of the first two non-comment lines (a path or
    a zoo: tag) into a Semigroup.
    """
    if not callable(resolve):
        raise InvalidArgument(f"resolve = {resolve!r} is not callable")
    lines = [ln.strip() for ln in _must(str.splitlines, text, "text", "a str")]
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
    return PartialHom(T, S, mapping)


def format_phm(phi, t_ref, s_ref):
    """The .phm text of phi; each reference must read back as one line of
    `parse_phm`: a non-empty str, one line by `str.splitlines`, without
    surrounding space, that does not start with '#'."""
    if not isinstance(phi, PartialHom):
        raise InvalidArgument(f"phi = {phi!r} is not a PartialHom")
    for name, ref in (("t_ref", t_ref), ("s_ref", s_ref)):
        if not (isinstance(ref, str) and len(ref.splitlines()) == 1
                and ref == ref.strip() and not ref.startswith("#")):
            raise InvalidArgument(f"{name} = {ref!r} is not a one-line "
                                  "reference")
    lines = [t_ref, s_ref]
    lines += [f"{a} {phi.mapping[a]}" for a in sorted(phi.mapping)]
    return "\n".join(lines) + "\n"
