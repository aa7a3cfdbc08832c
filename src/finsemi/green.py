"""Green's relations, idempotents, weak inverses, and class predicates.

The principal ideals come from the Cayley graphs, as in Froidure & Pin
(1997): aS^1 is the row of a plus a, S^1a its column plus a, and
S^1aS^1 = S^1(aS^1) the union of S^1x over x in aS^1, built once per
distinct R-ideal.  Each ideal is one int bitset of n bits (n/8 bytes), so
the three ideals of all n elements take O(n^2) bits, not O(n^2) set
entries.  Building them costs n^2 set insertions for the rows and
columns, then at most n ORs of n-bit ints per R-class: O(n^2) when
R-classes are few, n^2 such ORs at worst (a chain), and no n x n gather
per element.  J_s <= J_t is one bit test, s in the ideal kept for J_t.

D = J is checked by the egg-box test: the R- and L-classes that meet a
J-class lie inside it and each R-class there meets each L-class, which
holds iff R∘L = L∘R = J (a theorem on finite semigroups, so a failure is
an engine bug, not an input property).

K_e is read off idempotent powers: the powers of s end in the cyclic group
H_f of its one idempotent power f, so s has a power in H_e iff f = e.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import Partition, _cached, _member, _semigroup, restrict
from .errors import InternalTheoremViolation, NotIdempotent


@dataclass(frozen=True)
class GreenStructure:
    R: Partition
    L: Partition
    H: Partition
    D: Partition
    J: Partition
    ideals: tuple  # S^1aS^1 as an n-bit int, one per J-class, a in the class

    @property
    def j_order(self):
        """Pairs (ci, cj) of J-class indices with ci <= cj, built on read."""
        reps = [min(cls) for cls in self.J.classes]
        return frozenset((ci, cj) for cj, ideal in enumerate(self.ideals)
                         for ci, a in enumerate(reps) if ideal >> a & 1)

    def j_leq(self, s, t):
        """J_s <= J_t in the J-class order: s lies in the ideal S^1tS^1."""
        J = self.J
        return bool(self.ideals[J.index_of[J._point(t)]] >> J._point(s) & 1)


def _principal_ideals(S):
    """(aS^1, S^1a, S^1aS^1) for every a, each an int bitset of n bits."""
    rows = S._rows
    bit = [1 << x for x in range(len(rows))].__getitem__
    rs = tuple(sum(map(bit, {a, *row})) for a, row in enumerate(rows))
    ls = tuple(sum(map(bit, {a, *col})) for a, col in enumerate(zip(*rows)))
    # S^1aS^1 = S^1(aS^1) depends only on the R-ideal aS^1
    by_r = {}
    for a, r in enumerate(rs):
        if r not in by_r:
            by_r[r] = reduce(or_, map(ls.__getitem__, {a, *rows[a]}))
    return rs, ls, tuple(map(by_r.__getitem__, rs))


def green(S):
    """Compute (and cache) the full Green structure of S."""
    return _cached(_semigroup(S, "S"), "green", lambda: _green(S))


def _green(S):
    rs, ls, js = _principal_ideals(S)
    R = Partition.from_index(rs)
    L = Partition.from_index(ls)
    H = Partition.from_index(tuple(zip(rs, ls)))
    J = Partition.from_index(js)

    # the egg-box test of the module docstring (Howie 1995, §2.1)
    for cls in J.classes:
        rc = {R.index_of[x] for x in cls}
        lc = {L.index_of[x] for x in cls}
        if (sum(len(R.classes[r]) for r in rc) != len(cls)
                or sum(len(L.classes[c]) for c in lc) != len(cls)
                or len({H.index_of[x] for x in cls}) != len(rc) * len(lc)):
            raise InternalTheoremViolation("D != J on a finite semigroup")

    return GreenStructure(R=R, L=L, H=H, D=J, J=J,
                          ideals=tuple(js[min(cls)] for cls in J.classes))


def idempotents(S):
    """E(S); cached on S."""
    return _cached(_semigroup(S, "S"), "idempotents", lambda: frozenset(
        a for a, row in enumerate(S._rows) if row[a] == a))


def regular_elements(S):
    """{s : s x s = s for some x}; cached on S."""
    return _cached(_semigroup(S, "S"), "regular", lambda: _regular(S))


def _regular(S):
    # s x s = (s x) s, so s is regular iff s sits in column s at one of the
    # rows named in row s
    rows = S._rows
    return frozenset(s for s, row in enumerate(rows)
                     if any(rows[y][s] == s for y in row))


def weak_inverses(S, s):
    """W(s) = {x : x s x = x}."""
    t, s = _semigroup(S, "S")._rows, _member(S, s)
    return frozenset(x for x in S.elements if t[t[x][s]][x] == x)


def inverses(S, s):
    """V(s) = {x : x s x = x and s x s = s}."""
    t, s = _semigroup(S, "S")._rows, _member(S, s)
    return frozenset(x for x in S.elements
                     if t[t[x][s]][x] == x and t[t[s][x]][s] == s)


def element_powers(S, s):
    """The distinct powers s, s^2, ... in order, up to the first repeat."""
    seq = [_member(_semigroup(S, "S"), s)]
    seen = {s}
    p = s
    while (p := S.mul(p, s)) not in seen:
        seq.append(p)
        seen.add(p)
    return seq


def is_group(S):
    """S has an identity e in every row (finite: xy = e implies yx = e)."""
    e = _semigroup(S, "S").identity
    return e is not None and all(e in row for row in S._rows)


def ccr_witness(S):
    """A regular H-class with no idempotent, or None if S is CCR; cached."""
    return _cached(_semigroup(S, "S"), "ccr_witness", lambda: _ccr_witness(S))


def _ccr_witness(S):
    g = green(S)
    reg = regular_elements(S)
    ids = idempotents(S)
    for h in g.H.classes:
        if h & reg and not h & ids:
            return h
    return None


def is_conditionally_completely_regular(S):
    """Every regular H-class contains an idempotent."""
    return ccr_witness(S) is None


def is_completely_simple(S, subset=None):
    """Single J-class and every H-class a group (checked structurally)."""
    T = _semigroup(S, "S") if subset is None else restrict(S, subset)[0]
    g = green(T)
    if len(g.J) != 1:
        return False
    ids = idempotents(T)
    return all(h & ids for h in g.H.classes)


def is_clifford(S):
    """Regular with central idempotents."""
    n = _semigroup(S, "S").order
    if len(regular_elements(S)) != n:
        return False
    t = S._rows
    return all(t[e][x] == t[x][e]
               for e in idempotents(S) for x in range(n))


def maximal_subgroup(S, e):
    """H_e, the largest subgroup containing the idempotent e."""
    if _semigroup(S, "S").mul(_member(S, e), e) != e:
        raise NotIdempotent(e)
    return green(S).H.class_of(e)


def _idempotent_power(S, s):
    """The one idempotent among the powers of s."""
    rows = S._rows
    p = s
    while rows[p][p] != p:
        p = rows[p][s]
    return p


def k_class(S, e):
    """K_e = {s : some power of s lies in H_e} = {s : e is a power of s}."""
    if _semigroup(S, "S").mul(_member(S, e), e) != e:
        raise NotIdempotent(e)
    return frozenset(s for s in S.elements if _idempotent_power(S, s) == e)
