"""Green's relations, idempotents, weak inverses, and class predicates.

The principal ideals come from the Cayley graphs, as in Froidure & Pin
(1997): aS^1 is the row of a plus a, S^1a its column plus a, and
S^1aS^1 = S^1(aS^1) the union of S^1x over x in aS^1, built once per
distinct R-ideal.  That is at most n^2 set insertions per R-class: O(n^2)
when R-classes are few, O(n^3) at worst (a chain), and no n x n gather per
element.  The
five relations are cross-validated at construction: D is computed as R∘L
from the L-classes each R-class meets, asserted to be an equivalence,
asserted equal to L∘R, and asserted equal to J (theorems on finite
semigroups, so a mismatch is an engine bug, not an input property).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition, _cached, restrict
from .errors import (
    InternalTheoremViolation,
    NotConditionallyCompletelyRegular,
    NotIdempotent,
)


@dataclass(frozen=True)
class GreenStructure:
    R: Partition
    L: Partition
    H: Partition
    D: Partition
    J: Partition
    r_ideals: tuple  # per element: frozenset aS^1
    l_ideals: tuple  # per element: frozenset S^1a
    j_ideals: tuple  # per element: frozenset S^1aS^1
    j_order: frozenset  # pairs (ci, cj) of J-class indices with ci <= cj

    def j_leq(self, s, t):
        """J_s <= J_t in the J-class order."""
        return (self.J.index_of[s], self.J.index_of[t]) in self.j_order


def _principal_ideals(S):
    """(aS^1, S^1a, S^1aS^1) for every a, as tuples of frozensets."""
    rows = S._rows
    rs = tuple(frozenset(row) | {a} for a, row in enumerate(rows))
    ls = tuple(frozenset(col) | {a} for a, col in enumerate(zip(*rows)))
    # S^1aS^1 = S^1(aS^1) depends only on the R-ideal aS^1
    by_r = {}
    for r in rs:
        if r not in by_r:
            by_r[r] = frozenset().union(*map(ls.__getitem__, r))
    return rs, ls, tuple(map(by_r.__getitem__, rs))


def green(S):
    """Compute (and cache) the full Green structure of S."""
    return _cached(S, "green", lambda: _green(S))


def _green(S):
    n = S.order
    rs, ls, js = _principal_ideals(S)
    R = Partition.from_index(rs)
    L = Partition.from_index(ls)
    H = Partition.from_index(tuple(zip(rs, ls)))
    J = Partition.from_index(js)

    # D = R∘L: a D b iff some c has a R c and c L b, so D_a is the union of
    # the L-classes that R_a meets.  Compare those sets of class indices.
    l_of_r = [frozenset(L.index_of[c] for c in r) for r in R.classes]
    r_of_l = [frozenset(R.index_of[c] for c in lc) for lc in L.classes]
    for ls_met in l_of_r:
        for lc in ls_met:
            if any(l_of_r[r] != ls_met for r in r_of_l[lc]):
                raise InternalTheoremViolation("R∘L is not an equivalence")
    d_sets = [frozenset().union(*(L.classes[lc] for lc in met)) for met in l_of_r]
    ld_sets = [frozenset().union(*(R.classes[r] for r in met)) for met in r_of_l]
    for a in range(n):
        if ld_sets[L.index_of[a]] != d_sets[R.index_of[a]]:
            raise InternalTheoremViolation("R∘L != L∘R")
    D = Partition.from_index([l_of_r[r] for r in R.index_of])
    if D != J:
        raise InternalTheoremViolation("D != J on a finite semigroup")

    # J_x <= J_y iff x lies in the ideal S^1yS^1
    order = frozenset((J.index_of[x], cj)
                      for cj, cls in enumerate(J.classes) for x in js[min(cls)])
    return GreenStructure(R=R, L=L, H=H, D=D, J=J,
                          r_ideals=rs, l_ideals=ls, j_ideals=js, j_order=order)


def idempotents(S):
    """E(S); cached on S."""
    return _cached(S, "idempotents", lambda: frozenset(
        a for a, row in enumerate(S._rows) if row[a] == a))


def regular_elements(S):
    """{s : s x s = s for some x}; cached on S."""
    return _cached(S, "regular", lambda: _regular(S))


def _regular(S):
    # s x s = (s x) s, so s is regular iff s sits in column s at one of the
    # rows named in row s
    rows = S._rows
    return frozenset(s for s, row in enumerate(rows)
                     if any(rows[y][s] == s for y in row))


def weak_inverses(S, s):
    """W(s) = {x : x s x = x}."""
    t = S._rows
    return frozenset(x for x in S.elements if t[t[x][s]][x] == x)


def inverses(S, s):
    """V(s) = {x : x s x = x and s x s = s}."""
    t = S._rows
    return frozenset(x for x in S.elements
                     if t[t[x][s]][x] == x and t[t[s][x]][s] == s)


def element_powers(S, s):
    """The distinct powers s, s^2, ... in order, up to the first repeat."""
    seq = [s]
    seen = {s}
    p = s
    while (p := S.mul(p, s)) not in seen:
        seq.append(p)
        seen.add(p)
    return seq


def ccr_witness(S):
    """A regular H-class with no idempotent, or None if S is CCR; cached."""
    return _cached(S, "ccr_witness", lambda: _ccr_witness(S))


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
    if subset is not None:
        T, _ = restrict(S, subset)
    else:
        T = S
    g = green(T)
    if len(g.J) != 1:
        return False
    ids = idempotents(T)
    return all(h & ids for h in g.H.classes)


def is_clifford(S):
    """Regular with central idempotents."""
    n = S.order
    if len(regular_elements(S)) != n:
        return False
    t = S._rows
    return all(t[e][x] == t[x][e]
               for e in idempotents(S) for x in range(n))


def maximal_subgroup(S, e):
    """H_e, the largest subgroup containing the idempotent e."""
    if S.mul(e, e) != e:
        raise NotIdempotent(e)
    return green(S).H.class_of(e)


def k_class(S, e):
    """K_e = {s : some power of s lies in H_e}."""
    he = maximal_subgroup(S, e)
    return frozenset(s for s in S.elements
                     if any(p in he for p in element_powers(S, s)))


def ccr_check(S):
    """Raise-style CCR precondition used by the decomposition engine."""
    w = ccr_witness(S)
    if w is not None:
        raise NotConditionallyCompletelyRegular(w)

