"""Structural property suites: every identity, containment, and closure
statement the structure theory guarantees, as checks that take a semigroup
and return a list of violation messages (empty when everything holds).

These back `finsemi verify` and the acceptance tests.  Checks are grouped by
the module whose machinery they exercise; `check_semigroup` runs them all.
A non-empty return never raises here — the caller decides whether a
violation is fatal.
"""

from __future__ import annotations

from . import decompose as dc
from .core import (
    CONGRUENCE_ORDER_CAP,
    Partition,
    adjoin_zero,
    base_set,
    closure,
    direct_product,
    enumerate_congruences,
    is_ideal,
    is_subsemigroup,
    pair_index,
    power_set,
    product_set,
    quotient_by_congruence,
    rees_quotient,
    restrict,
    semilattice_witness,
)
from .errors import NotASubsemigroup, NotConditionallyCompletelyRegular
from .green import (
    element_powers,
    green,
    idempotents,
    inverses,
    is_completely_simple,
    is_conditionally_completely_regular,
    k_class,
    regular_elements,
    weak_inverses,
)
from .stratify import BASE, is_grillet_stratified, stratify

DECOMPOSE_SUITE_CAP = 4


def _raw_powers(S, upto):
    """Independent raw-loop recomputation of S^1..S^upto."""
    t = S._rows
    cur = set(S.elements)
    out = [frozenset(cur)]
    for _ in range(upto - 1):
        cur = {t[a][b] for a in S.elements for b in cur}
        out.append(frozenset(cur))
    return out


def _raw_nilpotency_index(S):
    """The least m with (S/Base(S))^m = {0}, from raw powers; None if none.

    A nil semigroup of order q has index at most q.
    """
    Q, _ = rees_quotient(S, base_set(S))
    zero = {Q.zero}
    return next((m for m, p in enumerate(_raw_powers(Q, Q.order), start=1)
                 if p == zero), None)


def _raw_periodic(S):
    """Every element's powers repeat within |S| steps."""
    return all(len(element_powers(S, s)) <= S.order for s in S.elements)


def _raw_eventually_regular(S):
    """Every element has a regular power."""
    reg = regular_elements(S)
    return all(any(p in reg for p in element_powers(S, s)) for s in S.elements)


def _raw_group_bound(S):
    """Every element has a power in H_e, e its idempotent power."""
    H = green(S).H
    E = idempotents(S)
    for s in S.elements:
        powers = element_powers(S, s)
        e = next((p for p in powers if p in E), None)
        if e is None or not any(H.same(p, e) for p in powers):
            return False
    return True


def _raw_e_dense(S):
    """The four equivalent E-dense tests, each evaluated on its own.

    The definition (every element has a weak inverse) comes first, so
    `next(_raw_e_dense(S))` pays for that test alone.
    """
    t = S._rows
    yield all(weak_inverses(S, s) for s in S.elements)
    ids = idempotents(S)
    yield all(any(t[s][x] in ids for x in S.elements) for s in S.elements)
    yield all(any(t[x][s] in ids for x in S.elements) for s in S.elements)
    yield all(any(t[s][x] in ids and t[x][s] in ids for x in S.elements)
              for s in S.elements)


def _raw_principal_ideals(S):
    """Independent raw-loop recomputation of aS^1, S^1a and S^1aS^1."""
    t = S._rows
    rs, ls, js = [], [], []
    for a in S.elements:
        right = {a} | {t[a][y] for y in S.elements}
        left = {a} | {t[x][a] for x in S.elements}
        both = left | {t[x][y] for x in left for y in S.elements}
        rs.append(frozenset(right))
        ls.append(frozenset(left))
        js.append(frozenset(both))
    return tuple(rs), tuple(ls), tuple(js)


def _raw_archimedean(S, A):
    """Independent raw-loop recomputation of `decompose.archimedean`."""
    A = frozenset(A)
    if not A:
        return False
    bad = next(((a, b) for a in sorted(A) for b in sorted(A)
                if S.mul(a, b) not in A), None)
    if bad is not None:
        raise NotASubsemigroup(bad)
    elems = sorted(A)
    t = S._rows
    for b in elems:
        ideal = {b}
        ideal.update(t[x][b] for x in elems)
        ideal.update(t[b][y] for y in elems)
        ideal.update(t[t[x][b]][y] for x in elems for y in elems)
        for a in elems:
            p = a
            # powers enter a cycle within |A| steps, so |A|+1 probes suffice
            for _ in range(len(elems) + 1):
                if p in ideal:
                    break
                p = t[p][a]
            else:
                return False
    return True


def check_core(S):
    bad = []
    n = S.order
    t = S._rows
    for i in range(n):
        for j in range(n):
            ij = t[i][j]
            for k in range(n):
                if t[ij][k] != t[i][t[j][k]]:
                    bad.append(f"associativity broken at ({i},{j},{k})")
    height = stratify(S).height
    raw = _raw_powers(S, height + 2)
    for m in range(1, height + 3):
        if power_set(S, m) != raw[m - 1]:
            bad.append(f"S^{m} differs from the raw recomputation")
    for m in range(1, height + 2):
        if not power_set(S, m + 1) <= power_set(S, m):
            bad.append(f"S^{m+1} not inside S^{m}")
    base = base_set(S)
    Q, qmap = rees_quotient(S, base)
    if Q.zero is None:
        bad.append("S/Base(S) has no zero")
    if Q.order != n - len(base) + 1:
        bad.append("S/Base(S) has the wrong order")
    outside = [x for x in S.elements if x not in base]
    if sorted(set(qmap[x] for x in outside)) != list(range(len(outside))):
        bad.append("nonzero part of S/Base(S) does not biject with S \\ Base")

    if n <= CONGRUENCE_ORDER_CAP:
        for p in enumerate_congruences(S):
            if _naive_congruence_witness(S, p) is not None:
                bad.append(f"enumerated partition {p.as_lists()} fails the "
                           "independent compatibility check")
                continue
            Qp, idx = quotient_by_congruence(S, p)
            hq = stratify(Qp).height
            for m in range(1, max(height, hq) + 2):
                img = frozenset(idx[x] for x in power_set(S, m))
                if power_set(Qp, m) != img:
                    bad.append(f"(S/p)^{m} != image of S^{m} for p={p.as_lists()}")
    return bad


def _naive_congruence_witness(S, p):
    idx = p.index_of
    for a in S.elements:
        for b in S.elements:
            if idx[a] != idx[b]:
                continue
            for c in S.elements:
                if idx[S.mul(a, c)] != idx[S.mul(b, c)]:
                    return (a, b, c)
                if idx[S.mul(c, a)] != idx[S.mul(c, b)]:
                    return (a, b, c)
    return None


def check_green(S):
    bad = []
    g = green(S)
    E = idempotents(S)
    reg = regular_elements(S)
    W = {s: weak_inverses(S, s) for s in S.elements}

    rs, ls, js = _raw_principal_ideals(S)
    if g.r_ideals != rs or g.l_ideals != ls or g.j_ideals != js:
        bad.append("principal ideals differ from the raw recomputation")
    raw_order = frozenset(
        (ci, cj) for ci, a in enumerate(map(min, g.J.classes))
        for cj, b in enumerate(map(min, g.J.classes)) if js[a] <= js[b])
    if g.j_order != raw_order:
        bad.append("J-class order differs from the raw recomputation")

    band = is_subsemigroup(S, E) if E else False
    for s in S.elements:
        for t in S.elements:
            st_ = S.mul(s, t)
            prod = product_set(S, W[t], W[s])
            if not W[st_] <= prod:
                bad.append(f"W({s}*{t}) not inside W({t})W({s})")
            if band and W[st_] != prod:
                bad.append(f"E(S) is a band but W({s}*{t}) != W({t})W({s})")
    for s in S.elements:
        for sp in W[s]:
            ssp, sps = S.mul(s, sp), S.mul(sp, s)
            if ssp not in E or sps not in E:
                bad.append(f"ss' or s's not idempotent for s={s}, s'={sp}")
            if not g.L.same(ssp, sp) or not g.R.same(sp, sps):
                bad.append(f"ss' L s' R s's fails for s={s}, s'={sp}")
            if not g.j_leq(sp, s):
                bad.append(f"J_s' <= J_s fails for s={s}, s'={sp}")

    chars = tuple(_raw_e_dense(S))
    if len(set(chars)) != 1:
        bad.append(f"the four E-dense characterizations disagree: {chars}")
    if not all(chars):
        bad.append("a finite semigroup is not E-dense")
    if reg != {s for s in S.elements if inverses(S, s)}:
        bad.append("Reg(S) != {s : V(s) nonempty}")
    if reg != frozenset().union(*W.values()):
        bad.append("W(S) != Reg(S)")
    if not (_raw_periodic(S) and _raw_eventually_regular(S)
            and _raw_group_bound(S)):
        bad.append("a finite semigroup fails periodic/eventually regular/group-bound")

    kmap = {e: k_class(S, e) for e in sorted(E)}
    for e in kmap:
        for f in kmap:
            if e < f and kmap[e] & kmap[f]:
                bad.append(f"K_{e} and K_{f} overlap")
    if frozenset().union(*kmap.values()) != frozenset(S.elements):
        bad.append("the K_e sets do not cover S")

    if is_conditionally_completely_regular(S):
        for d in g.D.classes:
            if d & reg:
                if not is_subsemigroup(S, d) or not is_completely_simple(S, d):
                    bad.append(f"regular D-class {sorted(d)} is not a "
                               "completely simple subsemigroup")
        for s in S.elements:
            for h in g.H.classes:
                if len(h & W[s]) > 1:
                    bad.append(f"H-class {sorted(h)} holds two weak inverses of {s}")
    if is_subsemigroup(S, reg) and is_completely_simple(S, reg):
        if not is_ideal(S, reg):
            bad.append("Reg(S) completely simple but not an ideal")
    return bad


def check_stratify(S):
    bad = []
    base = base_set(S)
    reg = regular_elements(S)
    E = idempotents(S)
    t = S._rows

    for s in S.elements:
        sS = {t[s][x] for x in S.elements}
        Ss = {t[x][s] for x in S.elements}
        SsS = {t[t[x][s]][y] for x in S.elements for y in S.elements}
        if s in (sS | Ss | SsS) and s not in base:
            bad.append(f"{s} is in Ss ∪ sS ∪ SsS but not in the base")
    if not reg <= base:
        bad.append("Reg(S) not inside Base(S)")
    if base:
        sub, elems = restrict(S, base)
        if E != frozenset(elems[i] for i in idempotents(sub)):
            bad.append("E(S) != E(Base(S))")
    else:
        bad.append("finite semigroup with empty base")
    g = green(S)
    for s in S.elements:
        if s not in base and len(g.J.class_of(s)) != 1:
            bad.append(f"{s} outside the base has a non-singleton J-class")
    if not is_ideal(S, base):
        bad.append("Base(S) is not an ideal")
    Q, _ = rees_quotient(S, base)
    if not is_grillet_stratified(Q):
        bad.append("S/Base(S) is not Grillet-stratified")
    if S.zero is None:
        S0 = adjoin_zero(S)
        if base_set(S0) != base | {S0.zero}:
            bad.append("Base(S^0) != Base(S) ∪ {0}")
        if is_grillet_stratified(S) != is_grillet_stratified(S0):
            bad.append("S and S^0 disagree on Grillet stratification")
    if product_set(S, base, base) != base:
        bad.append("the base is not globally idempotent")
    rep = stratify(S)
    for s in S.elements:
        powers = element_powers(S, s)
        if not any(p in base for p in powers):
            bad.append(f"{s} has no power in the base")
        d = rep.depth_of[s]
        if d == BASE:
            if s not in base:
                bad.append(f"depth says base but {s} is outside")
        elif s not in rep.layers[d - 1]:
            bad.append(f"depth of {s} does not match its layer")
    index = _raw_nilpotency_index(S)
    if index is None:
        bad.append("S/Base(S) is not nilpotent")
    elif index != rep.height:
        bad.append(f"nilpotency index {index} of S/Base(S) != height {rep.height}")

    gens_pool = [frozenset({a}) for a in S.elements]
    gens_pool += [frozenset({a, b}) for a in S.elements for b in S.elements if a < b]
    for gens in gens_pool:
        sub_set = closure(S, gens)
        sub, elems = restrict(S, sub_set)
        if sub.identity is not None and not sub_set <= base:
            bad.append(f"monoid subsemigroup {sorted(sub_set)} escapes the base")

    if is_subsemigroup(S, reg) and is_completely_simple(S, reg):
        if base != reg:
            bad.append("Reg(S) completely simple but Base(S) != Reg(S)")
    return bad


def check_decompose(S):
    bad = []
    n = S.order
    ccr = is_conditionally_completely_regular(S)
    if not ccr:
        try:
            dc.rho_partition(S)
            bad.append("rho_partition accepted a non-CCR semigroup")
        except NotConditionallyCompletelyRegular:
            pass
        if n <= DECOMPOSE_SUITE_CAP:
            for p in _semilattice_congruences(S):
                if all(dc.archimedean(S, cls) for cls in p.classes):
                    bad.append("non-CCR semigroup has a semilattice-of-"
                               f"Archimedean decomposition {p.as_lists()}")
        return bad

    report = dc.verify_rho(S)
    rho = report.rho
    g = green(S)
    W = {s: weak_inverses(S, s) for s in S.elements}
    reg = regular_elements(S)

    for s in S.elements:
        if not rho.same(s, S.mul(s, s)):
            bad.append(f"s rho s^2 fails at {s}")
        for t in S.elements:
            if not rho.same(S.mul(s, t), S.mul(t, s)):
                bad.append(f"st rho ts fails at ({s},{t})")
            st_ = S.mul(s, t)
            for d in range(len(g.D)):
                cls = g.D.classes[d]
                lhs = bool(W[st_] & cls)
                rhs = bool(W[s] & cls) and bool(W[t] & cls)
                if lhs != rhs:
                    bad.append(f"W(st)∩D iff W(s)∩D and W(t)∩D fails at "
                               f"({s},{t}), D-class {sorted(cls)}")
    for s in sorted(reg):
        for t in sorted(reg):
            if rho.same(s, t) != g.D.same(s, t):
                bad.append(f"rho and D disagree on regular pair ({s},{t})")

    # H-class footprints refine to the same partition (equivalent definition)
    h_foot = [frozenset(g.H.index_of[x] for x in W[s]) for s in S.elements]
    if Partition.from_index(h_foot) != rho:
        bad.append("H-class footprint definition disagrees with rho")

    for cls in rho.classes:
        sub, elems = restrict(S, cls)
        has_reg = bool(cls & reg)
        if next(_raw_e_dense(sub)) != has_reg or not has_reg:
            bad.append(f"rho-class {sorted(cls)} breaks the E-dense iff "
                       "regular-element lemma")
    no_w = {s for s in S.elements if not W[s]}
    if no_w and not is_ideal(S, no_w):
        bad.append("{s : W(s) empty} is nonempty but not an ideal")

    if dc.kje_partition(S) != rho:
        bad.append("K_{J_e} partition differs from rho")
    for comp in report.components:
        if comp.is_archimedean != _raw_archimedean(S, comp.elements):
            bad.append(f"component {sorted(comp.elements)}: archimedean "
                       "differs from the raw recomputation")
        if not comp.is_archimedean:
            bad.append(f"component {sorted(comp.elements)} is not Archimedean")
        if not comp.regular_part:
            bad.append(f"component {sorted(comp.elements)} has no regular part")
        if not comp.completely_simple_base:
            bad.append(f"component {sorted(comp.elements)} has a base that is "
                       "not completely simple")
        sub, elems = restrict(S, comp.elements)
        base_lift = frozenset(elems[i] for i in base_set(sub))
        if not base_lift:
            bad.append(f"component {sorted(comp.elements)} not finitely stratified")
        if base_lift != comp.regular_part:
            bad.append(f"component {sorted(comp.elements)}: base != regular part")

    for e in sorted(idempotents(S)):
        je = g.J.index_of[e]
        for s in sorted(k_class(S, e)):
            meets = {g.J.index_of[x] for x in W[s]}
            greatest = [o for o in meets
                        if all((x, o) in g.j_order for x in meets)]
            if greatest != [je]:
                bad.append(f"J_e is not the greatest J-class meeting W({s}) "
                           f"for e={e}")

    for s in S.elements:
        loc = dc.weak_inverse_location(S, s)
        alpha = report.quotient_map[s]
        for k, cls in enumerate(rho.classes):
            expected = bool(cls & reg) and (k, alpha) in report.quotient_order
            if loc[k] != expected:
                bad.append(f"weak-inverse location of {s} wrong at class {k}")

    if n <= DECOMPOSE_SUITE_CAP:
        for p in _semilattice_congruences(S):
            if all(dc.archimedean(S, cls) for cls in p.classes) and p != rho:
                bad.append(f"second Archimedean semilattice decomposition "
                           f"{p.as_lists()} found (uniqueness fails)")
    return bad


def _semilattice_congruences(S):
    for p in enumerate_congruences(S, max_order=DECOMPOSE_SUITE_CAP):
        if semilattice_witness(quotient_by_congruence(S, p)[0]) is None:
            yield p


def check_product_pair(S, T):
    """(SxT)^m = S^m x T^m and the base formula, for one pair."""
    bad = []
    P = direct_product(S, T)
    hp = stratify(P).height
    for m in range(1, hp + 2):
        expected = frozenset(pair_index(T, a, b)
                             for a in power_set(S, m) for b in power_set(T, m))
        if power_set(P, m) != expected:
            bad.append(f"(SxT)^{m} != S^{m} x T^{m}")
    expected = frozenset(pair_index(T, a, b)
                         for a in base_set(S) for b in base_set(T))
    if base_set(P) != expected:
        bad.append("Base(SxT) != Base(S) x Base(T)")
    return bad


def check_semigroup(S):
    """Every per-semigroup check from every suite."""
    return check_core(S) + check_green(S) + check_stratify(S) + check_decompose(S)
