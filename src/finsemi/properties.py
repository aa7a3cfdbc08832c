"""Structural property suites: every identity, containment, and closure
statement the structure theory guarantees, as checks that take a semigroup
and return a list of violation messages (empty when everything holds).

These back `finsemi verify` and the acceptance tests.  Checks are grouped by
the module whose machinery they exercise; `check_semigroup` runs them all.
A non-empty return never raises here — the caller decides whether a
violation is fatal.
"""

from __future__ import annotations

from itertools import chain

from . import decompose as dc
from .core import (
    CONGRUENCE_ORDER_CAP,
    Partition,
    _is_ideal,
    _is_subsemigroup,
    _product_set,
    adjoin_zero,
    closure,
    direct_product,
    enumerate_congruences,
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
from .stratify import BASE, base_set, is_grillet_stratified, power_set, stratify

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


def _raw_closure(S, gens):
    """Independent raw-loop fixpoint: gens with every product of two
    members added, until nothing is new."""
    t, cur = S._rows, frozenset(gens)
    while (nxt := cur | {t[a][b] for a in cur for b in cur}) != cur:
        cur = nxt
    return cur


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


def _raw_k_class(S, e):
    """K_e by its definition: the s with some power in H_e."""
    he = green(S).H.class_of(e)
    return frozenset(s for s in S.elements
                     if any(p in he for p in element_powers(S, s)))


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


def _raw_footprint(S, s):
    """D-class indices of the classes meeting W(s); rho by its definition."""
    g = green(S)
    return frozenset(g.D.index_of[x] for x in weak_inverses(S, s))


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


def _raw_derivation_witness(kind, D, S, m=None, T=None):
    """None when D is the `kind` derivation of the checked semigroup S;
    else a message naming the first cell where D and S disagree.

    - "restrict": m[i] is the S-element of D's element i, and m embeds D
      in S: S[m[i]][m[j]] == m[D[i][j]];
    - "quotient": m maps S onto D as a homomorphism: m[S[a][b]] ==
      D[m[a]][m[b]];
    - "product": D is S x T with (a, b) at a*|T| + b, cell by cell;
    - "zero", "identity": D is S plus one absorbing or neutral element n,
      read as the copy of S plus the row and the column of n.

    An embedding into S (or S x T) or a homomorphic image of S is
    associative because S is, so these O(|D|^2 + |S|^2) raw loops re-check
    a derived table that was built without an associativity scan.
    """
    d, s = D._rows, S._rows
    if kind == "restrict":
        if len(m) != D.order or len(set(m)) != len(m):
            return f"restriction map {list(m)} is not one-to-one on D"
        pairs = (([m[v] for v in d[i]], [s[m[i]][mj] for mj in m])
                 for i in D.elements)
    elif kind == "quotient":
        if len(m) != S.order or set(m) != set(D.elements):
            return f"quotient map {list(m)} is not onto D"
        pairs = (([m[v] for v in s[a]], [d[m[a]][mb] for mb in m])
                 for a in S.elements)
    elif kind == "product":
        nt, t = T.order, T._rows
        if D.order != S.order * nt:
            return f"product table of order {D.order} != {S.order}*{nt}"
        pairs = ((list(d[x]), [u * nt + v for u in s[x // nt] for v in t[x % nt]])
                 for x in D.elements)
    else:
        n = S.order
        if D.order != n + 1:
            return f"{kind} adjoined to order {n} gives order {D.order}"
        new = [n] * (n + 1) if kind == "zero" else list(range(n + 1))
        pairs = chain(((list(d[i]), list(s[i]) + [new[i]]) for i in S.elements),
                      [(list(d[n]), new)])
    # one row of the defining equation at a time: (got, wanted)
    for x, (got, want) in enumerate(pairs):
        if got != want:
            y = next(y for y, (g, w) in enumerate(zip(got, want)) if g != w)
            return (f"{kind} table of order {D.order} disagrees with its "
                    f"parent at {(x, y)}")
    return None


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
    if w := _raw_derivation_witness("quotient", Q, S, qmap):
        bad.append(w)
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
            if w := _raw_derivation_witness("quotient", Qp, S, idx):
                bad.append(w)
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
    if (g.R, g.L, g.J) != tuple(map(Partition.from_index, (rs, ls, js))):
        bad.append("R, L or J differs from the raw principal ideals")
    raw_order = frozenset(
        (ci, cj) for ci, a in enumerate(map(min, g.J.classes))
        for cj, b in enumerate(map(min, g.J.classes)) if js[a] <= js[b])
    if g.j_order != raw_order:
        bad.append("J-class order differs from the raw recomputation")

    band = _is_subsemigroup(S, E) if E else False
    for s in S.elements:
        for t in S.elements:
            st_ = S.mul(s, t)
            prod = _product_set(S, W[t], W[s])
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

    kmap = {e: _raw_k_class(S, e) for e in sorted(E)}
    for e in kmap:
        if k_class(S, e) != kmap[e]:
            bad.append(f"K_{e} differs from its definition")
        for f in kmap:
            if e < f and kmap[e] & kmap[f]:
                bad.append(f"K_{e} and K_{f} overlap")
    if frozenset().union(*kmap.values()) != frozenset(S.elements):
        bad.append("the K_e sets do not cover S")

    if is_conditionally_completely_regular(S):
        for d in g.D.classes:
            if d & reg:
                if not _is_subsemigroup(S, d) or not is_completely_simple(S, d):
                    bad.append(f"regular D-class {sorted(d)} is not a "
                               "completely simple subsemigroup")
        for s in S.elements:
            for h in g.H.classes:
                if len(h & W[s]) > 1:
                    bad.append(f"H-class {sorted(h)} holds two weak inverses of {s}")
    if _is_subsemigroup(S, reg) and is_completely_simple(S, reg):
        if not _is_ideal(S, reg):
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
        if w := _raw_derivation_witness("restrict", sub, S, elems):
            bad.append(w)
        if E != frozenset(elems[i] for i in idempotents(sub)):
            bad.append("E(S) != E(Base(S))")
    else:
        bad.append("finite semigroup with empty base")
    g = green(S)
    for s in S.elements:
        if s not in base and len(g.J.class_of(s)) != 1:
            bad.append(f"{s} outside the base has a non-singleton J-class")
    if not _is_ideal(S, base):
        bad.append("Base(S) is not an ideal")
    Q, qmap = rees_quotient(S, base)
    if w := _raw_derivation_witness("quotient", Q, S, qmap):
        bad.append(w)
    if not is_grillet_stratified(Q):
        bad.append("S/Base(S) is not Grillet-stratified")
    if S.zero is None:
        S0 = adjoin_zero(S)
        if w := _raw_derivation_witness("zero", S0, S):
            bad.append(w)
        if base_set(S0) != base | {S0.zero}:
            bad.append("Base(S^0) != Base(S) ∪ {0}")
        if is_grillet_stratified(S) != is_grillet_stratified(S0):
            bad.append("S and S^0 disagree on Grillet stratification")
    if _product_set(S, base, base) != base:
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
        if sub_set != _raw_closure(S, gens):
            bad.append(f"closure of {sorted(gens)} is not the raw fixpoint")
        sub, elems = restrict(S, sub_set)
        if w := _raw_derivation_witness("restrict", sub, S, elems):
            bad.append(w)
        if sub.identity is not None and not sub_set <= base:
            bad.append(f"monoid subsemigroup {sorted(sub_set)} escapes the base")

    if _is_subsemigroup(S, reg) and is_completely_simple(S, reg):
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

    # footprints over D and over H give rho too (equivalent definitions)
    if Partition.from_index([_raw_footprint(S, s) for s in S.elements]) != rho:
        bad.append("D-class footprint definition disagrees with rho")
    h_foot = [frozenset(g.H.index_of[x] for x in W[s]) for s in S.elements]
    if Partition.from_index(h_foot) != rho:
        bad.append("H-class footprint definition disagrees with rho")

    no_w = {s for s in S.elements if not W[s]}
    if no_w and not _is_ideal(S, no_w):
        bad.append("{s : W(s) empty} is nonempty but not an ideal")

    # the four verdicts are theorem constants: recompute each on the
    # restricted class, compare, and state the theorems from the recomputation
    for comp in report.components:
        cls = comp.elements
        sub, elems = restrict(S, cls)
        if w := _raw_derivation_witness("restrict", sub, S, elems):
            bad.append(w)
        base = base_set(sub)
        base_lift = frozenset(elems[i] for i in base)
        verdicts = {
            "is_archimedean": _raw_archimedean(S, cls),
            "is_e_dense": next(_raw_e_dense(sub)),
            "completely_simple_base": is_completely_simple(sub, base),
            "finitely_stratified": bool(base_lift),
        }
        for name, value in verdicts.items():
            if getattr(comp, name) != value:
                bad.append(f"component {sorted(cls)}: {name} differs from "
                           "the raw recomputation")
        has_reg = bool(cls & reg)
        if verdicts["is_e_dense"] != has_reg or not has_reg:
            bad.append(f"rho-class {sorted(cls)} breaks the E-dense iff "
                       "regular-element lemma")
        if frozenset(elems[i] for i in regular_elements(sub)) != comp.regular_part:
            bad.append(f"component {sorted(cls)}: regularity inside the class "
                       "differs from regularity in S")
        if not verdicts["is_archimedean"]:
            bad.append(f"component {sorted(cls)} is not Archimedean")
        if not comp.regular_part:
            bad.append(f"component {sorted(cls)} has no regular part")
        if not verdicts["completely_simple_base"]:
            bad.append(f"component {sorted(cls)} has a base that is "
                       "not completely simple")
        if not base_lift:
            bad.append(f"component {sorted(cls)} not finitely stratified")
        if base_lift != comp.regular_part:
            bad.append(f"component {sorted(cls)}: base != regular part")

    for e in sorted(idempotents(S)):
        je = g.J.index_of[e]
        for s in sorted(k_class(S, e)):
            meets = {g.J.index_of[x] for x in W[s]}
            greatest = [o for o in meets
                        if all(g.ideals[o] >> x & 1 for x in W[s])]
            if greatest != [je]:
                bad.append(f"J_e is not the greatest J-class meeting W({s}) "
                           f"for e={e}")

    for s in S.elements:
        loc = dc.weak_inverse_location(S, s)
        alpha = report.quotient_map[s]
        for k, cls in enumerate(rho.classes):
            expected = bool(cls & reg) and report.quotient.mul(k, alpha) == k
            if loc[k] != expected:
                bad.append(f"weak-inverse location of {s} wrong at class {k}")

    if n <= DECOMPOSE_SUITE_CAP:
        for p in _semilattice_congruences(S):
            if all(dc.archimedean(S, cls) for cls in p.classes) and p != rho:
                bad.append(f"second Archimedean semilattice decomposition "
                           f"{p.as_lists()} found (uniqueness fails)")
    return bad


def _semilattice_congruences(S):
    for p in enumerate_congruences(S):
        if semilattice_witness(quotient_by_congruence(S, p)[0]) is None:
            yield p


def check_product_pair(S, T):
    """(SxT)^m = S^m x T^m and the base formula, for one pair."""
    bad = []
    P = direct_product(S, T)
    if w := _raw_derivation_witness("product", P, S, T=T):
        bad.append(w)
    hp = stratify(P).height
    nt = T.order  # (a, b) is a * nt + b in P
    for m in range(1, hp + 2):
        tm = power_set(T, m)
        expected = frozenset(a * nt + b for a in power_set(S, m) for b in tm)
        if power_set(P, m) != expected:
            bad.append(f"(SxT)^{m} != S^{m} x T^{m}")
    expected = frozenset(a * nt + b for a in base_set(S) for b in base_set(T))
    if base_set(P) != expected:
        bad.append("Base(SxT) != Base(S) x Base(T)")
    return bad


def check_semigroup(S):
    """Every per-semigroup check from every suite."""
    return check_core(S) + check_green(S) + check_stratify(S) + check_decompose(S)
