"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

Criteria, tolerances, and runtime budgets are pinned here and nowhere else:
  1. order-3 exhaustive sweep, zero violations, < 10 s
  2. order-4 exhaustive sweep + decomposition suite, zero violations, < 300 s
  3. monogenic grid 1 <= h, r <= 6: height == h and |base| == r, 36/36
  4. >= 50 extension round trips, all exact, every built table accepted
     by the checked constructor
  5. negative controls with correct witnesses
  6. CCR iff semilattice of stratified extensions of completely
     simple semigroups, both directions, zero violations
  7. uniqueness of the Archimedean semilattice decomposition at order <= 4
  8. 10,000 seeded uniform order-5 tables, associative survivors clean,
     deterministic, < 120 s
  9. in-process analysis_bundle of rectangular_band(16, 18) (order 288)
     < 1.5 s
 10. in-process Semigroup(rows) of a seeded relabelling of
     monogenic(400, 400) (order 799) < 1.0 s
"""

import random
import time

from finsemi import (
    PartialHom,
    archimedean,
    build_extension,
    canonical_phi,
    classify_extension,
    clifford_decompose,
    enumerate_congruences,
    from_table,
    green,
    idempotents,
    is_completely_simple,
    is_conditionally_completely_regular,
    quotient_by_congruence,
    recover_partial_hom,
    regular_elements,
    restrict,
    rho_partition,
    stratify,
    Semigroup,
    verify_rho,
    zoo,
)
from finsemi.errors import (
    NonAssociative,
    NotConditionallyCompletelyRegular,
    NotWeaklyReductive,
)
from finsemi.properties import (
    check_core,
    check_product_pair,
    check_semigroup,
    check_stratify,
    _raw_group_bound,
)
from finsemi.cli import analysis_bundle
from extension_triples import triples


def _report(name, violations, detail=""):
    ok = not violations
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, f"{name}: {violations[:10]}"


def test_criterion_1_order3_exhaustive():
    t0 = time.time()
    bad = []
    tables = list(zoo.enumerate_associative(3))
    assert len(tables) == 113
    for S in tables:
        bad += check_core(S)
        bad += check_stratify(S)
    for A in tables:
        for B in tables:
            bad += check_product_pair(A, B)
    elapsed = time.time() - t0
    if elapsed >= 10:
        bad.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report("criterion 1: exhaustive order-3 verification", bad,
            f"113 tables + {113 * 113} products in {elapsed:.1f}s")


def test_criterion_2_order4_full_suite():
    t0 = time.time()
    bad = []
    count = ccr_count = 0
    for S in zoo.enumerate_associative(4):
        count += 1
        if is_conditionally_completely_regular(S):
            ccr_count += 1
        bad += check_semigroup(S)
    assert count == 3492
    reps = list(zoo.enumerate_associative(4, dedup="iso+anti"))
    for A in reps:
        for B in reps:
            bad += check_product_pair(A, B)
    elapsed = time.time() - t0
    if elapsed >= 300:
        bad.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _report("criterion 2: order-4 verification incl. decomposition suite", bad,
            f"{count} tables ({ccr_count} CCR), {len(reps)}^2 rep products, "
            f"{elapsed:.1f}s")


def test_criterion_3_monogenic_grid():
    bad = []
    for h in range(1, 7):
        for r in range(1, 7):
            rep = stratify(zoo.monogenic(h, r))
            if rep.height != h or len(rep.base) != r:
                bad.append(f"monogenic({h},{r}): height {rep.height}, "
                           f"|base| {len(rep.base)}")
    _report("criterion 3: monogenic grid 36/36 exact", bad)


def _unchecked_build_problems(where, *witnesses):
    """build_extension skips the associativity check by Clifford's
    theorem; the checked constructor must accept every table it built."""
    bad = []
    for w in witnesses:
        try:
            Semigroup(w.sigma._rows)
        except NonAssociative as e:
            bad.append(f"order-{w.sigma.order} extension {where} is not "
                       f"associative at {e.triple}")
    return bad


def test_criterion_4_extension_round_trips():
    bad = []
    pool = triples(per_pair=4)
    for S, T, mapping in pool:
        phi = PartialHom(T, S, mapping)
        w = build_extension(phi)
        bad += _unchecked_build_problems(f"for {mapping}", w)
        if classify_extension(w.sigma, w.ideal).kind != "strict":
            bad.append(f"built extension not strict for {mapping}")
            continue
        if recover_partial_hom(w.sigma, w.ideal) != phi:
            bad.append(f"recover(build(phi)) != phi for {mapping}")
            continue
        dec = clifford_decompose(w.sigma, w.ideal)
        g = green(restrict(w.sigma, w.ideal)[0])
        groups = [frozenset(cls) for cls in g.J.classes]
        ns = len(w.ideal)
        predicted = set()
        for grp in groups:
            outside = frozenset(ns + i for i, (x, v) in
                                enumerate(sorted(mapping.items())) if v in grp)
            predicted.add((grp | outside, grp))
        if set(dec.component_sets()) != predicted:
            bad.append(f"components differ from the phi prediction for {mapping}")
            continue
        rebuilt = build_extension(canonical_phi(w.sigma, dec.component_sets()))
        bad += _unchecked_build_problems(f"rebuilt for {mapping}", rebuilt)
        if rebuilt.sigma._rows != w.sigma._rows:
            bad.append(f"canonical phi rebuild differs for {mapping}")

    pm_count = 0
    for n in (1, 2):
        for m in (1, 2, 3):
            picks_grid = [None]
            if n == 1 or m <= 2:
                picks_grid.append([0] * n)   # generator picks stay lawful here
            for picks in picks_grid:
                w = zoo.partial_map_extension(
                    n, m, [zoo.cyclic_group(2)] * n, picks=picks)
                pm_count += 1
                phi = recover_partial_hom(w.sigma, w.ideal)
                again = build_extension(phi)
                if again.sigma._rows != w.sigma._rows:
                    bad.append(f"partial-map rebuild differs at n={n}, m={m}")
                dec = clifford_decompose(w.sigma, w.ideal)
                if len(dec.components) != 2 ** n:
                    bad.append(f"partial-map components != 2^{n} at n={n}, m={m}")
                rebuilt = build_extension(
                    canonical_phi(w.sigma, dec.component_sets()))
                bad += _unchecked_build_problems(
                    f"at n={n}, m={m}", w, again, rebuilt)
                if rebuilt.sigma._rows != w.sigma._rows:
                    bad.append(f"partial-map canonical rebuild differs "
                               f"at n={n}, m={m}")
    total = len(pool) + pm_count
    if total < 50:
        bad.append(f"only {total} triples generated")
    _report("criterion 4: extension round trips exact", bad,
            f"{len(pool)} generated triples + {pm_count} partial-map builds")


def test_criterion_5_negative_controls():
    bad = []
    b2 = zoo.brandt_b2()
    try:
        rho_partition(b2)
        bad.append("rho_partition accepted the Brandt semigroup")
    except NotConditionallyCompletelyRegular as e:
        h = e.h_class
        reg = regular_elements(b2)
        ids = idempotents(b2)
        if not (h & reg and not h & ids and h in ({1}, {2})):
            bad.append(f"wrong witness H-class {sorted(h)}")

    sigma = zoo.zero_semigroup(4)
    ideal = {0, 1, 2}
    try:
        recover_partial_hom(sigma, ideal)
        bad.append("recover_partial_hom accepted a zero-semigroup ideal")
    except NotWeaklyReductive as e:
        a, b = e.pair
        t = sigma._rows
        if not (a != b and a in ideal and b in ideal
                and all(t[a][x] == t[b][x] and t[x][a] == t[x][b]
                        for x in sorted(ideal))):
            bad.append(f"wrong interchangeable witness {e.pair}")
    _report("criterion 5: negative controls with correct witnesses", bad)


def _component_is_valid(S, cls):
    sub, elems = restrict(S, cls)
    rep = stratify(sub)
    reg_inside = frozenset(elems[i] for i in regular_elements(sub))
    base_lift = frozenset(elems[i] for i in rep.base)
    return (bool(rep.base)
            and is_completely_simple(sub, rep.base)
            and base_lift == reg_inside)


def test_criterion_6_ccr_structure_equivalence():
    bad = []
    forward = 0
    for n in (1, 2, 3, 4):
        for S in zoo.enumerate_associative(n):
            if not is_conditionally_completely_regular(S):
                continue
            forward += 1
            report = verify_rho(S)
            for comp in report.components:
                if not _component_is_valid(S, comp.elements):
                    bad.append(f"component {sorted(comp.elements)} of "
                               f"{S._rows} is not a stratified extension "
                               "of its regular part")

    # converse: assembled semilattices of valid components are CCR
    def const_link(src, dst):
        e = min(idempotents(dst))
        return tuple(e for _ in range(src.order))

    parts_pool = [zoo.trivial(), zoo.cyclic_group(2), zoo.cyclic_group(3),
                  zoo.monogenic(2, 1), zoo.monogenic(3, 2), zoo.monogenic(2, 2),
                  zoo.rectangular_band(2, 2), zoo.zero_semigroup(3)]
    assembled = 0
    chain2 = zoo.chain_semilattice(2)
    chain3 = zoo.chain_semilattice(3)
    bowtie = from_table(3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    for i, top in enumerate(parts_pool):
        for bottom in parts_pool[:i + 1]:
            S = zoo.strong_semilattice(chain2, (bottom, top),
                                       {(1, 0): const_link(top, bottom)})
            assembled += 1
            if not is_conditionally_completely_regular(S):
                bad.append(f"2-chain assembly of orders "
                           f"({bottom.order},{top.order}) is not CCR")
    for a, b, c in [(0, 1, 4), (2, 3, 5), (6, 7, 1)]:
        pa, pb, pc = parts_pool[a], parts_pool[b], parts_pool[c]
        S = zoo.strong_semilattice(
            chain3, (pa, pb, pc),
            {(1, 0): const_link(pb, pa), (2, 1): const_link(pc, pb),
             (2, 0): const_link(pc, pa)})
        assembled += 1
        if not is_conditionally_completely_regular(S):
            bad.append(f"3-chain assembly {(a, b, c)} is not CCR")
        S = zoo.strong_semilattice(
            bowtie, (pa, pb, pc),
            {(1, 0): const_link(pb, pa), (2, 0): const_link(pc, pa)})
        assembled += 1
        if not is_conditionally_completely_regular(S):
            bad.append(f"bowtie assembly {(a, b, c)} is not CCR")
    _report("criterion 6: CCR structure equivalence both directions", bad,
            f"{forward} CCR tables forward, {assembled} assemblies back")


def test_criterion_7_uniqueness():
    bad = []
    checked = 0
    for n in (1, 2, 3, 4):
        for S in zoo.enumerate_associative(n):
            if not (is_conditionally_completely_regular(S)
                    and _raw_group_bound(S)):
                continue
            checked += 1
            rho = rho_partition(S)
            qualifying = []
            for p in enumerate_congruences(S):
                Q, _ = quotient_by_congruence(S, p)
                t = Q._rows
                if not all(t[a][a] == a and t[a][b] == t[b][a]
                           for a in Q.elements for b in Q.elements):
                    continue
                if all(archimedean(S, cls) for cls in p.classes):
                    qualifying.append(p)
            if qualifying != [rho]:
                bad.append(f"{S._rows}: qualifying congruences "
                           f"{[q.as_lists() for q in qualifying]}")
    _report("criterion 7: Archimedean decomposition uniqueness", bad,
            f"{checked} group-bound CCR tables")


def test_criterion_8_order5_smoke():
    t0 = time.time()
    bad = []
    seed = 20230815
    survivors = zoo.sample_associative(5, 10000, seed=seed)
    again = zoo.sample_associative(5, 10000, seed=seed)
    if [S._rows for S in survivors] != [T._rows for T in again]:
        bad.append("sampling is not deterministic under a fixed seed")
    for S in survivors:
        bad += check_core(S)
        bad += check_stratify(S)
    elapsed = time.time() - t0
    if elapsed >= 120:
        bad.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report("criterion 8: order-5 uniform smoke", bad,
            f"{len(survivors)} associative of 10000 sampled, {elapsed:.1f}s")


def test_criterion_9_order288_analysis_budget():
    bad = []
    S = zoo.rectangular_band(16, 18)
    t0 = time.time()
    bundle = analysis_bundle(S)
    elapsed = time.time() - t0
    if elapsed >= 1.5:
        bad.append(f"runtime {elapsed:.2f}s exceeds 1.5s")
    if len(bundle["green"]["D"]) != 1 or len(bundle["green"]["H"]) != 288:
        bad.append("rectangular_band(16, 18) is not one D-class of "
                   "singleton H-classes")
    _report("criterion 9: order-288 analysis budget", bad, f"{elapsed:.2f}s")


def test_criterion_10_order799_construction_budget():
    bad = []
    S = zoo.monogenic(400, 400)
    n = S.order
    perm = list(range(n))
    random.Random(10).shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[perm[a]][perm[b]] = perm[S.mul(a, b)]
    t0 = time.time()
    T = Semigroup(rows)
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s exceeds 1.0s")
    if T.zero is not None or T.identity is not None:
        bad.append("monogenic(400, 400) has neither zero nor identity")
    _report("criterion 10: order-799 construction budget", bad,
            f"{elapsed:.2f}s")
