import importlib
import random
import tracemalloc

import pytest

from finsemi import (
    Semigroup,
    green,
    idempotents,
    inverses,
    is_clifford,
    is_completely_simple,
    is_conditionally_completely_regular,
    is_subsemigroup,
    is_ideal,
    k_class,
    maximal_subgroup,
    product_set,
    properties,
    regular_elements,
    weak_inverses,
    zoo,
)
from finsemi.errors import (
    InternalTheoremViolation,
    InvalidArgument,
    NotASubsemigroup,
    NotIdempotent,
)
from finsemi.green import _principal_ideals, ccr_witness, is_group
from finsemi.properties import (
    _raw_e_dense,
    _raw_eventually_regular,
    _raw_group_bound,
    _raw_periodic,
    _raw_principal_ideals,
    check_green,
)
from test_golden import FIXTURES, _relabel

# the module, since `finsemi.green` is the function
green_module = importlib.import_module("finsemi.green")


class TestGreenClasses:
    def test_group_single_classes(self, z2):
        g = green(z2)
        for rel in (g.R, g.L, g.H, g.D, g.J):
            assert rel.as_lists() == [[0, 1]]

    def test_brandt_classes(self, b2):
        # oracle (principal-ideal scan on the 5-element table):
        g = green(b2)
        assert g.R.as_lists() == [[0, 1], [2, 3], [4]]
        assert g.L.as_lists() == [[0, 2], [1, 3], [4]]
        assert g.H.as_lists() == [[0], [1], [2], [3], [4]]
        assert g.J.as_lists() == [[0, 1, 2, 3], [4]]
        assert g.D is g.J

    def test_t2_classes(self, t2):
        g = green(t2)
        assert g.D.as_lists() == [[0, 3], [1, 2]]
        assert g.H.as_lists() == [[0], [1, 2], [3]]

    def test_j_order(self, m32):
        g = green(m32)
        assert g.j_leq(3, 0) and not g.j_leq(0, 3)
        assert g.j_leq(2, 1) and g.j_leq(1, 0)

    @pytest.mark.parametrize("s, t, message", [
        (-1, 0, "point -1 is not in [0, 4)"),   # True through a wrapping index
        (5, 0, "point 5 is not in [0, 4)"),     # a bare IndexError
        (0, 4, "point 4 is not in [0, 4)"),
        (0, 0.0, "point = 0.0 is not an integer"),
    ])
    def test_j_leq_names_a_point_outside(self, s, t, message):
        with pytest.raises(InvalidArgument) as e:
            green(zoo.monogenic(3, 2)).j_leq(s, t)
        assert str(e.value) == message


class TestEggBoxCheck:
    @staticmethod
    def literal_d_is_not_j(rs, ls, js):
        """Whether R∘L, L∘R and J, each built as a set of pairs from the
        principal ideals, are not all equal."""
        n = len(rs)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        r_l = {(a, b) for a, b in pairs
               if any(rs[a] == rs[c] and ls[c] == ls[b] for c in range(n))}
        l_r = {(a, b) for a, b in pairs
               if any(ls[a] == ls[c] and rs[c] == rs[b] for c in range(n))}
        j = {(a, b) for a, b in pairs if js[a] == js[b]}
        return not r_l == l_r == j

    def test_raises_exactly_when_d_is_not_j(self, monkeypatch):
        # on every table of order <= 3, replace one element's R-, L- or
        # J-ideal by another element's in every way, then two at a time in
        # five seeded draws
        rng = random.Random(19)
        verdicts = []
        for n in (1, 2, 3):
            for S in zoo.enumerate_associative(n):
                ideals = _principal_ideals(S)
                singles = [(k, a, b) for k in range(3)
                           for a in range(n) for b in range(n) if a != b]
                swaps = [[]] + [[s] for s in singles]
                if singles:
                    swaps += [rng.sample(singles, 2) for _ in range(5)]
                for swap in swaps:
                    bad = [list(t) for t in ideals]
                    for k, a, b in swap:
                        bad[k][a] = bad[k][b]
                    bad = tuple(map(tuple, bad))
                    monkeypatch.setattr(green_module, "_principal_ideals",
                                        lambda _, bad=bad: bad)
                    expected = self.literal_d_is_not_j(*bad)
                    assert swap or not expected
                    if expected:
                        with pytest.raises(InternalTheoremViolation) as e:
                            green_module._green(S)
                        assert str(e.value) == "D != J on a finite semigroup"
                    else:
                        green_module._green(S)
                    verdicts.append(expected)
        assert verdicts.count(True) > 500 and verdicts.count(False) > 500


class TestIsGroup:
    def test_matches_the_definition_on_every_table_up_to_order4(self):
        groups = 0
        for n in (1, 2, 3, 4):
            for S in zoo.enumerate_associative(n):
                t, el = S._rows, range(n)
                ids = [e for e in el
                       if all(t[e][x] == x == t[x][e] for x in el)]
                literal = any(all(any(t[x][y] == e == t[y][x] for y in el)
                                  for x in el) for e in ids)
                assert is_group(S) == literal, t
                groups += literal
        # n!/|Aut G| labellings of each group: 1, 2, 3 and 12 + 4
        assert groups == 1 + 2 + 3 + 16


def decoded_ideals(S):
    """`_principal_ideals(S)` with each int bitset decoded to the frozenset
    of its members, the form `_raw_principal_ideals` returns."""
    n = S.order
    return tuple(tuple(frozenset(x for x in range(n) if m >> x & 1)
                       for m in ideals)
                 for ideals in _principal_ideals(S))


class TestPrincipalIdeals:
    def test_match_raw_loops_on_every_table_up_to_order4(self):
        count = 0
        for n in (1, 2, 3, 4):
            for S in zoo.enumerate_associative(n):
                count += 1
                assert decoded_ideals(S) == _raw_principal_ideals(S), S._rows
        assert count == 3614

    @pytest.mark.parametrize("name,build", FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_match_raw_loops_on_bench_fixtures(self, name, build):
        S = _relabel(build(), f"oracle:{name}")
        assert decoded_ideals(S) == _raw_principal_ideals(S)

    def test_green_memory_is_a_few_bits_per_ideal(self):
        # one frozenset per ideal peaked at 4.3 MB
        S = zoo.monogenic(100, 100)
        tracemalloc.start()
        try:
            green_module._green(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20

    def test_green_keeps_no_j_order_pairs(self):
        # the stored pairs of the J-order peaked at 4.76 MB
        S = zoo.chain_semilattice(300)
        tracemalloc.start()
        try:
            green_module._green(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20

    def test_chain_j_order_is_total(self):
        g = green(zoo.chain_semilattice(6))
        assert g.j_order == {(i, j) for i in range(6) for j in range(i, 6)}


class TestIdempotentsRegulars:
    def test_null(self, n2):
        assert idempotents(n2) == {0}
        assert regular_elements(n2) == {0}

    def test_brandt(self, b2):
        assert idempotents(b2) == {0, 3, 4}
        assert regular_elements(b2) == {0, 1, 2, 3, 4}

    def test_monogenic(self, m32):
        assert idempotents(m32) == {3}
        assert regular_elements(m32) == {2, 3}


class TestWeakInverses:
    def test_group_inverse(self, z2):
        assert weak_inverses(z2, 1) == {1}
        assert inverses(z2, 1) == {1}

    def test_null(self, n2):
        assert weak_inverses(n2, 1) == {0}
        assert inverses(n2, 1) == set()

    def test_brandt(self, b2):
        # the zero is a weak inverse of everything; (2,1) is the true inverse
        assert weak_inverses(b2, 1) == {2, 4}
        assert inverses(b2, 1) == {2}

    def test_w_of_s_equals_reg(self, b2, t2, m32):
        for S in (b2, t2, m32):
            union = frozenset().union(*(weak_inverses(S, s) for s in S.elements))
            assert union == regular_elements(S)


class TestClassPredicates:
    def test_finite_always_periodic_etc(self, b2, t2, m32, n2):
        for S in (b2, t2, m32, n2):
            assert _raw_periodic(S)
            assert _raw_eventually_regular(S)
            assert _raw_group_bound(S)
            assert next(_raw_e_dense(S))

    def test_e_dense_characterizations_agree(self, b2, t2, m32):
        for S in (b2, t2, m32):
            assert len(set(_raw_e_dense(S))) == 1

    def test_ccr(self, b2, t2, z2):
        assert is_conditionally_completely_regular(t2)
        assert is_conditionally_completely_regular(z2)
        assert not is_conditionally_completely_regular(b2)
        assert ccr_witness(b2) in ({1}, {2})

    def test_t3_not_ccr(self):
        assert not is_conditionally_completely_regular(zoo.full_transformations(3))

    def test_completely_simple(self, z2, b2):
        assert is_completely_simple(zoo.rectangular_band(2, 2))
        assert is_completely_simple(z2)
        assert not is_completely_simple(b2)

    def test_completely_simple_subset(self, b2):
        assert is_completely_simple(b2, {0, 1, 2, 3, 4}) is False
        with pytest.raises(NotASubsemigroup):
            is_completely_simple(b2, {0, 1})  # 1*2 escapes {0,1}? 0*1=1, 1*0=4

    def test_clifford(self, z2, b2):
        assert is_clifford(z2)
        assert not is_clifford(b2)
        Y = zoo.chain_semilattice(2)
        C = zoo.clifford(zoo.CliffordData(Y, (zoo.trivial(), zoo.cyclic_group(2)),
                                          {(1, 0): (0, 0)}))
        assert is_clifford(C)
        assert not is_completely_simple(C)  # two J-classes


class TestMaximalSubgroups:
    def test_monogenic_kernel(self, m32):
        assert maximal_subgroup(m32, 3) == {2, 3}
        assert k_class(m32, 3) == {0, 1, 2, 3}

    def test_group(self, z2):
        assert maximal_subgroup(z2, 0) == {0, 1}
        assert k_class(z2, 0) == {0, 1}

    def test_t2_constant(self, t2):
        # 0 = the constant-0 map; its powers stay put
        assert maximal_subgroup(t2, 0) == {0}
        assert k_class(t2, 0) == {0}

    def test_rejects_non_idempotent(self, m32):
        with pytest.raises(NotIdempotent):
            maximal_subgroup(m32, 0)
        with pytest.raises(NotIdempotent):
            k_class(m32, 0)

    def test_k_classes_partition(self, b2, t2, m32):
        for S in (b2, t2, m32):
            seen = set()
            for e in idempotents(S):
                k = k_class(S, e)
                assert not k & seen
                seen |= k
            assert seen == set(S.elements)

    def test_k_class_is_its_definition_up_to_order4(self):
        # K_e = {s : some power p of s has pS^1 = eS^1 and S^1p = S^1e},
        # with the powers s^1..s^n and the ideals read off the raw table
        tables = 0
        for n in (1, 2, 3, 4):
            for T in zoo.enumerate_associative(n):
                tables += 1
                S = Semigroup(T._rows)
                t = S._rows
                right = [{a, *t[a]} for a in range(n)]
                left = [{a, *(t[x][a] for x in range(n))} for a in range(n)]
                for e in idempotents(S):
                    raw = set()
                    for s in range(n):
                        p = s
                        for _ in range(n):
                            if right[p] == right[e] and left[p] == left[e]:
                                raw.add(s)
                                break
                            p = t[p][s]
                    assert k_class(S, e) == raw, (t, e)
                # read off the idempotent powers, not Green's relations
                assert "green" not in S._cache
        assert tables == 3614

    def test_check_green_compares_k_class_with_its_definition(self, m32,
                                                              monkeypatch):
        assert check_green(m32) == []
        monkeypatch.setattr(properties, "k_class", lambda S, e: frozenset({e}))
        assert check_green(m32) == ["K_3 differs from its definition"]


def test_weak_inverse_lemmas_exhaustive_order3():
    """W(st) ⊆ W(t)W(s), the J-order lemma, and ss' L s' R s's, over every
    associative 3-element table."""
    for S in zoo.enumerate_associative(3):
        g = green(S)
        E = idempotents(S)
        W = {s: weak_inverses(S, s) for s in S.elements}
        for s in S.elements:
            for t in S.elements:
                assert W[S.mul(s, t)] <= product_set(S, W[t], W[s])
            for sp in W[s]:
                assert S.mul(s, sp) in E and S.mul(sp, s) in E
                assert g.L.same(S.mul(s, sp), sp)
                assert g.R.same(sp, S.mul(sp, s))
                assert g.j_leq(sp, s)


def test_band_equality_exhaustive_order3():
    for S in zoo.enumerate_associative(3):
        E = idempotents(S)
        if not is_subsemigroup(S, E):
            continue
        W = {s: weak_inverses(S, s) for s in S.elements}
        for s in S.elements:
            for t in S.elements:
                assert W[S.mul(s, t)] == product_set(S, W[t], W[s])


def test_ccr_regular_d_classes_completely_simple(t2, m32):
    for S in (t2, m32):
        g = green(S)
        reg = regular_elements(S)
        for d in g.D.classes:
            if d & reg:
                assert is_completely_simple(S, d)


def test_ccr_h_class_holds_at_most_one_weak_inverse(t2, m32):
    for S in (t2, m32):
        g = green(S)
        for s in S.elements:
            w = weak_inverses(S, s)
            for h in g.H.classes:
                assert len(h & w) <= 1


def test_reg_completely_simple_implies_ideal():
    # monogenic semigroups: Reg is the kernel group, which is an ideal
    for h, r in [(2, 1), (3, 2), (2, 3)]:
        S = zoo.monogenic(h, r)
        reg = regular_elements(S)
        assert is_completely_simple(S, reg)
        assert is_ideal(S, reg)
