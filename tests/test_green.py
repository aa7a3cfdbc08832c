import pytest

from finsemi import (
    from_table,
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
    regular_elements,
    weak_inverses,
    zoo,
)
from finsemi.errors import NotASubsemigroup, NotIdempotent
from finsemi.green import _principal_ideals, ccr_witness
from finsemi.properties import (
    _raw_e_dense,
    _raw_eventually_regular,
    _raw_group_bound,
    _raw_periodic,
    _raw_principal_ideals,
)
from test_golden import FIXTURES, _relabel


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
        assert g.D == g.J

    def test_t2_classes(self, t2):
        g = green(t2)
        assert g.D.as_lists() == [[0, 3], [1, 2]]
        assert g.H.as_lists() == [[0], [1, 2], [3]]

    def test_j_order(self, m32):
        g = green(m32)
        assert g.j_leq(3, 0) and not g.j_leq(0, 3)
        assert g.j_leq(2, 1) and g.j_leq(1, 0)


class TestPrincipalIdeals:
    def test_match_raw_loops_on_every_table_up_to_order4(self):
        count = 0
        for n in (1, 2, 3, 4):
            for S in zoo.enumerate_associative(n):
                count += 1
                assert _principal_ideals(S) == _raw_principal_ideals(S), S._rows
        assert count == 3614

    @pytest.mark.parametrize("name,build", FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_match_raw_loops_on_bench_fixtures(self, name, build):
        S = _relabel(build(), f"oracle:{name}")
        assert _principal_ideals(S) == _raw_principal_ideals(S)

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
