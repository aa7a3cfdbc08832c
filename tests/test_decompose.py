import dataclasses
import importlib
import json
import random
import tracemalloc
from itertools import combinations

import pytest

from finsemi import (
    Partition,
    Semigroup,
    archimedean,
    direct_product,
    from_table,
    green,
    regular_elements,
    rho_partition,
    verify_rho,
    weak_inverse_location,
    weak_inverses,
    zoo,
)
from finsemi.green import ccr_witness
from finsemi.properties import _raw_archimedean
from finsemi.properties import _raw_footprint as footprint
from finsemi.errors import (
    InternalTheoremViolation,
    NotASubsemigroup,
    NotConditionallyCompletelyRegular,
)


class TestRhoPartition:
    def test_t2(self, t2):
        # oracle: W(const0) = W(const1) = {0,3}; W(id), W(swap) meet both
        # D-classes, so the classes are {constants} and {id, swap}
        assert rho_partition(t2) == Partition([[0, 3], [1, 2]])

    def test_group_single_class(self, z2):
        assert len(rho_partition(z2)) == 1

    def test_monogenic_single_class(self, m32):
        # every element's weak inverses live in the kernel J-class
        for s in m32.elements:
            assert weak_inverses(m32, s) <= {2, 3}
        assert len(rho_partition(m32)) == 1

    def test_rejects_brandt_with_witness(self, b2):
        with pytest.raises(NotConditionallyCompletelyRegular) as e:
            rho_partition(b2)
        h = e.value.h_class
        assert h in ({1}, {2})
        # the witness really is a regular H-class without an idempotent
        assert h & regular_elements(b2)
        assert all(b2.mul(x, x) != x for x in h)


class TestRhoCache:
    def test_second_call_returns_the_cached_partition(self, t2):
        rho = rho_partition(t2)
        assert rho_partition(t2) is rho
        assert rho == rho_partition(Semigroup(t2._rows))
        report = verify_rho(t2)
        assert report.rho is rho
        assert verify_rho(t2).quotient is report.quotient

    def test_non_ccr_raises_the_same_witness_every_call(self, b2):
        witnesses = []
        for _ in range(2):
            with pytest.raises(NotConditionallyCompletelyRegular) as e:
                rho_partition(b2)
            witnesses.append(e.value.h_class)
        assert witnesses[0] == witnesses[1] == ccr_witness(b2)
        assert ccr_witness(b2) is ccr_witness(b2)

    def test_ccr_witness_none_is_cached(self, t2, monkeypatch):
        assert ccr_witness(t2) is None
        green_mod = importlib.import_module("finsemi.green")
        monkeypatch.setattr(green_mod, "green", None)  # a recompute would fail
        assert ccr_witness(t2) is None


class TestVerifyRho:
    def test_t2_report(self, t2):
        rep = verify_rho(t2)
        assert rep.quotient._rows == ((0, 0), (0, 1))  # 2-chain
        assert [sorted(c.elements) for c in rep.components] == [[0, 3], [1, 2]]
        for c in rep.components:
            assert c.is_archimedean and c.is_e_dense
            assert c.completely_simple_base and c.finitely_stratified
            assert c.regular_part == c.elements
        assert rep.quotient_order == {(0, 0), (1, 1), (0, 1)}

    def test_report_keeps_no_order_pairs(self):
        # the stored pairs of the quotient order kept 5.68 MB
        S = zoo.chain_semilattice(300)
        green(S)
        tracemalloc.start()
        try:
            rep = verify_rho(S)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 2 * 2 ** 20
        assert len(rep.quotient_order) == 300 * 301 // 2

    def test_group_trivial_quotient(self, z2):
        rep = verify_rho(z2)
        assert rep.quotient.order == 1
        assert rep.components[0].elements == {0, 1}

    def test_clifford_quotient_matches_structure(self):
        from finsemi import isomorphic
        Y = zoo.chain_semilattice(2)
        C = zoo.clifford(zoo.CliffordData(Y, (zoo.trivial(), zoo.cyclic_group(2)),
                                          {(1, 0): (0, 0)}))
        rep = verify_rho(C)
        assert isomorphic(rep.quotient, Y)
        assert sorted(len(c.elements) for c in rep.components) == [1, 2]

    def test_scans_rho_for_compatibility_once(self, t2, monkeypatch):
        import finsemi
        calls = []
        original = finsemi.core.congruence_witness

        def counted(S, partition):
            calls.append(partition)
            return original(S, partition)

        for name in ("core", "decompose", "properties", "extend"):
            mod = importlib.import_module(f"finsemi.{name}")
            if getattr(mod, "congruence_witness", None) is original:
                monkeypatch.setattr(mod, "congruence_witness", counted)
        rep = verify_rho(t2)
        assert calls == [rep.rho]

    @pytest.mark.parametrize("rows, partition, message", [
        # the 3-chain under min with 0 ~ 2: 0*1 = 0 but 2*1 = 1
        ([[0, 0, 0], [0, 1, 1], [0, 1, 2]], [[0, 2], [1]],
         "rho is not a congruence, witness (0, 2, 1)"),
        ([[0, 1], [1, 0]], [[0], [1]], "S/rho has a non-idempotent element"),
        ([[0, 0], [1, 1]], [[0], [1]], "S/rho is not commutative"),
    ])
    def test_theorem_violations_keep_their_messages(self, monkeypatch, rows,
                                                     partition, message):
        import finsemi.decompose as dc
        S = from_table(len(rows), rows)
        monkeypatch.setattr(dc, "rho_partition",
                            lambda _: Partition(partition, n=S.order))
        with pytest.raises(InternalTheoremViolation) as e:
            verify_rho(S)
        assert str(e.value) == message

    def test_builds_no_restriction_of_a_rho_class(self, t2):
        assert len(rho_partition(t2)) == 2
        rep = verify_rho(t2)
        assert not any(isinstance(k, tuple) and k[0] == "restrict"
                       for k in t2._cache)
        # the verdicts are theorem constants, not constructor fields
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.components[0].is_archimedean = False

    def test_oracle_recomputes_the_constant_verdicts(self, monkeypatch):
        # a corrupted rho making the whole 3-chain one class: the class is
        # neither archimedean nor over a completely simple base (its base is
        # the chain itself), and check_decompose must say so
        import finsemi.decompose as dc
        from finsemi.core import universal_partition
        from finsemi.properties import check_decompose
        S = zoo.chain_semilattice(3)
        monkeypatch.setattr(dc, "_rho", universal_partition)
        bad = check_decompose(S)
        for message in ("component [0, 1, 2]: is_archimedean differs from "
                        "the raw recomputation",
                        "component [0, 1, 2] is not Archimedean",
                        "component [0, 1, 2]: completely_simple_base differs "
                        "from the raw recomputation",
                        "component [0, 1, 2] has a base that is not "
                        "completely simple"):
            assert message in bad

    def test_json_fields(self, t2):
        payload = verify_rho(t2).to_json()
        assert set(payload) == {"rho_classes", "quotient_table", "components",
                                "quotient_order"}
        assert payload["rho_classes"] == [[0, 3], [1, 2]]
        assert payload["quotient_table"] == [[0, 0], [0, 1]]
        json.dumps(payload)


class TestKje:
    def test_t2(self, t2):
        # oracle: K_const0 = {const0}, K_id = {id, swap}, K_const1 = {const1};
        # const0 J const1 glues their K-classes together
        assert rho_partition(t2) == Partition([[0, 3], [1, 2]])

    def test_monogenic(self, m32):
        assert len(rho_partition(m32)) == 1

    def test_group(self, z2):
        assert len(rho_partition(z2)) == 1

    def test_matches_rho_on_ccr(self, t2, z2, m32):
        # the oracle: equal weak-inverse footprints over D
        for S in (t2, z2, m32):
            assert rho_partition(S) == Partition.from_index(
                [footprint(S, s) for s in S.elements])

    def test_matches_footprints_on_large_fixtures(self):
        from test_golden import LARGE_FIXTURES, relabelled
        ccr = []
        for name, S in relabelled(LARGE_FIXTURES):
            ccr.append(ccr_witness(S) is None)
            if ccr[-1]:
                assert rho_partition(S) == Partition.from_index(
                    [footprint(S, s) for s in S.elements]), name
            else:
                with pytest.raises(NotConditionallyCompletelyRegular):
                    rho_partition(S)
        assert ccr == [True, True, True, False]


class TestArchimedean:
    def test_group(self, z2):
        assert archimedean(z2, {0, 1})

    def test_null_whole(self, n2):
        # oracle chase: a^2 = 0 ∈ S·0·S and 0 ∈ S·a·S = {0}
        assert archimedean(n2, {0, 1})

    def test_two_chain_fails(self):
        chain = from_table(2, [[0, 0], [0, 1]])
        assert not archimedean(chain, {0, 1})

    def test_requires_subsemigroup(self, b2):
        with pytest.raises(NotASubsemigroup):
            archimedean(b2, {0, 1})


def _outcome(fn, S, A):
    try:
        return fn(S, A)
    except NotASubsemigroup as e:
        return ("not a subsemigroup", e.witness)


class TestArchimedeanOracle:
    def test_every_subset_up_to_order3(self):
        calls = 0
        for n in (1, 2, 3):
            for S in zoo.enumerate_associative(n):
                for k in range(1, n + 1):
                    for A in combinations(range(n), k):
                        calls += 1
                        assert (_outcome(archimedean, S, A)
                                == _outcome(_raw_archimedean, S, A)), (S._rows, A)
        assert calls == 1 + 8 * 3 + 113 * 7

    def test_whole_semigroup_order4(self):
        """A = S for every order-4 table and 200 seeded order-9 products."""
        for S in zoo.enumerate_associative(4):
            assert archimedean(S, S.elements) == _raw_archimedean(S, S.elements)
        order3 = list(zoo.enumerate_associative(3))
        rng = random.Random(0)
        verdicts = []
        for _ in range(200):
            P = direct_product(rng.choice(order3), rng.choice(order3))
            verdicts.append(archimedean(P, P.elements))
            assert verdicts[-1] == _raw_archimedean(P, P.elements), P._rows
        assert 0 < sum(verdicts) < len(verdicts)

    def test_witness_is_first_pair_in_sorted_order(self, b2):
        # 0*0 and 0*1 stay inside; 0*2 = 4 is the first product outside
        assert _outcome(archimedean, b2, {0, 1, 2, 3}) == (
            "not a subsemigroup", (0, 2))


class TestWeakInverseLocation:
    def test_t2_identity_map(self, t2):
        # oracle: W(id) = {0, 1, 3} meets both classes
        assert weak_inverse_location(t2, 1) == {0: True, 1: True}

    def test_t2_constant(self, t2):
        # W(const0) = {0, 3} only meets the constants class
        assert weak_inverse_location(t2, 0) == {0: True, 1: False}

    def test_group(self, z2):
        assert weak_inverse_location(z2, 1) == {0: True}

    def test_monogenic(self, m32):
        assert weak_inverse_location(m32, 0) == {0: True}


class TestFootprintLemmas:
    def test_rho_compatible_with_squares_and_swaps(self, t2, m32, z2):
        for S in (t2, m32, z2):
            rho = rho_partition(S)
            for s in S.elements:
                assert rho.same(s, S.mul(s, s))
                for t in S.elements:
                    assert rho.same(S.mul(s, t), S.mul(t, s))

    def test_footprint_product_lemma(self, t2, m32):
        for S in (t2, m32):
            for s in S.elements:
                for t in S.elements:
                    assert footprint(S, S.mul(s, t)) == \
                        footprint(S, s) & footprint(S, t)

    def test_rho_equals_d_on_regulars(self, t2, m32):
        for S in (t2, m32):
            rho = rho_partition(S)
            g = green(S)
            reg = regular_elements(S)
            for s in reg:
                for t in reg:
                    assert rho.same(s, t) == g.D.same(s, t)

    def test_greatest_j_class_of_weak_inverses(self, t2, m32):
        from finsemi import idempotents, k_class
        for S in (t2, m32):
            g = green(S)
            for e in idempotents(S):
                je = g.J.index_of[e]
                for s in k_class(S, e):
                    meets = {g.J.index_of[x] for x in weak_inverses(S, s)}
                    assert [o for o in meets
                            if all((x, o) in g.j_order for x in meets)] == [je]


def test_footprint_product_lemma_is_ccr_specific(b2):
    """On the non-CCR Brandt semigroup the product lemma genuinely fails,
    so the CCR precondition is doing real work."""
    s = t = 1        # (1,2)*(1,2) = 0, whose only weak inverse is 0 itself
    lhs = footprint(b2, b2.mul(s, t))
    assert lhs != footprint(b2, s) & footprint(b2, t)
