import json

import pytest

from finsemi import (
    base_set,
    classify,
    closure,
    depth,
    direct_product,
    from_table,
    green,
    idempotents,
    is_grillet_stratified,
    is_ideal,
    product_set,
    regular_elements,
    restrict,
    stratify,
    zoo,
)
from finsemi.cli import analysis_bundle
from finsemi.properties import _raw_nilpotency_index
from finsemi.stratify import BASE
from test_golden import FIXTURES, _relabel


class TestStratify:
    def test_monogenic(self, m32):
        rep = stratify(m32)
        assert rep.height == 3
        assert rep.base == {2, 3}
        assert rep.layers == ({0}, {1})
        assert rep.flags == {"grillet_stratified": False,
                             "globally_idempotent": False,
                             "base_equals_reg": True}

    def test_group_trivial_stratification(self, z2):
        rep = stratify(z2)
        assert rep.height == 1
        assert rep.base == {0, 1}
        assert rep.layers == ()
        assert rep.flags["globally_idempotent"]

    def test_powerset_nil(self):
        rep = stratify(zoo.powerset_nilsemigroup(2))
        # bitmask indexing: {} = 0, {1} = 1, {2} = 2, {1,2} = 3
        assert rep.base == {0}
        assert rep.height == 3
        assert rep.layers == ({1, 2}, {3})

    def test_json_contract(self, m32):
        payload = stratify(m32).to_json()
        assert set(payload) == {"base", "layers", "height", "flags"}
        assert set(payload["flags"]) == {"grillet_stratified",
                                         "globally_idempotent",
                                         "base_equals_reg"}
        assert payload["base"] == [2, 3]
        assert payload["layers"] == [[0], [1]]
        assert payload["height"] == 3
        json.dumps(payload)  # serializable


class TestDepth:
    def test_monogenic(self, m32):
        assert depth(m32, 0) == 1
        assert depth(m32, 1) == 2
        assert depth(m32, 2) == BASE == "base"
        assert depth(m32, 3) == "base"

    def test_group(self, z2):
        assert all(depth(z2, s) == "base" for s in z2.elements)

    def test_null(self, n2):
        assert depth(n2, 1) == 1


class TestGrillet:
    def test_null(self, n2):
        assert is_grillet_stratified(n2)

    def test_monogenic_with_kernel_group(self, m32):
        assert not is_grillet_stratified(m32)

    def test_powerset_nil_small(self):
        for k in (1, 2, 3, 4):
            assert is_grillet_stratified(zoo.powerset_nilsemigroup(k))

    def test_zero_free_finite_never(self, z2, t2):
        # judged on S^0; finite zero-free semigroups have a nonempty base
        assert not is_grillet_stratified(z2)
        assert not is_grillet_stratified(t2)


class TestClassify:
    def test_monogenic(self, m32):
        c = classify(m32)
        assert c.height == 3
        assert c.nilpotency_index == 3
        assert c.nil_stratified
        assert not c.globally_idempotent
        assert c.quotient == zoo.monogenic(3, 1)

    def test_group(self, z2):
        c = classify(z2)
        assert c.height == 1 and c.nilpotency_index == 1
        assert c.globally_idempotent
        assert c.quotient.order == 1

    def test_null_square(self, n2):
        c = classify(direct_product(n2, n2))
        assert c.height == 2 and c.nilpotency_index == 2

    def test_builds_no_power_of_the_quotient(self):
        S = zoo.monogenic(100, 100)
        analysis_bundle(S)
        assert "powers" not in classify(S).quotient._cache

    def test_index_oracle_is_the_height_up_to_order4(self):
        tables = 0
        for n in (1, 2, 3, 4):
            for S in zoo.enumerate_associative(n):
                tables += 1
                assert _raw_nilpotency_index(S) == stratify(S).height, S._rows
        assert tables == 3614

    @pytest.mark.parametrize("name,build", FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_index_oracle_is_the_height_on_bench_fixtures(self, name, build):
        S = _relabel(build(), f"oracle:{name}")
        assert _raw_nilpotency_index(S) == stratify(S).height


class TestBaseInvariants:
    """The base lemmas, checked exhaustively at order 3."""

    def test_exhaustive_order3(self):
        for S in zoo.enumerate_associative(3):
            base = base_set(S)
            assert base, "finite semigroup with empty base"
            reg = regular_elements(S)
            E = idempotents(S)
            t = S._rows
            g = green(S)
            for s in S.elements:
                sS = {t[s][x] for x in S.elements}
                Ss = {t[x][s] for x in S.elements}
                SsS = {t[t[x][s]][y] for x in S.elements for y in S.elements}
                if s in sS | Ss | SsS:
                    assert s in base
                if s not in base:
                    assert len(g.J.class_of(s)) == 1
            assert reg <= base
            sub, elems = restrict(S, base)
            assert E == {elems[i] for i in idempotents(sub)}
            assert is_ideal(S, base)
            assert product_set(S, base, base) == base

    def test_monoid_subsemigroups_inside_base(self):
        for S in zoo.enumerate_associative(3):
            base = base_set(S)
            gens_pool = [{a} for a in S.elements]
            gens_pool += [{a, b} for a in S.elements for b in S.elements if a < b]
            gens_pool += [set(S.elements)]
            for gens in gens_pool:
                sub_set = closure(S, gens)
                sub, _ = restrict(S, sub_set)
                if sub.identity is not None:
                    assert sub_set <= base

    def test_quotient_is_grillet_stratified(self):
        from finsemi import rees_quotient
        for S in zoo.enumerate_associative(3):
            Q, _ = rees_quotient(S, base_set(S))
            assert is_grillet_stratified(Q)


def test_semilattice_of_parts_base_union():
    """Assembled strong semilattices: the union of the part bases sits
    inside the base of the whole."""
    Y = zoo.chain_semilattice(2)
    cases = [
        ((zoo.trivial(), zoo.monogenic(2, 1)), {(1, 0): (0, 0)}),
        ((zoo.zero_semigroup(2), zoo.cyclic_group(2)), {(1, 0): (0, 0)}),
        ((zoo.cyclic_group(2), zoo.monogenic(2, 2)), {(1, 0): (0, 1, 0)}),
    ]
    for parts, linking in cases:
        S = zoo.strong_semilattice(Y, parts, linking)
        offset = 0
        union = set()
        for part in parts:
            union |= {offset + x for x in base_set(part)}
            offset += part.order
        assert union <= base_set(S)


def test_absorption_sum_properties():
    from finsemi import isomorphic, rees_quotient, adjoin_zero
    cases = [(zoo.zero_semigroup(2), zoo.trivial()),
             (zoo.trivial(), zoo.trivial()),
             (zoo.monogenic(2, 1), zoo.cyclic_group(2))]
    for R, T in cases:
        S = zoo.absorption_sum(R, T)
        t_part = set(range(R.order, R.order + T.order))
        assert t_part <= base_set(S)
        Q, _ = rees_quotient(S, t_part)
        assert Q == adjoin_zero(R)
        assert isomorphic(Q, adjoin_zero(R))


def test_finite_chain_periodic_e_dense_stratified():
    from finsemi.properties import _raw_e_dense, _raw_periodic
    for S in zoo.enumerate_associative(3):
        assert _raw_periodic(S)
        assert next(_raw_e_dense(S))
        assert base_set(S)


def test_base_equals_reg_when_reg_completely_simple():
    from finsemi import is_completely_simple, is_subsemigroup
    for S in zoo.enumerate_associative(3):
        reg = regular_elements(S)
        if is_subsemigroup(S, reg) and is_completely_simple(S, reg):
            assert base_set(S) == reg
