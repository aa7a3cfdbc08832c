from itertools import product

import numpy as np
import pytest

from finsemi import (
    PartialHom,
    Partition,
    adjoin_identity,
    build_extension,
    canonical_phi,
    classify_extension,
    clifford_decompose,
    from_table,
    recover_partial_hom,
    rees_quotient,
    rho_partition,
    verify_rho,
    zoo,
)
from finsemi import core, extend, green, idempotents, is_clifford
from finsemi.green import _idempotent_power
from finsemi.errors import (
    GroupUnionNotIdeal,
    InternalTheoremViolation,
    InvalidArgument,
    LawViolation,
    NoZeroInSource,
    NotAnIdeal,
    NotASubsemigroup,
    NotClifford,
    NotStrict,
    NotWeaklyReductive,
)
from extension_triples import clifford_fixtures, partial_hom_maps, t_fixtures, triples

T_A0 = [[1, 1], [1, 1]]                      # {A, 0}
T_NIL3 = [[1, 2, 2], [2, 2, 2], [2, 2, 2]]   # {A, A^2, 0}


def clifford_z2_over_trivial():
    Y = zoo.chain_semilattice(2)
    return zoo.clifford(zoo.CliffordData(Y, (zoo.trivial(), zoo.cyclic_group(2)),
                                         {(1, 0): (0, 0)}))


class TestValidatePartialHom:
    def test_vacuous_law(self, z2):
        T = from_table(2, T_A0)
        phi = PartialHom(T, z2, {0: 1})
        assert phi.mapping == {0: 1}

    def test_single_law_instance(self, z2):
        # A*A = A^2 != 0 forces map(A^2) = map(A)^2 = e
        T = from_table(3, T_NIL3)
        phi = PartialHom(T, z2, {0: 1, 1: 0})
        assert phi.mapping == {0: 1, 1: 0}

    def test_law_violation(self, z2):
        T = from_table(3, T_NIL3)
        with pytest.raises(LawViolation) as e:
            PartialHom(T, z2, {0: 1, 1: 1})
        assert e.value.pair == (0, 0)

    def test_no_zero(self, z2):
        with pytest.raises(NoZeroInSource):
            PartialHom(z2, z2, {0: 0})

    def test_domain_checked(self, z2):
        T = from_table(2, T_A0)
        with pytest.raises(ValueError):
            PartialHom(T, z2, {})
        with pytest.raises(ValueError):
            PartialHom(T, z2, {0: 1, 1: 1})

    @pytest.mark.parametrize("t_rows, mapping, message", [
        (T_A0, [1, 0], "mapping = [1, 0] is not a mapping"),
        (T_A0, {0: None}, "mapping[0] = None is not an integer"),
        (T_NIL3, {0: 1, 1.0: 0}, "mapping key = 1.0 is not an integer"),
        (T_NIL3, {0: "1", 1: 0}, "mapping[0] = '1' is not an integer"),
        (T_NIL3, {0: 1.0, "1": 0}, "mapping[0] = 1.0 is not an integer"),
    ], ids=["list", "none", "float-key", "str-value", "first-bad-entry"])
    def test_entries_must_be_integers(self, z2, t_rows, mapping, message):
        T = from_table(len(t_rows), t_rows)
        with pytest.raises(InvalidArgument) as e:
            PartialHom(T, z2, mapping)
        assert str(e.value) == message

    @pytest.mark.parametrize("mapping", [[1, 0], [(0, 1)], 5])
    def test_partial_hom_needs_a_mapping(self, z2, mapping):
        T = from_table(2, T_A0)
        with pytest.raises(InvalidArgument) as e:
            PartialHom(T, z2, mapping)
        assert str(e.value) == f"mapping = {mapping!r} is not a mapping"

    def test_mapping_is_read_only(self, z2):
        phi = PartialHom(from_table(2, T_A0), z2, {0: 1})
        with pytest.raises(TypeError):
            phi.mapping[0] = 0
        assert phi.mapping == {0: 1}

    def test_numpy_integers_pass(self, z2):
        T = from_table(3, T_NIL3)
        phi = PartialHom(T, z2, {np.int64(0): np.uint8(1),
                                           np.int32(1): np.int64(0)})
        assert phi.mapping == {0: 1, 1: 0}
        assert all(type(x) is int for kv in phi.mapping.items() for x in kv)


class TestBuildExtension:
    def test_order3_fixture(self, z2):
        # S = Z2 (e=0, g=1), T = {A, 0}, A -> g
        T = from_table(2, T_A0)
        w = build_extension(PartialHom(T, z2, {0: 1}))
        assert w.sigma.order == 3
        assert w.ideal == {0, 1}
        # A*A = g*g = e, A*e = g, A*g = e
        assert w.sigma.mul(2, 2) == 0
        assert w.sigma.mul(2, 0) == 1
        assert w.sigma.mul(2, 1) == 0

    def test_trivial_group_target(self):
        T = from_table(3, T_NIL3)
        triv = zoo.trivial()
        w = build_extension(PartialHom(T, triv, {0: 0, 1: 0}))
        assert w.sigma.order == 3
        # the zero of T became the group identity; everything else is T's table
        Q, _ = rees_quotient(w.sigma, w.ideal)
        assert Q == T

    def test_source_without_zero_rejected(self, z2):
        # built, this map would give a bogus order-4 table; it is refused
        # when the PartialHom is made
        with pytest.raises(NoZeroInSource):
            PartialHom(z2, z2, {0: 0, 1: 1})

    def test_law_checked_when_made(self, z2):
        T = from_table(3, T_NIL3)
        with pytest.raises(LawViolation) as e:
            PartialHom(T, z2, {0: 1, 1: 1})
        assert e.value.pair == (0, 0)

    def test_builds_without_a_law_check(self, z2, monkeypatch):
        T = from_table(3, T_NIL3)
        phi = PartialHom(T, z2, {0: 1, 1: 0})
        rows = build_extension(phi).sigma._rows

        def refuse(self):
            raise AssertionError("law checked again")

        monkeypatch.setattr(PartialHom, "__post_init__", refuse)
        assert build_extension(phi).sigma._rows == rows

    def test_always_strict(self, z2):
        for T_rows in (T_A0, T_NIL3):
            T = from_table(len(T_rows), T_rows)
            for mapping in partial_hom_maps(T, z2):
                w = build_extension(PartialHom(T, z2, mapping))
                assert classify_extension(w.sigma, w.ideal).kind == "strict"


class TestClassifyExtension:
    def test_pure_adjoined_identity(self):
        lz = zoo.rectangular_band(2, 1)    # left-zero semigroup of order 2
        sigma = adjoin_identity(lz)
        cls = classify_extension(sigma, {0, 1})
        assert cls.kind == "pure"
        assert cls.per_element == {2: False}

    def test_null_over_zero_is_strict(self, n2):
        cls = classify_extension(n2, {0})
        assert cls.kind == "strict"

    def test_neither(self):
        # one outside element squashes to the zero like every ideal element
        # does, the other acts as a partial identity like no ideal element
        rows = [[0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 1, 0, 3]]
        sigma = from_table(4, rows)
        cls = classify_extension(sigma, {0, 1})
        assert cls.kind == "neither"
        assert cls.per_element == {2: True, 3: False}

    def test_requires_ideal(self, z2):
        with pytest.raises(NotAnIdeal):
            classify_extension(z2, {0})


class TestRecover:
    def test_round_trip_small(self, z2):
        T = from_table(2, T_A0)
        phi = PartialHom(T, z2, {0: 1})
        w = build_extension(phi)
        assert recover_partial_hom(w.sigma, w.ideal) == phi

    def test_clifford_ideal_always_recoverable(self):
        C = clifford_z2_over_trivial()
        T = from_table(2, T_A0)
        for mapping in partial_hom_maps(T, C):
            w = build_extension(PartialHom(T, C, mapping))
            phi = recover_partial_hom(w.sigma, w.ideal)
            assert phi.mapping == mapping

    def test_not_strict(self):
        lz = zoo.rectangular_band(2, 1)
        sigma = adjoin_identity(lz)
        with pytest.raises(NotStrict) as e:
            recover_partial_hom(sigma, {0, 1})
        assert e.value.element == 2

    def test_each_action_computed_once(self, monkeypatch):
        calls = []
        actions = extend._actions

        def counting_actions(S, members):
            out = actions(S, members)
            calls.extend(out)
            return out

        monkeypatch.setattr(extend, "_actions", counting_actions)
        C = clifford_z2_over_trivial()
        T = from_table(3, T_NIL3)
        for mapping in partial_hom_maps(T, C):
            w = build_extension(PartialHom(T, C, mapping))
            calls.clear()
            # the three analyses of one extension share one reading
            assert classify_extension(w.sigma, w.ideal).kind == "strict"
            assert recover_partial_hom(w.sigma, w.ideal).mapping == mapping
            assert len(clifford_decompose(w.sigma, w.ideal).components) == 2
            assert sorted(calls) == list(w.sigma.elements)

    def test_a_failure_is_the_same_on_every_call(self, z2):
        not_strict = adjoin_identity(zoo.rectangular_band(2, 1))
        not_reductive = zoo.zero_semigroup(4)
        for _ in range(2):
            with pytest.raises(NotStrict) as e:
                recover_partial_hom(not_strict, {0, 1})
            assert e.value.element == 2
            with pytest.raises(NotWeaklyReductive) as e:
                recover_partial_hom(not_reductive, {0, 1, 2})
            assert e.value.pair == (0, 1)
        with pytest.raises(NotAnIdeal):
            classify_extension(z2, {0})
        assert not any(k[0] == "extension" for k in z2._cache
                       if isinstance(k, tuple))

    def test_the_alike_witness_is_interchangeable_pair(self):
        """With the whole semigroup as its ideal, recover_partial_hom fails
        exactly on the tables with an interchangeable pair, naming it."""
        failed = 0
        for n in range(1, 5):
            for S in zoo.enumerate_associative(n):
                pair = core.interchangeable_pair(S)
                if pair is None:
                    recover_partial_hom(S, S.elements)
                    continue
                with pytest.raises(NotWeaklyReductive) as e:
                    recover_partial_hom(S, S.elements)
                assert e.value.pair == pair
                failed += 1
        assert failed == 1359    # of the 1 + 8 + 113 + 3492 labelled tables

    def test_not_an_ideal(self, z2):
        with pytest.raises(NotAnIdeal) as e:
            recover_partial_hom(z2, {0})
        assert e.value.witness == (1, 0)    # 1*0 = 1 escapes {0}

    def test_not_weakly_reductive_with_witness(self):
        sigma = zoo.zero_semigroup(4)
        ideal = {0, 1, 2}
        assert classify_extension(sigma, ideal).kind == "strict"
        with pytest.raises(NotWeaklyReductive) as e:
            recover_partial_hom(sigma, ideal)
        assert e.value.pair == (0, 1)   # the first two in sorted order
        a, b = e.value.pair
        assert a in ideal and b in ideal and a != b
        assert all(sigma.mul(a, x) == sigma.mul(b, x)
                   and sigma.mul(x, a) == sigma.mul(x, b)
                   for x in sorted(ideal))


class TestCliffordDecompose:
    def test_tilde_is_scanned_once(self, monkeypatch):
        scans = []
        witness = core.congruence_witness

        def counting(S, partition):
            scans.append((S, partition))
            return witness(S, partition)

        monkeypatch.setattr(core, "congruence_witness", counting)
        C = clifford_z2_over_trivial()
        T = from_table(2, T_A0)
        for mapping in partial_hom_maps(T, C):
            w = build_extension(PartialHom(T, C, mapping))
            sigma = w.sigma
            scans.clear()
            dec = clifford_decompose(sigma, w.ideal)
            tilde = Partition([sa for _, sa, _ in dec.components],
                              n=sigma.order)
            assert [p for S, p in scans if S is sigma] == [tilde]

    def test_tilde_not_a_congruence_is_a_theorem_violation(self, monkeypatch):
        C = clifford_z2_over_trivial()
        T = from_table(2, T_A0)
        w = build_extension(PartialHom(T, C, {0: 1}))
        sigma = w.sigma
        witness = core.congruence_witness
        monkeypatch.setattr(
            core, "congruence_witness",
            lambda S, p: (1, 2, 3) if S is sigma else witness(S, p))
        with pytest.raises(InternalTheoremViolation) as e:
            clifford_decompose(sigma, w.ideal)
        assert str(e.value) == "~ is not a congruence, witness (1, 2, 3)"

    def test_order4_fixture(self):
        C = clifford_z2_over_trivial()       # 0 = f, 1 = g, 2 = e
        T = from_table(2, T_A0, labels=["A", "0"])
        w = build_extension(PartialHom(T, C, {0: 1}))
        dec = clifford_decompose(w.sigma, w.ideal)
        comp = {(sa, ga) for _, sa, ga in dec.components}
        assert comp == {(frozenset({1, 2, 3}), frozenset({1, 2})),
                        (frozenset({0}), frozenset({0}))}
        assert dec.quotient._rows == ((0, 0), (0, 1))

    def test_trivial_t_components_are_groups(self):
        C = clifford_z2_over_trivial()
        dec = clifford_decompose(C, set(C.elements))
        assert {ga for _, _, ga in dec.components} == {frozenset({0}),
                                                       frozenset({1, 2})}
        assert {sa for _, sa, _ in dec.components} == {frozenset({0}),
                                                       frozenset({1, 2})}

    def test_more_components_than_the_isomorphism_cap(self):
        chain = zoo.chain_semilattice(13)
        w = build_extension(PartialHom(
            zoo.zero_semigroup(2), zoo.chain_semilattice(20), {1: 5}))
        for sigma, ideal, k in ((chain, set(chain.elements), 13),
                                (w.sigma, w.ideal, 20)):
            assert k > 12  # the order cap find_isomorphism once had
            dec = clifford_decompose(sigma, ideal)
            assert len(dec.components) == k
            rebuilt = build_extension(canonical_phi(sigma,
                                                    dec.component_sets()))
            assert rebuilt.sigma._rows == sigma._rows

    def test_quotient_not_a_semilattice_is_a_theorem_violation(
            self, monkeypatch):
        import finsemi.decompose as dc
        C = clifford_z2_over_trivial()
        quotient = dc.quotient_by_congruence

        def z2_quotient(S, p):           # Sigma/~, made a group
            _, index_of = quotient(S, p)
            return from_table(2, [[0, 1], [1, 0]]), index_of

        monkeypatch.setattr(dc, "quotient_by_congruence", z2_quotient)
        with pytest.raises(InternalTheoremViolation) as e:
            clifford_decompose(C, set(C.elements))
        assert str(e.value) == "Sigma/~ has a non-idempotent element"

    def test_groups_are_ideals_and_the_quotient_is_y(self):
        """What the theorem settles, recomputed by raw loops: each g_alpha
        is a two-sided ideal of its sigma_alpha, the quotient is the table
        of the classes' products, and class k -> the J-class of its group
        is a bijective homomorphism onto Y = I/J."""
        from test_zoo_golden import cases
        inputs = [(w.sigma, w.ideal) for w in (
            build_extension(PartialHom(T, S, mapping))
            for S, T, mapping in triples())]
        inputs += [(S, S.elements) for name, S in cases()
                   if name.startswith("clifford")]
        for n, m in product((1, 2), (1, 2, 3)):   # criterion 4's grid
            for picks in [None] + ([[0] * n] if n == 1 or m <= 2 else []):
                w = zoo.partial_map_extension(n, m, [zoo.cyclic_group(2)] * n,
                                              picks=picks)
                inputs.append((w.sigma, w.ideal))
        assert len(inputs) > 150
        for sigma, ideal in inputs:
            dec = clifford_decompose(sigma, ideal)
            Q, comps = dec.quotient, dec.components
            assert [k for k, _, _ in comps] == list(Q.elements)
            for k, sa, ga in comps:
                assert all(dec.quotient_map[x] == k for x in sa)
                for x in sa:
                    for g in ga:
                        assert sigma.mul(x, g) in ga and sigma.mul(g, x) in ga
            for (k, sk, _), (l, sl, _) in product(comps, comps):
                kl = comps[Q.mul(k, l)][1]
                assert all(sigma.mul(x, y) in kl for x in sk for y in sl)

            sub, elems = core.restrict(sigma, ideal)
            J = green(sub).J
            Y, _ = core.quotient_by_congruence(sub, J)
            pos = {x: i for i, x in enumerate(elems)}
            alpha = [J.index_of[pos[min(ga)]] for _, _, ga in comps]
            assert sorted(alpha) == list(Y.elements)
            for k, _, ga in comps:
                assert {pos[x] for x in ga} == J.classes[alpha[k]]
            for k, l in product(Q.elements, repeat=2):
                assert alpha[Q.mul(k, l)] == Y.mul(alpha[k], alpha[l])

    def test_rho_is_tilde_exactly_over_a_nil_t(self):
        """The decomposition both ways: when T is nil, Sigma's rho partition
        is ~ and verify_rho's quotient is Sigma/~; when T holds an
        idempotent E besides its zero, rho is strictly finer and E is its
        own rho-class."""
        nil = not_nil = 0
        for S, T, mapping in triples():
            w = build_extension(PartialHom(T, S, mapping))
            sigma = w.sigma
            dec = clifford_decompose(sigma, w.ideal)
            tilde = Partition([sa for _, sa, _ in dec.components],
                              n=sigma.order)
            rho = rho_partition(sigma)
            outside = [x for x in T.elements if x != T.zero]
            E = [S.order + outside.index(e) for e in idempotents(T) - {T.zero}]
            if not E:
                nil += 1
                assert rho == tilde
                assert verify_rho(sigma).quotient._rows == dec.quotient._rows
            else:
                not_nil += 1
                assert rho != tilde
                assert all(rho.class_of(x) <= tilde.class_of(x)
                           for x in sigma.elements)
                assert all(rho.class_of(e) == {e} for e in E)
        assert (nil, not_nil) == (93, 12)

    def test_builds_no_restriction_of_a_component(self):
        C = clifford_z2_over_trivial()
        T = from_table(2, T_A0)
        sigma = build_extension(PartialHom(T, C, {0: 1})).sigma
        dec = clifford_decompose(sigma, set(C.elements))
        classes = {sa for _, sa, _ in dec.components}
        assert classes == {frozenset({0}), frozenset({1, 2, 3})}
        assert not any(isinstance(k, tuple) and k[0] == "restrict"
                       and k[1] in classes for k in sigma._cache)

    def test_reads_the_twins_off_the_actions(self, monkeypatch):
        """No partial homomorphism, Rees quotient or interchangeable-pair
        scan: each outside element joins its twin's component."""
        def refuse(*args):
            raise AssertionError("called")

        for module, name in ((extend, "recover_partial_hom"),
                             (extend, "rees_quotient"),
                             (core, "rees_quotient"),
                             (core, "interchangeable_pair")):
            monkeypatch.setattr(module, name, refuse)
        assert not hasattr(extend, "interchangeable_pair")
        C = clifford_z2_over_trivial()
        T = from_table(2, T_A0)
        sigma = build_extension(PartialHom(T, C, {0: 1})).sigma
        dec = clifford_decompose(sigma, set(C.elements))
        assert {sa for _, sa, _ in dec.components} == {frozenset({0}),
                                                       frozenset({1, 2, 3})}
        assert not any(isinstance(k, tuple) and k[0] == "rees"
                       for k in sigma._cache)

    def test_builds_no_green_structure_of_the_ideal(self):
        C = clifford_z2_over_trivial()
        sigma = build_extension(PartialHom(from_table(2, T_A0), C,
                                           {0: 1})).sigma
        clifford_decompose(sigma, set(C.elements))
        sub, _ = core.restrict(sigma, set(C.elements))
        assert sub._cache and "green" not in sub._cache

    def test_idempotent_powers_name_the_groups(self):
        """On a Clifford ideal the partition by idempotent power is green's
        J: the same classes in the same order."""
        from test_zoo_golden import cases
        ideals = [core.restrict(w.sigma, w.ideal)[0] for w in (
            build_extension(PartialHom(T, S, mapping))
            for S, T, mapping in triples())]
        ideals += [S for name, S in cases() if name.startswith("clifford")]
        assert len(ideals) > 100 and all(map(is_clifford, ideals))
        for sub in ideals:
            assert Partition.from_index([_idempotent_power(sub, x)
                                         for x in sub.elements]) == green(sub).J

    @pytest.mark.parametrize("members", [[0, 3, 4, 7], [1, 2, 6], [5]],
                             ids=["scattered", "scattered-odd", "singleton"])
    def test_actions_are_the_literal_products(self, members):
        for S in (zoo.rectangular_band(2, 4),
                  build_extension(PartialHom(from_table(3, T_NIL3),
                                             zoo.rectangular_band(2, 3),
                                             {0: 1, 1: 1})).sigma):
            literal = {x: (tuple(S.mul(x, y) for y in members),
                           tuple(S.mul(y, x) for y in members))
                       for x in S.elements}
            assert extend._actions(S, members) == literal

    def test_not_clifford(self):
        lz = zoo.rectangular_band(2, 1)
        sigma = adjoin_identity(lz)
        with pytest.raises(NotClifford):
            clifford_decompose(sigma, {0, 1})

    def test_partial_map_extension_components(self):
        w = zoo.partial_map_extension(2, 2, [zoo.cyclic_group(2)] * 2,
                                      picks=[0, 0])
        dec = clifford_decompose(w.sigma, w.ideal)
        assert len(dec.components) == 4     # one per subset of {1, 2}
        # components grouped by domain pattern of their group part
        def dom(idx):
            high, low = divmod(idx, 3)
            return (high != 2, low != 2)
        doms = set()
        for _, sa, ga in dec.components:
            pats = {dom(x) for x in ga}
            assert len(pats) == 1
            doms |= pats
        assert doms == {(True, True), (True, False), (False, True),
                        (False, False)}


class TestCanonicalPhi:
    def test_rebuild_bit_exact(self):
        C = clifford_z2_over_trivial()
        T = from_table(2, T_A0)
        w = build_extension(PartialHom(T, C, {0: 1}))
        dec = clifford_decompose(w.sigma, w.ideal)
        phi = canonical_phi(w.sigma, dec.component_sets())
        assert build_extension(phi).sigma._rows == w.sigma._rows

    def test_no_extension_part(self):
        C = clifford_z2_over_trivial()
        dec = clifford_decompose(C, set(C.elements))
        phi = canonical_phi(C, dec.component_sets())
        assert phi.mapping == {}
        assert build_extension(phi).sigma._rows == C._rows

    def test_group_union_not_ideal(self, t2):
        with pytest.raises(GroupUnionNotIdeal):
            canonical_phi(t2, [({0, 3}, {0}), ({1, 2}, {1, 2})])

    def test_part_that_is_not_closed(self):
        # the parts' union is the whole table, an ideal, but 1 * 1 = 0
        # leaves the part {1, 2}
        with pytest.raises(NotASubsemigroup) as e:
            canonical_phi(zoo.zero_semigroup(3),
                          [({0}, {0}), ({1, 2}, {1, 2})])
        assert e.value.witness == (1, 1)

    def test_part_with_one_idempotent_that_is_no_group(self):
        # the zero is its only idempotent, but it has no identity
        with pytest.raises(NotClifford) as e:
            canonical_phi(zoo.zero_semigroup(2), [({0, 1}, {0, 1})])
        assert str(e.value) == "component part [0, 1] is not a group"


class TestRoundTripAsksOnce:
    def test_one_ideal_scan_and_one_law_check_per_map(self, monkeypatch):
        """One round trip scans the product sets of (Sigma, I) once, and
        law-checks the recovered map, which canonical_phi reuses, once."""
        scans, checks = [], []
        product_set, law_failure = core._product_set, extend._law_failure

        def counting_scan(S, A, B):
            scans.append((S, A, B))
            return product_set(S, A, B)

        def counting_check(S, T, f, domain):
            checks.append((S, T))
            return law_failure(S, T, f, domain)

        monkeypatch.setattr(core, "_product_set", counting_scan)
        monkeypatch.setattr(extend, "_law_failure", counting_check)
        C = clifford_z2_over_trivial()
        T = from_table(3, T_NIL3)
        mapping = next(iter(partial_hom_maps(T, C)))
        w = build_extension(PartialHom(T, C, mapping))
        sigma, full = w.sigma, frozenset(w.sigma.elements)
        scans.clear()
        checks.clear()
        assert classify_extension(sigma, w.ideal).kind == "strict"
        phi = recover_partial_hom(sigma, w.ideal)
        dec = clifford_decompose(sigma, w.ideal)
        canon = canonical_phi(sigma, dec.component_sets())
        rebuilt = build_extension(canon)
        assert rebuilt.sigma is not sigma
        assert rebuilt.sigma._rows == sigma._rows
        assert [(A, B) for S, A, B in scans if S is sigma and full in (A, B)
                ] == [(full, w.ideal), (w.ideal, full)]
        assert checks == [(phi.source, phi.target)]
        assert canon is phi and phi.mapping == mapping

    def test_a_cached_verdict_keeps_its_witness(self, z2):
        for _ in range(2):
            with pytest.raises(NotAnIdeal) as e:
                recover_partial_hom(z2, {0})
            assert e.value.witness == (1, 0)
            with pytest.raises(NotAnIdeal) as e:
                rees_quotient(z2, {0})
            assert e.value.witness == (1, 0)
            with pytest.raises(GroupUnionNotIdeal) as e:
                canonical_phi(z2, [({0, 1}, {0})])
            assert e.value.witness == (1, 0)
        assert z2._cache[("ideal", frozenset({0}))] is False


def test_monoid_ideal_forces_strict():
    """All one-point extensions of a fixed monoid are strict (enumerated)."""
    for M in (zoo.cyclic_group(2), zoo.chain_semilattice(2),
              zoo.cyclic_group(3), zoo.chain_semilattice(3)):
        k = M.order
        count = 0
        for bottom in product(range(k), repeat=k):        # x * M
            for right in product(range(k), repeat=k):     # M * x
                for corner in range(k + 1):               # x * x
                    rows = [list(r) + [right[i]] for i, r in enumerate(M._rows)]
                    rows.append(list(bottom) + [corner])
                    n = k + 1
                    if not all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
                               for a in range(n) for b in range(n)
                               for c in range(n)):
                        continue
                    sigma = from_table(n, rows)
                    count += 1
                    assert classify_extension(sigma, set(range(k))).kind == "strict"
        assert count > 0


def test_round_trip_over_triple_pool():
    pool = triples(per_pair=2)
    assert len(pool) >= 30
    for S, T, mapping in pool:
        phi = PartialHom(T, S, mapping)
        w = build_extension(phi)
        assert recover_partial_hom(w.sigma, w.ideal) == phi


def test_grillet_stratified_t_gives_stratified_components():
    """When T is Grillet-stratified, each component's extension quotient
    (component modulo its group) is Grillet-stratified too."""
    from finsemi import is_grillet_stratified, restrict
    for S in clifford_fixtures()[:3]:
        for T in t_fixtures():
            if not is_grillet_stratified(T):
                continue
            for mapping in partial_hom_maps(T, S, limit=2):
                w = build_extension(PartialHom(T, S, mapping))
                dec = clifford_decompose(w.sigma, w.ideal)
                for _, sa, ga in dec.components:
                    comp, comp_elems = restrict(w.sigma, sa)
                    inner = {comp_elems.index(x) for x in ga}
                    Q, _ = rees_quotient(comp, inner)
                    assert is_grillet_stratified(Q)
