import hashlib
import tracemalloc
from functools import cache
from itertools import permutations, product
from math import gcd

import pytest

from finsemi import (
    base_set,
    format_sgt,
    idempotents,
    is_clifford,
    is_completely_simple,
    is_conditionally_completely_regular,
    is_grillet_stratified,
    is_weakly_reductive,
    restrict,
    stratify,
    zoo,
)
from finsemi.errors import (
    InternalTheoremViolation,
    InvalidArgument,
    InvalidLinking,
    KTooLarge,
    LawViolation,
    OrderTooLarge,
)


def brute_force_tables(n):
    """Filter-all-tables oracle, independent of the backtracking enumerator."""
    out = []
    for cells in product(range(n), repeat=n * n):
        rows = [cells[i * n:(i + 1) * n] for i in range(n)]
        if all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            out.append(tuple(rows))
    return out


def _canonical(rows, anti=True):
    n = len(rows)
    best = None
    for g in permutations(range(n)):
        ginv = [0] * n
        for i, gi in enumerate(g):
            ginv[gi] = i
        flips = (False, True) if anti else (False,)
        for flip in flips:
            if flip:
                cand = tuple(tuple(ginv[rows[g[j]][g[i]]] for j in range(n))
                             for i in range(n))
            else:
                cand = tuple(tuple(ginv[rows[g[i]][g[j]]] for j in range(n))
                             for i in range(n))
            if best is None or cand < best:
                best = cand
    return best


def canonical_representatives(n, anti):
    """The first labelled table of each class, by the least relabelling
    (and, with anti, transpose) of every table: the search the enumerator's
    isomorphism test replaces, kept as its oracle."""
    seen, out = set(), []
    for S in zoo.enumerate_associative(n):
        key = _canonical(S._rows, anti=anti)
        if key not in seen:
            seen.add(key)
            out.append(S._rows)
    return out


def digest_of(semigroups):
    """The sha256 of the concatenated .sgt texts."""
    text = "".join(map(format_sgt, semigroups))
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def deduped(n, dedup):
    return [S._rows for S in zoo.enumerate_associative(n, dedup=dedup)]


class TestEnumerate:
    def test_order1(self):
        assert sum(1 for _ in zoo.enumerate_associative(1)) == 1

    def test_counts_against_oracle(self):
        for n in (2, 3):
            oracle = {t for t in brute_force_tables(n)}
            mine = {S._rows for S in zoo.enumerate_associative(n)}
            assert mine == oracle
        assert len(brute_force_tables(2)) == 8
        assert len(brute_force_tables(3)) == 113

    def test_dedup_counts(self):
        assert sum(1 for _ in zoo.enumerate_associative(2, dedup="iso+anti")) == 4
        assert sum(1 for _ in zoo.enumerate_associative(3, dedup="iso+anti")) == 18
        assert sum(1 for _ in zoo.enumerate_associative(3, dedup="iso")) == 24
        # OEIS A001423 and A027851
        assert len(deduped(4, "iso+anti")) == 126
        assert len(deduped(4, "iso")) == 188

    # verify names its product pairs by representative index, so the order
    # of the representatives is output too
    @pytest.mark.parametrize("dedup, digest", [
        ("iso", "14a5e65579e0f52d35f1d16cf44659260b4db8f9187c9b2f0c051fb238cb8989"),
        ("iso+anti",
         "35f7a9c950aba4295cb7d0aa5e014cfeae6479c093b7c44b4c2667225961104e"),
    ])
    def test_order_4_representatives_are_frozen(self, dedup, digest):
        assert digest_of(zoo.enumerate_associative(4, dedup=dedup)) == digest

    @pytest.mark.parametrize("dedup", ["iso", "iso+anti"])
    def test_dedup_matches_the_canonical_form_oracle(self, dedup):
        for n in range(1, 5):
            assert deduped(n, dedup) == canonical_representatives(
                n, anti=dedup == "iso+anti")

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            zoo.enumerate_associative(5)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one(self, n):
        with pytest.raises(InvalidArgument, match="order must be >= 1"):
            zoo.enumerate_associative(n)

    def test_unknown_dedup_mode_at_the_call(self):
        with pytest.raises(InvalidArgument) as e:
            zoo.enumerate_associative(4, dedup="x")
        assert str(e.value) == "unknown dedup mode 'x'"


class TestMonogenic:
    @pytest.mark.parametrize("h", range(1, 7))
    @pytest.mark.parametrize("r", range(1, 7))
    def test_grid(self, h, r):
        rep = stratify(zoo.monogenic(h, r))
        assert rep.height == h
        assert len(rep.base) == r

    def test_cyclic_group(self):
        S = zoo.monogenic(1, 4)
        assert S.identity is not None
        assert stratify(S).height == 1

    def test_single_idempotent_kernel(self):
        S = zoo.monogenic(4, 1)
        assert stratify(S).base == {3}
        assert idempotents(S) == {3}


class TestClifford:
    def test_chain_fixture(self):
        C = zoo.clifford(zoo.CliffordData(
            zoo.chain_semilattice(2), (zoo.trivial(), zoo.cyclic_group(2)),
            {(1, 0): (0, 0)}))
        assert C.order == 3
        assert is_clifford(C) and is_weakly_reductive(C)

    def test_singleton_semilattice(self):
        C = zoo.clifford(zoo.CliffordData(zoo.chain_semilattice(1),
                                          (zoo.cyclic_group(3),), {}))
        assert C == zoo.cyclic_group(3)

    def test_bowtie_three_groups(self):
        from finsemi import rho_partition, from_table
        bowtie = from_table(3, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
        C = zoo.clifford(zoo.CliffordData(
            bowtie, (zoo.cyclic_group(2),) * 3,
            {(1, 0): (0, 1), (2, 0): (0, 1)}))
        assert C.order == 6
        assert is_clifford(C)
        assert len(rho_partition(C)) == 3

    def test_not_clifford_after_assembly_is_a_theorem_violation(
            self, monkeypatch):
        monkeypatch.setattr(zoo, "is_clifford", lambda S: False)
        with pytest.raises(InternalTheoremViolation) as e:
            zoo.clifford(zoo.CliffordData(zoo.chain_semilattice(1),
                                          (zoo.cyclic_group(3),), {}))
        assert str(e.value) == "assembled semigroup is not Clifford"

    def test_invalid_linking_rejected(self):
        with pytest.raises(InvalidLinking):
            zoo.clifford(zoo.CliffordData(
                zoo.chain_semilattice(2),
                (zoo.cyclic_group(2), zoo.cyclic_group(2)),
                {(1, 0): (0, 0)}))  # g -> g is fine, e -> g is not a hom

    @pytest.mark.parametrize("p, q", [(4, 2), (3, 3), (2, 4), (4, 4)])
    def test_a_linking_map_fails_at_its_first_pair(self, p, q):
        # every map C_p -> C_q as the link of the top of a 2-chain to its
        # bottom: Z_p -> Z_q has gcd(p, q) homomorphisms
        G, H = zoo.cyclic_group(p), zoo.cyclic_group(q)
        homs = 0
        for m in product(range(q), repeat=p):
            first = next(((x, y) for x in G.elements for y in G.elements
                          if m[G.mul(x, y)] != H.mul(m[x], m[y])), None)
            if first is None:
                homs += 1
                zoo.strong_semilattice(zoo.chain_semilattice(2), (H, G),
                                       {(1, 0): m})
                continue
            with pytest.raises(InvalidLinking) as e:
                zoo.strong_semilattice(zoo.chain_semilattice(2), (H, G),
                                       {(1, 0): m})
            assert e.value.witness == (1, 0)
            assert e.value.reason == "not a homomorphism at ({},{})".format(
                *first)
        assert homs == gcd(p, q)

    @pytest.mark.parametrize("linking, error, witness", [
        ({(1,): (0,)}, InvalidLinking, (1,)),
        ({("a", 0): (0,)}, InvalidLinking, ("a", 0)),
        ({(1, 0): (0.0,)}, InvalidLinking, (1, 0)),
        ({(1, 0): 5}, InvalidLinking, (1, 0)),
        ([((1, 0), (0,))], InvalidArgument, None),
        ({(5, 0): (0,)}, InvalidLinking, (5, 0)),
        ({(-1, 0): (0,)}, InvalidLinking, (-1, 0)),
    ], ids=["short-key", "str-key", "float-image", "int-map", "list",
            "key-outside-Y", "negative-key"])
    def test_malformed_linking_is_refused(self, linking, error, witness):
        # a valid Y and valid parts: only the linking is wrong
        with pytest.raises(error) as e:
            zoo.strong_semilattice(zoo.chain_semilattice(2),
                                   (zoo.trivial(),) * 2, linking)
        if error is InvalidLinking:
            assert e.value.witness == witness

    def test_each_linking_map_is_read_once(self):
        # it was read twice per cell of the product table
        reads = []

        class Linking(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        S = zoo.strong_semilattice(
            zoo.chain_semilattice(2), (zoo.cyclic_group(2),) * 2,
            Linking({(1, 0): (0, 1)}))
        assert is_clifford(S) and S.order == 4
        assert reads == [(1, 0)]

    def test_non_idempotent_y_rejected_as_not_a_semilattice(self):
        # squaring permutes Z_3, but no element except the identity is
        # idempotent
        C3 = zoo.cyclic_group(3)
        with pytest.raises(InvalidLinking) as e:
            zoo.strong_semilattice(C3, (zoo.trivial(),) * 3, {})
        assert e.value.reason == "Y is not a semilattice"
        assert e.value.witness is None

    # with no identity, and a monoid whose zero has no inverse
    @pytest.mark.parametrize("part", [zoo.zero_semigroup(2),
                                      zoo.chain_semilattice(2)])
    def test_non_group_part_rejected(self, part):
        with pytest.raises(InvalidLinking) as e:
            zoo.clifford(zoo.CliffordData(
                zoo.chain_semilattice(2), (zoo.trivial(), part),
                {(1, 0): (0, 0)}))
        assert e.value.reason == "every part must be a group"


class TestAbsorptionSum:
    def test_t_in_base(self):
        S = zoo.absorption_sum(zoo.zero_semigroup(2), zoo.trivial())
        assert S.order == 3
        assert 2 in base_set(S)

    def test_two_trivials(self):
        S = zoo.absorption_sum(zoo.trivial(), zoo.trivial())
        assert {1} <= base_set(S)

    def test_monogenic_over_group(self):
        S = zoo.absorption_sum(zoo.monogenic(2, 1), zoo.cyclic_group(2))
        assert {2, 3} <= base_set(S)


class TestPowersetNil:
    def test_k1_is_null(self, n2):
        from finsemi import isomorphic
        assert isomorphic(zoo.powerset_nilsemigroup(1), n2)

    def test_k2(self):
        S = zoo.powerset_nilsemigroup(2)
        from finsemi import power_set
        assert power_set(S, 3) == {0}
        assert stratify(S).height == 3

    def test_k3_strata(self):
        from finsemi import power_set
        S = zoo.powerset_nilsemigroup(3)
        # S^m = {A : |A| >= m} ∪ {∅}, so the height is 4
        for m in (2, 3):
            expected = {a for a in range(8) if bin(a).count("1") >= m} | {0}
            assert power_set(S, m) == expected
        assert stratify(S).height == 4
        for a in range(1, 8):
            assert S.mul(a, a) == 0   # every element nilpotent of index 2

    def test_cap(self):
        with pytest.raises(KTooLarge):
            zoo.powerset_nilsemigroup(6)
        with pytest.raises(KTooLarge, match=r"order 2\^100000 exceeds"):
            zoo.powerset_nilsemigroup(100_000)


class TestOtherFixtures:
    def test_brandt_not_ccr(self):
        assert not is_conditionally_completely_regular(zoo.brandt_b2())

    def test_rectangular_band(self):
        S = zoo.rectangular_band(2, 2)
        assert is_completely_simple(S)
        assert base_set(S) == set(S.elements)

    def test_free_nilpotent(self):
        S = zoo.free_nilpotent(2, 3)
        assert S.order == 7
        assert is_grillet_stratified(S)
        assert stratify(S).height == 3

    def test_free_nilpotent_cap(self):
        with pytest.raises(OrderTooLarge):
            zoo.free_nilpotent(3, 6)

    def test_zero_semigroup(self):
        S = zoo.zero_semigroup(3)
        assert S.zero == 0
        assert not is_weakly_reductive(S)

    def test_full_transformations_order(self):
        assert zoo.full_transformations(2).order == 4
        assert zoo.full_transformations(3).order == 27
        with pytest.raises(OrderTooLarge):
            zoo.full_transformations(4)
        for k in (0, -2):
            with pytest.raises(InvalidArgument, match="k must be >= 1"):
                zoo.full_transformations(k)
        with pytest.raises(OrderTooLarge, match=r"order 10\^10 exceeds"):
            zoo.full_transformations(10)

    @pytest.mark.parametrize("build", [
        lambda: zoo.monogenic(65_536, 1),
        lambda: zoo.cyclic_group(10 ** 40),
        lambda: zoo.zero_semigroup(65_536),
        lambda: zoo.chain_semilattice(10 ** 40),
        lambda: zoo.rectangular_band(2, 2 ** 15),
        lambda: zoo.free_nilpotent(2, 10 ** 40),
        lambda: zoo.free_nilpotent(10 ** 40, 2),
    ])
    def test_orders_above_the_cap_fail_before_any_row(self, build):
        # each of these would need far more memory than any table built
        with pytest.raises(OrderTooLarge) as e:
            build()
        assert "exceeds the supported cap" in str(e.value)

    @pytest.mark.parametrize("build, message", [
        # each raised a bare TypeError
        (lambda: zoo.monogenic(2.5, 2), "h = 2.5 is not an integer"),
        (lambda: zoo.chain_semilattice(None), "n = None is not an integer"),
        (lambda: zoo.rectangular_band(2, 1.5), "q = 1.5 is not an integer"),
        (lambda: zoo.free_nilpotent(2, 2.5),
         "length_bound = 2.5 is not an integer"),
        (lambda: zoo.powerset_nilsemigroup(2.0), "k = 2.0 is not an integer"),
        (lambda: zoo.full_transformations(2.0), "k = 2.0 is not an integer"),
        (lambda: zoo.zero_semigroup(2.0), "n = 2.0 is not an integer"),
        (lambda: zoo.cyclic_group(2.0), "r = 2.0 is not an integer"),
        (lambda: zoo.enumerate_associative(2.0),
         "n = 2.0 is not an integer"),
        (lambda: zoo.sample_associative(2, "x"),
         "count = 'x' is not an integer"),
        (lambda: zoo.partial_map_extension(1.0, 2, [zoo.cyclic_group(2)]),
         "n = 1.0 is not an integer"),
    ], ids=["monogenic", "chain", "rectangular_band", "free_nilpotent",
            "powerset_nil", "full_transformations", "zero_semigroup",
            "cyclic_group", "enumerate", "sample", "partial_map"])
    def test_a_size_that_is_not_an_integer_is_named(self, build, message):
        with pytest.raises(InvalidArgument) as e:
            build()
        assert str(e.value) == message


def _assert_domains_meet(w, groups):
    """dom(st) = dom(s) ∩ dom(t) on the ideal of a `partial_map_extension`:
    the product of the 0-groups, whose coordinate c is undefined at the
    zero adjoined to groups[c], its last element."""
    S, _ = restrict(w.sigma, w.ideal)
    orders = [g.order + 1 for g in groups]

    def dom(idx):
        out = []
        for k in reversed(orders):
            out.append(idx % k != k - 1)
            idx //= k
        return tuple(reversed(out))

    for a in S.elements:
        for b in S.elements:
            assert dom(S.mul(a, b)) == tuple(
                x and y for x, y in zip(dom(a), dom(b))), (a, b)


class TestPartialMapExtension:
    def test_degenerate_m1(self):
        groups = [zoo.cyclic_group(2)] * 2
        w = zoo.partial_map_extension(2, 1, groups)
        # with m = 1 every defined value is already the cap, so T = {0}
        assert w.sigma.order == len(w.ideal)
        _assert_domains_meet(w, groups)

    def test_n1_m2_components(self):
        from finsemi import clifford_decompose
        groups = [zoo.cyclic_group(2)]
        w = zoo.partial_map_extension(1, 2, groups, picks=[0])
        dec = clifford_decompose(w.sigma, w.ideal)
        assert len(dec.components) == 2    # one per subset of {1}
        _assert_domains_meet(w, groups)

    def test_n2_m2_components(self):
        from finsemi import clifford_decompose
        groups = [zoo.cyclic_group(2)] * 2
        w = zoo.partial_map_extension(2, 2, groups, picks=[0, 0])
        assert len(clifford_decompose(w.sigma, w.ideal).components) == 4
        _assert_domains_meet(w, groups)

    def test_nontrivial_picks_can_violate_the_law(self):
        with pytest.raises(LawViolation):
            zoo.partial_map_extension(2, 3, [zoo.cyclic_group(2)] * 2,
                                      picks=[0, 0])

    def test_identity_picks_always_valid(self):
        for n in (1, 2):
            for m in (1, 2, 3):
                groups = [zoo.cyclic_group(2)] * n
                w = zoo.partial_map_extension(n, m, groups)
                assert w.sigma.order == len(w.ideal) + (m + 1) ** n - _ideal_size(n, m)
                _assert_domains_meet(w, groups)

    def test_domains_meet_over_mixed_groups(self):
        groups = [zoo.cyclic_group(3), zoo.cyclic_group(2)]
        _assert_domains_meet(zoo.partial_map_extension(2, 2, groups), groups)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            zoo.partial_map_extension(3, 3, [zoo.cyclic_group(3)] * 3)

    def test_monoid_factor_rejected(self):
        # a monoid has an identity, and was once taken for a group
        with pytest.raises(InvalidArgument) as e:
            zoo.partial_map_extension(1, 2, [zoo.chain_semilattice(2)])
        assert str(e.value) == "every factor must be a group"

    @pytest.mark.parametrize("picks", [["a"], [None], [], 5, [0, 0], [2], [-1]])
    def test_picks_are_one_element_per_group(self, picks):
        with pytest.raises(InvalidArgument):
            zoo.partial_map_extension(1, 2, [zoo.cyclic_group(2)], picks=picks)


def _ideal_size(n, m):
    return sum(1 for f in product(range(m + 1), repeat=n)
               if all(v in (0, m) for v in f))


def test_pow_in_group():
    G = zoo.cyclic_group(3)       # a, a^2, a^3 = e
    assert [zoo.pow_in_group(G, 0, k) for k in (1, 2, 3, 4)] == [0, 1, 2, 0]
    assert zoo.pow_in_group(G, 1, 2) == 0     # (a^2)^2 = a^4 = a
    for g, k in ((0, 0), (0, -2), (-1, 2), (7, 1), (0, 2.0), ("a", 1)):
        with pytest.raises(InvalidArgument):
            zoo.pow_in_group(G, g, k)


class TestSamplers:
    def test_sample_deterministic(self):
        a = zoo.sample_associative(4, 300, seed=7)
        b = zoo.sample_associative(4, 300, seed=7)
        assert [S._rows for S in a] == [S._rows for S in b]

    def test_sample_filters(self):
        # at order 2 uniform sampling actually yields hits: 8/16 tables
        hits = zoo.sample_associative(2, 200, seed=1)
        assert hits and all(S.order == 2 for S in hits)

    def test_random_associative_is_frozen(self):
        assert digest_of(zoo.random_associative(5, 10, seed=0)) == (
            "e3163199bafab972281cf17c84afaf68b9a266248c330dcf62b1bb4687fa8ca0")

    def test_random_associative_deterministic(self):
        a = zoo.random_associative(5, 4, seed=3)
        b = zoo.random_associative(5, 4, seed=3)
        assert [S._rows for S in a] == [S._rows for S in b]
        assert len(a) == 4


def test_every_fixture_validates():
    fixtures = [
        zoo.trivial(), zoo.monogenic(3, 2), zoo.cyclic_group(4),
        zoo.zero_semigroup(3), zoo.chain_semilattice(3),
        zoo.rectangular_band(2, 3), zoo.brandt_b2(),
        zoo.full_transformations(2), zoo.powerset_nilsemigroup(3),
        zoo.free_nilpotent(2, 4), zoo.absorption_sum(zoo.trivial(), zoo.trivial()),
    ]
    for S in fixtures:
        assert S.order >= 1   # construction already re-validated associativity


@pytest.mark.parametrize("build", [
    lambda: zoo.monogenic(300, 300),
    lambda: zoo.rectangular_band(20, 30),
    lambda: zoo.chain_semilattice(600),
    lambda R=zoo.monogenic(150, 150), T=zoo.rectangular_band(10, 10):
        zoo.absorption_sum(R, T),
], ids=["monogenic", "rectangular_band", "chain", "absorption_sum"])
def test_construction_is_a_few_bytes_per_cell(build):
    # the built rows and the constructor's one copy, 8 bytes per cell each,
    # over one int object per element, with room for the associativity check
    tracemalloc.start()
    try:
        n = build().order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n > 256
    assert peak < 32 * n * n
