import copy
import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest

import finsemi
from finsemi import (
    Partition,
    Semigroup,
    adjoin_identity,
    adjoin_zero,
    base_set,
    closure,
    depth,
    direct_product,
    enumerate_congruences,
    format_sgt,
    from_table,
    ideal_witness,
    interchangeable,
    inverses,
    is_congruence,
    is_globally_idempotent,
    is_ideal,
    is_left_ideal,
    is_weakly_reductive,
    k_class,
    isomorphic,
    maximal_subgroup,
    monoid_completion,
    pair_index,
    parse_sgt,
    power_set,
    product_set,
    quotient_by_congruence,
    rees_quotient,
    restrict,
    semilattice_witness,
    stratify,
    subsemigroup_witness,
    weak_inverses,
    zoo,
)
from finsemi import core, extend
from finsemi.cli import analysis_bundle
from finsemi.core import _cached, find_isomorphism
from finsemi.green import element_powers
from finsemi.errors import (
    EmptyGenerators,
    IndexOutOfRange,
    InvalidArgument,
    NonAssociative,
    NonSquare,
    NotACongruence,
    NotAnIdeal,
    NotASubsemigroup,
    OrderTooLarge,
    SearchBudgetExceeded,
)
from test_golden import LARGE_FIXTURES, relabelled


def brute_associative(rows):
    """Raw-loop oracle used to pin down the construction examples."""
    n = len(rows)
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def cube_witness(rows):
    """First (i, j, k) of np.argwhere over the full n^3 cube of
    (i*j)*k != i*(j*k), evaluated one int64 slab i at a time."""
    t = np.array(rows, dtype=np.int64)
    for i in range(len(t)):
        bad = np.argwhere(t[t[i]] != t[i][t])
        if len(bad):
            return (i, *map(int, bad[0]))
    return None


def corrupted_relabellings(S, count=50):
    """count copies of a seeded relabelling of S, each with one random cell
    overwritten, as lists of lists."""
    n = S.order
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    base = relabel(S._rows, perm)
    for _ in range(count):
        rows = [list(row) for row in base]
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield rows


def verdict(rows):
    """None if Semigroup accepts rows, else its NonAssociative triple."""
    try:
        Semigroup(rows)
    except NonAssociative as e:
        return e.triple
    return None


def relabel(rows, perm):
    """The table of the same semigroup with element x renamed perm[x]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return out


def cycles_semigroup(*lengths):
    """The graph semigroup of disjoint cycles of the given lengths: 0 is
    the zero, 1 is b, and 2 + v the vertex v, with a_u a_v = b when u and v
    are adjacent and 0 otherwise.  Every vertex has the same profile."""
    n = 2 + sum(lengths)
    rows = [[0] * n for _ in range(n)]
    start = 2
    for length in lengths:
        for i in range(length):
            u, v = start + i, start + (i + 1) % length
            rows[u][v] = rows[v][u] = 1
        start += length
    return Semigroup(rows)


def assert_relabeling_found(S, perm):
    rows = relabel(S._rows, perm)
    phi = find_isomorphism(S, from_table(S.order, rows))
    assert phi is not None
    assert all(phi[S.mul(a, b)] == rows[phi[a]][phi[b]]
               for a in S.elements for b in S.elements)


class TestFromTable:
    def test_null_semigroup_detects_zero(self):
        S = from_table(2, [[0, 0], [0, 0]])
        assert S.zero == 0 and S.identity is None

    def test_z2_detects_identity(self, z2):
        assert z2.identity == 0 and z2.zero is None

    def test_right_zero_is_associative_without_units(self):
        # oracle: all 8 triples of the right-zero table hold
        assert brute_associative([[0, 1], [0, 1]])
        S = from_table(2, [[0, 1], [0, 1]])
        assert S.zero is None and S.identity is None

    def test_non_square(self):
        with pytest.raises(NonSquare):
            from_table(2, [[0, 1]])
        with pytest.raises(NonSquare):
            from_table(2, [[0, 1], [0]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as e:
            from_table(2, [[0, 2], [0, 1]])
        assert (e.value.i, e.value.j, e.value.value) == (0, 1, 2)
        # the first bad entry in row-major order, whatever its sign
        with pytest.raises(IndexOutOfRange) as e:
            from_table(3, [[0, 1, 2], [0, 1, -1], [0, 3, 0]])
        assert (e.value.i, e.value.j, e.value.value) == (1, 2, -1)

    @pytest.mark.parametrize("rows, cell", [
        ([[0, 1.9], [1, 0]], "table[0][1] = 1.9"),   # int() made this Z2
        ([[0, 0.7], [0, 0]], "table[0][1] = 0.7"),   # and this a zero table
        ([["0", "1"], ["1", "0"]], "table[0][0] = '0'"),
        ([["a"]], "table[0][0] = 'a'"),
        ([[None]], "table[0][0] = None"),
        ([[np.array([0])]], "table[0][0] = array([0])"),
    ])
    def test_non_integer_entries_name_the_first_bad_cell(self, rows, cell):
        with pytest.raises(InvalidArgument) as e:
            from_table(len(rows), rows)
        assert str(e.value) == f"entry {cell} is not an integer"

    @pytest.mark.parametrize("build, message", [
        (lambda: Semigroup(5), "table = 5 is not a sequence of rows"),
        (lambda: Semigroup(None), "table = None is not a sequence of rows"),
        (lambda: Semigroup([1]), "row table[0] = 1 is not a sequence"),
        (lambda: Semigroup([[0], 5]), "row table[1] = 5 is not a sequence"),
        (lambda: from_table(1, [5]), "row table[0] = 5 is not a sequence"),
        (lambda: from_table(2, 7), "table = 7 is not a sequence of rows"),
        (lambda: Semigroup([[0]], labels=5), "labels = 5 is not a sequence"),
    ], ids=["Semigroup-int", "Semigroup-None", "Semigroup-int-row",
            "Semigroup-second-row", "from_table-int-row", "from_table-int",
            "Semigroup-int-labels"])
    def test_non_sequences_name_the_table_or_first_bad_row(self, build,
                                                          message):
        with pytest.raises(InvalidArgument) as e:
            build()
        assert str(e.value) == message

    def test_numpy_integer_entries(self, z2):
        S = from_table(2, np.array([[0, 1], [1, 0]], dtype=np.int64))
        assert S == z2 and type(S.mul(0, 1)) is int

    def test_first_failing_triple_reported(self):
        # oracle: (0,0)*0 = 1*0 = 0 but 0*(0*0) = 0*1 = 0 ... first failure
        # of [[1,0],[0,0]] is at (0,0,1): (0*0)*1 = 1*1 = 0, 0*(0*1) = 0*0 = 1
        assert not brute_associative([[1, 0], [0, 0]])
        with pytest.raises(NonAssociative) as e:
            from_table(2, [[1, 0], [0, 0]])
        i, j, k = e.value.triple
        t = [[1, 0], [0, 0]]
        assert t[t[i][j]][k] != t[i][t[j][k]]


class TestAssociativityCheck:
    """The blocked narrow-dtype check reports the full-cube witness."""

    def test_small_witnesses_match_full_cube(self):
        rng = random.Random(7)
        for n in range(2, 21):
            for _ in range(5):
                rows = [[min(i, j) for j in range(n)] for i in range(n)]
                rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                t = np.array(rows)
                bad = np.argwhere(t[t] != t[:, t])
                if not len(bad):
                    Semigroup(rows)
                    continue
                with pytest.raises(NonAssociative) as e:
                    Semigroup(rows)
                assert e.value.triple == tuple(map(int, bad[0]))
                assert e.value.triple == cube_witness(rows)

    @pytest.mark.parametrize("n", [255, 256, 257, 300])
    def test_witness_across_blocks_and_dtypes(self, n):
        rng = random.Random(n)
        for r in (0, n // 2, n - 1):
            # left-zero band with row r bent at its last column: the first
            # failing triple is (r, 0, n-1), so it lies in r's block
            rows = [[i] * n for i in range(n)]
            rows[r][n - 1] = (r + 1) % n
            with pytest.raises(NonAssociative) as e:
                Semigroup(rows)
            assert e.value.triple == (r, 0, n - 1) == cube_witness(rows)
            # a chain semilattice with a random defect in row r
            rows = [[min(i, j) for j in range(n)] for i in range(n)]
            rows[r][rng.randrange(n)] = rng.randrange(n)
            with pytest.raises(NonAssociative) as e:
                Semigroup(rows)
            assert e.value.triple == cube_witness(rows)

    def test_construction_memory_is_quadratic(self):
        rows = [list(row) for row in zoo.rectangular_band(16, 18)._rows]
        tracemalloc.start()
        try:
            Semigroup(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2 ** 20    # the n^3 int64 cubes took 407 MB

    @pytest.mark.parametrize("fixture, params", [
        ("rectangular_band", (17, 17)),     # 289, Light's test
        ("chain_semilattice", (300,)),      # |G| = 300, so 300 slabs
    ])
    def test_scratch_memory_is_a_few_bytes_per_cell(self, fixture, params):
        # one n^2 slab at a time: the rows themselves are 8 bytes per cell
        rows = [list(row) for row in getattr(zoo, fixture)(*params)._rows]
        n = len(rows)
        tracemalloc.start()
        try:
            Semigroup(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n * n

    def test_one_int_object_per_element_above_256(self):
        S = zoo.rectangular_band(17, 17)
        fresh = [[int(str(v)) for v in row] for row in S._rows]
        assert len({id(v) for row in fresh for v in row}) > S.order
        text = format_sgt(S)
        tables = [
            Semigroup(fresh),
            parse_sgt(text),
            # a non-canonical entry sends its row through int()
            parse_sgt(text.replace("\n0 ", "\n00 ", 1)),
            direct_product(zoo.chain_semilattice(17), zoo.rectangular_band(4, 4)),
        ]
        for T in tables:
            assert T.order > 256
            assert len({id(v) for row in T._rows for v in row}) <= T.order
        assert tables[0] == tables[1] == tables[2] == S

    @pytest.mark.parametrize("n", [4, 300])
    def test_table_is_read_only_int64(self, n):
        rows = [[min(i, j) for j in range(n)] for i in range(n)]
        S = Semigroup(rows)
        assert S.table.dtype == np.int64
        assert not S.table.flags.writeable
        assert S.table.tolist() == rows

    def test_order_cap_before_any_row(self):
        class Huge:
            def __len__(self):
                return 65536

            def __iter__(self):
                raise AssertionError("rows read before the order check")

        with pytest.raises(OrderTooLarge) as e:
            Semigroup(Huge())
        assert (e.value.order, e.value.cap) == (65536, 65535)
        with pytest.raises(OrderTooLarge):
            parse_sgt("65536\n0 0\n")

    def test_light_path_matches_full_cube_to_order_3(self):
        count = 0
        for n in range(1, 4):
            for flat in itertools.product(range(n), repeat=n * n):
                rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
                count += 1
                expected = cube_witness(rows)
                if expected is None:
                    Semigroup(rows)
                    continue
                with pytest.raises(NonAssociative) as e:
                    Semigroup(rows)
                assert e.value.triple == expected
        assert count == 19700

    @pytest.mark.parametrize("fixture, params, size", [
        ("monogenic", (400, 400), 1),
        ("free_nilpotent", (2, 7), 2),
        ("chain_semilattice", (300,), 300),
        ("rectangular_band", (16, 18), None),
    ])
    def test_magma_generators_generate(self, fixture, params, size):
        S = getattr(zoo, fixture)(*params)
        gens = core._magma_generators(S._rows)
        if size is not None:
            assert len(gens) == size
        rows = S._rows
        reached, todo = set(gens), list(gens)
        while todo:
            x = todo.pop()
            for y in list(reached):
                for z in (rows[x][y], rows[y][x]):
                    if z not in reached:
                        reached.add(z)
                        todo.append(z)
        assert reached == set(range(S.order))

    @pytest.mark.parametrize("fixture, params", [
        ("rectangular_band", (8, 8)),       # 64
        ("monogenic", (40, 40)),            # 79
        ("monogenic", (100, 100)),          # 199
        ("rectangular_band", (12, 12)),     # 144
        ("rectangular_band", (16, 16)),     # 256, the last bytes order
        ("rectangular_band", (17, 17)),     # 289, numpy slabs
        ("monogenic", (150, 150)),          # 299
    ])
    def test_corrupted_cells_report_the_cube_witness(self, fixture, params):
        # Light's test decides first, on bytes rows up to order 256 and on
        # row tuples above; the cube scan names the witness
        for rows in corrupted_relabellings(getattr(zoo, fixture)(*params)):
            expected = cube_witness(rows)
            assert verdict(rows) == expected

    @pytest.mark.parametrize("budget", [0, 10 ** 12],
                             ids=["numpy", "tuples"])
    @pytest.mark.parametrize("fixture, params", [
        ("rectangular_band", (17, 17)),     # 289, |G| <= 33
        ("monogenic", (150, 150)),          # 299, |G| = 1
    ])
    def test_every_kernel_reports_the_cube_witness(self, fixture, params,
                                                   budget, monkeypatch):
        # S and the same corrupted tables on the kernel the budget forces
        # above order 256: Light's test gives the same verdict on each,
        # and the cube scan the witness of the oracle on a few (a tuple
        # cube scan takes some 0.2 s at order 289).
        S = getattr(zoo, fixture)(*params)
        n = S.order
        tables = [S._rows, *(tuple(map(tuple, rows))
                             for rows in corrupted_relabellings(S))]
        monkeypatch.setattr(core, "LIGHT_TUPLE_CELLS", 0)
        on_numpy = [core._failure(rows, core._magma_generators(rows)) is None
                    for rows in tables]
        assert set(on_numpy) == {True, False}
        monkeypatch.setattr(core, "LIGHT_TUPLE_CELLS", budget)
        assert [core._failure(rows, core._magma_generators(rows)) is None
                for rows in tables] == on_numpy
        witnesses = [core._failure(rows, range(n)) for rows in tables[:4]]
        assert witnesses == list(map(cube_witness, tables[:4]))
        assert witnesses[0] is None and any(witnesses)

    def test_full_scan_only_on_failure(self, monkeypatch):
        scans = []
        failure = core._failure
        monkeypatch.setattr(core, "_failure", lambda t, mids: scans.append(
            (len(t), mids == range(len(t)))) or failure(t, mids))
        orders = (2, 64, 128, 129)
        for n in orders:
            Semigroup([[min(i, j) for j in range(n)] for i in range(n)])
        # Light's test alone over the n generators of each chain
        assert scans == [(n, False) for n in orders]
        rows = [[min(i, j) for j in range(200)] for i in range(200)]
        rows[3][5] = 7
        with pytest.raises(NonAssociative):
            Semigroup(rows)
        assert scans[len(orders):] == [(200, False), (200, True)]


class TestSetAlgebra:
    def test_product_set_null(self, n2):
        assert product_set(n2, {1}, {1}) == {0}

    def test_product_set_group(self, z2):
        assert product_set(z2, {0, 1}, {0, 1}) == {0, 1}

    def test_product_set_monogenic(self, m32):
        # oracle: direct table scan gave {a^2, a^3, a^4} = {1, 2, 3}
        assert product_set(m32, {0, 1, 2, 3}, {0, 1, 2, 3}) == {1, 2, 3}

    def test_power_set_monogenic(self, m32):
        assert power_set(m32, 3) == {2, 3}
        assert power_set(m32, 1) == {0, 1, 2, 3}

    def test_power_set_group_stable(self, z2):
        for m in range(1, 6):
            assert power_set(z2, m) == {0, 1}

    def test_power_set_powerset_nil(self):
        S = zoo.powerset_nilsemigroup(2)
        # oracle: length-3 products of the 4 subsets all collapse to {}
        raw = {S.mul(S.mul(a, b), c)
               for a in range(4) for b in range(4) for c in range(4)}
        assert raw == {0}
        assert power_set(S, 3) == {0}

    def test_power_sets_are_nested(self, m32):
        for m in range(1, 6):
            assert power_set(m32, m + 1) <= power_set(m32, m)

    def test_closure_monogenic(self, m32):
        assert closure(m32, {0}) == {0, 1, 2, 3}

    def test_closure_idempotent_singleton(self, z2):
        assert closure(z2, {0}) == {0}

    def test_closure_brandt(self, b2):
        assert closure(b2, {1, 2}) == {0, 1, 2, 3, 4}

    def test_closure_empty(self, z2):
        with pytest.raises(EmptyGenerators):
            closure(z2, set())


class TestIdeals:
    def test_kernel_is_ideal(self, m32):
        assert is_ideal(m32, {2, 3})

    def test_group_has_no_proper_ideal(self, z2):
        assert not is_ideal(z2, {0})
        assert not is_left_ideal(z2, {0})

    def test_zero_is_ideal(self, n2):
        assert is_ideal(n2, {0})

    def test_rees_quotient_monogenic(self, m32):
        Q, qmap = rees_quotient(m32, {2, 3})
        assert Q == zoo.monogenic(3, 1)  # {a, a^2, 0} with a^3 = 0
        assert qmap == (0, 1, 2, 2)
        assert Q.zero == 2

    def test_rees_quotient_by_everything(self, m32):
        Q, _ = rees_quotient(m32, {0, 1, 2, 3})
        assert Q.order == 1 and Q.zero == 0

    def test_rees_quotient_brandt_zero(self, b2):
        Q, _ = rees_quotient(b2, {4})
        assert Q == b2  # zero is last, so the relabeling is the identity

    def test_rees_quotient_rejects_non_ideal(self, z2):
        with pytest.raises(NotAnIdeal):
            rees_quotient(z2, {0})

    def test_rees_quotient_bijection(self, m32):
        Q, qmap = rees_quotient(m32, {2, 3})
        outside = [x for x in range(4) if x not in {2, 3}]
        assert Q.order == 4 - 2 + 1
        assert sorted(qmap[x] for x in outside) == list(range(len(outside)))

    @pytest.mark.parametrize("call", [
        restrict, rees_quotient, closure, core.is_subsemigroup, is_left_ideal,
        core.is_right_ideal, is_ideal, subsemigroup_witness, ideal_witness,
        lambda S, A: product_set(S, A, {0, 1}),
        lambda S, B: product_set(S, {0, 1}, B), finsemi.archimedean,
        finsemi.is_completely_simple, finsemi.classify_extension,
        finsemi.clifford_decompose, finsemi.recover_partial_hom])
    @pytest.mark.parametrize("members, message", [
        # read as element 0 through a wrapping index
        ({-3, 0}, "element -3 is not in [0, 3)"),
        ([0, -1], "element -1 is not in [0, 3)"),
        ({0, 3}, "element 3 is not in [0, 3)"),     # a bare IndexError
        ([1.0], "element = 1.0 is not an integer"),
        (["1"], "element = '1' is not an integer"),
        (5, "member set = 5 is not iterable"),       # a bare TypeError
        # closure raised EmptyGenerators on these two
        (None, "member set = None is not iterable"),
        (0, "member set = 0 is not iterable"),
    ])
    def test_members_outside_the_elements_are_named(self, call, members,
                                                    message):
        Z = zoo.zero_semigroup(3)
        if members is None and call is finsemi.is_completely_simple:
            # None is its default subset, the whole semigroup
            assert call(Z, members) is False
            return
        with pytest.raises(InvalidArgument) as e:
            call(Z, members)
        assert str(e.value) == message
        assert Z._cache == {}

    @pytest.mark.parametrize("call, error", [
        (restrict, NotASubsemigroup),
        (finsemi.clifford_decompose, NotASubsemigroup),
        (finsemi.is_completely_simple, NotASubsemigroup),
        (rees_quotient, NotAnIdeal),
        (finsemi.classify_extension, NotAnIdeal),
        (finsemi.recover_partial_hom, NotAnIdeal),
    ])
    def test_an_empty_member_set_is_named_empty(self, call, error):
        # the empty set is closed under products; it fails only by being
        # empty, so there is no witness to name
        with pytest.raises(error) as e:
            call(zoo.zero_semigroup(3), set())
        assert e.value.witness is None
        kind = "an ideal" if error is NotAnIdeal else "a subsemigroup"
        assert str(e.value) == f"subset is empty, so it is not {kind}"

    @pytest.mark.parametrize("m, message", [
        ("2", "m = '2' is not an integer"),     # a bare TypeError
        # answered with Base(S) = S^2 instead of raising
        (2.5, "m = 2.5 is not an integer"),
    ])
    def test_power_set_exponent_is_an_integer(self, m, message):
        with pytest.raises(InvalidArgument) as e:
            power_set(zoo.zero_semigroup(3), m)
        assert str(e.value) == message

    def test_numpy_members_are_elements(self):
        Z = zoo.zero_semigroup(3)
        assert is_ideal(Z, {np.int64(0)})
        assert restrict(Z, [np.int64(0), np.int64(1)])[1] == [0, 1]
        assert product_set(Z, {np.int64(1)}, [np.uint8(2), 1]) == {0}

    @pytest.mark.parametrize("call", [
        lambda S, s: interchangeable(S, s, 0),
        lambda S, s: interchangeable(S, 0, s),
        weak_inverses, inverses, element_powers, maximal_subgroup, k_class,
        depth, finsemi.weak_inverse_location,
    ], ids=["interchangeable-a", "interchangeable-b", "weak_inverses",
            "inverses", "element_powers", "maximal_subgroup", "k_class",
            "depth", "weak_inverse_location"])
    @pytest.mark.parametrize("element, message", [
        # -1 and -3 were read as elements 2 and 0 through a wrapping index
        (-1, "element -1 is not in [0, 3)"),
        (-3, "element -3 is not in [0, 3)"),
        (3, "element 3 is not in [0, 3)"),
        (7, "element 7 is not in [0, 3)"),      # a bare IndexError
        (1.0, "element = 1.0 is not an integer"),
        ("1", "element = '1' is not an integer"),
    ])
    def test_an_element_outside_the_semigroup_is_named(self, call, element,
                                                       message):
        with pytest.raises(InvalidArgument) as e:
            call(zoo.zero_semigroup(3), element)
        assert str(e.value) == message

    def test_numpy_elements_are_elements(self):
        Z = zoo.zero_semigroup(3)
        assert weak_inverses(Z, np.int64(1)) == {0}
        assert depth(Z, np.int64(0)) == depth(Z, 0)
        assert not interchangeable(Z, np.int64(1), 1)

    @pytest.mark.parametrize("call", [
        lambda p, x: p.class_of(x),
        lambda p, x: p.same(x, 1),
        lambda p, x: p.same(1, x),
    ], ids=["class_of", "same-a", "same-b"])
    @pytest.mark.parametrize("point, message", [
        # class_of(-1) was {1, 2} and same(-1, 1) True through a wrapping index
        (-1, "point -1 is not in [0, 3)"),
        (3, "point 3 is not in [0, 3)"),        # a bare IndexError
        (1.0, "point = 1.0 is not an integer"),
    ])
    def test_a_point_outside_the_partition_is_named(self, call, point,
                                                    message):
        with pytest.raises(InvalidArgument) as e:
            call(Partition([[0], [1, 2]]), point)
        assert str(e.value) == message

    def test_numpy_points_are_points(self):
        p = Partition([[0], [1, 2]])
        assert p.class_of(np.int64(2)) == {1, 2}
        assert p.same(np.uint8(1), 2) and not p.same(np.int64(0), 1)


class TestProductsQuotients:
    def test_product_base(self, z2, n2):
        P = direct_product(z2, n2)
        assert P.order == 4
        assert base_set(P) == {pair_index(n2, a, 0) for a in (0, 1)}

    @pytest.mark.parametrize("i, j, message", [
        (0, 5, "element 5 is not in [0, 3)"),   # was 5, the index of (1, 2)
        (0, -1, "element -1 is not in [0, 3)"),
        (-1, 0, "i = -1 is negative"),          # was -3
        (0.5, 1, "i = 0.5 is not an integer"),  # was 2.5
    ])
    def test_pair_index_names_what_would_alias(self, i, j, message):
        with pytest.raises(InvalidArgument) as e:
            pair_index(zoo.zero_semigroup(3), i, j)
        assert str(e.value) == message

    def test_pair_index_is_the_product_encoding(self):
        Z = zoo.zero_semigroup(3)
        assert [pair_index(Z, i, j) for i in (0, 1, 7) for j in range(3)] \
            == [0, 1, 2, 3, 4, 5, 21, 22, 23]
        assert pair_index(Z, np.int64(1), np.uint8(2)) == 5

    def test_trivial_product_isomorphic(self, m32):
        P = direct_product(zoo.trivial(), m32)
        assert isomorphic(P, m32)

    def test_null_square(self, n2):
        P = direct_product(n2, n2)
        assert base_set(P) == {0}
        from finsemi import stratify
        assert stratify(P).height == 2

    def test_congruence_counts(self, z2, n2):
        assert len(enumerate_congruences(z2)) == 2
        assert len(enumerate_congruences(n2)) == 2
        chain = from_table(2, [[0, 0], [0, 1]])
        assert len(enumerate_congruences(chain)) == 2

    def test_congruences_monogenic(self, m32):
        # oracle (restricted-growth filter over all 15 partitions): 6 congruences
        congs = enumerate_congruences(m32)
        assert len(congs) == 6
        assert Partition([[0], [1], [2, 3]]) in congs

    def test_congruence_cap(self):
        S = zoo.full_transformations(3)
        with pytest.raises(OrderTooLarge):
            enumerate_congruences(S)

    def test_quotient_identity_partition(self, m32):
        Q, _ = quotient_by_congruence(m32, Partition([[x] for x in range(4)]))
        assert Q == m32

    def test_quotient_universal(self, m32):
        Q, _ = quotient_by_congruence(m32, Partition([[0, 1, 2, 3]]))
        assert Q.order == 1

    def test_quotient_kernel_collapse(self, m32):
        Q, idx = quotient_by_congruence(m32, Partition([[0], [1], [2, 3]]))
        assert Q == zoo.monogenic(3, 1)
        assert idx == (0, 1, 2, 2)

    def test_quotient_rejects_non_congruence(self, m32):
        p = Partition([[0, 1], [2], [3]])
        assert not is_congruence(m32, p)
        with pytest.raises(NotACongruence) as e:
            quotient_by_congruence(m32, p)
        a, b, c = e.value.witness
        assert p.same(a, b)
        assert (not p.same(m32.mul(a, c), m32.mul(b, c))
                or not p.same(m32.mul(c, a), m32.mul(c, b)))

    @pytest.mark.parametrize("classes", [[[0], [1]], [[0, 1, 2, 3]]])
    def test_partitions_of_another_order_are_rejected(self, classes):
        # [[0], [1]] passed as a congruence of order 3 and [[0, 1, 2, 3]]
        # raised a bare IndexError
        Z, p = zoo.zero_semigroup(3), Partition(classes)
        for call in (core.congruence_witness, is_congruence,
                     quotient_by_congruence):
            with pytest.raises(InvalidArgument) as e:
                call(Z, p)
            assert str(e.value) == (f"partition of [0, {p.n}) given for a "
                                    f"semigroup of order 3")
        assert Z._cache == {}

    @pytest.mark.parametrize("call, message", [
        # each raised a bare TypeError
        (lambda Z: Partition(5), "classes = 5 is not a collection of sets "
                                 "of integers"),
        (lambda Z: Partition([5]), "classes = [5] is not a collection of "
                                   "sets of integers"),
        (lambda Z: Partition([[0, "a"]]), "classes = [[0, 'a']] is not a "
                                          "collection of sets of integers"),
        (lambda Z: Partition([[0], [1]], n="x"), "n = 'x' is not an integer"),
        (lambda Z: Partition.from_index(5), "index = 5 is not a sequence of "
                                            "hashable class labels"),
        # each raised a bare AttributeError
        (lambda Z: core.congruence_witness(Z, 5),
         "partition = 5 is not a Partition"),
        (lambda Z: quotient_by_congruence(Z, 5),
         "partition = 5 is not a Partition"),
        (lambda Z: is_congruence(Z, None),
         "partition = None is not a Partition"),
        # an unhashable cache key raised a bare TypeError
        (lambda Z: quotient_by_congruence(Z, [[0], [1, 2]]),
         "partition = [[0], [1, 2]] is not a Partition"),
        # a bare ValueError from min() of the empty class
        (lambda Z: Partition([[0], []]), "empty class"),
        # each raised a bare AttributeError
        (lambda Z: core.identity_partition(None),
         "S = None is not a Semigroup"),
        (lambda Z: core.universal_partition(5), "S = 5 is not a Semigroup"),
        (lambda Z: core.congruence_witness(None, core.identity_partition(Z)),
         "S = None is not a Semigroup"),
        (lambda Z: is_congruence(None, core.identity_partition(Z)),
         "S = None is not a Semigroup"),
        (lambda Z: quotient_by_congruence([[0]], core.identity_partition(Z)),
         "S = [[0]] is not a Semigroup"),
        (lambda Z: enumerate_congruences(None), "S = None is not a Semigroup"),
    ], ids=["classes-int", "class-int", "class-str", "n-str", "from_index",
            "congruence_witness", "quotient", "is_congruence",
            "quotient-list", "class-empty", "identity_partition-S",
            "universal_partition-S", "congruence_witness-S",
            "is_congruence-S", "quotient-S", "enumerate_congruences-S"])
    def test_a_malformed_partition_is_named(self, call, message):
        Z = zoo.zero_semigroup(3)
        with pytest.raises(InvalidArgument) as e:
            call(Z)
        assert str(e.value) == message
        assert Z._cache == {}


def _growth_strings(n):
    """Every restricted growth string of length n, in lexicographic order."""
    strings = [()]
    for _ in range(n):
        strings = [r + (k,) for r in strings
                   for k in range(max(r, default=-1) + 2)]
    return strings


class TestPartitionValue:
    @pytest.mark.parametrize("n", range(7))
    def test_a_relabelled_growth_string_gives_its_partition(self, n):
        strings = _growth_strings(n)
        assert len(strings) == [1, 1, 2, 5, 15, 52, 203][n]   # Bell numbers
        perm = random.Random(n).sample(range(n), n)  # label order != rank
        relabel = [lambda k: f"class {perm[k]}", lambda k: -1 - perm[k],
                   lambda k: (perm[k], "x"), lambda k: 2 ** 64 + perm[k]]
        for r in strings:
            p = Partition([[x for x in range(n) if r[x] == k]
                           for k in range(len(set(r)))], n)
            assert p.index_of == r
            for f in relabel:
                q = Partition.from_index([f(k) for k in r])
                assert q == p and q.index_of == r and q.n == n
                assert hash(q) == hash(p)
                assert q.classes == p.classes
                mins = [min(c) for c in q.classes]
                assert mins == sorted(mins)

    def test_an_index_builds_without_the_checked_constructor(self, m32,
                                                             monkeypatch):
        def refuse(self, classes, n=None):
            raise AssertionError("Partition.__init__ called")

        monkeypatch.setattr(Partition, "__init__", refuse)
        p = Partition.from_index([0, 1, 0])
        assert p.classes == ({0, 2}, {1}) and p.index_of == (0, 1, 0)
        g = finsemi.green(m32)
        assert g.J.n == 4 and g.R.index_of == g.L.index_of == (0, 1, 2, 2)
        assert finsemi.rho_partition(m32).n == 4
        assert len(enumerate_congruences(m32)) == 6
        assert len(core.identity_partition(m32)) == 4
        assert len(core.universal_partition(m32)) == 1


class TestElementPredicates:
    def test_interchangeable_zero_semigroup(self):
        S = zoo.zero_semigroup(3)
        assert interchangeable(S, 1, 2)
        assert not interchangeable(S, 1, 1)
        assert not is_weakly_reductive(S)

    def test_monoids_weakly_reductive(self, z2, t2):
        assert is_weakly_reductive(z2)
        assert is_weakly_reductive(t2)
        assert is_weakly_reductive(adjoin_identity(zoo.zero_semigroup(3)))

    def test_clifford_weakly_reductive(self):
        Y = zoo.chain_semilattice(2)
        C = zoo.clifford(zoo.CliffordData(Y, (zoo.trivial(), zoo.cyclic_group(2)),
                                          {(1, 0): (0, 0)}))
        assert is_weakly_reductive(C)

    def test_globally_idempotent(self, z2, n2):
        assert is_globally_idempotent(z2)
        assert not is_globally_idempotent(n2)

    def test_adjoin_zero_regular_base(self, z2):
        S = adjoin_zero(z2)
        assert S.order == 3 and S.zero == 2
        assert base_set(S) == {0, 1, 2}

    def test_adjoin_identity(self, n2):
        S = adjoin_identity(n2)
        assert S.identity == 2
        assert monoid_completion(S) is S
        assert monoid_completion(n2).order == 3


class TestRestrictIsomorphic:
    def test_restrict_relabels(self, m32):
        sub, elems = restrict(m32, {2, 3})
        assert elems == [2, 3]
        assert sub.identity is not None  # the kernel is a group

    def test_restrict_to_everything_is_the_semigroup(self, m32):
        sub, elems = restrict(m32, {0, 1, 2, 3})
        assert sub is m32 and elems == [0, 1, 2, 3]

    def test_isomorphic_rejects_different_structure(self, z2, n2):
        assert not isomorphic(z2, n2)

    def test_isomorphic_relabeling(self, z2):
        flipped = from_table(2, [[1, 0], [0, 1]])  # identity at index 1
        assert isomorphic(z2, flipped)
        # a search that stopped at its first full assignment missed this one
        S = from_table(4, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 0],
                           [0, 0, 0, 0]])
        assert_relabeling_found(S, (0, 2, 3, 1))

    def test_isomorphism_found_under_every_relabeling_order4(self):
        rng = random.Random(4)
        for S in zoo.enumerate_associative(4):
            perm = list(range(4))
            rng.shuffle(perm)
            assert_relabeling_found(S, perm)

    def test_relabelled_large_fixtures_are_found(self):
        # orders 540 to 799: the search maps generators, not all elements
        cases = zip(LARGE_FIXTURES, relabelled(LARGE_FIXTURES))
        for (_, build), (name, R) in cases:
            S = build()
            phi = find_isomorphism(S, R)
            assert sorted(phi) == list(S.elements), name
            assert all(phi[S.mul(a, b)] == R.mul(phi[a], phi[b])
                       for a in S.elements for b in S.elements), name

    def test_a_hard_pair_is_answered_within_the_budget(self, monkeypatch):
        # C12 and 2 C6: every element's profile matches, the graphs do not
        S, T = cycles_semigroup(12), cycles_semigroup(6, 6)
        assert sorted(core._profiles(S)) == sorted(core._profiles(T))
        assert find_isomorphism(S, T) is None
        assert find_isomorphism(cycles_semigroup(6, 6), T) is not None
        # the search for None takes 10,428 pair checks
        monkeypatch.setattr(core, "ISOMORPHISM_PAIR_BUDGET", 1000)
        with pytest.raises(SearchBudgetExceeded) as e:
            find_isomorphism(S, T)
        assert e.value.budget == 1000

    def test_order4_isomorphism_classes(self):
        # OEIS A027851: 188 semigroups of order 4 up to isomorphism
        buckets = {}
        for S in zoo.enumerate_associative(4):
            key = tuple(sorted(
                (S.mul(a, a) == a, len(set(S._rows[a])),
                 len({S.mul(x, a) for x in range(4)}),
                 len({S.mul(S.mul(a, a), a), S.mul(a, a), a}))
                for a in range(4)))
            reps = buckets.setdefault(key, [])
            if not any(isomorphic(S, R) for R in reps):
                reps.append(S)
        assert sum(map(len, buckets.values())) == 188


class TestDerivedCache:
    """Derived structures are built once per parent; errors never cached."""

    KERNEL = Partition([[0], [1], [2, 3]])

    def derived(self, S):
        """(restriction, Rees quotient, congruence quotient, strata) of S."""
        return (restrict(S, {2, 3}), rees_quotient(S, {2, 3}),
                quotient_by_congruence(S, self.KERNEL), stratify(S))

    def test_second_call_returns_the_cached_object(self, m32):
        first = self.derived(m32)
        second = self.derived(m32)
        assert first[0][0] is second[0][0]
        for a, b in zip(first[1:], second[1:]):
            assert a is b

    def test_cached_objects_equal_a_fresh_computation(self):
        S = zoo.monogenic(3, 2)
        self.derived(S)
        for mine, fresh in zip(self.derived(S), self.derived(Semigroup(S._rows))):
            assert mine == fresh
        # Semigroup equality compares tables; compare the labels apart
        sub, _ = restrict(S, {2, 3})
        fresh, _ = restrict(Semigroup(S._rows, labels=S.labels), {2, 3})
        assert sub.labels == fresh.labels == ("a^3", "a^4")

    def test_errors_are_raised_with_equal_witnesses_every_call(self, m32, z2):
        bad_partition = Partition([[0, 1], [2], [3]])
        cases = [(NotASubsemigroup, lambda: restrict(m32, {0, 2})),
                 (NotAnIdeal, lambda: rees_quotient(z2, {0})),
                 (NotACongruence,
                  lambda: quotient_by_congruence(m32, bad_partition))]
        for error, call in cases:
            witnesses = []
            for _ in range(2):
                with pytest.raises(error) as e:
                    call()
                witnesses.append(e.value.witness)
            assert witnesses[0] == witnesses[1] is not None

    def test_mutating_a_result_leaves_the_cache_alone(self, m32):
        _, elems = restrict(m32, {2, 3})
        elems.append(99)
        assert restrict(m32, {2, 3})[1] == [2, 3]
        congs = enumerate_congruences(m32)
        congs.clear()
        assert len(enumerate_congruences(m32)) == 6

    def test_two_restricts_make_one_construction(self, m32, monkeypatch):
        built = []
        derived = Semigroup._derived

        def counting_derived(rows, labels=None):
            built.append(len(rows))
            return derived(rows, labels)

        monkeypatch.setattr(Semigroup, "_derived", counting_derived)
        restrict(m32, {2, 3})
        restrict(m32, [3, 2])
        assert built == [2]

    @pytest.mark.parametrize("analyse", [
        analysis_bundle,
        lambda S: extend.classify_extension(S, {0, 1, 2, 3}),
        lambda S: extend.recover_partial_hom(S, {0, 1, 2, 3}),
        lambda S: extend.clifford_decompose(S, {0, 1, 2, 3}),
    ], ids=["analysis_bundle", "classify_extension", "recover_partial_hom",
            "clifford_decompose"])
    def test_an_analysed_semigroup_pickles_as_its_value(self, analyse):
        # a strict extension of the chain 0 < 1 < 2 < 3 by x1 -> 2
        S = extend.build_extension(extend.PartialHom(
            zoo.zero_semigroup(2), zoo.chain_semilattice(4), {1: 2})).sigma
        analyse(S)
        assert S._cache
        copies = [pickle.loads(pickle.dumps(S, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.deepcopy(S), copy.copy(S)]:
            assert back == S and back is not S
            assert back.labels == S.labels == ("e0", "e1", "e2", "e3", "x1")
            assert back._cache == {}

    def test_cached_none_is_a_hit_and_errors_are_not_cached(self, z2):
        calls = []

        def none():
            calls.append("none")

        def fail():
            calls.append("fail")
            raise NotAnIdeal((0, 0))

        assert _cached(z2, "probe", none) is None
        assert _cached(z2, "probe", none) is None
        for _ in range(2):
            with pytest.raises(NotAnIdeal):
                _cached(z2, "failing", fail)
        assert calls == ["none", "fail", "fail"]


def test_power_formulas_exhaustive_order2():
    # (S/p)^m = image(S^m) and (SxT)^m = S^m x T^m over every order-2 pair
    tables = list(zoo.enumerate_associative(2))
    for S in tables:
        for p in enumerate_congruences(S):
            Q, idx = quotient_by_congruence(S, p)
            for m in (1, 2, 3):
                assert power_set(Q, m) == {idx[x] for x in power_set(S, m)}
    for S, T in itertools.product(tables, repeat=2):
        P = direct_product(S, T)
        for m in (1, 2, 3, 4):
            assert power_set(P, m) == {pair_index(T, a, b)
                                       for a in power_set(S, m)
                                       for b in power_set(T, m)}


def literal_subsemigroup_witness(S, A):
    for a in sorted(A):
        for b in sorted(A):
            if S.mul(a, b) not in A:
                return (a, b)
    return None


def literal_ideal_witness(S, A):
    for s in S.elements:
        for a in sorted(A):
            if S.mul(s, a) not in A or S.mul(a, s) not in A:
                return (s, a)
    return None


def literal_semilattice_message(S):
    """The first failure of verify_rho's row-by-row semilattice loop."""
    for a in S.elements:
        if S.mul(a, a) != a:
            return "non-idempotent"
        for b in S.elements:
            if S.mul(a, b) != S.mul(b, a):
                return "not commutative"
    return None


class TestWitnesses:
    def test_subsemigroup_and_ideal_on_every_subset_up_to_order3(self):
        cases = 0
        for n in (1, 2, 3):
            for S in zoo.enumerate_associative(n):
                for k in range(n + 1):
                    for A in itertools.combinations(range(n), k):
                        A = frozenset(A)
                        cases += 1
                        assert (subsemigroup_witness(S, A)
                                == literal_subsemigroup_witness(S, A))
                        assert ideal_witness(S, A) == literal_ideal_witness(S, A)
        assert cases == 938

    def test_raise_sites_report_the_helper_witness(self):
        for S in zoo.enumerate_associative(3):
            for k in range(4):
                for A in itertools.combinations(range(3), k):
                    A = frozenset(A)
                    try:
                        restrict(S, A)
                    except NotASubsemigroup as e:
                        assert e.witness == literal_subsemigroup_witness(S, A)
                    else:
                        assert A and literal_subsemigroup_witness(S, A) is None
                    try:
                        rees_quotient(S, A)
                    except NotAnIdeal as e:
                        assert e.witness == literal_ideal_witness(S, A)
                    else:
                        assert A and literal_ideal_witness(S, A) is None

    def test_semilattice_on_every_table_up_to_order4(self):
        tables = 0
        for n in (1, 2, 3, 4):
            for S in zoo.enumerate_associative(n):
                tables += 1
                w = semilattice_witness(S)
                message = None if w is None else (
                    "non-idempotent" if w[0] == w[1] else "not commutative")
                assert message == literal_semilattice_message(S), S._rows
        assert tables == 3614

    def test_semilattice_witness_pairs(self, z2):
        assert semilattice_witness(zoo.chain_semilattice(3)) is None
        assert semilattice_witness(z2) == (1, 1)
        assert semilattice_witness(from_table(2, [[0, 0], [1, 1]])) == (0, 1)
