"""Derived tables: the seven builders that skip the associativity check
give the same semigroups as checked construction from the literal loops
they replaced, the row-wise congruence and partial-hom scans give the
literal witnesses, and external input is still fully checked.

The `literal_*` functions are the loops the builders used before they read
whole rows; each result goes through the checked `Semigroup` constructor,
except the extension rows, which the cube scan `first_failing_triple`
checks: `build_extension` skips the check by Clifford's theorem, so every
map that obeys the partial-hom law must give an associative table.
"""

import itertools
import random

import pytest

from finsemi import (
    Partition,
    Semigroup,
    adjoin_identity,
    adjoin_zero,
    congruence_witness,
    direct_product,
    enumerate_congruences,
    from_table,
    is_ideal,
    is_subsemigroup,
    parse_sgt,
    quotient_by_congruence,
    rees_quotient,
    restrict,
    universal_partition,
    zoo,
)
from finsemi import core, properties
from finsemi.errors import (
    IndexOutOfRange,
    InvalidArgument,
    LawViolation,
    NonAssociative,
    NonSquare,
    SgtParseError,
)
from finsemi.extend import (
    PartialHom,
    build_extension,
)
from finsemi.properties import (
    _raw_derivation_witness,
    check_product_pair,
    check_semigroup,
)

# the fixtures of tests/test_golden.py
GOLDEN = (
    lambda: zoo.free_nilpotent(2, 7),
    lambda: zoo.monogenic(100, 100),
    lambda: direct_product(zoo.full_transformations(3), zoo.chain_semilattice(8)),
    lambda: zoo.rectangular_band(16, 18),
)


def literal_restrict(S, A):
    elems = sorted(A)
    pos = {a: i for i, a in enumerate(elems)}
    rows = [[pos[S.mul(a, b)] for b in elems] for a in elems]
    labels = [S.label(a) for a in elems] if S.labels else None
    return Semigroup(rows, labels=labels)


def literal_rees_quotient(S, I):
    outside = [x for x in S.elements if x not in I]
    k = len(outside)
    pos = {x: i for i, x in enumerate(outside)}
    qmap = tuple(pos.get(x, k) for x in S.elements)
    rows = [[k] * (k + 1) for _ in range(k + 1)]
    for i, a in enumerate(outside):
        for j, b in enumerate(outside):
            rows[i][j] = qmap[S.mul(a, b)]
    labels = [S.label(x) for x in outside] + ["0"] if S.labels else None
    return Semigroup(rows, labels=labels)


def literal_quotient(S, p):
    reps = [min(c) for c in p.classes]
    rows = [[p.index_of[S.mul(a, b)] for b in reps] for a in reps]
    labels = None
    if S.labels:
        labels = ["{" + ",".join(S.label(x) for x in sorted(c)) + "}"
                  for c in p.classes]
    return Semigroup(rows, labels=labels)


def literal_product(S, T):
    nt = T.order
    prod = S.table[:, None, :, None] * nt + T.table[None, :, None, :]
    rows = prod.reshape(S.order * nt, S.order * nt).tolist()
    labels = None
    if S.labels and T.labels:
        labels = [f"({S.label(i)},{T.label(j)})"
                  for i in S.elements for j in T.elements]
    return Semigroup(rows, labels=labels)


def literal_adjoin(S, new):
    """S plus element n with n*x = x*n = new[x]."""
    rows = [list(row) + [new[i]] for i, row in enumerate(S._rows)]
    rows.append(list(new))
    return rows


def literal_congruence_witness(S, partition):
    idx = partition.index_of
    t = S._rows
    for c in partition.classes:
        members = sorted(c)
        a = members[0]
        for b in members[1:]:
            for x in range(S.order):
                if idx[t[a][x]] != idx[t[b][x]] or idx[t[x][a]] != idx[t[x][b]]:
                    return (a, b, x)
    return None


def literal_extension_rows(T, S, f):
    ns = S.order
    outside = [x for x in T.elements if x != T.zero]
    pos = {x: ns + i for i, x in enumerate(outside)}
    n = ns + len(outside)
    rows = [[0] * n for _ in range(n)]
    for s in range(ns):
        for t in range(ns):
            rows[s][t] = S.mul(s, t)
    for a in outside:
        fa = f[a]
        for s in range(ns):
            rows[pos[a]][s] = S.mul(fa, s)
            rows[s][pos[a]] = S.mul(s, fa)
        for b in outside:
            ab = T.mul(a, b)
            rows[pos[a]][pos[b]] = pos[ab] if ab != T.zero else S.mul(fa, f[b])
    return rows


def literal_law_violation(T, S, mapping):
    nonzero = [x for x in T.elements if x != T.zero]
    for a in nonzero:
        for b in nonzero:
            ab = T.mul(a, b)
            if ab != T.zero and mapping[ab] != S.mul(mapping[a], mapping[b]):
                return (a, b)
    return None


def literal_hom_violation(S, T, f):
    """The first (a, b) with f[a*b] != f[a]*f[b], for a list map f: S -> T."""
    return next(((a, b) for a in S.elements for b in S.elements
                 if f[S.mul(a, b)] != T.mul(f[a], f[b])), None)


def all_zero_rows(T):
    """For each nonzero a of T, in order, whether every ab (b != 0) is 0."""
    nonzero = [x for x in T.elements if x != T.zero]
    return [all(T.mul(a, b) == T.zero for b in nonzero) for a in nonzero]


def relabelled(S, perm):
    """S with element x renamed perm[x], built by the checked constructor."""
    inv = sorted(S.elements, key=perm.__getitem__)
    return Semigroup([[perm[S.mul(inv[i], inv[j])] for j in S.elements]
                      for i in S.elements])


def word_map(T, S, letters):
    """The map sending each nonzero word of a free_nilpotent T to the
    product in S of its letters' images; it obeys the partial-hom law."""
    mapping = {}
    for x in T.elements:
        if x != T.zero:
            images = [letters[ord(c) - ord("a")] for c in T.label(x)]
            value = images[0]
            for v in images[1:]:
                value = S.mul(value, v)
            mapping[x] = value
    return mapping


def first_failing_triple(rows):
    n = len(rows)
    return next(((i, j, k) for i in range(n) for j in range(n)
                 for k in range(n)
                 if rows[rows[i][j]][k] != rows[i][rows[j][k]]), None)


def fields(S):
    return S.order, S._rows, S.zero, S.identity, S.labels


def small_tables():
    """Every table of order <= 3, unlabelled and labelled."""
    for n in (1, 2, 3):
        for S in zoo.enumerate_associative(n):
            yield S
            yield Semigroup(S._rows, labels="xyz"[:n])


class TestSameAsCheckedConstruction:
    def test_every_restriction_quotient_up_to_order3(self):
        counts = [0, 0, 0]
        for S in small_tables():
            for k in range(1, S.order + 1):
                for A in map(frozenset, itertools.combinations(S.elements, k)):
                    if is_subsemigroup(S, A):
                        counts[0] += 1
                        assert (fields(restrict(S, A)[0])
                                == fields(literal_restrict(S, A)))
                    if is_ideal(S, A):
                        counts[1] += 1
                        assert (fields(rees_quotient(S, A)[0])
                                == fields(literal_rees_quotient(S, A)))
            for p in enumerate_congruences(S):
                counts[2] += 1
                assert (fields(quotient_by_congruence(S, p)[0])
                        == fields(literal_quotient(S, p)))
        assert all(counts)

    def test_2000_order4_product_pairs(self):
        tables = list(zoo.enumerate_associative(4))
        rng = random.Random(4)
        for _ in range(2000):
            S, T = rng.choice(tables), rng.choice(tables)
            if rng.random() < 0.5:
                S = Semigroup(S._rows, labels="abcd")
                T = Semigroup(T._rows, labels="wxyz")
            assert fields(direct_product(S, T)) == fields(literal_product(S, T))

    @pytest.mark.parametrize("make", GOLDEN, ids=range(len(GOLDEN)))
    def test_adjoin_on_golden_fixtures(self, make):
        S = make()
        n = S.order
        labels = list(S.labels) if S.labels else None
        zero = Semigroup(literal_adjoin(S, [n] * (n + 1)),
                         labels=labels and labels + ["0"])
        one = Semigroup(literal_adjoin(S, list(range(n + 1))),
                        labels=labels and labels + ["1"])
        assert fields(adjoin_zero(S)) == fields(zero)
        assert fields(adjoin_identity(S)) == fields(one)

    def test_shape_range_and_labels_still_checked(self):
        with pytest.raises(NonSquare):
            Semigroup._derived([(0, 0), (0,)])
        with pytest.raises(IndexOutOfRange):
            Semigroup._derived([(0, 2), (0, 0)])
        with pytest.raises(InvalidArgument):
            Semigroup._derived([(0, 0), (0, 0)], labels=["a"])

    def test_builds_no_int64_table(self, monkeypatch):
        """direct_product reads the rows; `table` is never built."""
        def refuse(self):
            raise AssertionError("table built")
        monkeypatch.setattr(Semigroup, "table", property(refuse))
        S = zoo.monogenic(3, 2)
        assert direct_product(S, S).order == 16


class TestRowScans:
    def test_congruence_witness_on_every_partition_up_to_order3(self):
        cases = 0
        for n in (1, 2, 3):
            partitions = {Partition.from_index(rgs)
                          for rgs in itertools.product(range(n), repeat=n)}
            for S in zoo.enumerate_associative(n):
                for p in partitions:
                    cases += 1
                    assert (congruence_witness(S, p)
                            == literal_congruence_witness(S, p))
        assert cases == 1 + 8 * 2 + 113 * 5

    def test_congruences_are_the_partitions_the_literal_scan_passes(self):
        """Every labelled table of order <= 4: the enumeration lists
        exactly the partitions without a literal witness, by index_of."""
        tables = 0
        for n in (1, 2, 3, 4):
            partitions = sorted({Partition.from_index(rgs) for rgs
                                 in itertools.product(range(n), repeat=n)},
                                key=lambda p: p.index_of)
            for S in zoo.enumerate_associative(n):
                tables += 1
                assert enumerate_congruences(S) == [
                    p for p in partitions
                    if literal_congruence_witness(S, p) is None]
        assert tables == 3614

    def test_build_and_validate_on_every_map(self):
        """All 2^6 and 3^6 maps from free_nilpotent(2, 3) \\ {0}: a map
        that obeys the law gives literal rows the cube scan finds
        associative, and build_extension gives exactly those rows; a map
        that breaks it is refused by PartialHom with the literal first
        failing pair, whether or not its table is associative, so the
        literal rows take the bare map."""
        T = zoo.free_nilpotent(2, 3)
        nonzero = [x for x in T.elements if x != T.zero]
        seen = set()
        for S in (zoo.cyclic_group(2), zoo.monogenic(2, 1)):
            for images in itertools.product(S.elements, repeat=len(nonzero)):
                mapping = dict(zip(nonzero, images))
                law = literal_law_violation(T, S, mapping)
                rows = literal_extension_rows(T, S, mapping)
                associative = first_failing_triple(rows) is None
                seen.add((law is None, associative))
                if law is None:
                    assert associative
                    w = build_extension(PartialHom(T, S, mapping))
                    assert w.sigma._rows == tuple(map(tuple, rows))
                    continue
                with pytest.raises(LawViolation) as e:
                    PartialHom(T, S, mapping)
                assert e.value.pair == law
        assert seen == {(True, True), (False, True), (False, False)}


class TestRowKernels:
    """The row kernels against the literal loops, on the edge cases of
    their C-level fall-throughs and gathers."""

    def test_extension_with_zero_not_last(self):
        """T's zero at index 0: a zero product takes map(a)map(b) through
        the dict default, whatever index the zero has."""
        base = zoo.free_nilpotent(2, 3)
        n = base.order
        T = relabelled(base, [(x + 1) % n for x in base.elements])
        assert T.zero == 0
        nonzero = [x for x in T.elements if x != T.zero]
        built = 0
        for S in (zoo.cyclic_group(2), zoo.monogenic(2, 1)):
            for images in itertools.product(S.elements, repeat=len(nonzero)):
                mapping = dict(zip(nonzero, images))
                if literal_law_violation(T, S, mapping) is None:
                    w = build_extension(PartialHom(T, S, mapping))
                    rows = literal_extension_rows(T, S, mapping)
                    assert w.sigma._rows == tuple(map(tuple, rows))
                    built += 1
        assert built > 2

    def test_extension_of_a_trivial_ideal(self):
        T = zoo.free_nilpotent(2, 3)
        S = zoo.trivial()
        mapping = {x: 0 for x in T.elements if x != T.zero}
        w = build_extension(PartialHom(T, S, mapping))
        assert w.sigma._rows == tuple(
            map(tuple, literal_extension_rows(T, S, mapping)))

    def test_extension_above_order_256_is_interned(self):
        T, S = zoo.free_nilpotent(1, 30), zoo.cyclic_group(240)
        mapping = word_map(T, S, [0])
        w = build_extension(PartialHom(T, S, mapping))
        n = w.sigma.order
        assert n == 269
        assert w.sigma._rows == tuple(
            map(tuple, literal_extension_rows(T, S, mapping)))
        # one int object per element that is a product
        cells = [v for row in w.sigma._rows for v in row]
        assert len(set(map(id, cells))) == len(set(cells))

    def test_law_failure_on_seeded_partial_maps(self):
        """Random maps, most breaking the law, from sources whose products
        leave the domain at a zero that is last or first."""
        base = zoo.free_nilpotent(2, 3)
        sources = (base, relabelled(base, [(x + 1) % base.order
                                           for x in base.elements]),
                   zoo.zero_semigroup(4), zoo.free_nilpotent(3, 3))
        targets = list(zoo.enumerate_associative(3)) + [zoo.monogenic(2, 3)]
        rng = random.Random(34)
        outcomes = set()
        for _ in range(400):
            T, S = rng.choice(sources), rng.choice(targets)
            nonzero = [x for x in T.elements if x != T.zero]
            mapping = {x: rng.randrange(S.order) for x in nonzero}
            law = literal_law_violation(T, S, mapping)
            assert core._law_failure(T, S, mapping, nonzero) == law
            outcomes.add(law is None)
        assert outcomes == {True, False}

    # each source with the all-zero flags of its nonzero rows: a, b, aa,
    # ab, ba, bb, 0 renamed so that the zero rows of aa, ab, ba, bb come
    # first in domain order; no zero row; only zero rows
    ZERO_ROW_SOURCES = {
        "zero-rows-first": (lambda: relabelled(zoo.free_nilpotent(2, 3),
                                               [4, 5, 0, 1, 2, 3, 6]),
                            [True] * 4 + [False] * 2),
        "no-zero-row": (lambda: adjoin_zero(zoo.cyclic_group(3)),
                        [False] * 3),
        "all-zero": (lambda: zoo.zero_semigroup(5), [True] * 4),
    }

    @staticmethod
    def every_map(T):
        """Every map of T's nonzero elements into each order-2 table and C3,
        with its target."""
        nonzero = [x for x in T.elements if x != T.zero]
        for S in [*zoo.enumerate_associative(2), zoo.cyclic_group(3)]:
            for images in itertools.product(S.elements, repeat=len(nonzero)):
                yield S, dict(zip(nonzero, images))

    @pytest.mark.parametrize("name", ZERO_ROW_SOURCES)
    def test_law_failure_skips_zero_rows(self, name):
        """A row whose products all leave the domain is skipped: the
        witness stays the first failing pair in domain order."""
        make, zero_rows = self.ZERO_ROW_SOURCES[name]
        T = make()
        assert all_zero_rows(T) == zero_rows
        nonzero = [x for x in T.elements if x != T.zero]
        outcomes = set()
        for S, mapping in self.every_map(T):
            law = literal_law_violation(T, S, mapping)
            assert core._law_failure(T, S, mapping, nonzero) == law
            outcomes.add(law is None)
        assert outcomes == ({True} if all(zero_rows) else {True, False})

    @pytest.mark.parametrize("name", ["no-zero-row", "all-zero"])
    def test_extension_of_zero_row_sources(self, name):
        T = self.ZERO_ROW_SOURCES[name][0]()
        built = 0
        for S, mapping in self.every_map(T):
            if literal_law_violation(T, S, mapping) is None:
                w = build_extension(PartialHom(T, S, mapping))
                rows = literal_extension_rows(T, S, mapping)
                assert w.sigma._rows == tuple(map(tuple, rows))
                built += 1
        assert built > 2

    @pytest.mark.parametrize("T, S, letters", [
        (zoo.free_nilpotent(2, 3), zoo.cyclic_group(2), [0, 1]),
        (zoo.free_nilpotent(3, 3), zoo.monogenic(2, 3), [0, 1, 2]),
        (zoo.free_nilpotent(1, 30), zoo.cyclic_group(200), [1]),
    ])
    def test_extension_shares_zero_rows(self, T, S, letters):
        """Up to order 256 the row of an a in T \\ {0} whose products are all
        zero is the very tuple of map(a)'s row."""
        mapping = word_map(T, S, letters)
        sigma = build_extension(PartialHom(T, S, mapping)).sigma
        assert sigma.order <= 256
        outside = [x for x in T.elements if x != T.zero]
        zero_rows = all_zero_rows(T)
        assert any(zero_rows) and not all(zero_rows)
        for i, a in enumerate(outside):
            if zero_rows[i]:
                assert sigma._rows[S.order + i] is sigma._rows[mapping[a]]
        assert sigma._rows == tuple(
            map(tuple, literal_extension_rows(T, S, mapping)))

    def test_law_failure_on_full_domain_list_maps(self):
        """The homomorphism test of a list map on all of S, as
        `clifford_decompose` runs it for Sigma/~ -> Y."""
        tables = list(zoo.enumerate_associative(3))
        rng = random.Random(43)
        outcomes = set()
        for _ in range(400):
            S, T = rng.choice(tables), rng.choice(tables)
            f = [rng.randrange(T.order) for _ in S.elements]
            hom = literal_hom_violation(S, T, f)
            assert core._law_failure(S, T, f, S.elements) == hom
            outcomes.add(hom is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("make", [zoo.trivial, lambda: zoo.monogenic(3, 2),
                                      lambda: zoo.rectangular_band(2, 3),
                                      lambda: zoo.monogenic(150, 150)])
    def test_image_rows_with_one_representative(self, make):
        S = make()
        whole = frozenset(S.elements)
        Q, idx = quotient_by_congruence(S, universal_partition(S))
        assert idx == (0,) * S.order
        assert fields(Q) == fields(literal_quotient(S, universal_partition(S)))
        assert (fields(rees_quotient(S, whole)[0])
                == fields(literal_rees_quotient(S, whole)))
        e = next(x for x in S.elements if S.mul(x, x) == x)
        assert fields(restrict(S, {e})[0]) == fields(literal_restrict(S, {e}))

    @pytest.mark.parametrize("rows, cell", [
        ([[0, 1, 2], [0, -1, 3], [0, 0, 0]], (1, 1, -1)),
        ([[0, 1, 2], [0, 3, -1], [0, 0, 0]], (1, 1, 3)),
        ([[0, 0, 0], [5, 0, 0], [0, 0, -7]], (1, 0, 5)),
    ])
    def test_index_out_of_range_names_the_first_cell(self, rows, cell):
        """A negative and a too-large entry: every entry point names the
        first of them in row-major order."""
        i, j, v = cell
        expected = str(IndexOutOfRange(i, j, v, len(rows)))
        text = f"{len(rows)}\n" + "".join(
            " ".join(map(str, r)) + "\n" for r in rows)
        for build in (lambda: Semigroup(rows),
                      lambda: from_table(len(rows), rows),
                      lambda: Semigroup._derived(list(map(tuple, rows)))):
            with pytest.raises(IndexOutOfRange) as e:
                build()
            assert (e.value.i, e.value.j, e.value.value) == cell
            assert str(e.value) == expected
        with pytest.raises(SgtParseError) as e:
            parse_sgt(text)
        assert e.value.line == 2 + i
        assert str(e.value) == f"line {2 + i}: {expected}"


class TestExternalInputFullyChecked:
    @pytest.mark.parametrize("make", [lambda: zoo.monogenic(3, 2),
                                      lambda: zoo.free_nilpotent(2, 4),
                                      lambda: zoo.monogenic(70, 70)])
    def test_one_corrupted_cell(self, make):
        S = make()
        n = S.order
        rng = random.Random(n)
        for _ in range(3):
            rows = [list(r) for r in S._rows]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = (rows[i][j] + 1 + rng.randrange(n - 1)) % n
            triple = first_failing_triple(rows)
            assert triple is not None
            text = f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
            for build in (lambda: Semigroup(rows), lambda: from_table(n, rows),
                          lambda: parse_sgt(text)):
                with pytest.raises(NonAssociative) as e:
                    build()
                assert e.value.triple == triple


class TestDerivationOracle:
    def test_sound_derivations_pass(self):
        S = zoo.monogenic(3, 2)
        sub, elems = restrict(S, {2, 3})
        Q, qmap = rees_quotient(S, {2, 3})
        assert _raw_derivation_witness("restrict", sub, S, elems) is None
        assert _raw_derivation_witness("quotient", Q, S, qmap) is None
        assert _raw_derivation_witness("product", direct_product(S, sub),
                                       S, T=sub) is None
        assert _raw_derivation_witness("zero", adjoin_zero(S), S) is None
        assert _raw_derivation_witness("identity", adjoin_identity(S), S) is None
        assert check_semigroup(S) == []
        assert check_product_pair(S, sub) == []

    def test_wrong_maps_are_reported(self):
        S = zoo.monogenic(3, 2)
        sub, _ = restrict(S, {2, 3})
        assert "not one-to-one" in _raw_derivation_witness(
            "restrict", sub, S, [2, 2])
        Q, _ = rees_quotient(S, {2, 3})
        assert "not onto" in _raw_derivation_witness(
            "quotient", Q, S, (0, 1, 0, 0))
        assert "gives order" in _raw_derivation_witness(
            "identity", adjoin_zero(sub), S)

    @staticmethod
    def corrupt(D):
        """D with its cell (0, 0) moved to the next element."""
        rows = [list(r) for r in D._rows]
        rows[0][0] = (rows[0][0] + 1) % D.order
        return Semigroup._derived([tuple(r) for r in rows], D.labels)

    def test_corrupted_rees_quotient_is_caught(self, monkeypatch):
        rees = core._rees_quotient

        def corrupted(S, I):
            Q, qmap = rees(S, I)
            return self.corrupt(Q), qmap

        monkeypatch.setattr(core, "_rees_quotient", corrupted)
        messages = check_semigroup(zoo.monogenic(3, 2))
        assert ("quotient table of order 3 disagrees with its parent at (0, 0)"
                in messages)

    def test_corrupted_product_is_caught(self, monkeypatch):
        product = properties.direct_product
        monkeypatch.setattr(properties, "direct_product",
                            lambda S, T: self.corrupt(product(S, T)))
        S = zoo.monogenic(3, 2)
        T = zoo.cyclic_group(2)
        assert check_product_pair(S, T)[0] == (
            "product table of order 8 disagrees with its parent at (0, 0)")

