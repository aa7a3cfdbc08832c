"""Finite semigroups as Cayley tables, plus the set/partition machinery.

A semigroup of order n is a validated n x n table of element indices;
table[i][j] is the product i*j with i the left factor.  It is stored once,
as the row tuples `_rows`; the int64 array `table` is built from them,
and numpy imported, on access.  Subsets of elements are plain frozensets
of indices, partitions are `Partition` objects, each built in one pass
from a class index and compared by its restricted growth string.  All
values are immutable after construction and every operation is a pure
function of its inputs.

A table is checked for associativity once, where it enters the library:
`Semigroup(...)`, `from_table` and `parse_sgt` (and so every zoo
constructor but `partial_map_extension`) run the full check.  Seven
builders make tables that are associative by theorem from checked
semigroups and skip it through `Semigroup._derived`: `restrict` (a
subsemigroup), `rees_quotient` and `quotient_by_congruence` (homomorphic
images, by a checked ideal or congruence), `direct_product`, `adjoin_zero`,
`adjoin_identity`, and `extend.build_extension` (an extension by a partial
homomorphism, checked when it was made, associative by Clifford's theorem).
They fill their tables from whole rows of their inputs; the subsemigroup and
the two quotients share one row map, `_image_rows`, and an extension maps
only the rows of T that hold a nonzero product, sharing the others with S.
A pickled or copied Semigroup is rebuilt through `_derived` too, from its
checked rows, without its cache.  Every map that must obey a law (a linking
or partial homomorphism) is checked by one function, `_law_failure`, which
names the first failing pair and skips every row whose products all leave
the domain.

The check is Light's test; the cube scan only names the witness.  Both
run in `_failure`, in O(n^2) memory, the only place the constructor
imports numpy.  Above order 256 every table, checked or derived, also has
its rows rebuilt from the ints of one tuple(range(n)), so it keeps one
int object per element and one 8-byte pointer per cell.

Structure derived from a semigroup is computed once and memoized in its
`_cache` dict by `_cached`, for the semigroup's lifetime.  The keys:

- "green": the `GreenStructure` (`green.green`);
- "idempotents", "regular": E(S) and Reg(S) (`green`);
- "ccr_witness": a regular H-class without idempotent, or None (`green`);
- "stratify": the `StratificationReport` (`stratify.stratify`);
- "rho": the rho partition of a CCR semigroup (`decompose.rho_partition`);
- "congruences": every congruence, as a tuple (`enumerate_congruences`);
- ("restrict", A), ("rees", I): `restrict` and `rees_quotient` results,
  keyed by the frozenset argument;
- ("quotient", p): the `quotient_by_congruence` result, keyed by the
  Partition;
- ("extension", I): the twins and the first alike pair of the extension
  S ⊇ I (`extend._analysis`), keyed by the frozenset ideal;
- ("ideal", A): whether the frozenset A is an ideal (`_is_ideal`);
- ("phi", I, image): the PartialHom of S/I into I (`extend._phi_from`),
  keyed by the ideal and the frozenset of image's items.

An input that raises caches nothing, so every call re-raises the same
error with the same witness; a cached False from `_is_ideal` does too,
since each caller names its witness anew by `ideal_witness`.  Cache
writes are idempotent: two threads filling the same key store equal
values.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, filterfalse
from operator import eq, index, itemgetter
from os import PathLike

from .errors import (
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
    SgtParseError,
)

CONGRUENCE_ORDER_CAP = 6
ISOMORPHISM_PAIR_BUDGET = 2 ** 24  # per search: about 3 s of pair checks
# The largest order a uint16 index array can address.
ORDER_CAP = 65535
# Above order 256, `_failure` runs on the row tuples while its |mids| n^2
# cells are at most this many, and on numpy slabs above.
LIGHT_TUPLE_CELLS = 2 ** 22
# The numpy kernel of `_failure` holds an index of m*y for at most this many
# cells of mids x y at a time.
SCAN_BLOCK_CELLS = 2 ** 17
_MISSING = object()


class Semigroup:
    """An immutable finite semigroup given by its Cayley table.

    `entries` is a sequence of n rows of n element indices.  Construction
    validates every entry and full associativity, in O(n^2) memory, by
    Light's test over a magma generating set G in O(|G| n^2 + n^2) time;
    the cube scan only names the witness, the lexicographically first
    failing triple of a non-associative table (`_failure`).  Above order
    256 the validated rows are rebuilt from one int object per element.
    A two-sided zero and a two-sided identity are detected automatically
    (each is unique when it exists).

    Tables derived from a semigroup that is already checked are built by
    `_derived`, which skips the associativity check: see its docstring.
    """

    __slots__ = ("order", "elements", "_rows", "labels", "zero", "identity", "_cache")

    def __init__(self, entries, labels=None):
        rows = _checked_rows(entries, _int_row)
        if _failure(rows, _magma_generators(rows)):
            raise NonAssociative(*_failure(rows, range(len(rows))))
        self._fill(rows, labels)

    @classmethod
    def _derived(cls, rows, labels=None):
        """A Semigroup on rows, a table associative by theorem.

        Only the seven builders of derived tables call this: `_restrict`
        (a subsemigroup of a checked semigroup), `_rees_quotient` and
        `_quotient` (homomorphic images of one, by a checked ideal or a
        checked congruence), `direct_product` (of two checked semigroups),
        `adjoin_zero`/`adjoin_identity` (an absorbing or neutral element
        added to one), and `extend.build_extension` (the extension of one
        checked semigroup by another along a partial homomorphism, which
        checked itself when it was made).  Each result is associative
        because its parents are, so the O(n^3) check is skipped; the
        shape, range and label checks, the interning of the rows above
        order 256 and the zero and identity detection are kept.
        `properties._raw_derivation_witness` re-checks the first six
        against their parent for `verify`; the extension tables are
        re-checked by the cube scan in the tests.  `rows` holds tuples of
        ints.
        """
        self = object.__new__(cls)
        self._fill(_checked_rows(rows, tuple), labels)
        return self

    def _fill(self, rows, labels):
        n = len(rows)
        if labels is not None:
            labels = _must(iter, labels, "labels", "a sequence")
            labels = tuple(map(str, labels))
            if len(labels) != n:
                raise InvalidArgument(f"expected {n} labels, got {len(labels)}")

        ident = tuple(range(n))
        self.order = n
        self.elements = range(n)
        self._rows = rows
        self.labels = labels
        # only an idempotent's row is counted, and a column is read only
        # for an element whose row passes, up to its first mismatch
        self.zero = next((z for z in range(n)
                          if rows[z][z] == z and rows[z].count(z) == n
                          and not any(map(z.__ne__, map(itemgetter(z), rows)))),
                         None)
        self.identity = next((e for e in range(n) if rows[e] == ident
                              and all(map(eq, map(itemgetter(e), rows), ident))),
                             None)
        self._cache = {}

    def mul(self, i, j):
        return self._rows[i][j]

    @property
    def table(self):
        """The table as a read-only int64 array, built anew on each access."""
        import numpy as np
        table = np.array(self._rows, dtype=np.int64)
        table.setflags(write=False)
        return table

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def __eq__(self, other):
        return isinstance(other, Semigroup) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __reduce__(self):
        # the value only, rebuilt without a check from rows that passed one;
        # the cache, which holds read-only views, is dropped
        return Semigroup._derived, (self._rows, self.labels)

    def __repr__(self):
        tag = f", zero={self.zero}" if self.zero is not None else ""
        tag += f", identity={self.identity}" if self.identity is not None else ""
        return f"Semigroup(order={self.order}{tag})"


def _int_row(row):
    # index, unlike int, rejects floats, strings and None; numpy ints pass
    return tuple(map(index, row))


def _checked_rows(entries, as_row):
    """The rows as_row(entry) as a tuple, once they form a nonempty square
    table of indices in [0, n); the order cap is checked before any row.

    Above order 256 each row is then rebuilt from the ints of one
    tuple(range(n)), so the table holds one int object per element (CPython
    already shares 0..256).  Only an index in range may be interned: a
    negative one would wrap.
    """
    n = _must(len, entries, "table", "a sequence of rows")
    if n > ORDER_CAP:
        raise OrderTooLarge(n, ORDER_CAP)
    if n == 0:
        raise NonSquare(0, 0, 0)
    rows = _rows_of(entries, as_row)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NonSquare(n, i, len(row))
    values = set().union(*rows)
    if min(values) < 0 or max(values) >= n:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    raise IndexOutOfRange(i, j, v, n)
    if n > 256:
        # row by row, so the old and the new table never coexist
        ident = tuple(range(n))
        for i, row in enumerate(rows):
            rows[i] = itemgetter(*row)(ident)
    return tuple(rows)


def _rows_of(entries, as_row):
    """The rows as_row(entry) as a list; InvalidArgument names the table,
    or its first row or cell, that is not a sequence or an integer."""
    _must(iter, entries, "table", "a sequence of rows")
    rows = []
    for i, row in enumerate(entries):
        try:
            rows.append(as_row(row))
        except TypeError:
            _must(iter, row, f"row table[{i}]", "a sequence")
            for j, v in enumerate(row):
                _must(index, v, f"entry table[{i}][{j}]", "an integer")
            raise
    return rows


def _must(check, value, name, kind):
    """check(value); InvalidArgument if that raises TypeError or ValueError
    (as dict("ab") does), unless it is an InvalidArgument already."""
    try:
        return check(value)
    except InvalidArgument:
        raise
    except (TypeError, ValueError):
        raise InvalidArgument(f"{name} = {value!r} is not {kind}") from None


def _magma_generators(rows):
    """A set G whose closure under the raw product of the table is [0, n).

    G starts with the elements that are no product (every generating set
    holds them) and grows by the least element not yet reached, each step
    closed by `_close`, so the closure costs O(n^2) and assumes nothing
    about associativity.
    """
    gens = sorted(set(range(len(rows))).difference(*rows))
    reached = _close(rows, {}, gens)
    for x in range(len(rows)):
        if x not in reached:
            gens.append(x)
            _close(rows, reached, [x])
    return gens


def _close(rows, reached, fresh):
    """reached, a dict of elements in the order they were reached, with
    fresh and every product made from them added.

    Each round reads x*y for every fresh x and reached y by one gather of
    row x, and y*x for every older y off the older rows at x, so each
    product is read once and no column is built.
    """
    while fresh:
        older = list(map(rows.__getitem__, reached))
        reached.update(dict.fromkeys(fresh))
        right, made = _getter(list(reached)), set()
        for x in fresh:
            made.update(right(rows[x]), map(itemgetter(x), older))
        fresh = made.difference(reached)
    return reached


def _failure(rows, mids):
    """The first (x, m, y) with (x*m)*y != x*(m*y), for m in mids, or None;
    ordered by x, then m in the order of mids, then y.

    With mids = range(n) this is the cube scan.  With mids a set G that
    generates the table as a magma it is Light's test: the elements a with
    (x*a)*y = x*(a*y) for all x, y are closed under the product, so a pass
    over G proves the whole table associative (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1961, section 1.2).  O(|mids| n^2)
    time, one left factor x at a time, on one of three kernels:

    - up to order 256 every element fits a byte, so each row is a bytes
      object and, padded to 256 bytes, a translate table: translating the
      rows of mids by the row of x multiplies each entry by x on the left;
    - above order 256, while |mids| n^2 <= LIGHT_TUPLE_CELLS, row tuples:
      the row of x*m against the row of x gathered by `itemgetter` at the
      row of m.  A gathered cell costs 7-9 ns, a numpy one about 1 ns after
      some 40-60 ms and 13 MB to import numpy, so the two break even near
      6M cells;
    - above that budget, uint16 numpy slabs per left factor against an
      intp index of m*y, both over one block of mids at a time (at most
      SCAN_BLOCK_CELLS cells), about 13 bytes per cell of scratch.  Only
      this kernel imports numpy.

    `rows` holds tuples of ints.
    """
    n = len(rows)
    if n <= 256:
        rb = list(map(bytes, rows))
        pad = bytes(256 - n)
        cells = b"".join(map(rb.__getitem__, mids))
        pick = _getter(mids)
        for x, row in enumerate(rows):
            # at k*n + y: (x*m_k)*y from the row of x*m_k, and x*(m_k*y)
            # from the row of m_k translated by the row of x
            left = b"".join(map(rb.__getitem__, pick(row)))
            right = cells.translate(rb[x] + pad)
            if left != right:
                p = next(p for p, (a, b) in enumerate(zip(left, right)) if a != b)
                return x, mids[p // n], p % n
        return None
    if len(mids) * n * n <= LIGHT_TUPLE_CELLS:
        # get(row of x) is x*(m*y) for every y
        gets = [(m, _getter(rows[m])) for m in mids]
        for x, row in enumerate(rows):
            for m, get in gets:
                left, right = rows[row[m]], get(row)
                if left != right:
                    pairs = enumerate(zip(left, right))
                    return x, m, next(y for y, (a, b) in pairs if a != b)
        return None
    import numpy as np
    t = np.array(rows, dtype=np.uint16)
    span = max(1, SCAN_BLOCK_CELLS // n)
    # left factors in runs of doubling length [x0, x1), each run scanned
    # block by block of mids, so a failure at x costs O(x |mids| n)
    x0, x1 = 0, 1
    while x0 < n:
        found = None
        for lo in range(0, len(mids), span):
            at = np.array(mids[lo:lo + span], dtype=np.intp)
            # a failure in an earlier block at x beats any here at x or later
            xs = range(x0, found[0] if found else x1)
            if hit := _block_failure(t, at, xs):
                x, k, y = hit
                found = x, mids[lo + k], y
        if found:
            return found
        x0, x1 = x1, min(n, 2 * x1)
    return None


def _block_failure(t, at, xs):
    """The first (x, k, y), x in xs, with (x*m_k)*y != x*(m_k*y) for the
    block of mids at, in the uint16 table t; or None."""
    products = t[at].astype("intp")
    for x in xs:
        # [k, y]: (x*m_k)*y on the left, x*(m_k*y) on the right
        row = t[x]
        left, right = t[row[at]], row[products]
        if not (left == right).all():
            ks, ys = (left != right).nonzero()
            return x, int(ks[0]), int(ys[0])
    return None


def _law_failure(S, T, f, domain):
    """The first (a, b) of domain x domain, in domain order, with a*b in
    domain and f[a*b] != f[a]*f[b], a*b taken in S and f[a]*f[b] in T; or
    None.  On all of S it is the homomorphism test, on the nonzero elements
    of S the law of a partial homomorphism.  A row a with no product a*b
    in domain cannot fail, so it costs one C-level `isdisjoint` of its
    products and is skipped; on all of S the first product is already in
    domain, so the test is O(1).  Every other row is one C-level
    comparison: want, the row of f[a] read at the images f[b], against the
    products a*b mapped by forced, the dict.get of f on domain with default
    the cell of want, so a product outside domain compares equal."""
    image = f.__getitem__
    pick, pick_images = _getter(domain), _getter(list(map(image, domain)))
    on_domain = dict(zip(domain, map(image, domain)))
    forced, inside = on_domain.get, on_domain.keys()
    srows, trows = S._rows, T._rows
    for a in domain:
        if inside.isdisjoint(prods := pick(srows[a])):
            continue
        want = pick_images(trows[image(a)])
        if tuple(map(forced, prods, want)) != want:
            return a, next(b for b, ab, w in zip(domain, prods, want)
                           if forced(ab, w) != w)
    return None


def from_table(n, entries, labels=None):
    """Validate and build a Semigroup from an n x n table of indices."""
    rows = _rows_of(entries, list)
    if len(rows) != n:
        raise NonSquare(n, len(rows), len(rows[0]) if rows else 0)
    return Semigroup(rows, labels=labels)


class Partition:
    """Disjoint nonempty classes covering [0, n), listed by least element.
    `index_of[x]` numbers the class of x, so it is the restricted growth
    string (Knuth, TAOCP 4A, 7.2.1.5) that builds and compares the partition."""

    __slots__ = ("classes", "index_of", "n")

    def __init__(self, classes, n=None):
        try:
            cls = [frozenset(map(index, c)) for c in classes]
            if not all(cls):
                raise InvalidArgument("empty class")
            cls.sort(key=min)
            label = {}  # point -> the rank of its class
            for k, c in enumerate(cls):
                if seen := c & label.keys():
                    raise InvalidArgument(f"classes overlap at {sorted(seen)}")
                label.update(dict.fromkeys(c, k))
            size = n if n is not None else (max(label) + 1 if label else 0)
            if label.keys() != set(range(size)):
                raise InvalidArgument(f"classes do not cover [0, {size})")
        except TypeError:
            if n is not None:
                _must(index, n, "n", "an integer")
            raise InvalidArgument(f"classes = {classes!r} is not a "
                                  "collection of sets of integers") from None
        self._fill(map(label.get, range(size)))

    def _fill(self, labels):
        rank = {}  # ranked by first appearance, the order of least elements
        self.index_of = tuple(rank.setdefault(k, len(rank)) for k in labels)
        members = [[] for _ in rank]
        for x, k in enumerate(self.index_of):
            members[k].append(x)
        self.classes = tuple(map(frozenset, members))
        self.n = len(self.index_of)

    @classmethod
    def from_index(cls, index):
        """The partition whose class of x is labelled index[x]."""
        self = object.__new__(cls)
        try:
            self._fill(index)
        except TypeError:
            raise InvalidArgument(f"index = {index!r} is not a sequence of "
                                  "hashable class labels") from None
        return self

    def _point(self, x):
        """x as an int; InvalidArgument unless it is an integer in [0, n)."""
        if not 0 <= (x := _must(index, x, "point", "an integer")) < self.n:
            raise InvalidArgument(f"point {x!r} is not in [0, {self.n})")
        return x

    def class_of(self, x):
        return self.classes[self.index_of[self._point(x)]]

    def same(self, a, b):
        return self.index_of[self._point(a)] == self.index_of[self._point(b)]

    def as_lists(self):
        return [sorted(c) for c in self.classes]

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.index_of == other.index_of

    def __hash__(self):
        return hash(self.index_of)

    def __repr__(self):
        return f"Partition({self.as_lists()})"


def identity_partition(S):
    return Partition.from_index(_semigroup(S, "S").elements)


def universal_partition(S):
    return Partition.from_index([0] * _semigroup(S, "S").order)


# ---------------------------------------------------------------------------
# set algebra


def product_set(S, A, B):
    """The set {a*b : a in A, b in B}, each member of A and B checked by
    `_member`; `_product_set` is the unchecked form for internal callers."""
    return _product_set(S, _members(S, A), _members(S, B))


def _product_set(S, A, B):
    if not A or not B:
        return frozenset()
    rows = S._rows
    if len(B) == 1:
        (b,) = B
        return frozenset([rows[a][b] for a in A])
    pick = itemgetter(*B)
    out = set()
    for a in A:
        out.update(pick(rows[a]))
    return frozenset(out)


def _getter(keys):
    """A function taking a sequence to the tuple of its items at keys;
    operator.itemgetter, except that it always returns a tuple."""
    if len(keys) == 1:
        (k,) = keys
        return lambda seq: (seq[k],)
    return itemgetter(*keys) if keys else lambda seq: ()


def _cached(S, key, compute):
    """S._cache[key], filled by compute() on first use.

    A cached None is a hit; when compute raises, nothing is stored.
    """
    value = S._cache.get(key, _MISSING)
    if value is _MISSING:
        value = S._cache[key] = compute()
    return value


def closure(S, gens):
    """Smallest subsemigroup containing gens."""
    gens = _members(S, gens)
    if not gens:
        raise EmptyGenerators("generating set is empty")
    return frozenset(_close(S._rows, {}, gens))


def is_left_ideal(S, A):
    """True iff S^1 A is contained in A."""
    A = _members(S, A)
    return bool(A) and _product_set(S, frozenset(S.elements), A) <= A


def is_right_ideal(S, A):
    A = _members(S, A)
    return bool(A) and _product_set(S, A, frozenset(S.elements)) <= A


def is_ideal(S, A):
    return _is_ideal(S, _members(S, A))


def is_subsemigroup(S, A):
    return _is_subsemigroup(S, _members(S, A))


# the unchecked forms of the two predicates above, for a member set A
def _is_ideal(S, A):
    full = frozenset(S.elements)
    return _cached(S, ("ideal", frozenset(A)), lambda: bool(A) and (
        _product_set(S, full, A) <= A and _product_set(S, A, full) <= A))


def _is_subsemigroup(S, A):
    return bool(A) and _product_set(S, A, A) <= A


def _member(S, a):
    """a; InvalidArgument unless it is an integer in [0, n), so that no
    element is read through a wrapping index."""
    if not 0 <= _must(index, a, "element", "an integer") < S.order:
        raise InvalidArgument(f"element {a!r} is not in [0, {S.order})")
    return a


def _members(S, A):
    """A as a frozenset, each member checked by `_member`."""
    _semigroup(S, "S")
    return frozenset([_member(S, a)
                      for a in _must(iter, A, "member set", "iterable")])


def subsemigroup_witness(S, A):
    """The first (a, b) in sorted A x A with a*b outside A, or None."""
    A = _members(S, A)
    elems = sorted(A)
    return next(((a, b) for a in elems for b in elems
                 if S.mul(a, b) not in A), None)


def ideal_witness(S, A):
    """The first (s, a) in S x sorted A with s*a or a*s outside A, or None."""
    A = _members(S, A)
    elems = sorted(A)
    return next(((s, a) for s in S.elements for a in elems
                 if S.mul(s, a) not in A or S.mul(a, s) not in A), None)


def semilattice_witness(S):
    """None when S is a semilattice; else, scanning row by row, (a, a) for
    the first non-idempotent a or (a, b) for the first a*b != b*a."""
    rows = _semigroup(S, "S")._rows
    for a, row in enumerate(rows):
        if row[a] != a:
            return (a, a)
        for b, ab in enumerate(row):
            if ab != rows[b][a]:
                return (a, b)
    return None


def restrict(S, A):
    """The subsemigroup on A as a standalone Semigroup.

    Returns (T, elems) where elems[i] is the S-index of T's element i
    (elements in increasing S-index order).  When A is all of S, T is S
    itself, so its cached structure is shared.  T is cached on S.
    """
    A = _members(S, A)
    if len(A) == S.order and A == frozenset(S.elements):
        return S, list(S.elements)
    T, elems = _cached(S, ("restrict", A), lambda: _restrict(S, A))
    return T, list(elems)


def _restrict(S, A):
    if not _is_subsemigroup(S, A):
        raise NotASubsemigroup(subsemigroup_witness(S, A))
    elems = sorted(A)
    pos = [0] * S.order
    for i, a in enumerate(elems):
        pos[a] = i
    rows = _image_rows(S, elems, pos)
    labels = [S.label(a) for a in elems] if S.labels else None
    return Semigroup._derived(rows, labels=labels), tuple(elems)


def _image_rows(S, reps, pos):
    """Row k is the row of reps[k] read at reps and mapped through pos, the
    new index of each element, gathered in one call: a subsemigroup or an
    image of S."""
    pick, srows = _getter(reps), S._rows
    return [_getter(pick(srows[a]))(pos) for a in reps]


def rees_quotient(S, I):
    """Collapse the two-sided ideal I to a zero.

    The quotient keeps the non-ideal elements in their original relative
    order at indices 0..k-1 and puts the collapsed zero last.  Returns
    (Q, qmap) with qmap[s] the quotient index of s; cached on S.
    """
    I = _members(S, I)
    return _cached(S, ("rees", I), lambda: _rees_quotient(S, I))


def _rees_quotient(S, I):
    if not _is_ideal(S, I):
        raise NotAnIdeal(ideal_witness(S, I))
    outside = [x for x in S.elements if x not in I]
    k = len(outside)
    pos = {x: i for i, x in enumerate(outside)}
    qmap = tuple(pos.get(x, k) for x in S.elements)
    # I is an ideal, so the row and column of min(I) map to the zero k
    rows = _image_rows(S, outside + [min(I)], qmap)
    labels = None
    if S.labels:
        labels = [S.label(x) for x in outside] + ["0"]
    return Semigroup._derived(rows, labels=labels), qmap


def direct_product(S, T):
    """Componentwise product on pairs; (i, j) is encoded as i*|T| + j."""
    ns, nt = _semigroup(S, "S").order, _semigroup(T, "T").order
    if ns * nt > ORDER_CAP:
        raise OrderTooLarge(ns * nt, ORDER_CAP)
    # blocks[j][v]: the cells (v, T[j][l]) for l in T, so row (i, j) is
    # the concatenation of blocks[j][v] over the entries v of row i of S
    blocks = [[tuple(map((v * nt).__add__, trow)) for v in S.elements]
              for trow in T._rows]
    rows = [tuple(chain.from_iterable(map(block.__getitem__, srow)))
            for srow in S._rows for block in blocks]
    labels = None
    if S.labels and T.labels:
        labels = [f"({S.label(i)},{T.label(j)})"
                  for i in S.elements for j in T.elements]
    return Semigroup._derived(rows, labels=labels)


def pair_index(T, i, j):
    """Index of (i, j) inside direct_product(S, T), for i in S and j in T."""
    _semigroup(T, "T")
    if _must(index, i, "i", "an integer") < 0:
        raise InvalidArgument(f"i = {i!r} is negative")
    return i * T.order + _member(T, j)


# ---------------------------------------------------------------------------
# congruences and quotients


def _partition(S, partition):
    """partition; InvalidArgument unless S is a Semigroup and partition a
    Partition of [0, n)."""
    n = _semigroup(S, "S").order
    if not isinstance(partition, Partition):
        raise InvalidArgument(f"partition = {partition!r} is not a Partition")
    if partition.n != n:
        raise InvalidArgument(f"partition of [0, {partition.n}) given for "
                              f"a semigroup of order {n}")
    return partition


def _semigroup(S, name):
    """S; InvalidArgument unless it is a Semigroup."""
    if not isinstance(S, Semigroup):
        raise InvalidArgument(f"{name} = {S!r} is not a Semigroup")
    return S


def congruence_witness(S, partition):
    """None if the partition is a congruence, else (a, b, x) for the first
    class, by least element, with a member b that acts on the classes
    otherwise than a, its least member: the first such b, and the first x
    with a*x, b*x or x*a, x*b in different classes."""
    if len(_partition(S, partition)) < S.order:
        return _congruence_failure(list(map(_getter, S._rows)),
                                   partition.index_of)
    return None


def _congruence_failure(getters, idx):
    """`congruence_witness` for the restricted growth string idx, where
    getters[a] reads the classes of row a of S from idx: each member of a
    class must act on the classes from both sides as its first does."""
    rows = [getter(idx) for getter in getters]
    firsts, bad = [], None
    for b, image in enumerate(zip(rows, zip(*rows))):
        k = idx[b]
        if k == len(firsts):
            firsts.append(image)
        elif image != firsts[k] and (bad is None or k < idx[bad[0]]):
            bad = b, firsts[k], image
    if bad is None:
        return None
    b, (ra, ca), (rb, cb) = bad
    return idx.index(idx[b]), b, next(x for x in range(len(idx))
                                      if ra[x] != rb[x] or ca[x] != cb[x])


def is_congruence(S, partition):
    return congruence_witness(S, partition) is None


def enumerate_congruences(S):
    """All congruences of S, as Partitions in restricted-growth order: the
    restricted growth strings without a `_congruence_failure`.  The list
    is cached on S; each call returns a fresh copy."""
    n = _semigroup(S, "S").order
    if n > CONGRUENCE_ORDER_CAP:
        raise OrderTooLarge(n, CONGRUENCE_ORDER_CAP)
    return list(_cached(S, "congruences", lambda: tuple(map(
        Partition.from_index, filterfalse(partial(
            _congruence_failure, list(map(_getter, S._rows))),
            _growth_strings(n))))))


@cache
def _growth_strings(n):
    """The restricted growth strings of length n in lexicographic order;
    n <= CONGRUENCE_ORDER_CAP, so the cache holds at most seven tuples."""
    return tuple(r + (k,) for r in _growth_strings(n - 1)
                 for k in range(max(r, default=-1) + 2)) if n else ((),)


def quotient_by_congruence(S, partition):
    """Quotient semigroup on class representatives plus the natural map.

    Quotient element k is partition.classes[k]; returns (Q, index_of),
    cached on S.
    """
    return _cached(S, ("quotient", _partition(S, partition)),
                   lambda: _quotient(S, partition))


def _quotient(S, partition):
    w = congruence_witness(S, partition)
    if w is not None:
        raise NotACongruence(w)
    idx = partition.index_of
    rows = _image_rows(S, [min(c) for c in partition.classes], idx)
    labels = None
    if S.labels:
        labels = ["{" + ",".join(S.label(x) for x in sorted(c)) + "}"
                  for c in partition.classes]
    return Semigroup._derived(rows, labels=labels), idx


# ---------------------------------------------------------------------------
# element predicates and unary constructions


def interchangeable(S, a, b):
    """Distinct elements with identical left and right actions."""
    if _member(_semigroup(S, "S"), a) == _member(S, b):
        return False
    t = S._rows
    return all(t[a][x] == t[b][x] and t[x][a] == t[x][b] for x in S.elements)


def interchangeable_pair(S):
    """The first interchangeable pair, by `_first_alike`, or None."""
    t = _semigroup(S, "S")._rows
    return _first_alike(S.elements, list(zip(t, zip(*t))))


def _first_alike(elements, actions):
    """(a, b) for the first b of elements whose actions[b] repeats, a the
    earliest element with that action; None when no action repeats."""
    seen = {}
    pairs = ((seen.setdefault(actions[b], b), b) for b in elements)
    return next(((a, b) for a, b in pairs if a != b), None)


def is_weakly_reductive(S):
    return interchangeable_pair(S) is None


def _adjoined(S, column, label):
    """The rows and labels of S and a fresh element n labelled label, with
    x*n = n*x = column[x]."""
    labels = list(S.labels) + [label] if S.labels else None
    return [row + (c,) for row, c in zip(S._rows, column)] + [column], labels


def adjoin_zero(S):
    """S with a fresh absorbing element appended at index n."""
    n = _semigroup(S, "S").order
    rows, labels = _adjoined(S, (n,) * (n + 1), "0")
    return Semigroup._derived(rows, labels=labels)


def adjoin_identity(S):
    """S with a fresh neutral element appended at index n."""
    n = _semigroup(S, "S").order
    rows, labels = _adjoined(S, tuple(range(n + 1)), "1")
    return Semigroup._derived(rows, labels=labels)


def monoid_completion(S):
    """S itself if it has an identity, else adjoin_identity(S)."""
    return S if _semigroup(S, "S").identity is not None else adjoin_identity(S)


# ---------------------------------------------------------------------------
# isomorphism (a search over the images of a magma generating set)


def _profiles(S):
    from_row = [frozenset(row) for row in S._rows]
    from_col = [frozenset(col) for col in zip(*S._rows)]
    profs = []
    for a in S.elements:
        p, seen = a, {a}
        while (p := S.mul(p, a)) not in seen:
            seen.add(p)
        profs.append((S.mul(a, a) == a, len(from_row[a]), len(from_col[a]),
                      len(seen)))
    return profs


def find_isomorphism(S, T):
    """A table isomorphism S -> T as a tuple, or None.

    Only the images of a magma generating set of S are chosen, among the
    elements of T with the same `_profiles` entry; the law forces the rest.
    An element that joins phi is paired once with itself and each element
    before it, both ways: z = x*y takes the image phi(x)*phi(y) if that is
    new to phi and has z's profile, or must have it.  SearchBudgetExceeded
    is raised before the pair checks pass ISOMORPHISM_PAIR_BUDGET.
    """
    _semigroup(S, "S"), _semigroup(T, "T")
    if sorted(ps := _profiles(S)) != sorted(pt := _profiles(T)):
        return None
    s, t, phi, inv = S._rows, T._rows, {}, {}

    def force(z, w):
        if z not in phi and w not in inv and ps[z] == pt[w]:
            phi[z], inv[w] = w, z
        return phi.get(z) == w

    gens, n, checks = _magma_generators(s), S.order, 0
    stack = [(0, iter(range(n)))]  # per generator: len(phi) before it
    while stack and stack[-1][0] < n:  # until phi is complete
        mark, images = stack[-1]
        while len(phi) > mark:
            del inv[phi.popitem()[1]]
        if (b := next(images, None)) is None:
            stack.pop()
            continue
        # pair each element that joins phi with itself and those before it
        k, ok = mark, force(gens[len(stack) - 1], b)
        while ok and k < len(phi):
            *done, x = list(phi)[:k + 1]
            if (checks := checks + 2 * k + 1) > ISOMORPHISM_PAIR_BUDGET:
                raise SearchBudgetExceeded(ISOMORPHISM_PAIR_BUDGET)
            pairs = [(x, x)] + [(x, y) for y in done] + [(y, x) for y in done]
            ok = all(force(s[u][v], t[phi[u]][phi[v]]) for u, v in pairs)
            k += 1
        if ok:
            stack.append((len(phi), iter(range(n))))
    return tuple(map(phi.get, range(n))) if stack else None


def isomorphic(S, T):
    return find_isomorphism(S, T) is not None


# ---------------------------------------------------------------------------
# .sgt file format: line 1 is n, lines 2..n+1 the table rows,
# optional line n+2 holds n labels; anything further is rejected.


def parse_sgt(text):
    lines = _must(str.splitlines, text, "text", "a str")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise SgtParseError(1, "empty file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise SgtParseError(1, f"expected an integer order, got {lines[0]!r}")
    if n < 1:
        raise SgtParseError(1, f"order must be positive, got {n}")
    if n > ORDER_CAP:
        raise OrderTooLarge(n, ORDER_CAP)
    if len(lines) < n + 1:
        raise SgtParseError(len(lines) + 1, f"expected {n} table rows")
    # A row of canonical entries "0" .. str(n - 1) maps each entry to one
    # shared int per element, so above order 256, where CPython does not
    # share them, the fresh ints of the whole table never exist at once.
    # Any other row goes through int(); one out of range is kept for the
    # constructor to report, after every format check.
    element = {str(i): i for i in range(n)}.__getitem__
    rows = []
    for i in range(n):
        parts = lines[1 + i].split()
        if len(parts) != n:
            raise SgtParseError(2 + i, f"expected {n} entries, got {len(parts)}")
        try:
            rows.append(tuple(map(element, parts)))
        except KeyError:
            try:
                rows.append(list(map(int, parts)))
            except ValueError:
                raise SgtParseError(2 + i, f"non-integer entry in {lines[1 + i]!r}")
    labels = None
    rest = lines[n + 1:]
    if rest:
        parts = rest[0].split()
        if len(parts) != n:
            raise SgtParseError(n + 2, f"expected {n} labels, got {len(parts)}")
        labels = parts
        rest = rest[1:]
    if any(line.strip() for line in rest):
        raise SgtParseError(n + 2 + (1 if labels else 0), "trailing garbage")
    try:
        return Semigroup(rows, labels=labels)
    except IndexOutOfRange as e:
        raise SgtParseError(2 + e.i, str(e))


def format_sgt(S):
    lines = [str(_semigroup(S, "S").order)]
    lines += [" ".join(map(str, row)) for row in S._rows]
    if S.labels:
        lines.append(" ".join(S.labels))
    return "\n".join(lines) + "\n"


def _path(path):
    """path; InvalidArgument unless it is a str or an os.PathLike, so that
    no int is taken for a file descriptor."""
    if not isinstance(path, (str, PathLike)):
        raise InvalidArgument(f"path = {path!r} is not a str or os.PathLike")
    return path


def read_text(path):
    """The UTF-8 text of a file; undecodable bytes raise SgtParseError."""
    with open(_path(path), "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SgtParseError(data.count(b"\n", 0, e.start) + 1,
                            f"invalid UTF-8 at byte {e.start}")


def load_sgt(path):
    return parse_sgt(read_text(path))


def save_sgt(S, path):
    # formatted before the file is opened, so a bad S leaves it as it was
    text = format_sgt(S)
    with open(_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)
