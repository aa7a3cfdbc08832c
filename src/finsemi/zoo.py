"""Constructors for the concrete semigroup families used everywhere else,
plus the small-order associative-table enumerator behind the exhaustive
property sweeps.

Every constructor but `partial_map_extension` (a `build_extension` result)
routes through the checked Semigroup constructor, so a buggy table here
cannot leak past the associativity validator.  Tables are built in the form
the constructor keeps: tuple rows sliced or gathered from one shared
tuple(range(n)), or from the rows of their parts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain, product
from operator import index

from .core import (
    ORDER_CAP,
    Semigroup,
    _failure,
    _getter,
    _law_failure,
    _member,
    _must,
    _profiles,
    adjoin_zero,
    direct_product,
    isomorphic,
    rees_quotient,
    semilattice_witness,
)
from .errors import (
    InternalTheoremViolation,
    InvalidArgument,
    InvalidLinking,
    KTooLarge,
    OrderTooLarge,
)
from .extend import PartialHom, build_extension
from .green import is_clifford, is_group

ENUMERATION_ORDER_CAP = 4
FREE_NILPOTENT_ORDER_CAP = 200
PARTIAL_MAP_ORDER_CAP = 120


def _integer(value, name):
    """value as an int; InvalidArgument unless it is an integer."""
    return _must(index, value, name, "an integer")


def _order(n):
    """n as an int; InvalidArgument unless it is an integer >= 1."""
    if (n := _integer(n, "n")) < 1:
        raise InvalidArgument("order must be >= 1")
    return n


def _checked_order(n):
    """n, once known to fit the constructor, before any row is built."""
    if n > ORDER_CAP:
        raise OrderTooLarge(n, ORDER_CAP)
    return n


def trivial():
    return Semigroup([(0,)], labels=["e"])


def monogenic(h, r):
    """The monogenic semigroup with index h and period r.

    Elements a, a^2, ..., a^(h+r-1) at indices 0..h+r-2; the kernel
    {a^h, ..., a^(h+r-1)} is a cyclic group of order r.
    """
    h, r = _integer(h, "h"), _integer(r, "r")
    if h < 1 or r < 1:
        raise InvalidArgument("index and period must be >= 1")
    n = _checked_order(h + r - 1)
    ident = tuple(range(n))
    # a^(i+1) a^(j+1) runs up ident to a^n, then round the kernel cycle
    cycle = ident[h - 1:] * (n // r + 1)
    rows = [ident[i + 1:] + cycle[:i + 1] for i in range(n)]
    labels = ["a" if i == 0 else f"a^{i + 1}" for i in range(n)]
    return Semigroup(rows, labels=labels)


def cyclic_group(r):
    """Z_r; identity at index r-1 for r > 1 (it is monogenic(1, r))."""
    return monogenic(1, r)


def zero_semigroup(n):
    """All products equal the zero, which sits at index 0."""
    n = _checked_order(_order(n))
    labels = ["0"] + [f"x{i}" for i in range(1, n)]
    return Semigroup([(0,) * n] * n, labels=labels)


def chain_semilattice(n):
    """The n-chain semilattice under min; 0 is the bottom."""
    n = _checked_order(_order(n))
    ident = tuple(range(n))
    return Semigroup([ident[:i] + ident[i:i + 1] * (n - i) for i in range(n)],
                     labels=[f"e{i}" for i in range(n)])


def rectangular_band(p, q):
    """(i,j)(k,l) = (i,l) on p*q pairs; index (i,j) -> i*q + j."""
    p, q = _integer(p, "p"), _integer(q, "q")
    if p < 1 or q < 1:
        raise InvalidArgument("dimensions must be >= 1")
    n = _checked_order(p * q)
    ident = tuple(range(n))
    # the q rows of a block are one shared tuple
    rows = [row for a in range(0, n, q) for row in [ident[a:a + q] * p] * q]
    labels = [f"({i},{j})" for i in range(p) for j in range(q)]
    return Semigroup(rows, labels=labels)


def brandt_b2():
    """The five-element Brandt semigroup; zero at index 4."""
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    rows = [[4] * 5 for _ in range(5)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                rows[a][b] = pairs.index((i, l))
    labels = ["(1,1)", "(1,2)", "(2,1)", "(2,2)", "0"]
    return Semigroup(rows, labels=labels)


def full_transformations(k):
    """All maps on k points under "apply left, then right" composition."""
    k = _integer(k, "k")
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if k > 3:
        raise OrderTooLarge(f"{k}^{k}", 27)
    maps = sorted(product(range(k), repeat=k))
    pos = {f: i for i, f in enumerate(maps)}
    rows = [[pos[tuple(g[f[x]] for x in range(k))] for g in maps] for f in maps]
    labels = ["[" + ",".join(map(str, f)) + "]" for f in maps]
    return Semigroup(rows, labels=labels)


def powerset_nilsemigroup(k):
    """Subsets of {1..k} (bitmask-indexed): disjoint nonempty union, else ∅.

    The finite analogue of the same construction on an infinite ground set.
    The two diverge: with infinitely many points every infinite subset can
    be written as a product of arbitrarily many disjoint pieces, so the
    base swallows them and the semigroup is not stratified, whereas every
    finite instance has base {∅} (checked in the tests, k <= 4).
    """
    k = _integer(k, "k")
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if k > 5:
        raise KTooLarge(f"2^{k}", 1 << 5)
    n = 1 << k
    rows = [[a | b if (a and b and not a & b) else 0 for b in range(n)]
            for a in range(n)]
    labels = ["{" + ",".join(str(i + 1) for i in range(k) if a >> i & 1) + "}"
              for a in range(n)]
    return Semigroup(rows, labels=labels)


def free_nilpotent(alphabet_size, length_bound):
    """Words of length < L over `alphabet_size` letters plus a zero (last
    index); concatenation, truncated to zero at length >= L.

    The finite stand-in for a free semigroup with adjoined zero: the free
    object itself has an empty base (every word has a fixed length, so no
    element survives into all set powers) and no finite table can witness
    that; the truncation always has base {0}.
    """
    a = _integer(alphabet_size, "alphabet_size")
    L = _integer(length_bound, "length_bound")
    if a < 1 or L < 2:
        raise InvalidArgument("need alphabet_size >= 1 and length_bound >= 2")
    # n = 1 + a + ... + a^(L-1) >= max(a + 1, L); evaluate it only when small
    if max(a + 1, L) > FREE_NILPOTENT_ORDER_CAP:
        raise OrderTooLarge(f"1+{a}+...+{a}^{L - 1}", FREE_NILPOTENT_ORDER_CAP)
    n = sum(a ** length for length in range(L))
    if n > FREE_NILPOTENT_ORDER_CAP:
        raise OrderTooLarge(n, FREE_NILPOTENT_ORDER_CAP)
    words = []
    for length in range(1, L):
        words.extend(product(range(a), repeat=length))
    pos = {w: i for i, w in enumerate(words)}
    zero = n - 1
    rows = []
    for w in words:
        rows.append([pos[w + v] if len(w) + len(v) < L else zero for v in words]
                    + [zero])
    rows.append([zero] * n)
    letters = "abcdefghijklmnopqrstuvwxyz"
    labels = ["".join(letters[c] for c in w) for w in words] + ["0"]
    return Semigroup(rows, labels=labels)


def absorption_sum(R, T):
    """R and T keep their products; every mixed product is its T factor.

    R occupies indices 0..|R|-1 and T the rest; T ends up inside the base of
    the result while the Rees quotient by T is R with a zero glued on.
    """
    nr = R.order
    shifted = tuple(range(nr, nr + T.order))
    rows = [row + shifted for row in R._rows]
    rows += [(t,) * nr + _getter(row)(shifted)
             for t, row in zip(shifted, T._rows)]
    labels = None
    if R.labels and T.labels:
        labels = [f"r:{x}" for x in R.labels] + [f"t:{x}" for x in T.labels]
    return Semigroup(rows, labels=labels)


# ---------------------------------------------------------------------------
# strong semilattices of semigroups (Clifford when the parts are groups)


@dataclass(frozen=True)
class CliffordData:
    """A strong-semilattice recipe: the semilattice Y, one group per element
    of Y, and linking homomorphisms phi[(a, b)]: G_a -> G_b for a >= b."""
    semilattice: Semigroup
    groups: tuple
    linking: dict

    def __post_init__(self):
        object.__setattr__(self, "groups",
                           _must(tuple, self.groups, "groups", "a sequence"))
        object.__setattr__(self, "linking",
                           _must(dict, self.linking, "linking", "a mapping"))


def _check_linking(Y, linking):
    """InvalidArgument unless linking is a mapping; InvalidLinking names
    the first key that is not a pair of elements of Y (each checked by
    `_member`, so that none wraps round) or whose map is not a sequence
    of integers."""
    try:
        items = linking.items()
    except AttributeError:
        raise InvalidArgument(f"linking = {linking!r} is not a mapping") from None
    for key, m in items:
        try:
            a, b = key
            _member(Y, a), _member(Y, b)
        except (TypeError, ValueError):   # InvalidArgument is a ValueError
            raise InvalidLinking(key, "key is not a pair of elements of Y") from None
        try:
            len(m)   # a one-pass iterator has none
            list(map(index, m))
        except TypeError:
            raise InvalidLinking(key, "map is not a sequence of integers") from None


def strong_semilattice(Y, parts, linking):
    """The strong semilattice of semigroups [Y; parts; linking].

    `linking[(a, b)]` (for a >= b in Y, a != b) is a tuple mapping part-a
    indices to part-b indices; identity maps on (a, a) are implicit.  The
    maps must be homomorphisms and compose transitively; a malformed
    linking is refused as `_check_linking` says.
    """
    ny, parts = Y.order, _must(tuple, parts, "parts", "a sequence")
    if len(parts) != ny:
        raise InvalidLinking(None, f"expected {ny} parts, got {len(parts)}")
    if semilattice_witness(Y) is not None:
        raise InvalidLinking(None, "Y is not a semilattice")
    _check_linking(Y, linking)

    def link(a, b):
        if a == b:
            return tuple(range(parts[a].order))
        m = linking.get((a, b))
        if m is None:
            raise InvalidLinking((a, b), "missing linking map")
        return tuple(m)

    for (a, b), m in linking.items():
        if Y.mul(b, a) != b or a == b:
            raise InvalidLinking((a, b), "map not along the order (need a > b)")
        if len(m) != parts[a].order:
            raise InvalidLinking((a, b), "wrong domain size")
        if any(not 0 <= v < parts[b].order for v in m):
            raise InvalidLinking((a, b), "value outside the codomain")
        if xy := _law_failure(parts[a], parts[b], m, parts[a].elements):
            raise InvalidLinking((a, b), f"not a homomorphism at ({xy[0]},{xy[1]})")
    for a, b, c in product(Y.elements, repeat=3):
        if Y.mul(c, b) == c and Y.mul(b, a) == b and len({a, b, c}) == 3:
            ab, bc, ac = link(a, b), link(b, c), link(a, c)
            if any(bc[ab[x]] != ac[x] for x in range(parts[a].order)):
                raise InvalidLinking((a, b, c), "maps do not compose")

    *offsets, total = accumulate((p.order for p in parts), initial=0)
    ident = tuple(range(total))

    maps = {(a, c): link(a, c) for a in Y.elements for c in Y.elements
            if Y.mul(c, a) == c}
    # x in part a times part b lands in part c = ab: the row of part c at
    # maps[a, c][x], shifted into place and read at maps[b, c]
    shifted = [[_getter(row)(into) for row in part._rows]
               for part, into in zip(parts, (ident[o:] for o in offsets))]
    rows = []
    for a, part in enumerate(parts):
        segments = [(_getter(maps[b, c]), shifted[c], maps[a, c])
                    for b, c in enumerate(Y._rows[a])]
        rows += [tuple(chain.from_iterable(read(rows_c[into_c[x]])
                                           for read, rows_c, into_c in segments))
                 for x in part.elements]
    labels = None
    if all(p.labels for p in parts):
        labels = [f"{a}:{p.label(i)}" for a, p in enumerate(parts)
                  for i in range(p.order)]
    return Semigroup(rows, labels=labels)


def clifford(data):
    """The Clifford semigroup S[Y; G_a; phi]; InvalidLinking when a part G_a
    is not a group (`green.is_group`).  A strong semilattice of groups is
    Clifford by theorem, so a failed `is_clifford` re-check is an
    InternalTheoremViolation."""
    if not all(map(is_group, data.groups)):
        raise InvalidLinking(None, "every part must be a group")
    S = strong_semilattice(data.semilattice, data.groups, data.linking)
    if not is_clifford(S):
        raise InternalTheoremViolation("assembled semigroup is not Clifford")
    return S


def partial_map_extension(n, m, groups, picks=None):
    """The strict-extension showcase: S = product of 0-groups, T = capped
    partial maps modulo the constant-cap ideal, phi(f) = (g_i^{f(i)}).

    `picks[i]` is the chosen element of groups[i]; it defaults to the
    identity, which always satisfies the partial-homomorphism law.  Nonzero
    picks are validated and can be rejected with LawViolation: with n >= 2
    and m >= 3 a product can cap one coordinate while staying below the cap
    in another, and then g^(capped) != g^(true sum) unless g is trivial.
    A factor that is not a group (a monoid, say), or picks that are not
    one element per group, raise InvalidArgument.
    """
    n, m = _integer(n, "n"), _integer(m, "m")
    groups = _must(tuple, groups, "groups", "a sequence")
    if picks is None:
        picks = [g.identity for g in groups]
    picks = _must(tuple, picks, "picks", "a sequence")
    if n < 1 or m < 1 or not len(groups) == len(picks) == n:
        raise InvalidArgument("need n >= 1, m >= 1 and one group and one pick "
                              "per coordinate")
    for g, p in zip(groups, picks):
        if not is_group(g):
            raise InvalidArgument("every factor must be a group")
        _member(g, p)

    t_order = (m + 1) ** n
    s_order = 1
    for g in groups:
        s_order *= g.order + 1
    if t_order + s_order > PARTIAL_MAP_ORDER_CAP:
        raise OrderTooLarge(t_order + s_order, PARTIAL_MAP_ORDER_CAP)

    # S: direct product of the 0-groups (zero appended last in each factor)
    zgroups = [adjoin_zero(g) for g in groups]
    S = zgroups[0]
    for g in zgroups[1:]:
        S = direct_product(S, g)

    def s_index(tup):
        idx = 0
        for v, g in zip(tup, zgroups):
            idx = idx * g.order + v
        return idx

    # T': partial maps as value vectors, 0 meaning "undefined", else 1..m
    maps = sorted(product(range(m + 1), repeat=n))
    tp_pos = {f: i for i, f in enumerate(maps)}

    def times(f, g):
        return tuple(min(x + y, m) if x and y else 0 for x, y in zip(f, g))

    tp_rows = [[tp_pos[times(f, g)] for g in maps] for f in maps]
    tp_labels = ["(" + ",".join("-" if v == 0 else str(v) for v in f) + ")"
                 for f in maps]
    Tprime = Semigroup(tp_rows, labels=tp_labels)
    ideal = frozenset(i for i, f in enumerate(maps)
                      if all(v in (0, m) for v in f))
    T, qmap = rees_quotient(Tprime, ideal)

    # phi on the nonzero elements of T
    mapping = {}
    for i, f in enumerate(maps):
        if i in ideal:
            continue
        image = tuple(pow_in_group(groups[c], picks[c], f[c]) if f[c]
                      else zgroups[c].order - 1 for c in range(n))
        mapping[qmap[i]] = s_index(image)
    return build_extension(PartialHom(T, S, mapping))


def pow_in_group(G, g, k):
    """g^k inside the group G; InvalidArgument unless g is an element of G
    and k an integer >= 1."""
    out = g = _member(G, g)
    if (k := _must(index, k, "k", "an integer")) < 1:
        raise InvalidArgument(f"k = {k} is not >= 1")
    for _ in range(k - 1):
        out = G.mul(out, g)
    return out


# ---------------------------------------------------------------------------
# enumeration of all associative tables on n labeled points


def _assoc_tables(n, orders=None):
    """Backtracking fill with incremental associativity propagation.

    Cells are filled submatrix-by-submatrix; after each assignment every
    triple whose entries are all determined is checked, so any table that
    reaches a leaf is associative.  The cell at depth d tries its values
    in the order orders[d], or in increasing order.
    """
    cells = sorted(((i, j) for i in range(n) for j in range(n)),
                   key=lambda c: (max(c), c))
    t = [[-1] * n for _ in range(n)]
    rev = [[] for _ in range(n)]  # rev[v]: assigned cells with value v
    rng = range(n)

    def consistent(i, j, v):
        tj, tv = t[j], t[v]
        for c in rng:
            w = tj[c]
            if w >= 0:
                lhs = tv[c]
                rhs = t[i][w]
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        for a in rng:
            u = t[a][i]
            if u >= 0:
                lhs = t[u][j]
                rhs = t[a][v]
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        for (a, b) in rev[i]:        # t[a][b] = i: triple (a, b, j)
            w = t[b][j]
            if w >= 0:
                rhs = t[a][w]
                if rhs >= 0 and rhs != v:
                    return False
        for (b, c) in rev[j]:        # t[b][c] = j: triple (i, b, c)
            u = t[i][b]
            if u >= 0:
                lhs = t[u][c]
                if lhs >= 0 and lhs != v:
                    return False
        return True

    def rec(d):
        if d == len(cells):
            yield [row[:] for row in t]
            return
        i, j = cells[d]
        for v in (orders[d] if orders else rng):
            t[i][j] = v
            rev[v].append((i, j))
            if consistent(i, j, v):
                yield from rec(d + 1)
            rev[v].pop()
            t[i][j] = -1

    yield from rec(0)


def enumerate_associative(n, dedup=None):
    """All associative tables on n labeled elements, as Semigroups.

    dedup=None yields every labeled table; "iso" keeps one representative
    per isomorphism class, "iso+anti" folds in anti-isomorphism too.  Each
    class yields its first table; a later one is dropped when `isomorphic`
    matches it (or, under "iso+anti", its transpose) to a kept table.
    """
    n = _order(n)
    if n > ENUMERATION_ORDER_CAP:
        raise OrderTooLarge(n, ENUMERATION_ORDER_CAP)
    if dedup not in (None, "iso", "iso+anti"):
        raise InvalidArgument(f"unknown dedup mode {dedup!r}")
    return _enumerate(n, dedup)


def _enumerate(n, dedup):
    """enumerate_associative once its arguments are checked."""
    # profile invariant -> the representatives kept with it and, under
    # "iso+anti", their transposes: T is anti-isomorphic to R iff T is
    # isomorphic to R's transpose
    kept = {}
    for rows in _assoc_tables(n):
        S = Semigroup(rows)
        if dedup:
            key = tuple(sorted(profs := _profiles(S)))
            if dedup == "iso+anti":
                # transposing swaps each element's row and column counts
                key = min(key, tuple(sorted((e, c, r, k)
                                            for e, r, c, k in profs)))
            bucket = kept.setdefault(key, [])
            if any(isomorphic(S, R) for R in bucket):
                continue
            bucket.append(S)
            if dedup == "iso+anti":
                bucket.append(Semigroup(list(zip(*rows))))
        yield S


def sample_associative(n, count, seed=0):
    """Uniform random n x n tables that pass the cube scan, built into
    Semigroups only once they pass.

    Few uniform tables are associative (3,492 of the 4^16 of order 4 and
    183,732 of the 5^25 of order 5), so above order 3 this rejection filter
    usually keeps nothing; see random_associative for a non-empty yield.
    """
    n, count = _order(n), _integer(count, "count")
    rng = random.Random(seed)
    out = []
    cells = n * n
    for _ in range(count):
        flat = [rng.randrange(n) for _ in range(cells)]
        rows = [tuple(flat[i * n:(i + 1) * n]) for i in range(n)]
        if _failure(rows, range(n)) is None:
            out.append(Semigroup(rows))
    return out


def random_associative(n, count, seed=0):
    """Seeded random associative tables via randomized backtracking.

    Leaf-biased rather than uniform over semigroups; each sample is the
    first completion of an independently shuffled search.
    """
    n, count = _order(n), _integer(count, "count")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        orders = [list(range(n)) for _ in range(n * n)]
        for vs in orders:
            rng.shuffle(vs)
        out.append(Semigroup(next(_assoc_tables(n, orders))))
    return out
