"""Constructors for the concrete semigroup families used everywhere else,
plus the small-order associative-table enumerator behind the exhaustive
property sweeps.

Every constructor routes through the checked Semigroup constructor, so a
buggy table here cannot leak past the associativity validator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product

from .core import (
    ORDER_CAP,
    Semigroup,
    adjoin_zero,
    direct_product,
    from_table,
    rees_quotient,
    semilattice_witness,
)
from .errors import InvalidArgument, InvalidLinking, KTooLarge, OrderTooLarge
from .extend import build_extension, validate_partial_hom
from .green import is_clifford

ENUMERATION_ORDER_CAP = 4
FREE_NILPOTENT_ORDER_CAP = 200
PARTIAL_MAP_ORDER_CAP = 120


def _checked_order(n):
    """n, once known to fit the constructor, before any row is built."""
    if n > ORDER_CAP:
        raise OrderTooLarge(n, ORDER_CAP)
    return n


def trivial():
    return from_table(1, [[0]], labels=["e"])


def monogenic(h, r):
    """The monogenic semigroup with index h and period r.

    Elements a, a^2, ..., a^(h+r-1) at indices 0..h+r-2; the kernel
    {a^h, ..., a^(h+r-1)} is a cyclic group of order r.
    """
    if h < 1 or r < 1:
        raise InvalidArgument("index and period must be >= 1")
    n = _checked_order(h + r - 1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            p = i + j + 2
            while p > n:
                p -= r
            row.append(p - 1)
        rows.append(row)
    labels = ["a" if i == 0 else f"a^{i + 1}" for i in range(n)]
    return from_table(n, rows, labels=labels)


def cyclic_group(r):
    """Z_r; identity at index r-1 for r > 1 (it is monogenic(1, r))."""
    return monogenic(1, r)


def zero_semigroup(n):
    """All products equal the zero, which sits at index 0."""
    if n < 1:
        raise InvalidArgument("order must be >= 1")
    _checked_order(n)
    labels = ["0"] + [f"x{i}" for i in range(1, n)]
    return from_table(n, [[0] * n] * n, labels=labels)


def chain_semilattice(n):
    """The n-chain semilattice under min; 0 is the bottom."""
    if n < 1:
        raise InvalidArgument("order must be >= 1")
    _checked_order(n)
    return from_table(n, [[min(i, j) for j in range(n)] for i in range(n)],
                      labels=[f"e{i}" for i in range(n)])


def rectangular_band(p, q):
    """(i,j)(k,l) = (i,l) on p*q pairs; index (i,j) -> i*q + j."""
    if p < 1 or q < 1:
        raise InvalidArgument("dimensions must be >= 1")
    n = _checked_order(p * q)
    rows = [[(a // q) * q + (b % q) for b in range(n)] for a in range(n)]
    labels = [f"({i},{j})" for i in range(p) for j in range(q)]
    return from_table(n, rows, labels=labels)


def brandt_b2():
    """The five-element Brandt semigroup; zero at index 4."""
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    rows = [[4] * 5 for _ in range(5)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                rows[a][b] = pairs.index((i, l))
    labels = ["(1,1)", "(1,2)", "(2,1)", "(2,2)", "0"]
    return from_table(5, rows, labels=labels)


def full_transformations(k):
    """All maps on k points under "apply left, then right" composition."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if k > 3:
        raise OrderTooLarge(f"{k}^{k}", 27)
    maps = sorted(product(range(k), repeat=k))
    pos = {f: i for i, f in enumerate(maps)}
    rows = [[pos[tuple(g[f[x]] for x in range(k))] for g in maps] for f in maps]
    labels = ["[" + ",".join(map(str, f)) + "]" for f in maps]
    return from_table(len(maps), rows, labels=labels)


def powerset_nilsemigroup(k):
    """Subsets of {1..k} (bitmask-indexed): disjoint nonempty union, else ∅.

    The finite analogue of the same construction on an infinite ground set.
    The two diverge: with infinitely many points every infinite subset can
    be written as a product of arbitrarily many disjoint pieces, so the
    base swallows them and the semigroup is not stratified, whereas every
    finite instance has base {∅} (checked in the tests, k <= 4).
    """
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if k > 5:
        raise KTooLarge(f"2^{k}", 1 << 5)
    n = 1 << k
    rows = [[a | b if (a and b and not a & b) else 0 for b in range(n)]
            for a in range(n)]
    labels = ["{" + ",".join(str(i + 1) for i in range(k) if a >> i & 1) + "}"
              for a in range(n)]
    return from_table(n, rows, labels=labels)


def free_nilpotent(alphabet_size, length_bound):
    """Words of length < L over `alphabet_size` letters plus a zero (last
    index); concatenation, truncated to zero at length >= L.

    The finite stand-in for a free semigroup with adjoined zero: the free
    object itself has an empty base (every word has a fixed length, so no
    element survives into all set powers) and no finite table can witness
    that; the truncation always has base {0}.
    """
    a, L = alphabet_size, length_bound
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
    return from_table(n, rows, labels=labels)


def absorption_sum(R, T):
    """R and T keep their products; every mixed product is its T factor.

    R occupies indices 0..|R|-1 and T the rest; T ends up inside the base of
    the result while the Rees quotient by T is R with a zero glued on.
    """
    nr, nt = R.order, T.order
    n = nr + nt
    rows = [[0] * n for _ in range(n)]
    for i in range(nr):
        for j in range(nr):
            rows[i][j] = R.mul(i, j)
    for i in range(nt):
        for j in range(nt):
            rows[nr + i][nr + j] = nr + T.mul(i, j)
    for i in range(nr):
        for j in range(nt):
            rows[i][nr + j] = nr + j
            rows[nr + j][i] = nr + j
    labels = None
    if R.labels and T.labels:
        labels = [f"r:{x}" for x in R.labels] + [f"t:{x}" for x in T.labels]
    return from_table(n, rows, labels=labels)


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
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "linking", dict(self.linking))


def _semilattice_leq(Y, a, b):
    return Y.mul(a, b) == a


def strong_semilattice(Y, parts, linking):
    """The strong semilattice of semigroups [Y; parts; linking].

    `linking[(a, b)]` (for a >= b in Y, a != b) is a tuple mapping part-a
    indices to part-b indices; identity maps on (a, a) are implicit.  The
    maps must be homomorphisms and compose transitively.
    """
    ny = Y.order
    if len(parts) != ny:
        raise InvalidLinking(None, f"expected {ny} parts, got {len(parts)}")
    if semilattice_witness(Y) is not None:
        raise InvalidLinking(None, "Y is not a semilattice")

    def link(a, b):
        if a == b:
            return tuple(range(parts[a].order))
        m = linking.get((a, b))
        if m is None:
            raise InvalidLinking((a, b), "missing linking map")
        return tuple(m)

    for (a, b), m in linking.items():
        if not _semilattice_leq(Y, b, a) or a == b:
            raise InvalidLinking((a, b), "map not along the order (need a > b)")
        if len(m) != parts[a].order:
            raise InvalidLinking((a, b), "wrong domain size")
        if any(not 0 <= v < parts[b].order for v in m):
            raise InvalidLinking((a, b), "value outside the codomain")
        for x in range(parts[a].order):
            for y in range(parts[a].order):
                if m[parts[a].mul(x, y)] != parts[b].mul(m[x], m[y]):
                    raise InvalidLinking((a, b), f"not a homomorphism at ({x},{y})")
    for a in Y.elements:
        for b in Y.elements:
            for c in Y.elements:
                if (_semilattice_leq(Y, c, b) and _semilattice_leq(Y, b, a)
                        and len({a, b, c}) == 3):
                    ab, bc, ac = link(a, b), link(b, c), link(a, c)
                    if any(bc[ab[x]] != ac[x] for x in range(parts[a].order)):
                        raise InvalidLinking((a, b, c), "maps do not compose")

    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.order
    owner = []
    for a, part in enumerate(parts):
        owner.extend([a] * part.order)

    rows = [[0] * total for _ in range(total)]
    for x in range(total):
        a = owner[x]
        for y in range(total):
            b = owner[y]
            c = Y.mul(a, b)
            xa = link(a, c)[x - offsets[a]]
            yb = link(b, c)[y - offsets[b]]
            rows[x][y] = offsets[c] + parts[c].mul(xa, yb)
    labels = None
    if all(p.labels for p in parts):
        labels = [f"{a}:{p.label(i)}" for a, p in enumerate(parts)
                  for i in range(p.order)]
    return from_table(total, rows, labels=labels)


def clifford(data):
    """The Clifford semigroup S[Y; G_a; phi]; validated to be Clifford."""
    for g in data.groups:
        e = g.identity
        if e is None or any(all(g.mul(x, y) != e for y in g.elements)
                            for x in g.elements):
            raise InvalidLinking(None, "every part must be a group")
    S = strong_semilattice(data.semilattice, data.groups, data.linking)
    if not is_clifford(S):
        raise InvalidLinking(None, "assembled semigroup is not Clifford")
    return S


def partial_map_extension(n, m, groups, picks=None):
    """The strict-extension showcase: S = product of 0-groups, T = capped
    partial maps modulo the constant-cap ideal, phi(f) = (g_i^{f(i)}).

    `picks[i]` is the chosen element of groups[i]; it defaults to the
    identity, which always satisfies the partial-homomorphism law.  Nonzero
    picks are validated and can be rejected with LawViolation: with n >= 2
    and m >= 3 a product can cap one coordinate while staying below the cap
    in another, and then g^(capped) != g^(true sum) unless g is trivial.
    """
    if n < 1 or m < 1 or len(groups) != n:
        raise InvalidArgument("need n >= 1, m >= 1 and one group per coordinate")
    if picks is None:
        picks = [g.identity for g in groups]
    for g, p in zip(groups, picks):
        if g.identity is None:
            raise InvalidArgument("every factor must be a group")
        if not 0 <= p < g.order:
            raise InvalidArgument(f"pick {p} outside the group")

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
    Tprime = from_table(len(maps), tp_rows, labels=tp_labels)
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
    phi = validate_partial_hom(T, S, mapping)
    witness = build_extension(phi)

    # dom(st) = dom(s) ∩ dom(t) across all of S
    def dom(idx):
        out = []
        for g in reversed(zgroups):
            out.append(idx % g.order != g.order - 1)
            idx //= g.order
        return tuple(reversed(out))

    for a in S.elements:
        for b in S.elements:
            da, db = dom(a), dom(b)
            if dom(S.mul(a, b)) != tuple(x and y for x, y in zip(da, db)):
                raise InvalidLinking((a, b), "dom(st) != dom(s) ∩ dom(t)")
    return witness


def pow_in_group(G, g, k):
    """g^k inside the group G (k >= 1)."""
    out = g
    for _ in range(k - 1):
        out = G.mul(out, g)
    return out


# ---------------------------------------------------------------------------
# enumeration of all associative tables on n labeled points


def _assoc_tables(n, value_order=None, limit=None):
    """Backtracking fill with incremental associativity propagation.

    Cells are filled submatrix-by-submatrix; after each assignment every
    triple whose entries are all determined is checked, so any table that
    reaches a leaf is associative.
    """
    cells = sorted(((i, j) for i in range(n) for j in range(n)),
                   key=lambda c: (max(c), c))
    t = [[-1] * n for _ in range(n)]
    rev = [[] for _ in range(n)]  # rev[v]: assigned cells with value v
    rng = range(n)
    found = 0

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
        nonlocal found
        if limit is not None and found >= limit:
            return
        if d == len(cells):
            found += 1
            yield [row[:] for row in t]
            return
        i, j = cells[d]
        for v in (value_order(d) if value_order else rng):
            t[i][j] = v
            rev[v].append((i, j))
            if consistent(i, j, v):
                yield from rec(d + 1)
            rev[v].pop()
            t[i][j] = -1
            if limit is not None and found >= limit:
                return

    yield from rec(0)


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


def enumerate_associative(n, dedup=None):
    """All associative tables on n labeled elements, as Semigroups.

    dedup=None yields every labeled table; "iso" keeps one representative
    per isomorphism class, "iso+anti" folds in anti-isomorphism too.
    """
    if n < 1:
        raise InvalidArgument("order must be >= 1")
    if n > ENUMERATION_ORDER_CAP:
        raise OrderTooLarge(n, ENUMERATION_ORDER_CAP)
    if dedup not in (None, "iso", "iso+anti"):
        raise InvalidArgument(f"unknown dedup mode {dedup!r}")
    seen = set()
    for rows in _assoc_tables(n):
        if dedup:
            key = _canonical(rows, anti=dedup == "iso+anti")
            if key in seen:
                continue
            seen.add(key)
        yield Semigroup(rows)


def sample_associative(n, count, seed=0):
    """Uniform random n x n tables, filtered to the associative ones.

    A uniform table of order >= 4 is associative with vanishing probability,
    so this is a rejection filter for smoke coverage, not a generator you
    can rely on for a non-empty yield; see random_associative for that.
    """
    rng = random.Random(seed)
    out = []
    cells = n * n
    for _ in range(count):
        flat = [rng.randrange(n) for _ in range(cells)]
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        if _is_associative(rows):
            out.append(Semigroup(rows))
    return out


def _is_associative(rows):
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            rab = rows[ab]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return False
    return True


def random_associative(n, count, seed=0):
    """Seeded random associative tables via randomized backtracking.

    Leaf-biased rather than uniform over semigroups; each sample is the
    first completion of an independently shuffled search.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        orders = {}

        def value_order(depth):
            if depth not in orders:
                vs = list(range(n))
                rng.shuffle(vs)
                orders[depth] = vs
            return orders[depth]

        for rows in _assoc_tables(n, value_order=value_order, limit=1):
            out.append(Semigroup(rows))
    return out
