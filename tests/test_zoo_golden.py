"""Frozen zoo tables: the SHA-256 of `format_sgt` (table and labels) for
every constructor in `finsemi.zoo` over a parameter grid, pinned in
`tests/golden/zoo_digests.json`.  The grid reaches above order 256, where
the rows are built from one shared int per element, and covers the
families the CLI corpus of `test_golden.py` does not: absorption sums,
strong semilattices and Clifford semigroups, zero semigroups, cyclic
groups, powerset nilsemigroups, B2 and the partial-map extensions.  A
change that moves any byte of any of these tables fails here.

Regenerate (only when a table change is intended) with
    PYTHONPATH=src python tests/test_zoo_golden.py
"""

import hashlib
import json
import math
import random
from pathlib import Path

from finsemi import Semigroup, format_sgt, zoo

DIGESTS = Path(__file__).parent / "golden" / "zoo_digests.json"


def _clifford_target(rng):
    """A seeded Clifford semigroup [Y; Z_{r_a}; projections]: Y a family of
    subsets closed under intersection, r_a a product of per-point factors,
    so r_b divides r_a whenever b <= a and the projections compose."""
    universe = rng.randint(2, 4)
    family = {frozenset(x for x in range(universe) if rng.random() < 0.6)
              for _ in range(rng.randint(2, 5))}
    while (grown := family | {a & b for a in family for b in family}) != family:
        family = grown
    members = sorted(family, key=lambda s: (len(s), sorted(s)))
    pos = {m: i for i, m in enumerate(members)}
    Y = Semigroup([[pos[a & b] for b in members] for a in members])
    factor = [rng.choice((1, 1, 2, 3)) for _ in range(universe)]
    orders = [math.prod(factor[x] for x in m) for m in members]
    linking = {(a, b): tuple(i % orders[b] for i in range(orders[a]))
               for a in Y.elements for b in Y.elements
               if a != b and Y.mul(a, b) == b}
    groups = tuple(zoo.cyclic_group(r) for r in orders)
    return zoo.clifford(zoo.CliffordData(Y, groups, linking))


def _bowtie():
    return Semigroup([[0, 0, 0], [0, 1, 0], [0, 0, 2]])


def cases():
    """(case name, semigroup) for every case of the zoo corpus."""
    yield "trivial", zoo.trivial()
    yield "brandt_b2", zoo.brandt_b2()
    for h in range(1, 9):
        for r in range(1, 9):
            yield f"monogenic {h} {r}", zoo.monogenic(h, r)
    for h, r in ((1, 300), (300, 1), (257, 3), (130, 140)):
        yield f"monogenic {h} {r}", zoo.monogenic(h, r)
    for r in (*range(1, 13), 257):
        yield f"cyclic_group {r}", zoo.cyclic_group(r)
    for n in (*range(1, 7), 300):
        yield f"zero_semigroup {n}", zoo.zero_semigroup(n)
    for n in (*range(1, 9), 300):
        yield f"chain_semilattice {n}", zoo.chain_semilattice(n)
    for p in range(1, 7):
        for q in range(1, 7):
            yield f"rectangular_band {p} {q}", zoo.rectangular_band(p, q)
    for p, q in ((1, 300), (300, 1), (16, 18)):
        yield f"rectangular_band {p} {q}", zoo.rectangular_band(p, q)
    for k in (1, 2, 3):
        yield f"full_transformations {k}", zoo.full_transformations(k)
    for k in range(1, 6):
        yield f"powerset_nilsemigroup {k}", zoo.powerset_nilsemigroup(k)
    for a in (1, 2, 3):
        for L in (2, 3, 4):
            yield f"free_nilpotent {a} {L}", zoo.free_nilpotent(a, L)
    for a, L in ((2, 7), (1, 200)):
        yield f"free_nilpotent {a} {L}", zoo.free_nilpotent(a, L)

    # the last two parts are unlabelled, so their sums carry no labels
    parts = {
        "trivial": zoo.trivial(),
        "zero_semigroup 2": zoo.zero_semigroup(2),
        "monogenic 2 3": zoo.monogenic(2, 3),
        "cyclic_group 3": zoo.cyclic_group(3),
        "rectangular_band 2 2": zoo.rectangular_band(2, 2),
        "brandt_b2": zoo.brandt_b2(),
        "bowtie": _bowtie(),
        "order-3 table #7": list(zoo.enumerate_associative(3))[7],
    }
    for r_name, R in parts.items():
        for t_name, T in parts.items():
            yield (f"absorption_sum ({r_name}) ({t_name})",
                   zoo.absorption_sum(R, T))
    yield ("absorption_sum (monogenic 100 100) (rectangular_band 8 9)",
           zoo.absorption_sum(zoo.monogenic(100, 100),
                              zoo.rectangular_band(8, 9)))
    yield ("absorption_sum (rectangular_band 8 9) (monogenic 100 100)",
           zoo.absorption_sum(zoo.rectangular_band(8, 9),
                              zoo.monogenic(100, 100)))

    chain2, c2 = zoo.chain_semilattice(2), zoo.cyclic_group(2)
    yield "clifford chain 2", zoo.clifford(zoo.CliffordData(
        chain2, (zoo.trivial(), c2), {(1, 0): (0, 0)}))
    yield "clifford singleton", zoo.clifford(zoo.CliffordData(
        zoo.chain_semilattice(1), (zoo.cyclic_group(3),), {}))
    yield "clifford bowtie", zoo.clifford(zoo.CliffordData(
        _bowtie(), (c2,) * 3, {(1, 0): (0, 1), (2, 0): (0, 1)}))
    yield "strong_semilattice chain 2 of zero semigroups", \
        zoo.strong_semilattice(chain2, (zoo.zero_semigroup(2),
                                        zoo.zero_semigroup(3)),
                               {(1, 0): (0, 0, 1)})
    yield "strong_semilattice chain 3 of unlabelled bands", \
        zoo.strong_semilattice(zoo.chain_semilattice(3),
                               (_bowtie(), _bowtie(), _bowtie()),
                               {(1, 0): (0, 1, 2), (2, 0): (0, 2, 1),
                                (2, 1): (0, 2, 1)})
    for seed in range(40):
        yield (f"clifford seeded {seed}",
               _clifford_target(random.Random(f"zoo-golden:{seed}")))

    for n, m, orders in ((1, 1, (2,)), (1, 2, (2,)), (1, 3, (3,)),
                         (2, 1, (2, 2)), (2, 2, (2, 2)), (2, 2, (3, 2))):
        w = zoo.partial_map_extension(n, m, [zoo.cyclic_group(r)
                                             for r in orders])
        yield (f"partial_map_extension {n} {m} {orders}",
               w.sigma)


def digests():
    """{"<case>": sha256 of its .sgt text} over the zoo corpus."""
    out = {}
    for name, S in cases():
        assert name not in out, name
        out[name] = hashlib.sha256(format_sgt(S).encode()).hexdigest()
    return out


def test_zoo_tables_match_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert got.keys() == expected.keys()
    moved = [key for key in got if got[key] != expected[key]]
    assert not moved, f"{len(moved)} tables changed, first: {moved[:5]}"


if __name__ == "__main__":
    table = digests()
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")
