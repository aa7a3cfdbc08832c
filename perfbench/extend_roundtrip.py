"""Workload extend_roundtrip: strict extensions of seeded Clifford semigroups
by free nilpotent semigroups, built, classified, recovered, split by
`clifford_decompose` and rebuilt through `canonical_phi`.

Why: it is the only workload that runs `extend` and `find_isomorphism`, on
mid-size tables (orders about 40 to 220) built row by row in Python through
many `restrict` and `rees_quotient` calls.  It never runs `stratify` or
`decompose`, so an optimisation confined to those modules must leave its
numbers unchanged.

The set-up writes every case as three files (T and S as .sgt, the partial
homomorphism as .phm).  Each measured pass is one fresh process
(`python3 perfbench/extend_roundtrip.py <case dir>`) that loads the cases,
round-trips each one and prints its verdicts and times as JSON.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common

common.require_program()
# Library calls go through module attributes so traced runs see them.
from finsemi import core, extend, zoo  # noqa: E402

NAME = "extend_roundtrip"
SETUP_REPS = 3
CLI_CALLS = 0
WALL_NAME = "roundtrip_s"
Y_ORDER_CAP = 12          # the isomorphism cap clifford_decompose runs into
# REPEATS cases per entry: the free_nilpotent(alphabet, length_bound) source
# T and the band the order of the Clifford target S is drawn from.  A fixed
# ladder of sizes spreads sigma over orders 40 to 220 and keeps the total work
# of a pass nearly the same from seed to seed; the seed picks Y, the groups
# and the letter images.
REPEATS = 4
SCHEDULE = (
    ((5, 3), (10, 20)), ((3, 4), (20, 30)), ((6, 3), (40, 50)),
    ((2, 5), (55, 65)), ((2, 6), (20, 30)), ((2, 6), (65, 75)),
    ((4, 4), (35, 45)), ((3, 5), (25, 35)), ((4, 4), (90, 100)),
    ((2, 7), (45, 55)), ((3, 5), (85, 95)), ((2, 7), (92, 94)),
)


def _semilattice(rng):
    """A family of subsets closed under intersection, as (members, table)."""
    while True:
        universe = rng.randint(2, 5)
        family = {frozenset(x for x in range(universe) if rng.random() < 0.6)
                  for _ in range(rng.randint(2, 6))}
        while True:
            grown = family | {a & b for a in family for b in family}
            if grown == family:
                break
            family = grown
        if len(family) <= Y_ORDER_CAP:
            members = sorted(family, key=lambda s: (len(s), sorted(s)))
            pos = {m: i for i, m in enumerate(members)}
            return members, [[pos[a & b] for b in members] for a in members]


def _clifford_target(rng, band):
    """S = [Y; Z_{r_a}; projections], r_a the product of per-point factors,
    so r_b divides r_a whenever b <= a and the projections compose."""
    while True:
        members, y_rows = _semilattice(rng)
        factor = [rng.choice((1, 1, 2, 3)) for _ in range(5)]
        orders = [math.prod(factor[x] for x in m) for m in members]
        if band[0] <= sum(orders) <= band[1]:
            break
    Y = core.from_table(len(members), y_rows)
    linking = {(a, b): tuple(i % orders[b] for i in range(orders[a]))
               for a in Y.elements for b in Y.elements
               if a != b and Y.mul(a, b) == b}
    groups = tuple(zoo.cyclic_group(r) for r in orders)
    return zoo.clifford(zoo.CliffordData(Y, groups, linking)), len(members)


def make_cases(seed, out_dir):
    """Write the seeded cases to out_dir; returns their descriptions."""
    rng = random.Random(f"{NAME}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = {}
    cases = []
    for k, (spec, band) in enumerate(SCHEDULE * REPEATS):
        S, y_order = _clifford_target(rng, band)
        if spec not in sources:
            sources[spec] = zoo.free_nilpotent(*spec)
        T = sources[spec]
        letters = [rng.randrange(S.order) for _ in range(spec[0])]
        mapping = {}
        for x in T.elements:
            if x == T.zero:
                continue
            image = None
            for c in T.label(x):
                v = letters[ord(c) - ord("a")]
                image = v if image is None else S.mul(image, v)
            mapping[x] = image
        phi = extend.PartialHom(source=T, target=S, mapping=mapping)
        (out_dir / f"T{k}.sgt").write_text(core.format_sgt(T))
        (out_dir / f"S{k}.sgt").write_text(core.format_sgt(S))
        (out_dir / f"case{k}.phm").write_text(
            extend.format_phm(phi, f"T{k}.sgt", f"S{k}.sgt"))
        cases.append({"case": k, "s_order": S.order, "t_order": T.order,
                      "y_order": y_order,
                      "sigma_order": S.order + T.order - 1})
    (out_dir / "cases.json").write_text(json.dumps(cases))
    return cases


def load_cases(case_dir):
    cases = json.loads((case_dir / "cases.json").read_text())
    phis = []
    for c in cases:
        text = (case_dir / f"case{c['case']}.phm").read_text()
        phis.append(extend.parse_phm(text,
                                     lambda ref: core.load_sgt(case_dir / ref)))
    return cases, phis


def round_trip(phi, expected):
    """Build, classify, recover, split and rebuild one extension; returns
    the list of problems found (empty when the round trip is exact)."""
    w = extend.build_extension(phi)
    problems = []
    if w.sigma.order != expected["sigma_order"]:
        problems.append(f"sigma has order {w.sigma.order}")
    kind = extend.classify_extension(w.sigma, w.ideal).kind
    if kind != "strict":
        problems.append(f"classified {kind}, expected strict")
    if extend.recover_partial_hom(w.sigma, w.ideal) != phi:
        problems.append("recovered partial hom differs from the original")
    dec = extend.clifford_decompose(w.sigma, w.ideal)
    if len(dec.components) != expected["y_order"]:
        problems.append(f"{len(dec.components)} components, expected "
                        f"{expected['y_order']} (one per element of Y)")
    rebuilt = extend.build_extension(
        extend.canonical_phi(w.sigma, dec.component_sets()))
    if rebuilt.sigma._rows != w.sigma._rows:
        problems.append("canonical_phi rebuild differs from the original table")
    return problems


def run_cases(cases, phis):
    """Round-trip every case: (seconds per case, problems per case)."""
    times, problems = [], []
    for c, phi in zip(cases, phis):
        t0 = time.perf_counter()
        try:
            problems.append(round_trip(phi, c))
        except Exception as e:    # one failed case must not end the pass
            problems.append([f"case {c['case']}: {type(e).__name__}: {e}"])
        times.append(time.perf_counter() - t0)
    return times, problems


def setup(seed, work):
    case_dir = work / NAME
    make_cases(seed, case_dir)
    return case_dir


def measure_pass(launcher, case_dir, tag):
    """One fresh process loads and round-trips every case."""
    res = launcher.run([sys.executable, str(Path(__file__).resolve()),
                        str(case_dir)], tag)
    if res.returncode != 0:    # every case of the pass failed
        cases = json.loads((case_dir / "cases.json").read_text())
        problem = (f"round-trip process exit {res.returncode}: "
                   f"{res.stderr[-500:]}")
        return common.PassResult([res.wall_s], [[problem]] * len(cases),
                                 res.rss_mb)
    report = json.loads(res.stdout.strip().splitlines()[-1])
    return common.PassResult(report["times"], report["problems"], res.rss_mb)


def traced_pass(case_dir, tracer):
    cases, phis = load_cases(case_dir)
    with tracer.operation("op.roundtrips"):
        times, problems = run_cases(cases, phis)
    return common.PassResult(times, problems)


def main(argv):
    case_dir = Path(argv[0])
    cases, phis = load_cases(case_dir)
    times, problems = run_cases(cases, phis)
    print(json.dumps({"times": times, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
