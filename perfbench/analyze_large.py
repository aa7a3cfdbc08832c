"""Workload analyze_large: `finsemi validate`, `analyze --json` and
`decompose --json` as fresh processes on four zoo tables of orders 127 to
288, each relabelled by a seeded random permutation.

Why: on tables this size the O(n^3) construction, `green` and `archimedean`
dominate, the constructor peaks at 16*n^3 bytes, and per-call overhead does
not matter.  `decompose` on the table that is not conditionally completely
regular (CCR) exits 1 with a witness H-class, and that exit is the expected
result.

Every output is checked against structural invariants that theory fixes for
each family and that no relabelling may change: Green class counts,
idempotents, regular elements, the CCR verdict, height, |base|, the number
of rho-classes, and where the zero and identity land.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
import time

import numpy as np

from perfbench import common

common.require_program()
from finsemi import cli, core, decompose, zoo  # noqa: E402

# the package re-exports functions named green and stratify over the modules
green = importlib.import_module("finsemi.green")
stratify = importlib.import_module("finsemi.stratify")

NAME = "analyze_large"
COMMANDS = ("validate", "analyze", "decompose")
SETUP_REPS = 3
CLI_CALLS = 3 * 4           # fresh CLI processes per pass
WALL_NAME = None            # wall_s is validate_s + analyze_s + decompose_s

# Invariants from theory, per fixture (J = D on every finite semigroup):
# - free_nilpotent(2, 7): words of length < 7 plus 0; every principal ideal
#   differs, so all Green classes are singletons; only 0 is idempotent or
#   regular; S^7 = {0}; one archimedean component.
# - monogenic(100, 100): a, ..., a^199 with kernel the cyclic group
#   {a^100, ...}; commutative, so R = L = H = D: the kernel plus 99
#   singletons; height 100, base = kernel.
# - full_transformations(3) x chain_semilattice(8): Green's relations of a
#   product of monoids are products, so T3's 5 R-, 7 L-, 13 H- and 3
#   D-classes and 10 idempotents each multiply by 8.  The rank-2 H-classes
#   whose image is no transversal of the kernel are regular without an
#   idempotent, so the table is not CCR.
# - rectangular_band(16, 18): 16 R-classes, 18 L-classes, singleton
#   H-classes, one D-class, all idempotent.
FIXTURES = (
    ("free_nilpotent 2 7", lambda: zoo.free_nilpotent(2, 7),
     dict(order=127, R=127, L=127, H=127, D=127, idempotents=1, regular=1,
          ccr=True, height=7, base=1, rho=1, zero=True, identity=False)),
    ("monogenic 100 100", lambda: zoo.monogenic(100, 100),
     dict(order=199, R=100, L=100, H=100, D=100, idempotents=1, regular=100,
          ccr=True, height=100, base=100, rho=1, zero=False, identity=False)),
    ("full_transformations 3 x chain 8",
     lambda: core.direct_product(zoo.full_transformations(3),
                                 zoo.chain_semilattice(8)),
     dict(order=216, R=40, L=56, H=104, D=24, idempotents=80, regular=216,
          ccr=False, height=1, base=216, rho=None, zero=False, identity=True)),
    ("rectangular_band 16 18", lambda: zoo.rectangular_band(16, 18),
     dict(order=288, R=16, L=18, H=288, D=1, idempotents=288, regular=288,
          ccr=True, height=1, base=288, rho=1, zero=False, identity=False)),
)


class Input:
    """One relabelled fixture as written to disk, with what to expect."""

    def __init__(self, name, path, table, expected):
        self.name = name
        self.path = path
        self.table = table            # relabelled, for the raw-loop checks
        self.expected = expected
        ar = np.arange(len(table))
        zeros = [z for z in ar if (table[z] == z).all()
                 and (table[:, z] == z).all()]
        units = [e for e in ar if (table[e] == ar).all()
                 and (table[:, e] == ar).all()]
        if len(zeros) != expected["zero"] or len(units) != expected["identity"]:
            raise RuntimeError(f"{name}: fixture zero/identity disagree "
                               "with theory")
        self.zero = int(zeros[0]) if zeros else None
        self.identity = int(units[0]) if units else None


def setup(seed, work):
    """Build the four fixtures, relabel each by a seeded permutation and
    write it as .sgt; returns the Inputs."""
    rng = random.Random(f"{NAME}:{seed}")
    out_dir = work / NAME
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for k, (name, build, expected) in enumerate(FIXTURES):
        t = build().table
        n = len(t)
        perm = np.array(rng.sample(range(n), n))
        table = np.empty_like(t)
        table[np.ix_(perm, perm)] = perm[t]
        path = out_dir / f"fixture{k}.sgt"
        path.write_text(f"{n}\n" + "\n".join(" ".join(map(str, row))
                                             for row in table.tolist()) + "\n")
        inputs.append(Input(name, path, table, expected))
    return inputs


def argv_for(command, inp):
    if command == "validate":
        return ["validate", str(inp.path)]
    return [command, str(inp.path), "--json"]


def check(command, inp, returncode, stdout):
    """Problems with one command's output (empty when it is correct)."""
    exp = inp.expected
    if command == "validate":
        tags = []
        if inp.zero is not None:
            tags.append(f"zero={inp.zero}")
        if inp.identity is not None:
            tags.append(f"identity={inp.identity}")
        want = (f"valid semigroup of order {exp['order']}"
                + (" (" + ", ".join(tags) + ")" if tags else ""))
        if returncode != 0 or stdout.strip() != want:
            return [f"validate: exit {returncode}, output {stdout[:200]!r}"]
        return []
    if command == "decompose" and not exp["ccr"]:
        return _check_witness(inp, returncode, stdout)
    if returncode != 0:
        return [f"{command}: exit {returncode}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"{command}: output is not JSON ({e})"]
    if command == "decompose":
        return _check_rho(inp, out["rho_classes"], "decompose")
    return _check_bundle(inp, out)


def _partition_problems(inp, classes, what, count):
    n = inp.expected["order"]
    problems = []
    if len(classes) != count:
        problems.append(f"{what}: {len(classes)} classes, expected {count}")
    if sorted(x for c in classes for x in c) != list(range(n)):
        problems.append(f"{what}: classes do not partition the elements")
    return problems


def _check_rho(inp, rho_classes, where):
    return _partition_problems(inp, rho_classes, f"{where} rho",
                               inp.expected["rho"])


def _check_bundle(inp, b):
    exp = inp.expected
    t = inp.table
    problems = []
    for key, want in (("order", exp["order"]), ("zero", inp.zero),
                      ("identity", inp.identity)):
        if b[key] != want:
            problems.append(f"analyze: {key} {b[key]}, expected {want}")
    for rel in ("R", "L", "H", "D", "J"):
        problems += _partition_problems(inp, b["green"][rel], f"analyze {rel}",
                                        exp["D" if rel == "J" else rel])
    ids = b["idempotents"]
    if len(ids) != exp["idempotents"] or any(t[e, e] != e for e in ids):
        problems.append(f"analyze: idempotents {len(ids)}, expected "
                        f"{exp['idempotents']}")
    if len(b["regular"]) != exp["regular"]:
        problems.append(f"analyze: {len(b['regular'])} regular, expected "
                        f"{exp['regular']}")
    ccr = b["flags"]["conditionally_completely_regular"]
    if ccr != exp["ccr"]:
        problems.append(f"analyze: CCR {ccr}, expected {exp['ccr']}")
    strat = b["stratification"]
    if strat["height"] != exp["height"] or len(strat["base"]) != exp["base"]:
        problems.append(f"analyze: height {strat['height']} |base| "
                        f"{len(strat['base'])}, expected {exp['height']} "
                        f"{exp['base']}")
    dec = b["decomposition"]
    if exp["ccr"]:
        problems += _check_rho(inp, dec["rho_classes"], "analyze")
    elif dec is not None:
        problems.append("analyze: decomposition reported for non-CCR input")
    return problems


_WITNESS = re.compile(r"not conditionally completely regular; "
                      r"witness H-class \[([0-9, ]+)\]")


def _check_witness(inp, returncode, stdout):
    """The witness must be one H-class of regular elements, none idempotent;
    each fact is re-checked on the raw table."""
    m = _WITNESS.fullmatch(stdout.strip())
    if returncode != 1 or m is None:
        return [f"decompose: exit {returncode}, output {stdout[:200]!r}"]
    h = [int(x) for x in m.group(1).split(",")]
    t = inp.table
    n = len(t)

    def ideals(a):
        return (frozenset(t[a].tolist()) | {a}, frozenset(t[:, a].tolist()) | {a})

    problems = []
    if any(t[a, a] == a for a in h):
        problems.append("decompose: witness H-class holds an idempotent")
    if any(not (t[t[a], a] == a).any() for a in h):
        problems.append("decompose: witness holds a non-regular element")
    if len({ideals(a) for a in h}) != 1:
        problems.append("decompose: witness elements are not H-related")
    klass = {x for x in range(n) if ideals(x) == ideals(h[0])}
    if klass != set(h):
        problems.append("decompose: witness is not a whole H-class")
    return problems


def measure_pass(launcher, inputs, tag):
    """Every command on every input as a fresh process."""
    times, problems = [], []
    detail = {f"{c}_{m}": 0.0 for c in COMMANDS for m in ("s", "rss_mb")}
    for k, inp in enumerate(inputs):
        for command in COMMANDS:
            res = launcher.run(common.cli_argv(*argv_for(command, inp)),
                               f"{tag}-{k}-{command}")
            times.append(res.wall_s)
            detail[f"{command}_s"] += res.wall_s
            detail[f"{command}_rss_mb"] = max(detail[f"{command}_rss_mb"],
                                              res.rss_mb)
            bad = check(command, inp, res.returncode, res.stdout)
            problems.append([f"{inp.name}: {p}" for p in bad])
    rss = max(detail[f"{c}_rss_mb"] for c in COMMANDS)
    return common.PassResult(times, problems, rss, detail)


def traced_pass(inputs, tracer):
    """The same commands in-process through cli.main, one operation each."""
    times, problems = [], []
    for inp in inputs:
        for command in COMMANDS:
            buf = io.StringIO()
            with tracer.operation(f"op.{command}"), \
                    contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv_for(command, inp))
                except Exception as e:   # the CLI must not raise; count it
                    rc = f"{type(e).__name__}: {e}"
                times.append(time.perf_counter() - t0)
            bad = check(command, inp, rc, buf.getvalue())
            problems.append([f"{inp.name}: {p}" for p in bad])
    return common.PassResult(times, problems)


def trace_notes(inputs):
    return [format_baseline(baseline_table(inputs))]


BASELINE_STAGES = ("construct", "green", "stratify", "classify", "verify_rho",
                   "analysis_bundle")


def baseline_table(inputs):
    """Cold in-process stage times, one after another on one object (later
    stages reuse caches earlier ones filled), in milliseconds."""
    rows = []
    for inp in inputs:
        entries = inp.table.tolist()
        ms = {}
        t0 = time.perf_counter()
        S = core.Semigroup(entries)
        ms["construct"] = (time.perf_counter() - t0) * 1e3
        for stage, fn in (("green", green.green), ("stratify", stratify.stratify),
                          ("classify", stratify.classify),
                          ("verify_rho", decompose.verify_rho),
                          ("analysis_bundle", cli.analysis_bundle)):
            if stage == "verify_rho" and not inp.expected["ccr"]:
                ms[stage] = None
                continue
            t0 = time.perf_counter()
            fn(S)
            ms[stage] = (time.perf_counter() - t0) * 1e3
        rows.append((f"{inp.name} ({inp.expected['order']})", ms))
    return rows


def format_baseline(rows):
    lines = ["| input (order) | " + " | ".join(BASELINE_STAGES) + " |",
             "|---" * (len(BASELINE_STAGES) + 1) + "|"]
    for label, ms in rows:
        cells = ["n/a" if ms[s] is None else f"{ms[s]:.0f} ms"
                 for s in BASELINE_STAGES]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
