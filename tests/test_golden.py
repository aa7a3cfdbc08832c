"""Frozen CLI outputs: the golden corpus.

For every table of order <= 3 and four larger zoo fixtures (each relabelled
by a fixed permutation, labels included), the SHA-256 of the exit code plus
stdout of `validate`, `analyze`, `analyze --json`, `decompose` and
`decompose --json` is pinned in `tests/golden/cli_digests.json`.  Four
fixtures of order 540 to 799, relabelled and digested the same way, are
pinned in `tests/golden/large_digests.json`.  A change that moves any byte
of any of these outputs fails here.

Regenerate (only when an output change is intended) with
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from finsemi import Semigroup, direct_product, format_sgt, zoo
from finsemi.cli import main

DIGESTS = Path(__file__).parent / "golden" / "cli_digests.json"
LARGE_DIGESTS = Path(__file__).parent / "golden" / "large_digests.json"

COMMANDS = (
    ("validate",),
    ("analyze",),
    ("analyze", "--json"),
    ("decompose",),
    ("decompose", "--json"),
)

FIXTURES = (
    ("free_nilpotent 2 7", lambda: zoo.free_nilpotent(2, 7)),
    ("monogenic 100 100", lambda: zoo.monogenic(100, 100)),
    ("full_transformations 3 x chain 8",
     lambda: direct_product(zoo.full_transformations(3),
                            zoo.chain_semilattice(8))),
    ("rectangular_band 16 18", lambda: zoo.rectangular_band(16, 18)),
)

# beyond the order-288 corpus: the orders the analysis must reach
LARGE_FIXTURES = (
    ("chain 600", lambda: zoo.chain_semilattice(600)),
    ("rectangular_band 24 25", lambda: zoo.rectangular_band(24, 25)),
    ("monogenic 400 400", lambda: zoo.monogenic(400, 400)),
    ("full_transformations 3 x chain 20",
     lambda: direct_product(zoo.full_transformations(3),
                            zoo.chain_semilattice(20))),
)


def _relabel(S, seed):
    """S with element x renamed perm[x] for a seeded permutation perm."""
    n = S.order
    perm = random.Random(seed).sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[S.mul(i, j)]
    labels = None
    if S.labels:
        labels = [None] * n
        for i in range(n):
            labels[perm[i]] = S.labels[i]
    return Semigroup(rows, labels=labels)


def relabelled(fixtures):
    """(name, semigroup) for each fixture, relabelled by its own seed."""
    for name, build in fixtures:
        yield name, _relabel(build(), f"golden:{name}")


def corpus():
    """(case name, semigroup) for every case of the golden corpus."""
    for n in (1, 2, 3):
        for k, S in enumerate(zoo.enumerate_associative(n)):
            yield f"order{n}#{k}", S
    yield from relabelled(FIXTURES)


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def digests(work_dir, cases):
    """{"<case> | <command>": sha256} over (name, semigroup) cases."""
    out = {}
    for k, (name, S) in enumerate(cases):
        path = Path(work_dir) / f"case{k}.sgt"
        path.write_text(format_sgt(S), encoding="utf-8")
        for cmd in COMMANDS:
            out[f"{name} | {' '.join(cmd)}"] = _digest(
                [cmd[0], str(path), *cmd[1:]])
    return out


def test_cli_outputs_match_golden_corpus(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(tmp_path, corpus())
    assert len(got) == (122 + len(FIXTURES)) * len(COMMANDS)
    _assert_unmoved(got, expected)


def test_large_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(LARGE_DIGESTS.read_text(encoding="utf-8"))
    got = digests(tmp_path, relabelled(LARGE_FIXTURES))
    assert len(got) == len(LARGE_FIXTURES) * len(COMMANDS)
    _assert_unmoved(got, expected)


def _assert_unmoved(got, expected):
    assert got.keys() == expected.keys()
    moved = [key for key in got if got[key] != expected[key]]
    assert not moved, f"{len(moved)} outputs changed, first: {moved[:5]}"


if __name__ == "__main__":
    import tempfile

    for path, cases in ((DIGESTS, corpus()),
                        (LARGE_DIGESTS, relabelled(LARGE_FIXTURES))):
        with tempfile.TemporaryDirectory() as work:
            table = digests(work, cases)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(table)} digests to {path}")
