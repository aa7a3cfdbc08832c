"""Workload sweep_small: `finsemi verify --order 4 --seed <seed>` as one
process.

Why: it runs the same layers as analyze_large in the opposite regime.  It
checks all 3,492 labelled order-4 tables with every property suite, the
126^2 products of iso+anti representatives and seeded order-5 samples:
about 184k Semigroup constructions on 4x4 tables and 373k `product_set`
calls, so Python and numpy per-call cost dominates and the n^3 terms do
not.  A change that helps large tables by adding per-call cost shows up here
as a regression, and the reverse also holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time

from perfbench import common

common.require_program()
from finsemi import cli  # noqa: E402

NAME = "sweep_small"
SETUP_REPS = 21             # the set-up is tiny; more repeats steady its median
CLI_CALLS = 1
WALL_NAME = "sweep_s"
ORDER = 4
LABELLED_TABLES = 3492      # OEIS A023814(4)
PAIRS = 126 ** 2            # iso+anti representatives of order 4, squared
SAMPLES = 1000              # the verify default, order-5 uniform samples
DEEP_SAMPLES = 10           # min(SAMPLES, 10) backtracking samples

_SUMMARY = re.compile(
    r"checked (\d+) semigroup\(s\) \((\d+) product pairs, (\d+) of (\d+) "
    r"uniform order-5 samples associative, (\d+) backtracking samples\)")
_FAILING = re.compile(r"(\d+) failing semigroup\(s\)")


def argv(seed):
    return ["verify", "--order", str(ORDER), "--seed", str(seed)]


def setup(seed, work):
    """The only input is the argument list; it is written with the counts
    the run must report, so a result can be traced back to its inputs."""
    out_dir = work / NAME
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"argv": argv(seed), "labelled_tables": LABELLED_TABLES,
                "pairs": PAIRS, "samples": SAMPLES,
                "deep_samples": DEEP_SAMPLES}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def check(returncode, stdout):
    """One problem list per operation of a verify run: the semigroups and
    product pairs it reports checking.  When the summary itself is wrong,
    every operation counts as failed."""
    m = _SUMMARY.search(stdout)
    if m is None:
        return [[f"verify: exit {returncode}, no summary line"]]
    checked, pairs, survivors, samples, deep = map(int, m.groups())
    attempted = checked + pairs
    failing = _FAILING.search(stdout)
    reported = int(failing.group(1)) if failing else 0
    problems = []
    if checked != LABELLED_TABLES + survivors + deep:
        problems.append(f"verify: checked {checked} semigroups, expected "
                        f"{LABELLED_TABLES} + {survivors} + {deep}")
    if (pairs, samples, deep) != (PAIRS, SAMPLES, DEEP_SAMPLES):
        problems.append(f"verify: {pairs} pairs, {samples} samples, {deep} "
                        f"backtracking, expected {PAIRS}, {SAMPLES}, "
                        f"{DEEP_SAMPLES}")
    if not 0 <= survivors <= samples:
        problems.append(f"verify: {survivors} of {samples} samples kept")
    if returncode != 0 or reported:
        problems.append(f"verify: exit {returncode}, {reported} failing")
    elif not stdout.rstrip().endswith("all property suites passed"):
        problems.append("verify: no pass line")
    failed = reported if reported and len(problems) == 1 else (
        attempted if problems else 0)
    return [[]] * (attempted - failed) + [problems] * failed


def measure_pass(launcher, manifest, tag):
    res = launcher.run(common.cli_argv(*manifest["argv"]), tag)
    return common.PassResult([res.wall_s], check(res.returncode, res.stdout),
                             res.rss_mb)


def traced_pass(manifest, tracer):
    buf = io.StringIO()
    with tracer.operation("op.verify"), contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(manifest["argv"])
        except Exception as e:   # the CLI must not raise; count it
            rc = f"{type(e).__name__}: {e}"
        total = time.perf_counter() - t0
    return common.PassResult([total], check(rc, buf.getvalue()))
