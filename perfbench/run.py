"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analyze_large --seed 1 --seconds 30 --trace 0

The seed makes the inputs; --seconds bounds how long the measured passes
run (at least one pass always runs).  With --trace 0 the last line of
standard output is a JSON object carrying the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.  Every
result is also appended, with the machine description, to
.perfbench_work/results.jsonl (or the file given by --save), which is what
perfbench/compare.py reads.  --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("analyze_large", "sweep_small", "extend_roundtrip")
# A real set-up runs once, from a process that was doing something else.
# Back-to-back repeats of a sub-millisecond set-up run warm and fall into
# per-process modes far apart on a shared machine; repeats that each start
# after a short pause agree within a few percent.
SETUP_PAUSE_S = 0.05


class Result:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}     # the metrics the JSON line carries: name -> (value, unit)
        self.detail = {}      # further measurements kept in the saved record
        self.passes = 0
        self.notes = []

    def add(self, p):
        """Count the checked operations of one pass."""
        self.attempted += len(p.problems)
        for problems in p.problems:
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.extend(problems)


def _module(workload):
    return importlib.import_module(f"perfbench.{workload}")


def measure(launcher, workload, seed, seconds, max_passes=None):
    """Set up (repeatedly, keeping the median time), then run passes while
    another one fits into `seconds`; at least one always runs."""
    mod = _module(workload)
    res = Result(workload, seed)
    setup_times = []
    for _ in range(mod.SETUP_REPS):
        time.sleep(SETUP_PAUSE_S)
        t0 = time.perf_counter()
        inputs = mod.setup(seed, common.WORK)
        setup_times.append(time.perf_counter() - t0)
    passes, durations = [], []
    start = time.perf_counter()
    while max_passes is None or len(passes) < max_passes:
        t0 = time.perf_counter()
        p = mod.measure_pass(launcher, inputs, f"{workload}-p{len(passes)}")
        durations.append(time.perf_counter() - t0)
        passes.append(p)
        res.add(p)
        elapsed = time.perf_counter() - start
        if elapsed + common.median(durations) > seconds:
            break
    res.passes = len(passes)
    # each step's median over passes, summed: a burst of noise during one
    # pass moves the steps it hit, not the whole total
    wall = sum(common.median(ts) for ts in zip(*(p.times for p in passes)))
    res.metrics = {"setup_s": (common.median(setup_times), "s"),
                   "wall_s": (wall, "s"),
                   "peak_rss_mb": (common.median([p.rss_mb for p in passes]),
                                   "MB")}
    res.detail = {k: common.median([p.detail[k] for p in passes])
                  for k in passes[0].detail}
    if mod.WALL_NAME:
        res.detail[mod.WALL_NAME] = wall
    res.detail["failed_frac"] = res.failed / max(res.attempted, 1)
    return res, mod, inputs


def _memory_probes(rows):
    """tracemalloc peaks on a fresh object built from the largest table."""
    core = importlib.import_module("finsemi.core")
    green = importlib.import_module("finsemi.green")
    out = {}
    tracemalloc.start()
    try:
        core.Semigroup(rows)
        out["core.construct_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        for metric, fn in (("green.peak_mb", green.green),
                           ("green.regular_peak_mb", green.regular_elements)):
            S = core.Semigroup(rows)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(S)
            out[metric] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return out


def trace(launcher, workload, seed, seconds):
    """One untraced pass, then the same work in-process under the tracer."""
    from perfbench import tracing
    res, mod, inputs = measure(launcher, workload, seed, seconds, max_passes=1)
    startup = common.startup_seconds(launcher)
    untraced = res.metrics["wall_s"][0] - mod.CLI_CALLS * startup
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        with tracer.operation("op.setup"):
            mod.setup(seed, common.WORK)
        p = mod.traced_pass(inputs, tracer)
    res.add(p)
    traced = sum(p.times)
    tracer.write(common.WORK / f"trace-{workload}-seed{seed}.npz")
    layer = {name: value for name, (value, _) in
             tracing.layer_metrics(tracer).items()}
    layer.update(_memory_probes(tracer.largest_rows))
    layer["cli.startup_s"] = startup
    layer["trace.overhead_frac"] = traced / untraced - 1.0
    res.detail.update({name: value for name, (value, _) in res.metrics.items()})
    res.detail.update({"traced_s": traced, "untraced_s": untraced,
                       "spans": len(tracer.start)})
    res.metrics = {name: (layer[name], unit)
                   for name, unit in _per_layer_units().items()}
    if hasattr(mod, "trace_notes"):
        res.notes += mod.trace_notes(inputs)
    return res


def _per_layer_units():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(res, seconds, trace_flag, save):
    print(f"# workload {res.workload} seed {res.seed} passes {res.passes} "
          f"trace {trace_flag}")
    for name, (value, unit) in res.metrics.items():
        print(f"{res.workload} {name} = {value:.6g} {unit}")
    for name, value in res.detail.items():
        print(f"{res.workload} {name} = {value:.6g}  (detail)")
    print(f"{res.workload} attempted = {res.attempted}, failed = {res.failed}")
    for note in res.notes:
        print(note)
    for problem in res.problems:
        print(f"FAILED: {problem}")
    record = {"workload": res.workload, "seed": res.seed, "seconds": seconds,
              "trace": trace_flag, "passes": res.passes,
              "setup_reps": _module(res.workload).SETUP_REPS,
              "machine": common.machine_info(),
              "correct": res.failed == 0, "attempted": res.attempted,
              "failed": res.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in res.metrics.items()},
              "detail": res.detail, "problems": res.problems}
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    with open(save, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="JSONL file the result is appended to")
    args = parser.parse_args(argv)
    common.require_program()
    common.WORK.mkdir(exist_ok=True)
    save = args.save or common.WORK / "results.jsonl"
    records = []
    launcher = common.Launcher()    # before this process imports numpy
    try:
        for workload in (WORKLOADS if args.workload == "all"
                         else (args.workload,)):
            if args.trace:
                res = trace(launcher, workload, args.seed, args.seconds)
            else:
                res, _, _ = measure(launcher, workload, args.seed, args.seconds)
            records.append(report(res, args.seconds, args.trace, save))
    finally:
        launcher.close()
    if len(records) == 1:
        final = {k: records[0][k] for k in ("correct", "attempted", "failed",
                                              "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {f"{r['workload']}.{k}": v for r in records
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
