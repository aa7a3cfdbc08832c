"""Spans and counts recorded from outside the library.

`instrument(tracer)` wraps every public function of the eight finsemi layer
modules (plus `Semigroup.__init__`, `zoo._canonical` and the JSON encoder the
CLI calls) in every finsemi module namespace that binds it, so calls between
modules and inside one module are both seen.  Spans live in flat arrays
while the traced work runs; self times, counts and the per-layer metrics are
derived once at the end.  Nothing in `src/` is edited: the wrappers are
installed for the duration of a `with instrument(tracer):` block and the
original objects are restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "core", "green", "stratify", "decompose", "extend", "zoo",
          "properties")
# Private helpers whose time a layer metric names explicitly.
PRIVATE_TRACED = {"zoo": ("_canonical",)}

# Self-time metrics: metric name -> span names (layer.function) it sums.
SELF_TIME_GROUPS = {
    "cli.json_s": ("cli.json_dumps",),
    "core.parse_s": ("core.parse_sgt", "core.load_sgt"),
    "core.construct_s": ("core.construct", "core.from_table"),
    "core.product_set_s": ("core.product_set",),
    "core.quotient_s": ("core.restrict", "core.rees_quotient",
                        "core.quotient_by_congruence"),
    "core.congruence_s": ("core.congruence_witness", "core.is_congruence",
                          "core.enumerate_congruences"),
    "core.isomorphism_s": ("core.find_isomorphism", "core.isomorphic"),
    "green.green_s": ("green.green",),
    "green.regular_s": ("green.regular_elements",),
    "green.weak_inverses_s": ("green.weak_inverses",),
    "stratify.stratify_s": ("stratify.stratify",),
    "stratify.classify_s": ("stratify.classify",),
    "decompose.rho_partition_s": ("decompose.rho_partition",
                                  "decompose.footprint"),
    "decompose.verify_rho_s": ("decompose.verify_rho",),
    "decompose.archimedean_s": ("decompose.archimedean",),
    "extend.build_s": ("extend.build_extension",),
    "extend.classify_s": ("extend.classify_extension",),
    "extend.recover_s": ("extend.recover_partial_hom",),
    "extend.clifford_decompose_s": ("extend.clifford_decompose",),
    "extend.canonical_phi_s": ("extend.canonical_phi",),
    "zoo.enumerate_s": ("zoo.enumerate_associative",),
    "zoo.canonical_s": ("zoo._canonical",),
    "properties.check_core_s": ("properties.check_core",),
    "properties.check_green_s": ("properties.check_green",),
    "properties.check_stratify_s": ("properties.check_stratify",),
    "properties.check_decompose_s": ("properties.check_decompose",),
    "properties.check_product_pair_s": ("properties.check_product_pair",),
}
# zoo spans that are not fixture construction (sweeps and samplers).
ZOO_NOT_FIXTURE = ("zoo.enumerate_associative", "zoo._canonical",
                   "zoo.sample_associative", "zoo.random_associative")
CALL_COUNTS = {
    "core.constructions": "core.construct",
    "core.product_set_calls": "core.product_set",
    "green.green_calls": "green.green",
    "decompose.archimedean_calls": "decompose.archimedean",
}


class Tracer:
    """Spans (name, start, end, parent, operation id) in flat arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = 0
        self.cells_validated = 0   # sum of n^3 over constructions, computed
        self.dedup_kept = 0        # tables yielded by a deduplicating enumeration
        self.largest_rows = None   # the largest table constructed, for probes

    def name(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name):
        """One top-level operation of a workload; its spans share an id."""
        self.op_id += 1
        i = self.open(self.name(name))
        try:
            yield
        finally:
            self.close(i)

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        return name_id, start, end, parent, op

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - covered

    def write(self, path):
        name_id, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent, op=op)


def _traced_function(fn, nid, tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return traced


def _traced_generator(fn, nid, tracer, on_item=None):
    """Time each resumption of the generator, not the consumer's work."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = tracer.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(i)
            if on_item is not None:
                on_item(args, kwargs)
            yield item
    return traced


def _enumerate_kept(tracer):
    def on_item(args, kwargs):
        if kwargs.get("dedup", args[1] if len(args) > 1 else None):
            tracer.dedup_kept += 1
    return on_item


def _traced_init(init, nid, tracer):
    @functools.wraps(init)
    def traced(self, entries, labels=None):
        n = len(entries)
        tracer.cells_validated += n ** 3
        largest = tracer.largest_rows
        if largest is None or n > len(largest):
            tracer.largest_rows = [list(map(int, row)) for row in entries]
        i = tracer.open(nid)
        try:
            init(self, entries, labels)
        finally:
            tracer.close(i)
    return traced


@contextmanager
def instrument(tracer):
    """Install the span wrappers for the duration of the block."""
    modules = {layer: importlib.import_module(f"finsemi.{layer}")
               for layer in LAYERS}
    # render binds library functions too; it is patched, not traced
    namespaces = ([importlib.import_module("finsemi"),
                   importlib.import_module("finsemi.render")]
                  + list(modules.values()))
    wrappers = {}   # original function -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE_TRACED.get(layer, ()):
                continue
            nid = tracer.name(f"{layer}.{attr}")
            if inspect.isgeneratorfunction(obj):
                hook = (_enumerate_kept(tracer)
                        if f"{layer}.{attr}" == "zoo.enumerate_associative"
                        else None)
                wrapper = _traced_generator(obj, nid, tracer, hook)
            else:
                wrapper = _traced_function(obj, nid, tracer)
            wrappers[obj] = wrapper

    patched = []   # (namespace dict, attr, original)
    for mod in namespaces:
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((ns, attr, obj))
                ns[attr] = wrappers[obj]

    semigroup = modules["core"].Semigroup
    original_init = semigroup.__init__
    semigroup.__init__ = _traced_init(original_init, tracer.name("core.construct"),
                                      tracer)
    cli = modules["cli"]
    original_json = cli.json
    cli.json = types.SimpleNamespace(dumps=_traced_function(
        json.dumps, tracer.name("cli.json_dumps"), tracer))
    try:
        yield tracer
    finally:
        cli.json = original_json
        semigroup.__init__ = original_init
        for ns, attr, obj in reversed(patched):
            ns[attr] = obj


def layer_metrics(tracer):
    """Every per-layer metric the spans and counters give, by name."""
    name_id, _, _, parent, _ = tracer.arrays()
    self_t = tracer.self_times()
    nnames = len(tracer.names)
    by_name = np.bincount(name_id, weights=self_t, minlength=nnames)
    calls = np.bincount(name_id, minlength=nnames)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def total(names, arr):
        return float(sum(arr[ids[n]] for n in names if n in ids))

    out = {}
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = (total(names, by_name), "s")
    for metric, span in CALL_COUNTS.items():
        out[metric] = (int(total((span,), calls)), "count")
    out["core.cells_validated"] = (tracer.cells_validated, "count")
    fixture = [n for n in tracer.names
               if n.startswith("zoo.") and n not in ZOO_NOT_FIXTURE]
    out["zoo.fixture_s"] = (total(fixture, by_name), "s")
    canonicalised = total(("zoo._canonical",), calls)
    out["zoo.dedup_kept_ratio"] = (
        tracer.dedup_kept / canonicalised if canonicalised else 0.0, "ratio")

    # adjoin_zero constructions made on behalf of stratify
    adj = ids.get("core.adjoin_zero")
    count = 0
    if adj is not None:
        strat = [i for n, i in ids.items() if n.startswith("stratify.")]
        mine = np.flatnonzero(name_id == adj)
        parents = parent[mine]
        parents = parents[parents >= 0]
        count = int(np.isin(name_id[parents], strat).sum())
    out["stratify.adjoin_zero_constructions"] = (count, "count")

    for layer in LAYERS:
        members = [i for n, i in ids.items() if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = (float(by_name[members].sum()), "s")
        out[f"{layer}.calls"] = (int(calls[members].sum()), "count")
    return out
