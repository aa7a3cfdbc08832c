"""Command-line surface: validate / analyze / decompose / extend / zoo /
enumerate / verify over .sgt and .phm files.

Exit codes: 0 success, 1 property or validation failure, 2 usage error,
3 I/O error.  All randomness flows through --seed (fixed default), so every
command is deterministic given its inputs.  `verify` runs one fork-started
worker per CPU in the process's affinity mask, each checking its share of
every source, and merges their failures; its output does not depend on
that count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decompose as dc
from .core import (format_sgt, is_weakly_reductive, load_sgt, read_text,
                   save_sgt)
from .green import (
    ccr_witness,
    green,
    idempotents,
    is_clifford,
    is_completely_simple,
    is_conditionally_completely_regular,
    regular_elements,
)
from .stratify import classify, stratify
from .errors import (
    InvalidArgument,
    NotConditionallyCompletelyRegular,
    SemigroupError,
    SgtParseError,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 0
# The most uniform order-5 samples `verify --samples` draws; its run time
# grows linearly in the count.
SAMPLES_CAP = 100_000

# fixture name -> (zoo function name, parameter count); zoo is imported
# only by the commands that build a fixture
_ZOO_TABLE = {
    "monogenic": ("monogenic", 2),
    "cyclic": ("cyclic_group", 1),
    "zero": ("zero_semigroup", 1),
    "chain": ("chain_semilattice", 1),
    "rectangular_band": ("rectangular_band", 2),
    "brandt_b2": ("brandt_b2", 0),
    "powerset_nil": ("powerset_nilsemigroup", 1),
    "free_nilpotent": ("free_nilpotent", 2),
    "full_transformations": ("full_transformations", 1),
    "trivial": ("trivial", 0),
}


def _zoo_build(name, params):
    from . import zoo
    if name == "partial_map":
        if len(params) < 3:
            raise SemigroupError("partial_map needs n m and n group orders")
        n, m, orders = params[0], params[1], params[2:]
        if len(orders) != n:
            raise SemigroupError(f"partial_map expects {n} group orders")
        groups = [zoo.cyclic_group(r) for r in orders]
        return zoo.partial_map_extension(n, m, groups).sigma
    if name not in _ZOO_TABLE:
        known = ", ".join(sorted(_ZOO_TABLE) + ["partial_map"])
        raise SemigroupError(f"unknown zoo fixture {name!r} (known: {known})")
    fn, arity = _ZOO_TABLE[name]
    if len(params) != arity:
        raise SemigroupError(f"zoo fixture {name} takes {arity} parameter(s)")
    return getattr(zoo, fn)(*params)


def _resolve_ref(ref, base_dir):
    """A .phm reference: either a path to a .sgt file or a zoo:... tag."""
    if ref.startswith("zoo:"):
        parts = ref.split(":")
        try:
            params = [int(p) for p in parts[2:]]
        except ValueError:
            raise InvalidArgument(f"non-integer parameter in {ref!r}")
        return _zoo_build(parts[1], params)
    path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
    return load_sgt(path)


def analysis_bundle(S):
    g = green(S)
    strat = stratify(S)
    cls = classify(S)
    ccr = is_conditionally_completely_regular(S)
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "order": S.order,
        "zero": S.zero,
        "identity": S.identity,
        "labels": list(S.labels) if S.labels else None,
        "green": {name: getattr(g, name).as_lists()
                  for name in ("R", "L", "H", "D", "J")},
        "idempotents": sorted(idempotents(S)),
        "regular": sorted(regular_elements(S)),
        "flags": {
            # true of every finite semigroup; properties.check_green
            # recomputes all four
            "e_dense": True,
            "periodic": True,
            "eventually_regular": True,
            "group_bound": True,
            "conditionally_completely_regular": ccr,
            "completely_simple": is_completely_simple(S),
            "clifford": is_clifford(S),
            "weakly_reductive": is_weakly_reductive(S),
        },
        "stratification": strat.to_json(),
        "classification": cls.to_json(),
        "decomposition": dc.verify_rho(S).to_json() if ccr else None,
    }
    return bundle


def cmd_validate(args):
    try:
        S = load_sgt(args.path)
    except SemigroupError as e:
        print(f"invalid: {e}")
        return 1
    tags = []
    if S.zero is not None:
        tags.append(f"zero={S.zero}")
    if S.identity is not None:
        tags.append(f"identity={S.identity}")
    print(f"valid semigroup of order {S.order}"
          + (" (" + ", ".join(tags) + ")" if tags else ""))
    return 0


def cmd_analyze(args):
    S = load_sgt(args.path)
    if args.json:
        print(json.dumps(analysis_bundle(S), indent=2))
    else:
        from . import render
        ccr = is_conditionally_completely_regular(S)
        print(render.render_analysis(S))
        print(f"\nconditionally completely regular: {ccr}")
        if not ccr:
            w = ccr_witness(S)
            print(f"  witness H-class without idempotent: {sorted(w)}")
    return 0


def cmd_decompose(args):
    S = load_sgt(args.path)
    try:
        report = dc.verify_rho(S)
    except NotConditionallyCompletelyRegular as e:
        print(f"not conditionally completely regular; witness H-class "
              f"{sorted(e.h_class)}")
        return 1
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update(report.to_json())
        print(json.dumps(payload, indent=2))
    else:
        from . import render
        print(render.render_decomposition(S, report))
    return 0


def cmd_extend(args):
    from .extend import build_extension, parse_phm
    text = read_text(args.path)
    base_dir = os.path.dirname(os.path.abspath(args.path))
    phi = parse_phm(text, lambda ref: _resolve_ref(ref, base_dir))
    sigma = build_extension(phi).sigma
    if args.output:
        save_sgt(sigma, args.output)
        print(f"wrote order-{sigma.order} extension to {args.output}")
    else:
        sys.stdout.write(format_sgt(sigma))
    return 0


def cmd_zoo(args):
    S = _zoo_build(args.name, args.params)
    if args.output:
        save_sgt(S, args.output)
        print(f"wrote {args.name} (order {S.order}) to {args.output}")
    else:
        sys.stdout.write(format_sgt(S))
    return 0


def cmd_enumerate(args):
    from . import zoo
    count = 0
    for S in zoo.enumerate_associative(args.order, dedup=args.dedup):
        count += 1
        if not args.count_only:
            sys.stdout.write(format_sgt(S) + "\n")
    print(f"# {count} associative table(s) of order {args.order}"
          + (f" up to {args.dedup}" if args.dedup else ""))
    return 0


def _verify_share(args, reps, w, width, fd):
    """Worker w of width draws every source in serial order, checks item k
    of each when k % width == w, and pickles to fd the four counts, its
    failures (place, table, messages) and the (place, exception) that
    stopped it or None.  Item k of source phase is at place (phase, k),
    also while it is drawn; only a failing table outlives its check."""
    import pickle
    from itertools import product
    from . import properties, zoo

    def table(S):
        bad = properties.check_semigroup(S)
        return [(S, bad)] if bad else []

    def pair(AB):
        A, B = AB
        return [(A, [msg, "right factor:\n" + format_sgt(B)])
                for msg in properties.check_product_pair(A, B)]

    sources = [
        (lambda: zoo.enumerate_associative(args.order), table),
        (lambda: product(reps, repeat=2), pair),
        (lambda: zoo.sample_associative(5, args.samples, seed=args.seed), table),
        (lambda: zoo.random_associative(5, min(args.samples, 10),
                                        seed=args.seed), table)]
    counts, failures, stopped = [], [], None
    try:
        for phase, (draw, check) in enumerate(sources):
            place = (phase, 0)
            for k, item in enumerate(draw()):
                if k % width == w:
                    failures += [(place, S, bad) for S, bad in check(item)]
                place = (phase, k + 1)
            counts.append(place[1])
    except Exception as e:
        stopped = (place, e)
    with open(fd, "wb") as out:
        pickle.dump((counts, failures, stopped), out)


def cmd_verify(args):
    """One fork-started worker per CPU draws every source of tables and
    checks its share of each; this process only merges their failures into
    the serial order and reports, so the report does not depend on the
    number of workers."""
    if not 0 <= args.samples <= SAMPLES_CAP:
        raise InvalidArgument(
            f"samples must be between 0 and {SAMPLES_CAP}, got {args.samples}")
    import multiprocessing
    import pickle
    from . import zoo
    # this also checks the order, before any worker starts
    reps = list(zoo.enumerate_associative(args.order, dedup="iso+anti"))
    ctx = multiprocessing.get_context("fork")
    width = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers, shares = [], []
    try:
        for w in range(width):
            # a bare pipe: multiprocessing's Pipe costs 0.5 MB of imports
            fd, send = os.pipe()
            p = ctx.Process(target=_verify_share,
                            args=(args, reps, w, width, send))
            try:
                p.start()
            finally:
                os.close(send)
            workers.append((p, open(fd, "rb")))
        for p, recv in workers:
            try:
                shares.append(pickle.load(recv))
            except (EOFError, pickle.UnpicklingError):
                p.join()
                raise RuntimeError(f"verify worker {p.name} exited with "
                                   f"code {p.exitcode}") from None
    except BaseException:
        for p, _ in workers:
            p.terminate()
        raise
    finally:
        for p, recv in workers:
            recv.close()
            p.join()
    if stopped := [s for _, _, s in shares if s]:
        raise min(stopped, key=lambda s: s[0])[1]
    tables, pairs, survivors, deep = shares[0][0]
    # a pair's place counts i * len(reps) + j
    origins = [f"enumerated order-{args.order} table #{{0}}",
               "product of representatives #{1} x #{2}",
               "uniform order-5 sample #{0}",
               "randomized-backtracking order-5 sample #{0}"]
    failures = sorted((f for _, fs, _ in shares for f in fs),
                      key=lambda f: f[0])
    print(f"checked {tables + survivors + deep} semigroup(s) ({pairs} product "
          f"pairs, {survivors} of {args.samples} uniform order-5 samples "
          f"associative, {deep} backtracking samples)")
    for (phase, k), S, bad in failures:
        print(f"\nFAIL [{origins[phase].format(k, *divmod(k, len(reps)))}]")
        sys.stdout.write(format_sgt(S))
        for msg in bad:
            print(f"  - {msg}")
    print(f"\n{len(failures)} failing semigroup(s)" if failures
          else "all property suites passed")
    return int(bool(failures))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finsemi",
        description="Analyze finite semigroups given as Cayley tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an .sgt file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="Green structure + stratification")
    p.add_argument("path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", dest="json", action="store_false")
    p.set_defaults(fn=cmd_analyze, json=False)

    p = sub.add_parser("decompose", help="semilattice decomposition (CCR input)")
    p.add_argument("path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", dest="json", action="store_false")
    p.set_defaults(fn=cmd_decompose, json=False)

    p = sub.add_parser("extend", help="build the extension defined by a .phm file")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("zoo", help="emit a fixture as .sgt")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_zoo)

    p = sub.add_parser("enumerate", help="all associative tables of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dedup", choices=["iso", "iso+anti"], default=None)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run every property suite")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--samples", type=int, default=1000,
                   help=f"uniform order-5 samples, 0 to {SAMPLES_CAP}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SgtParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except SemigroupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
