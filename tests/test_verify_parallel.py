"""`verify` splits its checks over one fork-started worker per CPU; its
report must not depend on that count.  The reference is the plain serial
loop over every check, kept here as the oracle.  Fork-started workers
inherit the monkeypatched checks, so violations and errors are planted in
every source of tables: enumerated tables, product pairs, uniform samples
and backtracking samples."""

import io
import multiprocessing
import os
import sys
import time
from contextlib import redirect_stdout

import pytest

import finsemi
from finsemi import format_sgt
from finsemi.cli import main
from finsemi.errors import NotIdempotent, SemigroupError

properties, zoo = finsemi.properties, finsemi.zoo


def serial_verify(order, samples, seed):
    """(exit code, stdout, stderr) of verify as one loop, in its order."""
    failures, checked = [], 0

    def run(S, origin):
        nonlocal checked
        checked += 1
        if bad := properties.check_semigroup(S):
            failures.append((origin, S, bad))

    out = io.StringIO()
    try:
        with redirect_stdout(out):
            for k, S in enumerate(zoo.enumerate_associative(order)):
                run(S, f"enumerated order-{order} table #{k}")
            reps = list(zoo.enumerate_associative(order, dedup="iso+anti"))
            for i, A in enumerate(reps):
                for j, B in enumerate(reps):
                    for msg in properties.check_product_pair(A, B):
                        failures.append((
                            f"product of representatives #{i} x #{j}", A,
                            [msg, "right factor:\n" + format_sgt(B)]))
            survivors = zoo.sample_associative(5, samples, seed=seed)
            for k, S in enumerate(survivors):
                run(S, f"uniform order-5 sample #{k}")
            deep = zoo.random_associative(5, min(samples, 10), seed=seed)
            for k, S in enumerate(deep):
                run(S, f"randomized-backtracking order-5 sample #{k}")
            print(f"checked {checked} semigroup(s) ({len(reps) ** 2} product "
                  f"pairs, {len(survivors)} of {samples} uniform order-5 "
                  f"samples associative, {len(deep)} backtracking samples)")
            for origin, S, bad in failures:
                print(f"\nFAIL [{origin}]")
                sys.stdout.write(format_sgt(S))
                for msg in bad:
                    print(f"  - {msg}")
            print(f"\n{len(failures)} failing semigroup(s)" if failures
                  else "all property suites passed")
    except SemigroupError as e:
        return 1, "", f"error: {e}\n"
    return int(bool(failures)), out.getvalue(), ""


def weight(S):
    return sum(map(sum, S._rows))


@pytest.fixture
def planted(monkeypatch):
    """Violations in every source; the uniform sampler yields backtracking
    samples, as uniform order-5 draws are almost never associative."""
    monkeypatch.setattr(properties, "check_semigroup", lambda S: (
        [f"planted {S.order}/{weight(S)}"] if weight(S) % 3 == 1 else []))
    monkeypatch.setattr(properties, "check_product_pair", lambda A, B: (
        ["first planted", "second planted"]
        if (weight(A) + 2 * weight(B)) % 7 == 0 else []))
    sampler = zoo.random_associative
    monkeypatch.setattr(zoo, "sample_associative", lambda n, count, seed=0:
                        sampler(n, count // 4, seed=seed + 1))


def run_verify(monkeypatch, capsys, cpus, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    code = main(argv)
    captured = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return code, captured.out, captured.err


ARGV = ["verify", "--order", "3", "--samples", "24", "--seed", "2"]


def test_planted_report_is_the_serial_one(planted, monkeypatch, capsys):
    expected = serial_verify(3, 24, 2)
    out = expected[1]
    assert expected[0] == 1
    for origin in ("enumerated order-3 table", "product of representatives",
                   "uniform order-5 sample", "randomized-backtracking"):
        assert f"FAIL [{origin}" in out
    for cpus in (1, 3):
        assert run_verify(monkeypatch, capsys, cpus, ARGV) == expected


def test_passing_report_is_the_serial_one(monkeypatch, capsys):
    argv = ["verify", "--order", "2", "--samples", "30", "--seed", "1"]
    expected = serial_verify(2, 30, 1)
    assert expected[0] == 0
    for cpus in (1, 3):
        assert run_verify(monkeypatch, capsys, cpus, argv) == expected


def planted_error(value):
    raise NotIdempotent(value)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_first_error_in_serial_order_wins(monkeypatch, capsys, cpus):
    """Errors at labelled tables #40 and #111: with three workers the later
    one belongs to worker 0 and the first to worker 1."""
    tables = [S._rows for S in zoo.enumerate_associative(3)]
    marked = {tables[40]: 40, tables[111]: 111}
    monkeypatch.setattr(properties, "check_semigroup", lambda S: (
        planted_error(marked[S._rows]) if S._rows in marked else []))
    expected = serial_verify(3, 24, 2)
    assert expected == (1, "", "error: element 40 is not idempotent\n")
    assert run_verify(monkeypatch, capsys, cpus, ARGV) == expected


@pytest.mark.parametrize("cpus", [1, 3])
def test_pair_error_beats_sample_error(monkeypatch, capsys, cpus):
    """An error at product pair #0 x #1 in a worker ranks before the one
    raised while this process checks its first backtracking sample."""
    monkeypatch.setattr(properties, "check_semigroup", lambda S: (
        planted_error(-5) if S.order == 5 else []))
    monkeypatch.setattr(properties, "check_product_pair", lambda A, B: (
        planted_error(weight(A) * 100 + weight(B)) if A is not B else []))
    expected = serial_verify(3, 24, 2)
    assert expected[0] == 1 and expected[1] == ""
    assert expected[2] not in ("", "error: element -5 is not idempotent\n")
    assert run_verify(monkeypatch, capsys, cpus, ARGV) == expected


def test_a_dead_worker_stops_the_others(monkeypatch):
    """Worker 0 dies at labelled table #0; worker 1, stuck at table #1, is
    terminated instead of waited for."""
    tables = [S._rows for S in zoo.enumerate_associative(3)]

    def check(S):
        if S._rows == tables[0]:
            os._exit(7)
        if S._rows == tables[1]:
            time.sleep(60)
        return []
    monkeypatch.setattr(properties, "check_semigroup", check)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with code 7"):
        main(ARGV)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv, message", [
    (["verify", "--order", "0"], "error: order must be >= 1"),
    (["verify", "--order", "5"], "error: order 5 exceeds the supported cap 4"),
    (["verify", "--order", "99"],
     "error: order 99 exceeds the supported cap 4"),
    (["verify", "--samples", "100001"],
     "error: samples must be between 0 and 100000, got 100001"),
])
def test_bad_arguments_start_no_worker(monkeypatch, capsys, argv, message):
    def no_pool(*args, **kw):
        raise AssertionError("a worker pool started")
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
