"""Every SemigroupError crosses a process boundary intact: a pickle round
trip keeps its type, its message and its witness attributes.  An argument
of the wrong kind raises InvalidArgument naming it, never a bare Python
exception."""

import importlib
import inspect
import itertools
import os
import pickle

import pytest

import finsemi
from finsemi import (Partition, base_set, classify, depth, errors, extend,
                     is_globally_idempotent, is_grillet_stratified, load_sgt,
                     parse_sgt, power_set, rho_partition, save_sgt, stratify,
                     verify_rho, weak_inverse_location, zoo)
from finsemi.core import interchangeable_pair, read_text
from finsemi.render import render_decomposition

CLASSES = {name: cls for name, cls in vars(errors).items()
           if isinstance(cls, type) and issubclass(cls, errors.SemigroupError)}

# constructor arguments of every class, with witnesses of several shapes
ARGUMENTS = {
    "SemigroupError": ("plain message",),
    "InvalidArgument": ("order must be >= 1",),
    "NonSquare": (3, 1, 2),
    "IndexOutOfRange": (0, 1, 7, 3),
    "NonAssociative": (0, 1, 2),
    "EmptyGenerators": ("no generators",),
    "NotAnIdeal": ((1, 2),),
    "NotACongruence": ((0, 1, 2),),
    "NotASubsemigroup": (None,),
    "NotIdempotent": (3,),
    "NotConditionallyCompletelyRegular": ({10, 2, 3},),
    "OrderTooLarge": (2 ** 70, 65535),
    "KTooLarge": ("2^k", 8),
    "SearchBudgetExceeded": (2 ** 24,),
    "NoZeroInSource": ("source has no zero",),
    "LawViolation": (1, 2),
    "NotStrict": (4,),
    "NotWeaklyReductive": ((0, 1),),
    "NotClifford": ("not a Clifford semigroup",),
    "GroupUnionNotIdeal": ((0, 5),),
    "InvalidLinking": ((0, 1), "not a homomorphism"),
    "SgtParseError": (3, "expected 4 entries"),
    "InternalTheoremViolation": ("engine bug",),
}


def test_every_class_has_arguments():
    assert set(ARGUMENTS) == set(CLASSES)


@pytest.mark.parametrize("name", sorted(CLASSES))
# protocol 0 restores through a call, 2 and above through NEWOBJ
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip(name, protocol):
    e = CLASSES[name](*ARGUMENTS[name])
    back = pickle.loads(pickle.dumps(e, protocol))
    assert type(back) is type(e)
    assert str(back) == str(e)
    assert back.args == e.args
    assert vars(back) == vars(e)


C2 = zoo.chain_semilattice(2)
OPAQUE = object()


@pytest.mark.parametrize("call, message", [
    # a bare ValueError: each class of a Partition unpacked as a pair
    (lambda: extend.canonical_phi(C2, Partition([[0], [1]])),
     "components = Partition([[0], [1]]) is not a collection of "
     "(sigma_alpha, g_alpha) pairs"),
    # bare TypeErrors
    (lambda: extend.parse_phm("t.sgt\ns.sgt\n", OPAQUE),
     f"resolve = {OPAQUE!r} is not callable"),
    (lambda: zoo.strong_semilattice(C2, print, {}),
     "parts = <built-in function print> is not a sequence"),
    (lambda: zoo.partial_map_extension(1, 0, print),
     "groups = <built-in function print> is not a sequence"),
    (lambda: zoo.CliffordData(C2, (zoo.trivial(),) * 2, None),
     "linking = None is not a mapping"),
    # a bare ValueError from dict("ab")
    (lambda: zoo.CliffordData(C2, (), "ab"), "linking = 'ab' is not a mapping"),
    # an InvalidArgument raised while a sequence is read keeps its message
    (lambda: zoo.strong_semilattice(
        C2, (zoo.cyclic_group(k) for k in (2, 0)), {}),
     "index and period must be >= 1"),
    # bare AttributeErrors
    (lambda: parse_sgt(C2),
     "text = Semigroup(order=2, zero=0, identity=1) is not a str"),
    (lambda: extend.build_extension(C2),
     "phi = Semigroup(order=2, zero=0, identity=1) is not a PartialHom"),
    (lambda: extend.PartialHom(None, C2, {}),
     "source = None is not a Semigroup"),
    (lambda: extend.PartialHom(zoo.zero_semigroup(2), None, {1: 0}),
     "target = None is not a Semigroup"),
    (lambda: extend.parse_phm("t.sgt\ns.sgt\n", str),
     "source = 't.sgt' is not a Semigroup"),
    (lambda: extend.format_phm(None, "a", "b"),
     "phi = None is not a PartialHom"),
    (lambda: zoo.strong_semilattice(zoo.trivial(), ["x"], {}),
     "parts[0] = 'x' is not a Semigroup"),
    (lambda: zoo.clifford("x"), "data = 'x' is not a CliffordData"),
    (lambda: render_decomposition(C2, "x"),
     "report = 'x' is not a DecompositionReport"),
    # a bare IndexError: a report of a larger semigroup
    (lambda: render_decomposition(zoo.trivial(),
                                  verify_rho(zoo.chain_semilattice(3))),
     "report is of a semigroup of order 3, S of order 1"),
    # a bare ValueError from randrange, and NonSquare for an empty table
    (lambda: zoo.sample_associative(-1, 1), "order must be >= 1"),
    (lambda: zoo.sample_associative(0, 1), "order must be >= 1"),
    (lambda: zoo.random_associative(0, 1), "order must be >= 1"),
], ids=["canonical_phi", "parse_phm", "strong_semilattice",
        "partial_map_extension", "CliffordData", "CliffordData-str",
        "strong_semilattice-inner", "parse_sgt",
        "build_extension", "PartialHom-source", "PartialHom-target",
        "parse_phm-resolved", "format_phm", "strong_semilattice-parts",
        "clifford", "render_decomposition", "render_decomposition-order",
        "sample-negative", "sample-zero",
        "random-zero"])
def test_a_wrong_argument_is_named(call, message):
    with pytest.raises(errors.InvalidArgument) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("sigma", [None, 3, "x"])
@pytest.mark.parametrize("call", [
    lambda sigma: extend.classify_extension(sigma, {0}),
    lambda sigma: extend.recover_partial_hom(sigma, {0}),
    lambda sigma: extend.clifford_decompose(sigma, {0}),
    lambda sigma: extend.canonical_phi(sigma, [({0}, {0})]),
], ids=["classify_extension", "recover_partial_hom", "clifford_decompose",
        "canonical_phi"])
def test_sigma_must_be_a_semigroup(call, sigma):
    with pytest.raises(errors.InvalidArgument) as e:
        call(sigma)
    assert str(e.value) == f"sigma = {sigma!r} is not a Semigroup"


@pytest.mark.parametrize("call, S", [
    (stratify, None),
    (lambda S: power_set(S, 1), 5),
    (base_set, [[0]]),
    (lambda S: depth(S, 0), "S"),
    (is_globally_idempotent, None),
    (is_grillet_stratified, 5),
    (classify, [[0]]),
    (rho_partition, "S"),
    (verify_rho, None),
    (lambda S: weak_inverse_location(S, 0), 5),
    # each raised a bare AttributeError
    (lambda S: finsemi.is_ideal(S, {0}), 5),
    (lambda S: finsemi.is_subsemigroup(S, {0}), 5),
    (lambda S: finsemi.is_left_ideal(S, {0}), 5),
    (lambda S: finsemi.is_right_ideal(S, {0}), 5),
    (lambda S: finsemi.ideal_witness(S, {0}), 5),
    (lambda S: finsemi.subsemigroup_witness(S, {0}), 5),
    (lambda S: finsemi.product_set(S, {0}, {0}), 5),
    (lambda S: finsemi.closure(S, {0}), 5),
    (lambda S: finsemi.restrict(S, {0}), 5),
    (lambda S: finsemi.rees_quotient(S, {0}), 5),
    (lambda S: finsemi.archimedean(S, {0}), 5),
    (lambda S: finsemi.interchangeable(S, 0, 1), 5),
    (interchangeable_pair, 5),
    (finsemi.is_weakly_reductive, 5),
    (finsemi.semilattice_witness, 5),
], ids=["stratify", "power_set", "base_set", "depth", "is_globally_idempotent",
        "is_grillet_stratified", "classify", "rho_partition", "verify_rho",
        "weak_inverse_location", "is_ideal", "is_subsemigroup",
        "is_left_ideal", "is_right_ideal", "ideal_witness",
        "subsemigroup_witness", "product_set", "closure", "restrict",
        "rees_quotient", "archimedean", "interchangeable",
        "interchangeable_pair", "is_weakly_reductive", "semilattice_witness"])
def test_stratify_and_decompose_need_a_semigroup(call, S):
    with pytest.raises(errors.InvalidArgument) as e:
        call(S)
    assert str(e.value) == f"S = {S!r} is not a Semigroup"


# the parameters that take a Semigroup, and a valid value for every other
# required parameter of a function that has one
SEMIGROUP_SLOTS = {"S", "T", "R", "Y", "Q", "G", "sigma"}
FILLERS = {"A": {0}, "B": {0}, "gens": {0}, "I": {0}, "ideal": {0},
           "a": 0, "b": 1, "e": 0, "g": 0, "i": 0, "j": 0, "k": 1, "m": 1,
           "s": 0, "partition": Partition([[0], [1]]), "path": "x.sgt",
           "parts": (), "linking": {}, "components": [], "report": None}


def public_functions(*names):
    """The public functions defined in the named finsemi modules."""
    for name in names:
        module = importlib.import_module(f"finsemi.{name}")
        for fname, f in sorted(vars(module).items()):
            if (not fname.startswith("_") and inspect.isfunction(f)
                    and f.__module__ == module.__name__):
                yield f


def semigroup_slots():
    for f in public_functions("core", "green", "render", "zoo", "stratify",
                              "decompose", "extend"):
        params = [p.name for p in inspect.signature(f).parameters.values()
                  if p.default is p.empty]
        for slot in params:
            if slot in SEMIGROUP_SLOTS:
                yield pytest.param(f, params, slot, id=f"{f.__name__}-{slot}")


@pytest.mark.parametrize("f, params, slot", list(semigroup_slots()))
def test_every_semigroup_slot_is_named(f, params, slot, tmp_path,
                                       monkeypatch):
    # each public function, "x" in one Semigroup slot and valid arguments
    # in the others: InvalidArgument names that slot, never AttributeError
    monkeypatch.chdir(tmp_path)
    args = ["x" if p == slot else C2 if p in SEMIGROUP_SLOTS else FILLERS[p]
            for p in params]
    with pytest.raises(errors.InvalidArgument) as e:
        f(*args)
    assert str(e.value) == f"{slot} = 'x' is not a Semigroup"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("path", [None, 3.5, ["a"]])
@pytest.mark.parametrize("call", [
    read_text, load_sgt, lambda path: save_sgt(C2, path),
], ids=["read_text", "load_sgt", "save_sgt"])
def test_a_path_is_a_str_or_path_like(call, path):
    with pytest.raises(errors.InvalidArgument) as e:
        call(path)
    assert str(e.value) == f"path = {path!r} is not a str or os.PathLike"


def test_a_file_descriptor_is_not_a_path(tmp_path):
    # open() takes an int for a descriptor, which it would read and close
    target = tmp_path / "c2.sgt"
    save_sgt(C2, target)
    fd = os.open(target, os.O_RDWR)
    try:
        for call in (read_text, load_sgt, lambda path: save_sgt(C2, path)):
            with pytest.raises(errors.InvalidArgument):
                call(fd)
            os.fstat(fd)  # still open
        assert os.read(fd, 2) == b"2\n"
    finally:
        os.close(fd)
    assert load_sgt(str(target)) == load_sgt(target) == C2


def test_a_bad_semigroup_leaves_the_file_as_it_was(tmp_path):
    # the file was opened, so emptied, before the table was formatted
    target = tmp_path / "t.sgt"
    target.write_bytes(b"1\n0\n")
    with pytest.raises(errors.InvalidArgument) as e:
        save_sgt(None, target)
    assert str(e.value) == "S = None is not a Semigroup"
    assert target.read_bytes() == b"1\n0\n"


def fuzz_pool():
    """Atoms of every kind a caller might pass: the trivial semigroup, the
    built extension of the free nilpotent T = {a, b, aa, ab, ba, bb, 0}
    into the chain {0 < 1}, its partial homomorphism, and a decomposition
    report of order 3, the order of neither semigroup."""
    T = zoo.free_nilpotent(2, 3)
    phi = extend.PartialHom(T, C2, dict(enumerate([0, 1, 0, 0, 0, 1])))
    witness = extend.build_extension(phi)
    return [None, 0, 1, -1, 2 ** 70, 0.5, "x", "zoo:chain:2", b"0 1", [],
            [0], [[0], [1]], {0}, {0, 1}, frozenset({99}), zoo.trivial(),
            witness.sigma, phi, witness, verify_rho(zoo.chain_semilattice(3))]


def test_extend_and_render_on_a_pool_of_atoms():
    """Every public function of extend and render, the checked PartialHom
    and the dataclasses ExtensionWitness, ExtensionClassification and
    CliffordData, on every tuple of pool atoms for its parameters: each
    call returns or raises a SemigroupError."""
    pool = fuzz_pool()
    bare = []
    calls = 0
    for f in [*public_functions("extend", "render"), extend.PartialHom,
              extend.ExtensionWitness, extend.ExtensionClassification,
              zoo.CliffordData]:
        arity = len(inspect.signature(f).parameters)
        for args in itertools.product(pool, repeat=arity):
            calls += 1
            try:
                f(*args)
            except errors.SemigroupError:
                pass
            except Exception as e:    # a bare exception is the bug sought
                bare.append((f.__name__, args, type(e).__name__, e))
    assert calls > 15000
    assert not bare, bare[:5]
