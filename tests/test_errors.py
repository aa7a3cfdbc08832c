"""Every SemigroupError crosses a process boundary intact: a pickle round
trip keeps its type, its message and its witness attributes.  An argument
of the wrong kind raises InvalidArgument naming it, never a bare Python
exception."""

import os
import pickle

import pytest

import finsemi
from finsemi import (Partition, base_set, classify, depth, errors, extend,
                     is_globally_idempotent, is_grillet_stratified, load_sgt,
                     parse_sgt, power_set, rho_partition, save_sgt, stratify,
                     verify_rho, weak_inverse_location, zoo)
from finsemi.core import interchangeable_pair, read_text

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
    # a bare ValueError from randrange, and NonSquare for an empty table
    (lambda: zoo.sample_associative(-1, 1), "order must be >= 1"),
    (lambda: zoo.sample_associative(0, 1), "order must be >= 1"),
    (lambda: zoo.random_associative(0, 1), "order must be >= 1"),
], ids=["canonical_phi", "parse_phm", "strong_semilattice",
        "partial_map_extension", "CliffordData", "parse_sgt",
        "build_extension", "PartialHom-source", "PartialHom-target",
        "parse_phm-resolved", "format_phm", "sample-negative", "sample-zero",
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
