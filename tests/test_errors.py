"""Every SemigroupError crosses a process boundary intact: a pickle round
trip keeps its type, its message and its witness attributes."""

import pickle

import pytest

from finsemi import errors

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
