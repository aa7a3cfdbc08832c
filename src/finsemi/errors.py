"""Exception types raised across the package.

Every exception carries its witness data as attributes so callers (and the
CLI) can report the exact failing triple/pair/class instead of a bare flag.
Every exception survives a pickle round trip with its type, message and
witnesses, so it can cross a process boundary.
"""

import copyreg


class SemigroupError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Subclasses take witnesses, not the message, so unpickling must not
        # call __init__ with args: restore args and witnesses as they are.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidArgument(SemigroupError, ValueError):
    """A parameter outside the domain the function accepts."""


class NonSquare(SemigroupError):
    def __init__(self, n, row, width):
        self.n, self.row, self.width = n, row, width
        super().__init__(f"table is not {n}x{n}: row {row} has {width} entries")


class IndexOutOfRange(SemigroupError):
    def __init__(self, i, j, value, n):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry table[{i}][{j}] = {value} is outside [0, {n})")


class NonAssociative(SemigroupError):
    def __init__(self, i, j, k):
        self.triple = (i, j, k)
        super().__init__(f"({i}*{j})*{k} != {i}*({j}*{k})")


class EmptyGenerators(SemigroupError):
    pass


class NotAnIdeal(SemigroupError):
    def __init__(self, witness):
        self.witness = witness  # (s, a) with s*a or a*s escaping, or None
        super().__init__(
            f"subset is not a two-sided ideal, witness {witness}"
            if witness is not None
            else "subset is empty, so it is not an ideal")


class NotACongruence(SemigroupError):
    def __init__(self, witness):
        self.witness = witness  # (a, b, c) with a~b but a*c !~ b*c or c*a !~ c*b
        super().__init__(f"partition is not a congruence, witness {witness}")


class NotASubsemigroup(SemigroupError):
    def __init__(self, witness):
        self.witness = witness  # (a, b) with a*b outside the subset, or None
        super().__init__(
            f"subset is not closed under products, witness {witness}"
            if witness is not None
            else "subset is empty, so it is not a subsemigroup")


class NotIdempotent(SemigroupError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not idempotent")


class NotConditionallyCompletelyRegular(SemigroupError):
    def __init__(self, h_class):
        self.h_class = frozenset(h_class)  # regular H-class with no idempotent
        super().__init__(
            f"regular H-class {sorted(h_class)} contains no idempotent")


class OrderTooLarge(SemigroupError):
    def __init__(self, order, cap):
        # order is an int, or a formula (str) when too large to evaluate
        self.order, self.cap = order, cap
        if isinstance(order, int) and order.bit_length() > 64:
            order = f">= 2^{order.bit_length() - 1}"  # too long to print
        super().__init__(f"order {order} exceeds the supported cap {cap}")


class KTooLarge(OrderTooLarge):
    pass


class NoZeroInSource(SemigroupError):
    pass


class LawViolation(SemigroupError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"map({a}*{b}) != map({a})*map({b}) although {a}*{b} != 0")


class NotStrict(SemigroupError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"outside element {element} acts like no ideal element")


class NotWeaklyReductive(SemigroupError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"interchangeable pair {pair}")


class NotClifford(SemigroupError):
    pass


class GroupUnionNotIdeal(NotAnIdeal):
    pass


class InvalidLinking(SemigroupError):
    def __init__(self, witness, reason):
        self.witness, self.reason = witness, reason
        super().__init__(f"invalid linking data at {witness}: {reason}")


class SgtParseError(SemigroupError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InternalTheoremViolation(SemigroupError):
    """A statement that is a theorem for the given input failed.

    This is never a property of the input; it means the engine itself is
    wrong, so it must crash loudly rather than flow into a result value.
    """
