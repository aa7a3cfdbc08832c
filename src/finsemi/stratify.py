"""Base, layers, depth, and height of a finite semigroup.

The descending chain S ⊇ S² ⊇ ... stabilizes after at most |S| steps; the
stable set is the base, the least m with S^m = S^(m+1) is the height, and
the layers are the successive differences S_m = S^m \\ S^(m+1).

They are peeled off in one O(n^2) pass, as in Kahn's topological sort
(CACM 5(11), 1962): since S^(m+1) = S^m S, S_m is the part of S^m that no
cell a*b with a in S^m hits.  `properties._raw_powers` is the oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import index
from types import MappingProxyType

from .core import _cached, _member, _must, _semigroup, rees_quotient
from .errors import InvalidArgument
from .green import regular_elements

BASE = "base"


@dataclass(frozen=True)
class StratificationReport:
    base: frozenset
    layers: tuple          # layers[m-1] = S_m for m = 1..height-1
    height: int
    depth_of: tuple        # per element: layer index (1-based) or "base"
    flags: MappingProxyType  # grillet_stratified / globally_idempotent / base_equals_reg

    def to_json(self):
        return {
            "base": sorted(self.base),
            "layers": [sorted(layer) for layer in self.layers],
            "height": self.height,
            "flags": dict(self.flags),
        }


def stratify(S):
    """Peel the strata off the table and report them.

    The report is cached on S.
    """
    return _cached(_semigroup(S, "S"), "stratify", lambda: _stratify(S))


def _stratify(S):
    rows = S._rows
    hits = Counter(chain.from_iterable(rows))  # cells a*b = x with a in S^m
    depth_of = [BASE] * S.order
    layers, layer = [], [x for x in S.elements if not hits[x]]
    while layer:
        layers.append(frozenset(layer))
        layer = []
        for a in layers[-1]:
            depth_of[a] = len(layers)
            for x in rows[a]:
                hits[x] -= 1
                if not hits[x]:
                    layer.append(x)
    base = frozenset(S.elements).difference(*layers)
    flags = {
        "grillet_stratified": S.zero is not None and base == {S.zero},
        "globally_idempotent": not layers,
        "base_equals_reg": base == regular_elements(S),
    }
    return StratificationReport(base=base, layers=tuple(layers),
                                height=len(layers) + 1,
                                depth_of=tuple(depth_of),
                                flags=MappingProxyType(flags))


def power_set(S, m):
    """S^m, the products of m elements (S^1 = S): the base and every layer
    from S_m on."""
    if _must(index, m, "m", "an integer") < 1:
        raise InvalidArgument("m must be >= 1")
    report = stratify(S)
    if m >= report.height:
        return report.base
    return report.base.union(*report.layers[m - 1:])


def base_set(S):
    """Base(S): the intersection of all S^m, the elements no layer takes."""
    return stratify(S).base


def is_globally_idempotent(S):
    """S^2 = S: the peel takes no layer."""
    return stratify(S).flags["globally_idempotent"]


def depth(S, s):
    """The layer index of s, or "base"."""
    return stratify(S).depth_of[_member(S, s)]


def is_grillet_stratified(S):
    """Base is exactly {0}; zero-free semigroups are judged on S^0.

    Base(S^0) = Base(S) ∪ {0} and a finite Base(S) is never empty, so a
    zero-free S is never Grillet-stratified.
    """
    return stratify(S).flags["grillet_stratified"]


@dataclass(frozen=True)
class Classification:
    height: int
    nil_stratified: bool
    globally_idempotent: bool
    quotient: object          # S/Base(S), a Semigroup with zero
    quotient_map: tuple
    nilpotency_index: int

    def to_json(self):
        return {
            "height": self.height,
            "nil_stratified": self.nil_stratified,
            "globally_idempotent": self.globally_idempotent,
            "quotient_order": self.quotient.order,
            "nilpotency_index": self.nilpotency_index,
        }


def classify(S):
    """Height, nil-stratified verdict, and the Rees quotient S/Base(S).

    On finite input S/Base(S) is nil of nilpotency index exactly the height
    (Howie, Fundamentals of Semigroup Theory, 1995), so both answers are
    read off the stratification and no power of the quotient is built.  The
    honest recomputation is the oracle `properties._raw_nilpotency_index`.
    """
    report = stratify(S)
    quotient, qmap = rees_quotient(S, report.base)
    return Classification(height=report.height, nil_stratified=True,
                          globally_idempotent=report.flags["globally_idempotent"],
                          quotient=quotient, quotient_map=qmap,
                          nilpotency_index=report.height)
