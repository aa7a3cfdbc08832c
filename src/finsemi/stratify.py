"""Base, layers, depth, and height of a finite semigroup.

The descending chain S ⊇ S² ⊇ ... stabilizes after at most |S| steps; the
stable set is the base, the least m with S^m = S^(m+1) is the height, and
the layers are the successive differences S_m = S^m \\ S^(m+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .core import _cached, _member, _power_chain, base_set, rees_quotient
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
    """Chase the power chain to its fixed point and report the strata.

    The report is cached on S.
    """
    return _cached(S, "stratify", lambda: _stratify(S))


def _stratify(S):
    chain = _power_chain(S)
    height = len(chain)
    base = chain[-1]
    layers = tuple(chain[m - 1] - chain[m] for m in range(1, height))
    depth = [BASE] * S.order
    for m, layer in enumerate(layers, start=1):
        for x in layer:
            depth[x] = m
    flags = {
        "grillet_stratified": is_grillet_stratified(S),
        "globally_idempotent": height == 1,
        "base_equals_reg": base == regular_elements(S),
    }
    return StratificationReport(base=base, layers=layers, height=height,
                                depth_of=tuple(depth),
                                flags=MappingProxyType(flags))


def depth(S, s):
    """The layer index of s, or "base"."""
    return stratify(S).depth_of[_member(S, s)]


def is_grillet_stratified(S):
    """Base is exactly {0}; zero-free semigroups are judged on S^0.

    Base(S^0) = Base(S) ∪ {0} and a finite Base(S) is never empty, so a
    zero-free S is never Grillet-stratified.
    """
    return S.zero is not None and base_set(S) == {S.zero}


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
