"""The semilattice decomposition of conditionally completely regular
semigroups.

Two elements are related when their idempotent powers are J-related: the
K_{J_e} partition (elements powering into maximal subgroups, glued along
J-classes of idempotents).  On CCR input this is a congruence with a
semilattice quotient, it agrees with the partition by weak inverses meeting
the same D-classes, and each component is a finitely stratified extension
of a completely simple semigroup.
"""

from finsemi import (
    Partition,
    rho_partition,
    verify_rho,
    weak_inverse_location,
    zoo,
)
from finsemi.errors import NotConditionallyCompletelyRegular
from finsemi.properties import _raw_footprint
from finsemi.render import render_decomposition

t2 = zoo.full_transformations(2)
print("full transformation monoid on 2 points:")
rep = verify_rho(t2)
print(render_decomposition(t2, rep))

print("\nthe K_{J_e} partition and the weak-inverse footprint partition "
      "coincide:")
print("  rho:", rho_partition(t2).as_lists())
print("  footprints:", Partition.from_index(
    [_raw_footprint(t2, s) for s in t2.elements]).as_lists())

print("\nweak-inverse locations (component index -> meets W(s)):")
for s in t2.elements:
    print(f"  {t2.label(s)}: {weak_inverse_location(t2, s)}")

print("\nthe Brandt semigroup is rejected with a witness:")
try:
    rho_partition(zoo.brandt_b2())
except NotConditionallyCompletelyRegular as e:
    print(" ", e)

print("\na Clifford semigroup decomposes into its groups:")
cliff = zoo.clifford(zoo.CliffordData(
    zoo.chain_semilattice(2), (zoo.trivial(), zoo.cyclic_group(3)),
    {(1, 0): (0, 0, 0)}))
print(render_decomposition(cliff, verify_rho(cliff)))
