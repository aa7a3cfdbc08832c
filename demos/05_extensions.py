"""Strict ideal extensions of Clifford semigroups.

A partial homomorphism from the nonzero part of T into S defines an
extension of S by T; every extension built this way is strict, and over a
weakly reductive ideal the partial homomorphism can be recovered exactly.
Strict extensions of Clifford semigroups split along the structure
semilattice into ideal extensions of groups, and the canonical map
A -> A·e_alpha rebuilds the original table bit-exactly.
"""

from finsemi import (
    PartialHom,
    build_extension,
    canonical_phi,
    classify_extension,
    clifford_decompose,
    from_table,
    recover_partial_hom,
    zoo,
)

# S: the Clifford semigroup with a 2-chain semilattice, trivial group at
# the bottom, Z2 on top.  T = {A, 0} with A^2 = 0.  A maps to g.
S = zoo.clifford(zoo.CliffordData(
    zoo.chain_semilattice(2), (zoo.trivial(), zoo.cyclic_group(2)),
    {(1, 0): (0, 0)}))
T = from_table(2, [[1, 1], [1, 1]], labels=["A", "0"])
phi = PartialHom(T, S, {0: 1})
w = build_extension(phi)
print("Sigma of order", w.sigma.order, "with ideal", sorted(w.ideal))
for row in w.sigma._rows:
    print("   ", list(row))

print("classification:", classify_extension(w.sigma, w.ideal).kind)
recovered = recover_partial_hom(w.sigma, w.ideal)
print("recover(build(phi)) == phi:", recovered == phi)

dec = clifford_decompose(w.sigma, w.ideal)
for k, sa, ga in dec.components:
    print(f"component {k}: Sigma_a = {sorted(sa)}, group = {sorted(ga)}")
rebuilt = build_extension(canonical_phi(w.sigma, dec.component_sets()))
print("canonical phi rebuilds the table exactly:",
      rebuilt.sigma._rows == w.sigma._rows)

# The showcase construction: a direct product of 0-groups extended by
# capped partial maps.  Components are indexed by the domain subsets.
print("\npartial-map extension with n=2 coordinates, cap m=2:")
w2 = zoo.partial_map_extension(2, 2, [zoo.cyclic_group(2)] * 2, picks=[0, 0])
dec2 = clifford_decompose(w2.sigma, w2.ideal)
print(f"order {w2.sigma.order}, {len(dec2.components)} components "
      f"(one per subset of {{1,2}})")
