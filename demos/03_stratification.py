"""Base, layers, and height.

The descending chain S ⊇ S² ⊇ S³ ⊇ ... of set powers stabilizes on finite
input; the stable set is the base, the first stabilization index the
height, and the differences S^m \\ S^(m+1) the layers.  The Rees quotient
by the base is always a nilpotent semigroup whose index equals the height.
"""

from finsemi import classify, depth, is_grillet_stratified, power_set, zoo
from finsemi.render import render_stratification

m32 = zoo.monogenic(3, 2)
print("monogenic semigroup, index 3, period 2:")
print(render_stratification(m32))
print("chain:", [sorted(power_set(m32, m)) for m in (1, 2, 3, 4)])
print("depth of a:", depth(m32, 0), "| depth of a^3:", depth(m32, 2))

c = classify(m32)
print(f"quotient by the base is nilpotent of index {c.nilpotency_index} "
      f"(= height {c.height})")

print("\npowerset nilsemigroup on {1,2,3} (disjoint union, else empty):")
pn = zoo.powerset_nilsemigroup(3)
print(render_stratification(pn))
print("Grillet-stratified (base is exactly {0}):", is_grillet_stratified(pn))

print("\nfree nilpotent semigroup, 2 letters, words shorter than 3:")
fn = zoo.free_nilpotent(2, 3)
print(render_stratification(fn))

print("\na group is its own base (height 1, globally idempotent):")
print(render_stratification(zoo.cyclic_group(4)))
