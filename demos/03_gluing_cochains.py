"""Gluing data for line bundles that are trivial on every component.

Such bundles are classified by H^1 of the dual complex with values in the
units of the base field; replacing the value group by a finitely generated
abelian group (written additively) makes every question decidable integer
linear algebra.  A 1-cochain assigns a transition value to each double
curve; it glues iff it is closed on triple intersections, and it is the
trivial bundle iff it is a coboundary.
"""

from fiberext import (
    Cochain,
    CoefficientGroup,
    coboundary,
    h1_class,
    is_closed,
    is_exact,
)
from fiberext.cochain import cohomology_group, hom_from_h1
from fiberext.dual_complex import build_dual_complex, simplex_strata, strata_from_multigraph

Z = CoefficientGroup(rank=1)

# --- on a circle: a genuinely nontrivial class -------------------------------

circle = build_dual_complex(strata_from_multigraph(2, [(0, 1), (0, 1)]))
phi = Cochain(circle, Z, 1, ((1,), (0,)))
print("circle, transition values (1, 0):")
print(f"  closed: {bool(is_closed(phi))}")
print(f"  exact:  {is_exact(phi) is not None}")
cls = h1_class(phi)
print(f"  H^1 profile: rank {cls.group_profile.rank}, torsion {list(cls.group_profile.torsion)}")
print(f"  class trivial: {cls.is_trivial}  (potential: {cls.potential})")

# shifting by a coboundary does not change the class
beta = Cochain(circle, Z, 0, ((7,), (-3,)))
shifted = phi + coboundary(beta)
print(f"  same class after adding a coboundary: {cls.same_class(h1_class(shifted))}")

# --- on a triangle: the closedness obstruction -------------------------------

triangle = build_dual_complex(simplex_strata((0, 1, 2)))
bad = Cochain(triangle, Z, 1, ((1,), (1,), (1,)))
check = is_closed(bad)
print("\ntriangle, transition values (1, 1, 1):")
print(f"  closed: {bool(check)}  (witness: {check.witness})")

good = Cochain(triangle, Z, 1, ((1,), (2,), (1,)))
found = is_exact(good)
print("triangle, transition values (1, 2, 1):")
print(f"  closed and exact; a potential 0-cochain: {found.values}")

# --- torsion coefficients ------------------------------------------------------

Z2 = CoefficientGroup(torsion=(2,))
odd = Cochain(circle, Z2, 1, ((1,), (0,)))
print("\ncircle with Z/2 coefficients, values (1, 0):")
print(f"  class trivial: {h1_class(odd).is_trivial}")
print(f"  doubled class trivial: {h1_class(odd + odd).is_trivial}")

# --- H^1 computed two ways agrees ----------------------------------------------

print("\nH^1 of the circle, direct cochain computation vs Hom(H_1, A):")
for name, group in (("Z", Z), ("Z/2", Z2), ("Z/6", CoefficientGroup(torsion=(6,))),
                    ("Z^2", CoefficientGroup(rank=2))):
    direct = cohomology_group(circle, group)
    via_hom = hom_from_h1(circle, group)
    print(f"  A = {name:>4}: rank {direct.rank}, torsion {list(direct.torsion)} "
          f"(agree: {direct == via_hom})")
