"""Divisor extension across a degenerate fiber, in exact arithmetic.

A family of elliptic curves degenerates to a fiber with two components
C1, C2 meeting at two points.  A divisor that is numerically trivial on
the general fiber need not stay trivial on the special one, but it can be
corrected by adding a rational combination of the fiber components.  This
script solves for that combination and explores how the denominator of
the correction is controlled by the lattice alone.
"""

from fractions import Fraction

from fiberext import (
    DivisorTrace,
    FiberLattice,
    component_group,
    denominator_bound,
    extend_nef,
    extend_trivial,
    kodaira_cycle,
    validate_lattice,
)

# --- a stable genus-one fiber with two components -------------------------

lattice = FiberLattice(
    labels=("C1", "C2"),
    matrix=((Fraction(-2), Fraction(2)), (Fraction(2), Fraction(-2))),
    multiplicities=(1, 1),
)

report = validate_lattice(lattice)
print("lattice checks:")
for name, ok, detail in report.checks:
    print(f"  {name}: {'ok' if ok else 'FAILED ' + detail}")

# The divisor S2 - S1 (difference of two sections) meets C1 with degree -1
# and C2 with degree +1.
trace = DivisorTrace((-1, 1))
result = extend_trivial(lattice, trace)
print("\nextend_trivial for trace (-1, 1):")
print(f"  coefficients a = {tuple(str(x) for x in result.coefficients)}")
print(f"  denominator m  = {result.denominator}")
print(f"  gauge          = {result.normalization}")
print("  so 2*(S2 - S1) + C2 is numerically trivial on every fiber.")

print(f"\ndenominator bound of the lattice: {denominator_bound(lattice)}")
print(f"component group invariants:       {list(component_group(lattice).torsion)}")

# --- nef version: push the whole degree onto one component ----------------

nef = extend_nef(lattice, DivisorTrace((0, 2)), targets=(2, 0))
print("\nextend_nef with targets (2, 0):")
print(f"  coefficients b = {tuple(str(x) for x in nef.coefficients)}")
print(f"  achieved trace = {tuple(str(x) for x in nef.achieved_trace)}")

# --- cycles of (-2)-curves -------------------------------------------------

print("\ncycles of n rational (-2)-curves:")
for n in range(2, 8):
    cyc = kodaira_cycle(n)
    print(f"  n={n}: component group Z/{component_group(cyc).torsion[-1]}, "
          f"denominator bound {denominator_bound(cyc)}")
