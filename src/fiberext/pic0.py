"""Semi-abelian classification of Pic^0 of degenerate fibers.

Curve fibers are handled through their dual multigraphs (loops record
nodal self-intersections), which ``classify_curve_fiber`` builds as a
one-dimensional dual complex; higher-dimensional snc fibers through their
dual complex, which ``classify_snc_fiber`` takes as built.  The torus rank
is ``torus_rank`` of the dual complex, its first Betti number, for both
kinds; the abelian part is the sum of component genera for curves and must
be supplied as h^1(O) for general snc fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cochain import CoefficientGroup
from .dual_complex import DeltaComplex, torus_rank
from .errors import NotSemistable


@dataclass(frozen=True)
class CurveFiber:
    """A reduced curve fiber: component genera and the dual multigraph.

    One edge per node; a loop is a node of an irreducible component."""

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] = ()
    nodal: bool = True

    def __post_init__(self):
        genera, edges = tuple(self.genera), tuple(map(tuple, self.edges))
        for x in (*genera, *(x for e in edges for x in e)):
            if type(x) is not int:
                raise TypeError(f"genera and edge endpoints must be integers, got {x!r}")
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "edges", edges)
        if any(g < 0 for g in genera):
            raise ValueError("genera must be nonnegative")
        if any(len(e) != 2 for e in edges):
            raise ValueError("an edge must have two endpoints")
        if any(not 0 <= x < len(genera) for e in edges for x in e):
            raise ValueError("edge endpoints must reference components")

    @property
    def components(self) -> int:
        return len(self.genera)


@dataclass(frozen=True)
class SemiAbelianType:
    """Torus rank and abelian dimension of Pic^0; proper iff no torus part."""

    torus_rank: int
    abelian_dim: int | None

    @property
    def proper(self) -> bool:
        return self.torus_rank == 0

    @property
    def label(self) -> str:
        if self.torus_rank == 0:
            return "abelian variety"
        return "torus" if self.abelian_dim == 0 else "semi-abelian"


def _dual_complex(fiber: CurveFiber) -> DeltaComplex:
    """The dual graph as a Delta-complex with empty ids: an edge per node,
    facets ``(larger, smaller)``; a loop has boundary 0 and is never a
    step of the spanning forest."""
    edges = tuple((a, b) if a > b else (b, a) for a, b in fiber.edges)
    return DeltaComplex((("",) * fiber.components, ("",) * len(edges)), (edges,))


def classify_curve_fiber(fiber: CurveFiber) -> SemiAbelianType:
    """Pic^0 of a connected nodal curve: torus rank is the first Betti
    number of the dual graph, abelian dimension the sum of genera."""
    if not fiber.nodal:
        raise NotSemistable("fiber has non-nodal singularities; Pic^0 may have additive parts")
    complex = _dual_complex(fiber)
    if len(complex.spanning_forest) != fiber.components - 1:
        raise ValueError("fiber graph must be connected and nonempty")
    return SemiAbelianType(torus_rank(complex), sum(fiber.genera))


def classify_snc_fiber(complex: DeltaComplex, h1_structure: int | None = None) -> SemiAbelianType:
    """Pic^0 of a projective snc variety with dual complex ``complex``: the
    torus rank is combinatorial; the abelian dimension needs h^1(O) as extra
    geometric input."""
    if not complex.count(0):
        raise ValueError("dual complex must have at least one component")
    t = torus_rank(complex)
    if h1_structure is None:
        return SemiAbelianType(t, None)
    if type(h1_structure) is not int:
        raise TypeError(f"h^1(O) must be an integer, got {h1_structure!r}")
    a = h1_structure - t
    if a < 0:
        raise ValueError(f"h^1(O) = {h1_structure} is smaller than the torus rank {t}")
    return SemiAbelianType(t, a)


def numerical_triviality_on_fiber(fiber: CurveFiber, degrees) -> bool:
    """A divisor is numerically trivial on a curve fiber iff its degree on
    every irreducible component vanishes.  Degrees are exact rationals
    (ints or ``Fraction``s); anything else is rejected, never truncated."""
    degrees = list(degrees)
    for d in degrees:
        if type(d) not in (int, Fraction):
            raise TypeError(f"degrees must be ints or Fractions, got {d!r}")
    if len(degrees) != fiber.components:
        raise ValueError("one degree per component is required")
    return all(d == 0 for d in degrees)


# ---------------------------------------------------------------------------
# Extension obstructions over higher-dimensional bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePoint:
    """A base point with its fiber classification and the value of the
    candidate divisor class in torus coordinates."""

    label: str
    fiber_type: SemiAbelianType
    value: tuple[int, ...]


@dataclass(frozen=True)
class ObstructionScenario:
    proper_base: bool
    group: CoefficientGroup
    points: tuple[SamplePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise ValueError("a scenario needs at least two sample points")
        for p in self.points:
            if p.fiber_type.torus_rank < 1 or p.fiber_type.abelian_dim != 0:
                raise ValueError(f"fiber at {p.label!r} is not a torus")
            self.group.reduce(p.value)


@dataclass(frozen=True)
class ObstructionCertificate:
    witnesses: tuple[str, str]
    values: tuple[tuple[int, ...], tuple[int, ...]]
    note: str


def extension_obstruction(scenario: ObstructionScenario) -> ObstructionCertificate | str:
    """Certify that no multiple of the divisor extends numerically trivially.

    A section of a torus bundle over a proper base curve is constant, so two
    sample points with values differing by an element of infinite order rule
    out the extension of every nonzero multiple.  Otherwise the answer is
    the reason no certificate exists, a string; it makes no claim of
    extendability.
    """
    if not scenario.proper_base:
        return "base curve is not proper; constancy argument does not apply"
    group = scenario.group
    torsion_witness = None
    for i, p in enumerate(scenario.points):
        for q in scenario.points[i + 1:]:
            diff = group.sub(p.value, q.value)
            if group.has_infinite_order(diff):
                return ObstructionCertificate(
                    witnesses=(p.label, q.label),
                    values=(p.value, q.value),
                    note=(
                        "section values differ by an element of infinite order; "
                        "scaling by any m != 0 preserves the inequality, so no "
                        "multiple extends numerically trivially"
                    ),
                )
            if not group.is_zero(diff):
                torsion_witness = (p.label, q.label)
    if torsion_witness:
        return ("inconclusive under torsion: sample values differ only by finite-order "
                f"elements (witnesses {torsion_witness[0]!r}, {torsion_witness[1]!r})")
    return "all section values agree; constant sections exist"
