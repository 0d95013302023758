"""Exact computations with degenerate fibers of projective families.

Subpackages:

- ``lattice``: fiber intersection matrices, divisor-extension solvers,
  denominator bounds and component groups.
- ``dual_complex``: dual Delta-complexes of snc varieties and their
  integral homology.
- ``cochain``: H^1 gluing calculus with finitely generated coefficients.
- ``pic0``: semi-abelian classification of Pic^0 and extension
  obstruction certificates.
- ``corpus``: bundled worked-example scenarios.
- ``cli``: the ``fiberext`` command-line entry point.
- ``errors``: the package's exception classes and the CLI's exit codes.
"""

from .cochain import (
    Cochain,
    CoefficientGroup,
    H1Class,
    coboundary,
    glue_check,
    h1_class,
    is_closed,
    is_exact,
)
from .dual_complex import (
    DeltaComplex,
    HomologyProfile,
    Stratum,
    boundary_matrix,
    boundary_rows,
    build_dual_complex,
    homology,
    homology_degree,
    torus_rank,
)
from .errors import NotSemistable
from .lattice import (
    DivisorTrace,
    ExtensionResult,
    FiberLattice,
    Obstructed,
    ValidationReport,
    component_group,
    denominator_bound,
    extend_nef,
    extend_trivial,
    kodaira_cycle,
    validate_lattice,
)
from .pic0 import (
    CurveFiber,
    ObstructionCertificate,
    ObstructionScenario,
    SamplePoint,
    SemiAbelianType,
    classify_curve_fiber,
    classify_snc_fiber,
    extension_obstruction,
    numerical_triviality_on_fiber,
)

__version__ = "0.1.0"
