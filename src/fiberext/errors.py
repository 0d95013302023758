"""The package's exception classes and the CLI's exit codes.

``PreconditionError`` (an operation called outside its preconditions),
``StrataError`` (strata violating an snc invariant) and ``NotSemistable``
(a curve fiber worse than nodal) are ``ValueError``s: the input is at
fault.  ``CertificateError`` is an ``ArithmeticError``: a computed result
failed its own check, so the package is at fault.  ``fiberext`` exits
``EXIT_OK`` (0) on success, ``EXIT_INPUT`` (1) on an input or validation
error, ``EXIT_OBSTRUCTED`` (2) on a mathematical obstruction and
``EXIT_CERTIFICATE`` (3) on a failed certificate.
"""

EXIT_OK, EXIT_INPUT, EXIT_OBSTRUCTED, EXIT_CERTIFICATE = 0, 1, 2, 3


class PreconditionError(ValueError):
    """An operation was invoked on data violating its preconditions."""


class StrataError(ValueError):
    """The stratum description violates an snc invariant."""


class NotSemistable(ValueError):
    """The fiber has worse-than-nodal singularities; Pic^0 need not be
    semi-abelian (a cusp gives the additive group)."""


class CertificateError(ArithmeticError):
    """A computed result failed the check that certifies it."""
