"""The package's exception classes and the CLI's exit codes.

``PreconditionError`` (an operation called outside its preconditions),
``StrataError`` (strata violating an snc invariant) and ``NotSemistable``
(a curve fiber worse than nodal) are ``ValueError``s.  ``fiberext`` exits
``EXIT_OK`` (0) on success, ``EXIT_INPUT`` (1) on an input or validation
error and ``EXIT_OBSTRUCTED`` (2) on a mathematical obstruction.
"""

EXIT_OK, EXIT_INPUT, EXIT_OBSTRUCTED = 0, 1, 2


class PreconditionError(ValueError):
    """An operation was invoked on data violating its preconditions."""


class StrataError(ValueError):
    """The stratum description violates an snc invariant."""


class NotSemistable(ValueError):
    """The fiber has worse-than-nodal singularities; Pic^0 need not be
    semi-abelian (a cusp gives the additive group)."""
