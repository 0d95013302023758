"""Exceptions shared by the lattice and cochain modules."""


class PreconditionError(ValueError):
    """An operation was invoked on data violating its preconditions."""
