"""Exception types shared across the package."""


class PdmError(Exception):
    """Base of the package's errors; ``exit_code`` is the command line's exit
    status for one: 2 for a usage error, 1 for the rest."""

    exit_code = 1


class ConfigurationError(PdmError, ValueError):
    """A structural parameter is outside the supported range (grid too small,
    polynomial degree beyond the stable recurrence bound, bad flag combination)."""

    exit_code = 2


class DomainError(PdmError, ValueError):
    """An input value violates a mathematical precondition of the operation."""


class InconsistentInputError(PdmError, ValueError):
    """Inputs are individually valid but mutually contradictory (wrong node
    count for the requested level, seed that does not solve its equation)."""

    exit_code = 2


class DegenerateStateError(PdmError, RuntimeError):
    """A mapped state collapsed numerically to zero where a nonzero state was
    expected."""


class NonNormalizableError(PdmError, RuntimeError):
    """A constructed wavefunction grows toward the truncation boundary and has
    no finite norm."""


class SolverError(PdmError, RuntimeError):
    """The eigensolver failed to converge within its iteration cap."""
