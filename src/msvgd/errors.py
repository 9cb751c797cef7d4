"""Shared exception types."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ValueError):
    """A run configuration is invalid or internally inconsistent."""


class NumericalAbort(RuntimeError):
    """A run produced non-finite values and cannot continue.

    ``phase`` names the part of the iteration that produced them: ``refresh``,
    ``score``, ``direction`` or ``step``.  ``particle`` is the first particle
    whose row is non-finite, or None when the value belongs to no particle.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 phase: str | None = None, particle: int | None = None):
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)
        self.iteration = iteration
        self.phase = phase
        self.particle = particle
