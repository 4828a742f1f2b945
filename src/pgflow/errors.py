"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when a caller passes data that fails validation.

    Covers malformed points (wrong shape, NaN/inf entries), parameters
    outside their documented ranges, and infeasible starting points.
    """


class UnsupportedObjectiveError(RuntimeError):
    """Raised when an operation needs objective metadata that is absent.

    Certificate checks need a known optimum and a bound certificate;
    objectives built from bare callables carry neither.
    """


class DivergenceError(RuntimeError):
    """Raised when an integration blows up.

    Carries the time at which the iterate first left the trust region
    so the caller can report where things went wrong.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time

    def __reduce__(self):
        # the default rebuilds from args = (message,) and loses the time
        return (type(self), (str(self), self.time))
