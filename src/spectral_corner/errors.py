"""Exception types shared across the package."""


class SpecError(ValueError):
    """Raised when an input specification (domain, field, config) is invalid."""


class NumericalError(RuntimeError):
    """Raised when a numerical stage fails to meet its contract.

    Carries the stage name so orchestration layers can attribute failures.
    Pickling keeps stage, message and best estimate, so an error raised in a
    worker process reaches the caller whole.
    """

    def __init__(self, stage: str, message: str, best_estimate=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message
        self.best_estimate = best_estimate

    def __reduce__(self):
        return type(self), (self.stage, self.message, self.best_estimate)
