"""Exception types shared across the package, and the one rule for seeds."""

import numbers


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


def check_seed(name: str, seed) -> None:
    """Raise SpecError unless seed is an integer in [0, 2^64), not a bool.

    Every seeded entry point checks its seed by this rule before any work:
    numpy's ``default_rng`` takes any such integer, and the walker keys a
    Philox stream with it as a uint64.
    """
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral)
                                      and 0 <= seed < 2 ** 64):
        raise SpecError(f"{name} needs a seed that is an integer in [0, 2^64), "
                        f"got {seed!r}")
