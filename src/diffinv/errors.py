"""Exception types and the integer-setting check shared across the package."""

import operator


class NumericsError(RuntimeError):
    """A computation failed numerically (negative variance, overflow, ...).

    Distinct from ValueError so callers can map bad invocations and numeric
    failures to different exit codes.
    """


class DivergenceError(NumericsError):
    """A fixed-point iteration produced a non-finite iterate."""

    def __init__(self, step_t: int, iteration: int):
        self.step_t = step_t
        self.iteration = iteration
        super().__init__(
            f"fixed-point iteration diverged at step t={step_t}, iteration {iteration}: "
            "non-finite iterate"
        )


def check_integer(name: str, value) -> None:
    """ValueError naming `name` unless `value` is an integer (numpy integers included).

    Settings objects call it when they are built, so a count such as 2.5
    fails there instead of deep inside a run.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
