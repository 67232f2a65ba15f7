"""Exception types, and one check per input kind: count, real, choice, type, array, mask, broadcast.

Each rejection is a ValueError (or the given error type) whose message
starts with the name of the setting.
"""

import math
import numbers
import operator

import numpy as np


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


class MaskSettingsError(ValueError):
    """A mask threshold and amplitude that cannot normalize the attention map they meet."""


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """`value` as an int, or ValueError naming `name` unless it is an integer in [low, high].

    numpy integers count and bool does not; `high` None leaves the range
    open above.  Settings objects call it when they are built, so a count
    such as 2.5 or True fails there instead of deep inside a run.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if high is None and count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    if high is not None and not low <= count <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {count}")
    return count


def check_real(name: str, value, low: float | None = None, strict: bool = False) -> float:
    """`value` as a float, or ValueError naming `name` unless it is a finite real >= low.

    numpy reals count and bool and strings do not; `strict` asks for > low
    instead, and `low` None asks only for finiteness.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if math.isfinite(value) and (low is None or (value > low if strict else value >= low)):
        return float(value)
    bound = "" if low is None else f" and {'>' if strict else '>='} {low:g}"
    raise ValueError(f"{name} must be finite{bound}, got {value}")


def check_choice(name: str, value, choices) -> str:
    """`value`, or ValueError naming `name` unless it is one of the strings `choices`."""
    if isinstance(value, str) and value in choices:
        return value
    raise ValueError(f"{name} must be one of {', '.join(choices)}; got {value!r}")


def check_instance(name: str, value, cls: type, optional: bool = False):
    """`value`, or ValueError naming `name` unless it is a `cls` (or None, when `optional`).

    The one rule for settings objects and prompts, so a wrong-typed one,
    such as a variant string passed where a `FixedPointConfig` belongs,
    fails by name where it is given instead of deep inside a run.
    """
    if isinstance(value, cls) or (optional and value is None):
        return value
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    allowed = f"{article} {cls.__name__}{' or None' if optional else ''}"
    raise ValueError(f"{name} must be {allowed}, got {value!r}")


def check_real_array(x, name: str) -> np.ndarray:
    """x as an array; ValueError naming `name` unless its dtype is integer or float
    (so not bool, string, object or complex)."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {x.dtype}")
    return x


def all_finite(x) -> bool:
    """Whether every entry of the real array `x` is finite, in one dot product when it is.

    A NaN or infinite entry makes the sum of squares NaN or inf, so a finite
    `np.vdot(x, x)` proves every entry finite in one BLAS call.  Only a
    non-finite sum, from such an entry or from finite entries past about
    1e154, pays the exact per-entry `np.isfinite` test.  `np.vdot` raises no
    floating-point warning where the sum overflows.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def check_finite(x, name: str, error=ValueError) -> np.ndarray:
    """`check_real_array(x, name)` as float64, and `error` if an entry is not finite.

    The test is `all_finite`: one `np.vdot(x, x)` whose finite result proves
    every entry finite, with the exact per-entry test only when that sum of
    squares is NaN or inf (a non-finite entry, or entries past about 1e154).
    """
    x = np.asarray(check_real_array(x, name), dtype=np.float64)
    if not all_finite(x):
        raise error(f"{name} contains non-finite entries")
    return x


def check_unit_interval(x, name: str) -> np.ndarray:
    """`check_finite(x, name)`, and ValueError naming `name` unless every entry is in [0, 1].

    The one rule for masks: the soft editing mask, the sampler's noise mask
    and the mask a guidance-scale field is blended by.
    """
    x = check_finite(x, name)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return x


def check_broadcast(shape, latent_shape, what: str) -> None:
    """ValueError naming `what` unless an array of `shape` broadcasts to the latent shape."""
    try:
        if np.broadcast_shapes(shape, latent_shape) == latent_shape:
            return
    except ValueError:
        pass
    raise ValueError(f"{what} of shape {shape} does not broadcast to latent shape {latent_shape}")
