"""Shared exception and warning types."""

import math


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


def require_finite(cfg, names) -> None:
    """Reject a config whose named settings are nan or infinite."""
    for name in names:
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value}")


def require_seed(seed, name="seed") -> None:
    """Reject a negative random seed, which numpy refuses only at its first
    draw, after the work before it has run."""
    if seed < 0:
        raise InvalidArgumentError(f"{name} must be >= 0, got {seed}")


class ShapeMismatchError(InvalidArgumentError):
    """Array shapes are inconsistent with each other or with the geometry."""


def require_shape(shape, expected, what) -> None:
    """The one shape-agreement rule: reject ``what`` unless its ``shape`` is
    ``expected``, naming both."""
    if shape != expected:
        raise ShapeMismatchError(f"{what} of shape {shape}, expected {expected}")


class NumericalAbortError(RuntimeError):
    """A numerical routine hit a non-finite value and stopped."""


class GuidanceClampWarning(UserWarning):
    """A guidance weight outside [0, 1] was clamped."""
