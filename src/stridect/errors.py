"""Shared exception and warning types."""

import math


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


def require_finite(cfg, names) -> None:
    """Reject a config whose named settings, None aside, are nan or infinite."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value}")


class ShapeMismatchError(InvalidArgumentError):
    """Array shapes are inconsistent with each other or with the geometry."""


class NumericalAbortError(RuntimeError):
    """A numerical routine hit a non-finite value and stopped."""


class GuidanceClampWarning(UserWarning):
    """A guidance weight outside [0, 1] was clamped."""
