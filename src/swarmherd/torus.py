"""Points, displacements and distances on the periodic square [-pi, pi)^2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PI = np.pi
TWO_PI = 2.0 * np.pi


class FieldError(ValueError):
    """A parameter that is invalid on its own; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def wrap(p: np.ndarray) -> np.ndarray:
    """Shift coordinates by multiples of 2*pi into [-pi, pi).

    Works elementwise on arrays of any shape. Values already in range are
    returned bit-exactly, so the operation is idempotent; the seam maps
    +pi -> -pi.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot wrap non-finite coordinates")
    shifted = arr - TWO_PI * np.floor((arr + PI) / TWO_PI)
    # rounding of the floor expression can overshoot by one cell at the seam
    shifted = np.where(shifted >= PI, shifted - TWO_PI, shifted)
    shifted = np.where(shifted < -PI, shifted + TWO_PI, shifted)
    return np.where((arr >= -PI) & (arr < PI), arr, shifted)


def wrapped_displacement(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic displacement a - b, componentwise in [-pi, pi)."""
    return wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def torus_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean norm of the wrapped displacement; at most pi*sqrt(2)."""
    d = wrapped_displacement(a, b)
    return np.sqrt(np.sum(d * d, axis=-1))


@dataclass(frozen=True)
class ArenaMap:
    """Linear rescaling between the torus and a square arena [-w, w]^2."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("arena half width must be positive")

    @property
    def scale(self) -> float:
        return self.half_width / PI

    def to_torus(self, p: np.ndarray) -> np.ndarray:
        return np.asarray(p, dtype=float) / self.scale
