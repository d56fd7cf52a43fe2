"""Repulsive herder-to-target velocity kernel, periodized on the torus."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .torus import TWO_PI, wrap


@dataclass(frozen=True)
class KernelParams:
    """Soft-core repulsion: unit direction times exp(-|x| / length).

    ``images`` is the number of rings of periodic images summed when the
    kernel is periodized onto the torus ((2*images+1)^2 terms); the omitted
    tail is O(exp(-(2*images+1)*pi/length)) relative, so the default of 2
    keeps it below 0.7% for length = pi.
    """

    length: float
    images: int = 2

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("kernel length must be positive")
        if not isinstance(self.images, Integral):
            raise ValueError("image ring count must be an integer")
        if self.images < 0:
            raise ValueError("image ring count must be >= 0")


def kernel_free(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """Non-periodic kernel (x/|x|) * exp(-|x|/L), with value zero at x = 0.

    The zero at the origin is the only choice consistent with oddness.
    """
    arr = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(arr * arr, axis=-1))
    safe = np.where(r > 0.0, r, 1.0)
    mag = np.where(r > 0.0, np.exp(-r / params.length) / safe, 0.0)
    return arr * mag[..., None]


def image_shifts(images: int) -> np.ndarray:
    """All 2*pi image shift vectors with integer offsets in [-images, images]^2."""
    offs = np.arange(-images, images + 1, dtype=float)
    sx, sy = np.meshgrid(offs, offs, indexing="ij")
    return TWO_PI * np.stack([sx.ravel(), sy.ravel()], axis=-1)


def kernel_periodic(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """Truncated image sum of ``kernel_free`` over the (2P+1)^2 block.

    The argument is wrapped first, so the result is 2*pi-periodic in the
    raw input up to the rounding of ``x + 2*pi*n`` itself: it is bit-exact
    wherever that sum is exact in float64 (then ``wrap`` recovers ``x``),
    and elsewhere differs by the kernel's change over the lost low bits.
    """
    arr = wrap(x)
    total = np.zeros_like(arr)
    for shift in image_shifts(params.images):
        total += kernel_free(arr + shift, params)
    return total


def sample_on_grid(grid, params: KernelParams) -> np.ndarray:
    """Kernel at every wrapped lattice displacement, shape (M, M, 2).

    Entry [i, j] is the kernel evaluated at the displacement between node
    (i, j) and node (0, 0). The truncated image sum is slightly asymmetric
    across the seam row of an even grid; averaging K(d) with -K(-d)
    restores the exact oddness of the full periodization (a no-op on odd
    grids) so that convolution against a uniform density vanishes exactly.
    """
    d = wrap(np.arange(grid.m) * grid.h)
    d1, d2 = np.meshgrid(d, d, indexing="ij")
    samples = kernel_periodic(np.stack([d1, d2], axis=-1), params)
    mirrored = np.roll(samples[::-1, ::-1], 1, axis=(0, 1))
    return 0.5 * (samples - mirrored)
