"""Repulsive herder-to-target velocity kernel, periodized on the torus."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .torus import PI, TWO_PI, FieldError, wrap


# The drift's tail table sums (2P+1)^2 - 1 image shifts: its build took
# 0.07 s at P = 2, 1.09 s at P = 10 and 3.39 s at P = 20. At 12 rings the
# sum is within 1.5e-9 of a 14-ring sum, and the table builds in about 1.6 s.
MAX_IMAGES = 12


@dataclass(frozen=True)
class KernelParams:
    """Soft-core repulsion: unit direction times exp(-|x| / length).

    ``images`` is the number of rings of periodic images summed when the
    kernel is periodized onto the torus ((2*images+1)^2 terms). The model
    is this truncated sum, not the full periodization, and at length = pi
    the omitted tail is not small: the drift of 200 uniform targets under
    the 260-herder lattice differs between 2 and 14 rings by 7.2-7.7%
    max-norm relative (three seeds). The closed-form Fourier symbol of the
    full periodization (ROADMAP.md, item 1) is to replace it, and with it
    :func:`swarmherd.grids.kernel_symbol`, the transform of its grid samples.
    """

    length: float = PI
    images: int = 2

    def __post_init__(self):
        if not self.length > 0:
            raise FieldError("length", "kernel length must be positive")
        if not isinstance(self.images, Integral):
            raise FieldError("images", "image ring count must be an integer")
        if self.images < 0:
            raise FieldError("images", "image ring count must be >= 0")
        if self.images > MAX_IMAGES:
            raise FieldError("images", f"image ring count must be <= {MAX_IMAGES}")

    def params(self) -> KernelParams:
        # kept for perfbench/workloads.py, which calls cfg.kernel.params()
        return self


def image_shifts(images: int) -> np.ndarray:
    """All 2*pi image shift vectors with integer offsets in [-images, images]^2."""
    offs = np.arange(-images, images + 1, dtype=float)
    sx, sy = np.meshgrid(offs, offs, indexing="ij")
    return TWO_PI * np.stack([sx.ravel(), sy.ravel()], axis=-1)


def kernel_periodic(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """Truncated image sum of the free kernel over the (2P+1)^2 block.

    The argument is wrapped first, so the result is 2*pi-periodic in the
    raw input up to the rounding of ``x + 2*pi*n`` itself: it is bit-exact
    wherever that sum is exact in float64 (then ``wrap`` recovers ``x``),
    and elsewhere differs by the kernel's change over the lost low bits.
    The images are added one at a time, component by component, with the
    arithmetic of the free kernel (x/|x|) * exp(-|x|/L), zero at x = 0, so
    the result equals the sum of its terms bit for bit.
    """
    arr = wrap(x)
    x1, x2 = arr[..., 0], arr[..., 1]
    total1, total2 = np.zeros_like(x1), np.zeros_like(x2)
    d1, d2, r, mag = (np.empty_like(x1) for _ in range(4))
    for s1, s2 in image_shifts(params.images):
        np.add(x1, s1, out=d1)
        np.add(x2, s2, out=d2)
        np.multiply(d1, d1, out=r)
        np.multiply(d2, d2, out=mag)
        r += mag
        np.sqrt(r, out=r)
        np.divide(r, -params.length, out=mag)
        np.exp(mag, out=mag)
        # r = 0 only where d = 0, and there mag keeps exp(0): the term is 0
        np.divide(mag, r, out=mag, where=r > 0.0)
        d1 *= mag
        d2 *= mag
        total1 += d1
        total2 += d2
    return np.stack([total1, total2], axis=-1)


def sample_on_grid(grid, params: KernelParams) -> np.ndarray:
    """Kernel at every wrapped lattice displacement, shape (2, M, M).

    Entry [:, i, j] is the kernel at the displacement between node (i, j) and
    node (0, 0). The truncated image sum is evaluated once, for the x
    component only, on the quadrant of displacements (a*h, b*h) with both
    in [0, pi]; the images are looped over by x shift, so no temporary is
    larger than one (rows, M//2 + 1, 2*images + 1) block. The rest of the
    array follows from the symmetries of the image block, which hold
    exactly by construction:

    - K_x is odd in d1: the rows of negative d1 are the negated rows of
      positive d1, so K(-d) = -K(d) bit for bit;
    - K_x is even in d2: the columns of negative d2 repeat those of
      positive d2;
    - K_y(d1, d2) = K_x(d2, d1): the y component is the transpose.

    On a self-mirrored row (index 0, and M/2 on an even grid, where d1 and
    -d1 are the same node) an odd component can only be 0, and it is set
    to 0 there. The truncated sum itself misses that zero on the seam of an
    even grid by its window asymmetry; the full periodization has it. With
    exact oddness the convolution against a uniform density vanishes
    exactly.
    """
    m = grid.m
    rows = (m - 1) // 2  # positive d1 strictly below pi
    d1 = np.arange(1, rows + 1) * grid.h
    d2 = np.arange(m // 2 + 1) * grid.h
    shifts = TWO_PI * np.arange(-params.images, params.images + 1)
    e2_sq = np.square(d2[:, None] + shifts)  # (columns, 2P+1) y image offsets
    quadrant = np.zeros((rows, d2.size))
    for s1 in shifts:
        e1 = d1 + s1  # never 0: 0 < d1 < pi
        r = np.sqrt(np.square(e1)[:, None, None] + e2_sq)
        quadrant += e1[:, None] * (np.exp(r / -params.length) / r).sum(axis=-1)
    cols = np.minimum(np.arange(m), m - np.arange(m))  # |d2| index
    kx = np.zeros((m, m))
    kx[1:rows + 1] = quadrant[:, cols]
    kx[m - rows:] = -kx[rows:0:-1]
    return np.stack([kx, kx.T])
