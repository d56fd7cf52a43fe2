"""Definitional oracles the tests check the package against; nothing in
the package calls them."""

import numpy as np

from swarmherd.grids import ScalarField, VectorField, half_plane, irfft2, rfft2
from swarmherd.kernel import KernelParams


def kernel_free(x: np.ndarray, params: KernelParams) -> np.ndarray:
    """Non-periodic kernel (x/|x|) * exp(-|x|/L), with value zero at x = 0:
    the image sums are sums of its terms.

    The zero at the origin is the only choice consistent with oddness.
    """
    arr = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(arr * arr, axis=-1))
    safe = np.where(r > 0.0, r, 1.0)
    mag = np.where(r > 0.0, np.exp(-r / params.length) / safe, 0.0)
    return arr * mag[..., None]


def curl(field: VectorField) -> ScalarField:
    """Scalar curl d(v2)/dx1 - d(v1)/dx2 of a planar field: zero for a
    curl-free flux."""
    m = field.grid.m
    ik = half_plane(m).ik
    fhat = rfft2(field.values)
    return ScalarField(field.grid, irfft2(ik[0] * fhat[1] - ik[1] * fhat[0], m))
