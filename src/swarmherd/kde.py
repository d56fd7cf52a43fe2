"""Kernel density estimation on the torus with wrapped Gaussians."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import DensityField, GridSpec
from .torus import PI, TWO_PI, FieldError, wrap


@dataclass(frozen=True)
class KdeParams:
    """Isotropic Gaussian KDE of standard deviation ``bandwidth``.

    This is the config's ``kde`` section. The periodic images the estimate
    sums follow from the bandwidth (``_rings``). At most 2 pi: there each
    Fourier mode of the estimate is at most exp(-2 pi^2), about 2.7e-9, of
    its mean, and ``_rings`` gives 9.
    """

    bandwidth: float = 0.4

    def __post_init__(self):
        if not 0 < self.bandwidth <= TWO_PI:  # also false for NaN
            raise FieldError("bandwidth", "bandwidth must be positive and at most 2 pi")


def _rings(bandwidth: float) -> int:
    """Image rings P that keep every dropped term below 2**-53 of the nearest.

    With agents and nodes in [-pi, pi), the nearest image is at most pi
    away and every image beyond P rings at least 2*pi*P, so P solves
    (2*pi*P)**2 - pi**2 >= 2 * bandwidth**2 * 53 * ln 2.
    """
    return math.ceil(math.sqrt(PI**2 + 106 * math.log(2) * bandwidth**2) / TWO_PI)


# m * n * k of a matrix product at or below which OpenBLAS's gemm runs on
# the calling thread (65536 times its GEMM_MULTITHREAD_THRESHOLD of 4)
_SERIAL_GEMM = 1 << 18


@lru_cache(maxsize=2)
def _image_buffer(n: int, m: int) -> np.ndarray:
    """Scratch (3, n, M): the image sums of both axes and one image term.

    Reused across calls so that a step does not allocate (and page in) its
    (n, M) temporaries afresh. Not safe for concurrent calls.
    """
    return np.empty((3, n, m))


def estimate_density(
    agents: np.ndarray,
    params: KdeParams,
    grid: GridSpec,
    mass: float = 1.0,
) -> DensityField:
    """Sum of wrapped Gaussians centered at the agent positions.

    The agents are wrapped into [-pi, pi) first. The wrapped Gaussian
    factorizes per axis, so each agent contributes an outer product of two
    one-dimensional image sums over ``_rings(params.bandwidth)`` rings; the
    agent reduction is a matrix product, taken a few output rows at a time
    so that OpenBLAS keeps it on the calling thread (``_SERIAL_GEMM``). The
    estimate is renormalized to integrate to ``mass`` afterwards.
    """
    if not mass > 0:
        raise ValueError("target mass must be positive")
    agents = np.atleast_2d(np.asarray(agents, dtype=float))
    if agents.size == 0:
        raise ValueError("density of an empty agent set is undefined")
    if agents.ndim != 2 or agents.shape[1] != 2:
        raise ValueError("agent positions must have shape (n, 2)")
    agents = wrap(agents)
    rings = _rings(params.bandwidth)

    g1, g2, t = _image_buffer(agents.shape[0], grid.m)
    axis = grid.axis()
    coef = -0.5 / params.bandwidth**2
    for g, x in ((g1, agents[:, 0:1]), (g2, agents[:, 1:2])):
        g.fill(0.0)
        for n in range(-rings, rings + 1):
            np.subtract(x, axis, out=t)
            t += TWO_PI * n
            t *= t
            t *= coef
            g += np.exp(t, out=t)

    # g1.T @ g2 by chunks of output rows: each product stays at or below
    # OpenBLAS's threading threshold, so it runs on this thread, and no woken
    # BLAS worker spins on the core the drift's helper thread needs. Chunks
    # of agents would change the sum's rounding.
    values = np.empty((grid.m, grid.m))
    rows = max(1, _SERIAL_GEMM // (grid.m * agents.shape[0]))
    for lo in range(0, grid.m, rows):
        np.matmul(g1[:, lo:lo + rows].T, g2, out=values[lo:lo + rows])
    values /= TWO_PI * params.bandwidth**2 * agents.shape[0]
    values *= mass
    total = values.sum() * grid.cell_area
    values *= mass / total
    return DensityField(grid, values)
