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
    sums follow from the bandwidth (``_rings``).
    """

    bandwidth: float = 0.4

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise FieldError("bandwidth", "bandwidth must be positive")


def _rings(bandwidth: float) -> int:
    """Image rings P that keep every dropped term below 2**-53 of the nearest.

    With agents and nodes in [-pi, pi), the nearest image is at most pi
    away and every image beyond P rings at least 2*pi*P, so P solves
    (2*pi*P)**2 - pi**2 >= 2 * bandwidth**2 * 53 * ln 2.
    """
    return math.ceil(math.sqrt(PI**2 + 106 * math.log(2) * bandwidth**2) / TWO_PI)


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
    agent reduction is one ``einsum``, which calls no BLAS. The estimate is
    renormalized to integrate to ``mass`` afterwards.
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

    # einsum, not g1.T @ g2: a matmul this size wakes BLAS's thread pool, whose
    # idle workers then spin on the core the drift helper needs
    values = (np.einsum("ni,nj->ij", g1, g2)
              / (TWO_PI * params.bandwidth**2 * agents.shape[0]) * mass)
    total = values.sum() * grid.cell_area
    values *= mass / total
    return DensityField(grid, values)
