"""Kernel density estimation on the torus with wrapped Gaussians."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .grids import DensityField, GridSpec
from .torus import TWO_PI


@dataclass(frozen=True)
class KdeParams:
    """Isotropic Gaussian KDE, periodized by a truncated image sum.

    The estimate is renormalized to integrate to ``mass`` afterwards, which
    absorbs the image-truncation error.
    """

    bandwidth: float = 0.4
    images: int = 2
    mass: float = 1.0

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not isinstance(self.images, Integral):
            raise ValueError("image ring count must be an integer")
        if self.images < 0:
            raise ValueError("image ring count must be >= 0")
        if not self.mass > 0:
            raise ValueError("target mass must be positive")


def estimate_density(
    agents: np.ndarray,
    params: KdeParams,
    grid: GridSpec,
    sequential: bool = False,
) -> DensityField:
    """Sum of wrapped Gaussians centered at the agent positions.

    The wrapped Gaussian factorizes per axis, so each agent contributes an
    outer product of two one-dimensional image sums; the agent reduction is
    a single matrix product. With ``sequential=True`` the agents are
    accumulated one at a time in index order, which is slower but
    bit-reproducible independent of the BLAS in use.
    """
    agents = np.atleast_2d(np.asarray(agents, dtype=float))
    if agents.size == 0:
        raise ValueError("density of an empty agent set is undefined")
    if agents.ndim != 2 or agents.shape[1] != 2:
        raise ValueError("agent positions must have shape (n, 2)")

    axis = grid.axis()
    d1 = agents[:, 0:1] - axis[None, :]
    d2 = agents[:, 1:2] - axis[None, :]
    coef = -0.5 / params.bandwidth**2
    g1 = np.zeros_like(d1)
    g2 = np.zeros_like(d2)
    for n in range(-params.images, params.images + 1):
        g1 += np.exp(coef * (d1 + TWO_PI * n) ** 2)
        g2 += np.exp(coef * (d2 + TWO_PI * n) ** 2)

    if sequential:
        acc = np.zeros((grid.m, grid.m))
        for a in range(agents.shape[0]):
            acc += np.outer(g1[a], g2[a])
    else:
        acc = g1.T @ g2

    values = acc / (TWO_PI * params.bandwidth**2 * agents.shape[0]) * params.mass
    total = values.sum() * grid.cell_area
    values *= params.mass / total
    return DensityField(grid, values)
