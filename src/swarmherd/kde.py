"""Kernel density estimation on the torus with wrapped Gaussians."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .grids import DensityField, GridSpec
from .torus import TWO_PI, FieldError


@dataclass(frozen=True)
class KdeParams:
    """Isotropic Gaussian KDE, periodized by a truncated image sum.

    These are the fields of the config's ``kde`` section. With
    ``sequential`` the agents are accumulated one at a time in index order,
    which is slower but bit-reproducible independent of the BLAS in use.
    """

    bandwidth: float = 0.4
    images: int = 2
    sequential: bool = False

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise FieldError("bandwidth", "bandwidth must be positive")
        if not isinstance(self.images, Integral):
            raise FieldError("images", "image ring count must be an integer")
        if self.images < 0:
            raise FieldError("images", "image ring count must be >= 0")
        if not isinstance(self.sequential, bool):
            raise FieldError("sequential", "sequential must be true or false")


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

    The wrapped Gaussian factorizes per axis, so each agent contributes an
    outer product of two one-dimensional image sums; the agent reduction is
    a single matrix product, or the ordered loop of ``params.sequential``.
    The estimate is renormalized to integrate to ``mass`` afterwards, which
    absorbs the image-truncation error.
    """
    if not mass > 0:
        raise ValueError("target mass must be positive")
    agents = np.atleast_2d(np.asarray(agents, dtype=float))
    if agents.size == 0:
        raise ValueError("density of an empty agent set is undefined")
    if agents.ndim != 2 or agents.shape[1] != 2:
        raise ValueError("agent positions must have shape (n, 2)")

    g1, g2, t = _image_buffer(agents.shape[0], grid.m)
    axis = grid.axis()
    coef = -0.5 / params.bandwidth**2
    for g, x in ((g1, agents[:, 0:1]), (g2, agents[:, 1:2])):
        g.fill(0.0)
        for n in range(-params.images, params.images + 1):
            np.subtract(x, axis, out=t)
            t += TWO_PI * n
            t *= t
            t *= coef
            g += np.exp(t, out=t)

    if params.sequential:
        acc = np.zeros((grid.m, grid.m))
        for a in range(agents.shape[0]):
            acc += np.outer(g1[a], g2[a])
    else:
        acc = g1.T @ g2

    values = acc / (TWO_PI * params.bandwidth**2 * agents.shape[0]) * mass
    total = values.sum() * grid.cell_area
    values *= mass / total
    return DensityField(grid, values)
