"""Closed-loop herder control: density error, potential solve, sampling.

The macroscopic control law asks for a flux whose divergence is -gain
times the herder density error; closing the system with a curl-free flux
turns this into a Poisson problem for a scalar potential. The herder
velocity is the flux divided by the (strictly positive) estimated density,
sampled at the individual herder positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DensityField,
    ScalarField,
    VectorField,
    gradient,
    mass,
    poisson_solve,
)
from .torus import TWO_PI, PI, points, wrap

# Herder density estimates are strictly positive by construction; the floor
# only guards the division against float underflow in near-empty regions.
DENSITY_FLOOR = 1e-12

MASS_MATCH_TOL = 1e-3


# Signs of the Nyquist checkerboards (-1)^i, (-1)^j and (-1)^(i+j) on the
# four parity classes [i % 2, j % 2] of an even grid.
_SIGN = np.array([1.0, -1.0])
_CHECKERBOARDS = np.stack([np.outer(_SIGN, [1.0, 1.0]), np.outer([1.0, 1.0], _SIGN),
                          np.outer(_SIGN, _SIGN)])


def _drop_checkerboards(values: np.ndarray) -> None:
    """Project, in place, an even-grid field's components on the three
    Nyquist checkerboards out: each is a weighted sum of the four parity
    classes' sums, and the boards are orthogonal."""
    m = values.shape[0]
    cells = values.reshape(m // 2, 2, m // 2, 2)  # a view, [i // 2, i % 2, j // 2, j % 2]
    weights = (_CHECKERBOARDS * cells.sum(axis=(0, 2))).sum(axis=(1, 2)) / (m * m)
    cells -= np.tensordot(weights, _CHECKERBOARDS, 1)[:, None, :]


def herder_error(rho_bar_h: DensityField, rho_h_est: DensityField) -> ScalarField:
    """Pointwise difference between desired and estimated herder density.

    Both fields must carry the same mass (the control law moves mass
    around, it cannot create it), so the error is zero-mean up to rounding.
    On an even grid the error's components on the three Nyquist
    checkerboards are projected out: :func:`control_field` gives them zero
    flux, so they are error the control law cannot move. Odd grids have no
    such modes and the difference is returned as it is.
    """
    if rho_bar_h.grid.m != rho_h_est.grid.m:
        raise ValueError("desired and estimated densities live on different grids")
    m_ref = mass(rho_bar_h)
    m_est = mass(rho_h_est)
    scale = max(abs(m_ref), abs(m_est), 1e-300)
    if abs(m_ref - m_est) > MASS_MATCH_TOL * scale:
        raise ValueError(
            f"mass mismatch {m_ref:.6g} vs {m_est:.6g}: control assumes "
            "mass-matched densities"
        )
    error = rho_bar_h.values - rho_h_est.values
    if rho_bar_h.grid.m % 2 == 0:
        _drop_checkerboards(error)
    return ScalarField(rho_bar_h.grid, error)


@dataclass
class ControlSolution:
    """Potential, curl-free flux, and velocity for one control tick."""

    potential: ScalarField
    flux: VectorField
    velocity: VectorField
    removed_mean: float
    floor_share: float  # share of grid nodes at or below DENSITY_FLOOR


def control_field(error: ScalarField, rho_h_est: DensityField,
                  gain: float) -> ControlSolution:
    """Macroscopic herder velocity field for a given density error.

    Solves the potential problem, takes ``flux = grad(potential)`` -- so
    that div(flux) = -gain * (error - mean) and curl(flux) = 0 identically
    -- and divides by the estimated density, floored at ``DENSITY_FLOOR``;
    ``floor_share`` is the share of grid nodes where the floor applied.

    On an even grid that holds for the error without its components on
    the Nyquist checkerboards (-1)^i, (-1)^j and (-1)^(i+j): the spectral
    gradient has no derivative at the Nyquist wavenumber, so these modes
    get zero flux and the law -div grad(potential) annihilates them.
    :func:`herder_error` projects them out, so they neither count in the
    error norm nor change a command beyond rounding. The density twin
    (``continuum.verify_herder_convergence``) keeps them in its error.
    """
    if not 0 < gain < np.inf:  # also false for NaN
        raise ValueError("control gain must be positive and finite")
    if rho_h_est.grid.m != error.grid.m:
        raise ValueError("error and density grids differ")
    if rho_h_est.values.min() <= 0:
        raise ValueError("control velocity needs a strictly positive density estimate")
    potential, removed_mean = poisson_solve(error, gain)
    flux = gradient(potential)
    floored = rho_h_est.values <= DENSITY_FLOOR
    denom = np.maximum(rho_h_est.values, DENSITY_FLOOR)
    velocity = VectorField(error.grid, flux.values / denom)
    return ControlSolution(
        potential=potential, flux=flux, velocity=velocity, removed_mean=removed_mean,
        floor_share=np.count_nonzero(floored) / floored.size,
    )


def sample_at_herders(field: VectorField, positions: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a grid velocity field at agent positions,
    shape (n, 2), or one point of shape (2,). Positions of another shape are a
    ``ValueError``.

    The interpolant is periodic on the lattice and exact at the nodes.
    Positions are wrapped first, so sampling is periodic up to the rounding
    of the shifted position ``x + 2*pi*n``: bit-exact wherever that sum is
    exact in float64.
    """
    pts = wrap(points(np.atleast_2d(positions), "positions"))
    m = field.grid.m
    s = (pts + PI) * (m / TWO_PI)
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    i0 %= m
    i1 = (i0 + 1) % m
    fx, fy = frac.T
    values = field.values
    return (
        values[:, i0[:, 0], i0[:, 1]] * (1 - fx) * (1 - fy)
        + values[:, i1[:, 0], i0[:, 1]] * fx * (1 - fy)
        + values[:, i0[:, 0], i1[:, 1]] * (1 - fx) * fy
        + values[:, i1[:, 0], i1[:, 1]] * fx * fy
    ).T


def speed_limit(commands: np.ndarray, v_max: float) -> np.ndarray:
    """Rescale commands with norm above v_max onto the v_max sphere."""
    if not v_max > 0:
        raise ValueError("speed limit must be positive")
    cmds = np.atleast_2d(np.asarray(commands, dtype=float))
    norms = np.sqrt(np.sum(cmds * cmds, axis=-1))
    factor = np.where(norms > v_max, v_max / np.where(norms > 0, norms, 1.0), 1.0)
    return cmds * factor[:, None]
