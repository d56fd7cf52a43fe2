"""Macroscopic twin: grid integration of the density transport equations.

The herder density obeys a controlled continuity equation; the target
density a convection-diffusion equation whose convection field is the
kernel convolved with the herder density. Every right-hand side is a
circulant operator, or one applied to a pointwise product, so the twin
keeps its state as ``rfft2`` coefficients and multiplies them by operator
symbols taken from the ``grids`` operators' own impulse responses. One
explicit 4-stage Runge-Kutta helper integrates both densities:

- the closed-loop herder error obeys a diagonal linear system, so one RK4
  step is one multiply by the per-wavenumber amplification R(-dt S), taken
  from that helper;
- a transport stage makes one ``irfft2`` of the densities and one batched
  ``rfft2`` of the flux components; the actuated step convolves each
  stage's herder density with the kernel from the coefficients the stage
  already holds.

The transport symbols are built once per grid size and diffusion and
shared, read-only, by ``continuum_step`` and the target driver. Values that
depend only on an input are kept for the last distinct input, keyed on its
exact values: the target driver's reference constants (stability report,
reference coefficients, equilibrium drift), in one memo per reference and
diffusion, and ``continuum_step``'s kernel symbol per sample array. The
herder driver builds its control symbol at each call: cached, it would stop
calling ``poisson_solve``, ``gradient`` and ``divergence``, which the
benchmark's traced ``continuum`` run requires. A driver transforms its
density back once, at the end, and measures errors by Parseval. Each mass
is conserved to rounding. The two verification drivers measure the
closed-loop herder error decay, fitted by the closed-form least-squares
slope, and the feed-forward target error decay against their analytic
envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .feasibility import StabilityReport, desired_velocity_field, stability_margin
from .grids import (DensityField, GridSpec, ScalarField, VectorField, circular_convolve,
                    divergence, gradient, half_plane, irfft2, kernel_symbol, laplacian,
                    mass, poisson_solve, rfft2)


@dataclass
class ContinuumState:
    """Both densities at one instant."""

    rho_h: DensityField
    rho_t: DensityField
    time: float = 0.0

    def __post_init__(self):
        if self.rho_h.grid.m != self.rho_t.grid.m:
            raise ValueError("herder and target densities must share a grid")


def stable_dt(h: float, diffusion: float, v_max: float) -> float:
    """Explicit-step bound: half the diffusive and convective limits."""
    limit = np.inf
    if diffusion > 0:
        limit = min(limit, 0.5 * h * h / (4.0 * diffusion))
    if v_max > 0:
        limit = min(limit, 0.5 * h / (2.0 * v_max))
    return limit


def _rk4(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dy/dt = rhs(y)."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _step_count(horizon: float, dt: float) -> int:
    """Steps of ``dt`` in ``horizon``, rounded; the horizon must be finite and
    hold at least one step."""
    if not np.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError(f"horizon {horizon:g} is shorter than one step of {dt:.3g}")
    return n_steps


def _sampled(step, y: np.ndarray, dt: float, n_steps: int, stride: int, error,
             last: bool):
    """``n_steps`` applications of ``step`` (one time step of ``dt`` each);
    ``error(y)`` at t = 0, every ``stride`` steps and, with ``last``, the
    final step. Returns the final y, times and errors."""
    times, errors = [0.0], [error(y)]
    for s in range(1, n_steps + 1):
        y = step(y)
        if s % stride == 0 or (last and s == n_steps):
            times.append(s * dt)
            errors.append(error(y))
    return y, np.asarray(times), np.asarray(errors)


def _norm_sq(coeffs: np.ndarray, grid: GridSpec) -> float:
    """h^2 * sum(values^2) of the real field whose rfft2 is ``coeffs``, by Parseval."""
    power = (coeffs.real**2 + coeffs.imag**2).sum(axis=0)
    return grid.cell_area / (grid.m * grid.m) * float(power @ half_plane(grid.m).parseval)


def _symbol(*responses: np.ndarray) -> np.ndarray:
    """Stacked rfft2 of responses to a unit impulse at node (0, 0). The
    operators annihilate constants, so the zero mode, which rounding leaves
    near 1e-15 and which would leak mass, is set to exactly 0."""
    out = rfft2(np.stack(responses))
    out[..., 0, 0] = 0.0
    return out


def _once_per_input(compute):
    """``compute(x, *args)``, kept for the last distinct input.

    The key is a stored copy of ``x``'s values (a field's, or the array
    itself), compared with ``np.array_equal``, and ``args`` by ``==``: on
    64^2 that takes about 4 us, against 13-28 us to hash the bytes (2-core
    x86_64 Xeon). A hit returns what a fresh call would, and an input
    changed in place never hits. ``compute`` marks its arrays read-only:
    every hit shares them.
    """
    last = []  # [values copy, args, result]

    def memo(x, *args):
        values = getattr(x, "values", x)
        if not (last and last[1] == args and np.array_equal(last[0], values)):
            last[:] = np.array(values), args, compute(x, *args)
        return last[2]

    memo.cache_clear = last.clear
    return memo


@_once_per_input
def _kernel_hat(kernel_samples: np.ndarray) -> np.ndarray:
    """``kernel_symbol`` of the samples, read-only. A stopgap: the closed-form
    symbol cached per (m, length) replaces it (ROADMAP item 1a)."""
    out = kernel_symbol(kernel_samples)
    out.flags.writeable = False
    return out


@_once_per_input
def _reference(rho_bar_t: DensityField, diffusion: float):
    """The target driver's constants of the reference, all read-only: its
    stability report, its ``rfft2`` and its ``desired_velocity_field``."""
    v = desired_velocity_field(rho_bar_t, diffusion)
    report = stability_margin(rho_bar_t, diffusion)
    ref_hat = rfft2(rho_bar_t.values)
    for values in (v.values, report.curvature.values, ref_hat):
        values.flags.writeable = False
    return report, ref_hat, v


# continuum_step and the target driver share these; the herder driver
# builds its control symbol at each call (see the module docstring)
@lru_cache(maxsize=16)
def _step_symbols(m: int, diffusion: float) -> np.ndarray:
    """Symbols of -div (per flux component) and D lap, shape (3, M, M//2+1),
    read-only."""
    grid = GridSpec(m)
    delta = ScalarField(grid, np.eye(1, m * m).reshape(m, m))  # impulse at node (0, 0)
    div = [-divergence(VectorField(grid, e[:, None, None] * delta.values)).values
           for e in np.eye(2)]
    out = _symbol(*div, diffusion * laplacian(delta).values)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _transport(symbols: np.ndarray, rho_hat: np.ndarray, velocity) -> np.ndarray:
    """rfft2 of -div(rho v) + D lap(rho), from rfft2 coefficients ``rho_hat``.

    One irfft2 of rho and one batched rfft2 of the flux components rho v;
    ``velocity(rho_hat)`` gives v from the stage's coefficients. Shapes:
    ``rho_hat`` (..., M, M//2+1), v (..., 2, M, M), ``symbols``
    (..., 3, M, M//2+1).
    """
    m = rho_hat.shape[-2]
    rho = irfft2(rho_hat, m)
    flux_hat = rfft2(rho[..., None, :, :] * velocity(rho_hat))
    return (symbols[..., :2, :, :] * flux_hat).sum(axis=-3) + symbols[..., 2, :, :] * rho_hat


def continuum_step(state: ContinuumState, u: VectorField | None,
                   kernel_samples: np.ndarray, diffusion: float,
                   dt: float) -> ContinuumState:
    """One RK4 step of the coupled system.

    ``u`` actuates the herder density; None freezes it, and then the target
    convection field of the step's start serves every stage. Otherwise the
    convection field is recomputed from the herder density at every stage,
    by multiplying its coefficients with the kernel symbol. The samples are
    transformed into that symbol once while their values stay the same; it
    also gives the field of the step's start, which sets the stability bound.
    Raises when ``dt`` exceeds the stability bound for the current fields.
    """
    grid = state.rho_h.grid
    if not dt > 0:
        raise ValueError("dt must be positive")
    k_hat = _kernel_hat(kernel_samples)
    v_th0 = circular_convolve(k_hat, state.rho_h)
    fields = (v_th0,) if u is None else (v_th0, u)
    v_max = max(float(np.sqrt((f.values**2).sum(axis=0)).max()) for f in fields)
    bound = stable_dt(grid.h, diffusion, v_max)
    if dt > bound:
        raise ValueError(f"dt {dt:.3e} exceeds the stability bound {bound:.3e}")

    m = grid.m
    target_symbols = _step_symbols(m, diffusion)
    h0, t0 = state.rho_h.values, state.rho_t.values
    if u is None:
        new_h = h0.copy()
        t_hat = _rk4(lambda r: _transport(target_symbols, r, lambda _: v_th0.values),
                     rfft2(t0), dt)
        new_t = irfft2(t_hat, m)
    else:
        symbols = np.stack([_step_symbols(m, 0.0), target_symbols])

        def velocity(y_hat: np.ndarray) -> np.ndarray:
            return np.stack([u.values, irfft2(k_hat * y_hat[0], m)])

        y_hat = _rk4(lambda y: _transport(symbols, y, velocity),
                     rfft2(np.stack([h0, t0])), dt)
        new_h, new_t = irfft2(y_hat, m)
    return ContinuumState(DensityField(grid, new_h), DensityField(grid, new_t),
                          state.time + dt)


def _fit_decay_rate(times: np.ndarray, norms: np.ndarray) -> float:
    """Least-squares slope of log(norm) vs time, returned as a positive rate."""
    usable = norms > 0
    if np.count_nonzero(usable) < 2:
        return np.nan
    t = times[usable] - times[usable].mean()
    y = np.log(norms[usable])
    return -float(t @ (y - y.mean()) / (t @ t))


@dataclass
class HerderDecayReport:
    times: np.ndarray
    error_l2: np.ndarray
    gain: float
    fitted_rate: float
    relative_deviation: float
    mass_drift: float
    steps: int  # RK4 steps taken


def verify_herder_convergence(
    rho_h0: ScalarField,
    rho_bar_h: ScalarField,
    gain: float,
    horizon: float,
    dt: float | None = None,
    sample_every: float = 0.0,
) -> HerderDecayReport:
    """Closed-loop herder transport from an off-reference start.

    Integrates the continuity equation driven by the analytic control flux
    (gradient of the potential solve), so the density error contracts at
    exactly the control gain; the report carries the fitted rate for
    comparison. Masses must match, otherwise the offset cannot decay, and
    the horizon must be finite and hold at least one step.
    Signed fields are accepted: a perturbation around a reference whose
    minimum is zero dips below zero.

    The error coefficients obey e' = -S e, one equation per wavenumber, so
    one RK4 step multiplies them by the step's stability polynomial
    R(-dt S), which the RK4 helper gives as one step of a unit error.
    Sampled errors are L2 norms by Parseval; the density is transformed
    back once, at the end. On an even grid the twin keeps the error the
    law cannot move: S is 0 on the three Nyquist checkerboards and below
    the gain elsewhere on the Nyquist row and column, so such content
    decays slower or not at all (the agent loop's ``herder_error``
    projects the checkerboards out; the twin does not).
    """
    grid = rho_h0.grid
    m0 = mass(rho_h0)
    if abs(m0 - mass(rho_bar_h)) > 1e-6 * max(abs(m0), 1e-300):
        raise ValueError("initial and reference herder masses differ")
    if dt is None:
        dt = min(0.05 / gain, 0.01)
    n_steps = _step_count(horizon, dt)
    if sample_every <= 0:
        sample_every = max(horizon / 60.0, dt)
    stride = max(1, int(round(sample_every / dt)))

    m = grid.m
    phi, _ = poisson_solve(ScalarField(grid, np.eye(1, m * m).reshape(m, m)), gain)
    symbol = _symbol(-divergence(gradient(phi)).values)[0]
    amplification = _rk4(lambda e: -symbol * e, np.ones_like(symbol), dt)

    err_hat, times, errors = _sampled(
        lambda e: amplification * e, rfft2(rho_h0.values - rho_bar_h.values), dt,
        n_steps, stride, lambda e: np.sqrt(_norm_sq(e, grid)), last=True)
    fitted = _fit_decay_rate(times, errors)
    deviation = abs(fitted - gain) / gain if np.isfinite(fitted) else np.inf
    rho = rho_bar_h.values + irfft2(err_hat, m)
    drift = abs(float(rho.sum()) * grid.cell_area - m0) / max(abs(m0), 1e-300)
    return HerderDecayReport(times, errors, gain, fitted, deviation, drift, n_steps)


@dataclass
class TargetDecayReport:
    times: np.ndarray
    error_sq: np.ndarray  # ||e(t)||_2^2
    envelope: np.ndarray  # ||e(0)||_2^2 * exp(-rate * t)
    stability: StabilityReport
    bounded: bool | None  # None when the sufficient condition does not apply
    mass_drift: float
    steps: int  # RK4 steps taken


def verify_target_convergence(
    rho_t0: DensityField,
    rho_bar_t: DensityField,
    diffusion: float,
    horizon: float,
    velocity: VectorField | None = None,
    dt: float | None = None,
    sample_every: float = 0.1,
) -> TargetDecayReport:
    """Feed-forward target transport against the exponential envelope.

    The convection field is frozen: either passed directly (such as the
    kernel convolved with a fixed herder density), or by default the
    analytic equilibrium field of ``rho_bar_t``, which makes the reference
    an exact stationary state, isolating the decay-envelope check from
    deconvolution residue. The squared error is compared against
    exp(-rate*t) with the rate from the log-density curvature bound; the
    comparison is only asserted (``bounded``) when the bound applies. The
    step lands on the sampling instants without exceeding the stability
    bound; an explicit ``dt`` above the bound raises, as does a horizon that
    is not finite or holds less than one step. Calls on references of equal
    values share the report's curvature field, whose values are read-only.
    """
    grid = rho_t0.grid
    report, ref_hat, equilibrium = _reference(rho_bar_t, diffusion)
    v = velocity if velocity is not None else equilibrium
    if v.grid.m != grid.m:
        raise ValueError("velocity grid differs from the density grid")

    v_max = float(np.sqrt((v.values**2).sum(axis=0)).max())
    bound = stable_dt(grid.h, diffusion, v_max)
    if dt is None:
        dt = 0.8 * bound
    elif dt > bound:
        raise ValueError(f"dt {dt:.3e} exceeds the stability bound {bound:.3e}")
    stride = max(1, int(round(sample_every / dt)), int(sample_every / bound) + 1)
    dt = sample_every / stride
    n_steps = _step_count(horizon, dt)

    m = grid.m
    symbols = _step_symbols(m, diffusion)
    rho_hat, times, err_sq = _sampled(
        lambda r: _rk4(lambda y: _transport(symbols, y, lambda _: v.values), r, dt),
        rfft2(rho_t0.values), dt, n_steps, stride,
        lambda r: _norm_sq(r - ref_hat, grid), last=False)
    envelope = err_sq[0] * np.exp(-report.rate * times)
    bounded = bool(np.all(err_sq <= envelope * (1.0 + 1e-9))) if report.certified else None
    m0 = mass(rho_t0)
    rho = irfft2(rho_hat, m)
    drift = abs(float(rho.sum()) * grid.cell_area - m0) / max(abs(m0), 1e-300)
    return TargetDecayReport(times, err_sq, envelope, replace(report), bounded, drift,
                             n_steps)
