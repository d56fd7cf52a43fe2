"""Desired densities, spectral deconvolution, and herder-mass feasibility.

The pipeline: pick the desired target density (a von Mises bump matching a
circular goal region), derive the drift field D grad(log rho) that holds it
in equilibrium, deconvolve that field against the interaction kernel to get
the herder density that produces it, and shift the result to be
nonnegative. The mass of the shifted density is the smallest herder mass
for which the problem is solvable, and fixes the herder head count. The
convolution is circulant, so the deconvolution is diagonal in Fourier
space.

The drift is taken spectrally, as i*k times the coefficients of log rho.
The log of a von Mises density is a trigonometric polynomial of degree
<= 2, so on grids of 5 or more nodes this drift is exact to rounding. The
equal quotient D grad(rho)/rho is not: the density's truncated spectrum,
divided by a density that falls to exp(-4k) of its peak, aliases (on 25^2
at k = 6 the quotient's minimal mass per unit D is 2333, not 83.3).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grids import (
    DensityField,
    GridSpec,
    ScalarField,
    VectorField,
    half_plane,
    irfft2,
    kernel_symbol,
    laplacian,
    mass,
    resample,
    rfft2,
)
from .kernel import KernelParams, sample_on_grid
from .torus import PI, FieldError, wrap

# Least-squares deconvolutions with a relative residual above this are
# reported as ill-posedness warnings.
RESIDUAL_WARN = 0.05

# Singular values below RCOND times the largest are dropped by the
# pseudo-inverse.
RCOND = 1e-8


class InfeasibleError(RuntimeError):
    """The required herder mass reaches or exceeds the total available mass."""

    def __init__(self, min_mass: float):
        super().__init__(
            f"minimal herder mass {min_mass:.4f} >= 1: no herder count can "
            "realize the desired target density"
        )
        self.min_mass = min_mass


@dataclass(frozen=True)
class GoalRegion:
    """Circular containment region: center point and radius (radians).

    This is the config's ``goal`` section. The center is stored wrapped
    into [-pi, pi)^2.
    """

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = PI / 2

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (2,):
            raise FieldError("center", "goal center must be a 2-vector")
        object.__setattr__(self, "center", tuple(map(float, wrap(center))))
        if not 0 < self.radius < PI:
            raise FieldError("radius", "goal radius must lie in (0, pi)")


# -ln of the smallest normal float64, 708.40. Past it the exponent of a
# von Mises bump spans more than float64's range: its smallest value,
# exp(-span) of its peak, is subnormal or zero, and the plan goes wrong
# (concentration 186 planned min_mass 25.82, 187 planned 77.37, 190 failed).
MAX_EXPONENT_SPAN = -math.log(np.finfo(float).tiny)


def max_concentration(cross_term: bool = False) -> float:
    """The largest k of a (k, k) target: its exponent spans 4 k, or 4 k + 4
    with ``cross_term``, and that must not exceed ``MAX_EXPONENT_SPAN``
    (k <= 177.10, or 176.10)."""
    return (MAX_EXPONENT_SPAN - 4.0 * cross_term) / 4.0


@dataclass(frozen=True, eq=False)
class VonMisesSpec:
    """Periodic bump density: Z * exp(k1*cos(x1-mu) + k2*cos(x2-nu)).

    ``cross_term`` adds the unit-weight reshaping term
    cos(x1-mu)*cos(x1-nu) + sin(x2-mu)*sin(x2-nu) to the exponent; the
    separable form is the default since it matches a centered circular
    goal. Z is fixed by quadrature so the density integrates to ``mass``.
    """

    concentration: tuple[float, float]
    mean: np.ndarray
    mass: float = 1.0
    cross_term: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mean", wrap(np.asarray(self.mean, dtype=float)))
        if self.mean.shape != (2,):
            raise ValueError("mean must be a 2-vector")
        k1, k2 = self.concentration
        if not (k1 > 0 and k2 > 0):
            raise ValueError("concentrations must be positive")
        if 2.0 * (k1 + k2) + 4.0 * self.cross_term > MAX_EXPONENT_SPAN:
            raise ValueError(f"concentrations ({k1:g}, {k2:g}) span more than float64's "
                             "range: the density's smallest value would not be a "
                             "normal float")
        if not self.mass > 0:
            raise ValueError("mass must be positive")

    @classmethod
    def from_goal(cls, goal: GoalRegion, total_mass: float = 1.0,
                  cross_term: bool = False) -> "VonMisesSpec":
        """Concentration 3/r puts nearly all mass inside the goal circle."""
        k = 3.0 / goal.radius
        return cls(concentration=(k, k), mean=goal.center, mass=total_mass,
                   cross_term=cross_term)


def von_mises_density(spec: VonMisesSpec, grid: GridSpec) -> DensityField:
    """Sample the bump density on the grid, normalized to spec.mass."""
    k1, k2 = spec.concentration
    values = _von_mises_values(k1, k2, spec.mean, grid, spec.cross_term)
    values *= spec.mass / (values.sum() * grid.cell_area)
    return DensityField(grid, values)


def _von_mises_values(k1: np.ndarray, k2: np.ndarray, mean: np.ndarray,
                      grid: GridSpec, cross_term: bool = False) -> np.ndarray:
    """Unnormalized bumps with peak 1 for a stack of concentrations.

    ``k1`` and ``k2`` broadcast to a stack shape S; returns (*S, M, M).
    """
    mu, nu = mean
    k1 = np.asarray(k1)[..., None, None]
    k2 = np.asarray(k2)[..., None, None]
    x1 = grid.axis()[:, None]
    x2 = grid.axis()[None, :]
    expo = k1 * np.cos(x1 - mu) + k2 * np.cos(x2 - nu)
    if cross_term:
        # unit-weight reshaping term; both means enter each coordinate
        expo = expo + np.cos(x1 - mu) * np.cos(x1 - nu) + np.sin(x2 - mu) * np.sin(x2 - nu)
    expo -= expo.max(axis=(-2, -1), keepdims=True)
    return np.exp(expo, out=expo)


def desired_velocity_field(rho_bar_t: DensityField, diffusion: float) -> VectorField:
    """Drift field D * grad(log rho) that keeps ``rho_bar_t`` in equilibrium,
    taken spectrally: one ``rfft2`` of log rho and one ``irfft2``."""
    vhat = _equilibrium_drift(rho_bar_t.values, diffusion)
    return VectorField(rho_bar_t.grid, irfft2(vhat, rho_bar_t.grid.m))


def _equilibrium_drift(rho: np.ndarray, diffusion: float) -> np.ndarray:
    """Fourier coefficients of D * grad(log rho) for a stack of densities.

    (..., M, M) -> (..., 2, M, M//2 + 1), on the ``rfft2`` half-plane. The
    drift does not depend on the densities' scale.
    """
    low = rho.min()
    if low <= 0:
        bad = int(np.count_nonzero(rho <= 0))
        raise ValueError(
            f"desired velocity needs a strictly positive density; "
            f"{bad} grid nodes are <= 0 (min {low:.3e})"
        )
    lhat = rfft2(np.log(rho))
    lhat *= diffusion
    return half_plane(rho.shape[-1]).ik * lhat[..., None, :, :]


@dataclass
class DeconvolutionOperator:
    """Quadrature form of kernel convolution, diagonal in Fourier space.

    rho -> h^2 * sum_j K_c(x_i - x_j) rho_j is circulant for each component
    c, so the 2D DFT diagonalizes it: the operator is its
    :func:`~swarmherd.grids.kernel_symbol`, shape (2, M, M//2 + 1), which
    holds the whole spectrum because the kernel samples are real. ``svd()``
    returns its singular values s = sqrt(|K1^|^2 + |K2^|^2), one per
    half-plane wavenumber, as an (M, M//2 + 1) array computed on each call.
    """

    grid: GridSpec
    kernel: KernelParams
    symbol: np.ndarray

    @classmethod
    def build(cls, grid: GridSpec, kernel: KernelParams) -> "DeconvolutionOperator":
        symbol = kernel_symbol(sample_on_grid(grid, kernel))
        return cls(grid=grid, kernel=kernel, symbol=symbol)

    def svd(self) -> np.ndarray:
        power = self.symbol.real ** 2 + self.symbol.imag ** 2
        return np.sqrt(power.sum(axis=0))


@dataclass
class DeconvolutionResult:
    """Minimum-norm least-squares preimage of a velocity field."""

    field: ScalarField
    residual: float  # relative, ||F h - v|| / ||v||


def deconvolve(v_bar: VectorField, op: DeconvolutionOperator) -> DeconvolutionResult:
    """Least-squares inversion of the convolution for a velocity field.

    The truncated-SVD pseudo-inverse, one wavenumber at a time:
    h^ = sum_c conj(K_c^) v_c^ / s^2 where s > RCOND * max(s), else 0. The
    kernel is odd, so constants are in the null space and the preimage is
    defined only up to an additive offset; the minimum-norm solution is
    returned. The residual comes from the same spectra (Parseval); a large
    one means the field is not realizable as a kernel convolution and is
    reported as a warning.
    """
    if v_bar.grid.m != op.grid.m:
        raise ValueError("velocity field and operator grids differ")
    h, residual = _pseudo_inverse(rfft2(v_bar.values), op)
    return DeconvolutionResult(ScalarField(op.grid, h), float(residual))


def _pseudo_inverse(vhat: np.ndarray,
                    op: DeconvolutionOperator) -> tuple[np.ndarray, np.ndarray]:
    """Preimages and relative residuals of a stack of velocity fields.

    ``vhat`` holds the fields' ``rfft2`` coefficients, shape
    (..., 2, M, M//2 + 1), and is overwritten with the misses; returns the
    preimages (..., M, M) and the residuals (...). The residual norms weight
    the half-plane's columns as Parseval does. Each residual above
    RESIDUAL_WARN gives one warning.
    """
    m = op.grid.m
    s = op.svd()
    power = s ** 2
    keep = s > RCOND * s.max()
    hhat = (np.conj(op.symbol) * vhat).sum(axis=-3)
    hhat *= keep
    np.divide(hhat, power, out=hhat, where=keep)
    weight = half_plane(m).parseval

    def norm(c: np.ndarray) -> np.ndarray:
        return np.sqrt((weight * (c.real ** 2 + c.imag ** 2)).sum(axis=(-3, -2, -1)))

    b_norm = norm(vhat)
    vhat -= op.symbol * hhat[..., None, :, :]  # now the miss
    miss = norm(vhat)
    residual = np.divide(miss, b_norm, out=np.zeros_like(miss), where=b_norm > 0)
    for r in np.ravel(residual):
        if r > RESIDUAL_WARN:
            warnings.warn(
                f"deconvolution residual {r:.2%} exceeds {RESIDUAL_WARN:.0%}: "
                "velocity field is poorly realizable by this kernel",
                stacklevel=3,
            )
    return irfft2(hhat, m), residual


@dataclass
class FeasibilityResult:
    """Nonnegative herder density and the minimum mass that realizes it."""

    rho_bar_h: DensityField
    deconvolved: ScalarField
    offset: float
    min_mass: float


def minimal_herder_mass(h: ScalarField) -> FeasibilityResult:
    """Shift the deconvolved profile to be nonnegative with minimum zero.

    The shift lives in the kernel's null space, so any constant added to
    the profile produces the same drift field; the smallest admissible
    choice pins the minimum to zero and minimizes the integral.
    """
    offset = -float(h.values.min())
    rho = DensityField(h.grid, h.values + offset)
    return FeasibilityResult(
        rho_bar_h=rho, deconvolved=h, offset=offset, min_mass=mass(rho)
    )


def herder_count(n_targets: int, min_mass: float) -> int:
    """Smallest integer herder count with mass fraction >= min_mass.

    Solves n_h / (n_h + n_t) >= min_mass, i.e. n_h = n_t * m / (1 - m),
    rounded up; values within 1e-6 of an integer snap to it first so that
    exact ratios do not ceil one head too far.
    """
    if min_mass < 0:
        raise ValueError("minimal mass cannot be negative")
    if min_mass >= 1.0:
        raise InfeasibleError(min_mass)
    if n_targets <= 0:
        raise ValueError("need a positive number of targets")
    exact = n_targets * min_mass / (1.0 - min_mass)
    nearest = round(exact)
    if abs(exact - nearest) < 1e-6 * max(1.0, abs(exact)):
        return int(nearest)
    return int(math.ceil(exact))


@dataclass
class StabilityReport:
    """Log-density curvature field and the guaranteed decay rate it yields."""

    curvature: ScalarField  # G = laplacian(log rho), spectral
    sup_norm: float
    rate: float  # D * (2 - sup_norm)
    certified: bool  # the exponential bound only holds for sup_norm < 2


def stability_margin(rho_bar_t: DensityField, diffusion: float) -> StabilityReport:
    """Sufficient-condition check for target-density convergence.

    Computes the log-density curvature G = laplacian(log rho) with one
    ``rfft2``/``irfft2`` pair. When |G|_inf < 2 the squared target error
    decays at least at rate D*(2 - |G|_inf); above 2 the condition is
    inconclusive and ``certified`` is False. The log of a von Mises density,
    with or without the cross term, is a trigonometric polynomial of degree
    <= 2, so G is exact to rounding on grids of 5 or more nodes. The equal
    form div(grad(rho)/rho) is not: the quotient is not band-limited and
    aliases (on 16^2 at k = 3.82 its sup norm is 13.9, not 2k = 7.64).
    """
    if rho_bar_t.values.min() <= 0:
        raise ValueError("stability margin needs a strictly positive density")
    curvature = laplacian(ScalarField(rho_bar_t.grid, np.log(rho_bar_t.values)))
    sup = float(np.abs(curvature.values).max())
    return StabilityReport(
        curvature=curvature,
        sup_norm=sup,
        rate=diffusion * (2.0 - sup),
        certified=sup < 2.0,
    )


def feasibility_map(
    k_values: np.ndarray,
    d_values: np.ndarray,
    kernel: KernelParams,
    grid: GridSpec,
    operator: DeconvolutionOperator | None = None,
    saturate: float = 1.0,
    *,
    center: tuple[float, float] = (0.0, 0.0),
    cross_term: bool = False,
) -> np.ndarray:
    """Minimum herder mass over a (diffusion, concentration) sweep.

    Returns a matrix with one row per diffusion value and one column per
    concentration value, saturated at ``saturate`` for plotting; values at
    the saturation level mark the infeasible region. The target of each
    column is the von Mises bump :func:`plan_herders` plans for that
    concentration, at ``center`` and with or without ``cross_term``. The
    drift field, its preimage, the offset and hence the mass are all
    linear in D, so each column is deconvolved once, at D = 1, and scaled.
    All columns go through one stacked pass: densities, drift coefficients
    (one ``rfft2``), pseudo-inverse (one ``irfft2``), offsets and masses;
    each unrealizable column gives one warning. The drift does not depend
    on the densities' scale, so they are not normalized.
    """
    k_values = np.asarray(k_values, dtype=float)
    d_values = np.asarray(d_values, dtype=float)
    if np.any(k_values <= 0) or np.any(d_values <= 0):
        raise ValueError("sweep ranges must be positive")
    op = operator if operator is not None else DeconvolutionOperator.build(grid, kernel)
    rho = _von_mises_values(k_values, k_values, center, grid, cross_term)
    h, _ = _pseudo_inverse(_equilibrium_drift(rho, 1.0), op)
    h -= h.min(axis=(-2, -1), keepdims=True)
    unit_mass = h.sum(axis=(-2, -1)) * grid.cell_area
    return np.minimum(np.outer(d_values, unit_mass), saturate)


@dataclass
class HerdingPlan:
    """Everything the closed loop needs, derived from goal and population."""

    goal: GoalRegion
    n_targets: int
    n_herders: int
    target_mass: float
    herder_mass: float
    min_mass: float
    offset: float
    residual: float
    rho_bar_t: DensityField  # control grid, integrates to target_mass
    rho_bar_h: DensityField  # control grid, integrates to herder_mass
    feasibility: FeasibilityResult  # on the deconvolution grid
    desired_velocity: VectorField  # on the deconvolution grid
    stability: StabilityReport


def plan_herders(
    goal: GoalRegion,
    n_targets: int,
    diffusion: float,
    kernel: KernelParams,
    deconv_grid: GridSpec,
    control_grid: GridSpec,
    cross_term: bool = False,
    n_herders: int | None = None,
    concentration: float | None = None,
) -> HerdingPlan:
    """Run the full feasibility pipeline and scale the reference densities.

    The drift field of the desired density does not depend on its
    normalization, so the minimal mass is computed first and the target /
    herder masses follow from the head counts; ``n_herders`` overrides the
    computed count. Herder mass above the profile's is spread as a
    constant, which the kernel does not see; an override below it scales
    the profile down.
    """
    if concentration is None:
        spec_unit = VonMisesSpec.from_goal(goal, 1.0, cross_term)
    else:
        spec_unit = VonMisesSpec(
            concentration=(concentration, concentration),
            mean=goal.center, mass=1.0, cross_term=cross_term,
        )
    rho_unit = von_mises_density(spec_unit, deconv_grid)
    v_bar = desired_velocity_field(rho_unit, diffusion)
    deconv = deconvolve(v_bar, DeconvolutionOperator.build(deconv_grid, kernel))
    feas = minimal_herder_mass(deconv.field)

    count = n_herders if n_herders is not None else herder_count(n_targets, feas.min_mass)
    if count < 0:
        raise ValueError("herder count cannot be negative")
    target_mass = n_targets / (n_targets + count)
    herder_mass = 1.0 - target_mass

    rho_bar_t = von_mises_density(replace(spec_unit, mass=target_mass), control_grid)

    fine = resample(feas.rho_bar_h, control_grid.m)
    values = np.clip(fine.values, 0.0, None)  # trig interpolation can ring below zero
    total = values.sum() * control_grid.cell_area
    if herder_mass >= total:
        # constants are in the kernel's null space: the surplus spread evenly
        # leaves K * rho_bar_h equal to the drift field
        values += (herder_mass - total) / (4 * np.pi**2)
    elif total > 0:
        values *= herder_mass / total
    rho_bar_h = DensityField(control_grid, values)

    return HerdingPlan(
        goal=goal,
        n_targets=n_targets,
        n_herders=count,
        target_mass=target_mass,
        herder_mass=herder_mass,
        min_mass=feas.min_mass,
        offset=feas.offset,
        residual=deconv.residual,
        rho_bar_t=rho_bar_t,
        rho_bar_h=rho_bar_h,
        feasibility=feas,
        desired_velocity=v_bar,
        stability=stability_margin(rho_bar_t, diffusion),
    )
