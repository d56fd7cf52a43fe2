"""Uniform periodic grids, quadrature, circular convolution and spectral calculus.

All fields live on a regular M x M lattice covering [-pi, pi)^2 with step
h = 2*pi/M; index [i, j] addresses the node (-pi + i*h, -pi + j*h). Every
spectral routine uses one transform convention: ``rfft2`` of the real
field, unnormalized, and ``irfft2`` back, on the half-plane of axis-1
wavenumbers 0 .. M//2. Operators multiply these coefficients by the
torus's integer wavenumbers, from one cached table per grid size; that is
exact for band-limited fields, while a product or quotient of fields is
not band-limited and aliases.

Every transform in the package goes through this module's :func:`rfft2`
and :func:`irfft2`. They call the 1-D pocketfft gufuncs behind ``np.fft``
(numpy >= 2.0) directly, with the normalization factors ``np.fft`` passes
(1 forward, 1/n inverse), so they give ``np.fft.rfft2``/``irfft2``'s bits.
The forward transform writes its axis-0 pass into the buffer of its axis-1
pass. ``np.fft``'s Python wrapper (argument checks, axis normalization,
norm lookup, output allocation) adds about 5.5 us to each 1-D call: 8.9
against 3.3 us for a 4 x 4 ``rfft`` (timeit, 2-core x86_64 host). That
was a fifth to a third of a 64^2 2-D transform, and a 5-step target
driver call makes 84 such calls.

Two-component fields (velocities, fluxes, kernel samples) are stored
components first, (2, M, M): that is the stack the transforms take and
give, so no operator converts layouts. Point coordinates (``nodes()``,
agent positions, displacements) are components last, (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .torus import PI, TWO_PI

# Spectral advection can undershoot zero by ringing; densities tolerate
# dips down to -RINGING_TOL times their peak and fail beyond that.
RINGING_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """M x M uniform lattice on the periodic square."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, Integral):
            raise ValueError("grid size must be an integer")
        if self.m < 4:
            raise ValueError("grid needs at least 4 cells per side")

    @property
    def h(self) -> float:
        return TWO_PI / self.m

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def axis(self) -> np.ndarray:
        return -PI + np.arange(self.m) * self.h

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (M, M, 2): points, so components last."""
        x1, x2 = np.meshgrid(self.axis(), self.axis(), indexing="ij")
        return np.stack([x1, x2], axis=-1)


_LAST, _ROWS = [(-1,), (), (-1,)], [(-2,), (), (-2,)]  # gufunc axes: (n), () -> (m)


def rfft2(values: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2`` of a stack of real fields (..., M, N), bit for bit."""
    n = values.shape[-1]
    rfft = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
    out = np.empty(values.shape[:-1] + (n // 2 + 1,), dtype=complex)
    rfft(values, 1.0, axes=_LAST, out=out)
    return _pocketfft.fft(out, 1.0, axes=_ROWS, out=out)


def irfft2(coeffs: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.irfft2(coeffs, s=(m, m))`` of a stack of (..., m, K) coefficients,
    bit for bit, into ``out`` if given; columns past m//2 are dropped and
    missing ones read as 0."""
    rows = np.empty(coeffs.shape, dtype=complex)
    _pocketfft.ifft(coeffs, 1.0 / coeffs.shape[-2], axes=_ROWS, out=rows)
    if out is None:
        out = np.empty(coeffs.shape[:-1] + (m,))
    return _pocketfft.irfft(rows, 1.0 / m, axes=_LAST, out=out)


def wavenumbers(m: int) -> np.ndarray:
    """Integer wavenumbers of an M-point periodic axis in FFT order.

    Same order as ``np.fft.fftfreq(m) * m`` (0, 1, ..., then the negative
    half; the Nyquist mode of an even grid is -M/2), but built from
    integers: that float product is not integral for many M (6.999... at
    M = 24, 48, 96), so truncating it drops modes.
    """
    return (np.arange(m) + m // 2) % m - m // 2


class HalfPlane:
    """Operator multipliers on the ``rfft2`` half-plane of one grid size.

    Arrays follow ``np.fft.rfft2``'s layout (M, M//2 + 1): rows hold the
    axis-0 wavenumbers in FFT order, columns the axis-1 wavenumbers
    0 .. M//2.

    - ``ik``, shape (2, M, M//2 + 1): i*k_c, the derivative along axis c.
      On an even grid the Nyquist wavenumber -M/2 has no +M/2 partner, so
      i*k times its coefficient is not the coefficient of a real field;
      its derivative is set to 0, which is what taking the real part of a
      complex inverse transform does.
    - ``neg_ksq``: -|k|^2, the Laplacian.
    - ``inv_ksq``: 1/|k|^2, with 0 at k = 0.
    - ``parseval``, shape (M//2 + 1,): how often each column occurs in the
      full plane, so sum(parseval * |c|^2) is the full-plane sum of |c|^2.
    """

    def __init__(self, m: int):
        half = m // 2 + 1
        k1 = wavenumbers(m).astype(float)[:, None]
        k2 = np.arange(half, dtype=float)[None, :]
        ksq = k1 * k1 + k2 * k2
        self.neg_ksq = -ksq
        self.inv_ksq = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
        if m % 2 == 0:
            k1[m // 2] = 0.0
            k2[:, m // 2] = 0.0
        self.ik = 1j * np.stack(np.broadcast_arrays(k1, k2))
        self.parseval = np.full(half, 2.0)
        self.parseval[0] = 1.0
        if m % 2 == 0:
            self.parseval[-1] = 1.0
        for table in (self.neg_ksq, self.inv_ksq, self.ik, self.parseval):
            table.flags.writeable = False  # shared by every caller through the cache


@lru_cache(maxsize=None)
def half_plane(m: int) -> HalfPlane:
    return HalfPlane(m)


@dataclass
class ScalarField:
    """Signed scalar samples on a grid (errors, potentials, divergences)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.m, self.grid.m)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass
class DensityField(ScalarField):
    """Nonnegative scalar field (mass per unit area)."""

    def __post_init__(self):
        super().__post_init__()
        peak = float(self.values.max())
        floor = -RINGING_TOL * peak if peak > 0 else 0.0
        if float(self.values.min()) < floor:
            raise ValueError(
                f"density minimum {self.values.min():.3e} below ringing floor {floor:.3e}"
            )


@dataclass
class VectorField:
    """Two-component field (velocities, fluxes), values shape (2, M, M)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (2, self.grid.m, self.grid.m)
        if self.values.shape != expected:
            raise ValueError(f"field shape {self.values.shape} != grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def mass(field: ScalarField) -> float:
    """Total integral h^2 * sum(values); Riemann = trapezoid on a periodic grid."""
    return float(field.values.sum() * field.grid.cell_area)


def l2_norm(field) -> float:
    """Grid L2 norm sqrt(h^2 * sum(values^2)); accepts scalar or vector fields."""
    return float(np.sqrt(np.sum(field.values**2) * field.grid.cell_area))


def gradient(field: ScalarField) -> VectorField:
    """Spectral gradient: one ``rfft2``/``irfft2`` pair serves both components."""
    m = field.grid.m
    return VectorField(field.grid, irfft2(half_plane(m).ik * rfft2(field.values), m))


def divergence(field: VectorField) -> ScalarField:
    m = field.grid.m
    fhat = rfft2(field.values)
    fhat *= half_plane(m).ik
    return ScalarField(field.grid, irfft2(fhat[0] + fhat[1], m))


def laplacian(field: ScalarField) -> ScalarField:
    m = field.grid.m
    lhat = half_plane(m).neg_ksq * rfft2(field.values)
    return ScalarField(field.grid, irfft2(lhat, m))


def kernel_symbol(kernel_samples: np.ndarray) -> np.ndarray:
    """Quadrature symbol of a sampled two-component kernel, (2, M, M//2 + 1).

    ``kernel_samples`` (2, M, M) must come from
    :func:`swarmherd.kernel.sample_on_grid` (entry [:, i, j] = kernel at the
    displacement of node (i, j) from node (0, 0)). The symbol is h^2 times
    the ``rfft2`` of each component; h^2 is the quadrature weight, so
    multiplying a density's coefficients by it convolves the density as the
    direct double sum over the nodes does.
    """
    kernel_samples = np.asarray(kernel_samples, dtype=float)
    m = kernel_samples.shape[-1]
    if kernel_samples.shape != (2, m, m):
        raise ValueError(f"kernel samples shape {kernel_samples.shape} is not (2, M, M)")
    symbol = rfft2(kernel_samples)
    symbol *= GridSpec(m).cell_area
    return symbol


def circular_convolve(symbol: np.ndarray, rho: ScalarField) -> VectorField:
    """Circular convolution of a density with a kernel given by its
    :func:`kernel_symbol` on the same grid."""
    m = rho.grid.m
    if symbol.shape != (2, m, m // 2 + 1):
        raise ValueError(f"kernel symbol shape {symbol.shape} does not match grid "
                         f"({m}, {m})")
    return VectorField(rho.grid, irfft2(symbol * rfft2(rho.values), m))


def poisson_solve(rhs: ScalarField, gain: float) -> tuple[ScalarField, float]:
    """Solve the control potential problem on the torus.

    Returns ``phi`` with Fourier coefficients gain * c_m / |m|^2 (zero-mode
    coefficient set to zero), which satisfies
    ``laplacian(phi) = -gain * (rhs - mean(rhs))`` to spectral accuracy.
    The mean of ``rhs`` is always projected out -- the periodic problem is
    solvable only for zero-mean sources -- and its magnitude is returned so
    callers can assert it is numerical noise.
    """
    if not 0 < gain < np.inf:  # also false for NaN
        raise ValueError("gain must be positive and finite")
    m = rhs.grid.m
    chat = rfft2(rhs.values)
    removed_mean = float(np.real(chat[0, 0]) / (m * m))
    phihat = gain * chat * half_plane(m).inv_ksq
    return ScalarField(rhs.grid, irfft2(phihat, m)), removed_mean


def _resample_axis(coeffs: np.ndarray, m_new: int) -> np.ndarray:
    """Zero-pad or truncate FFT-ordered coefficients along axis 0.

    The wavenumbers both grids hold are copied by slice. Upsampling an even
    grid splits its unpaired -M/2 mode evenly onto -M/2 and +M/2;
    downsampling onto an even grid folds +M/2, which it cannot hold, onto
    -M/2.
    """
    m_old = coeffs.shape[0]
    m = min(m_old, m_new)
    pos = (m + 1) // 2  # wavenumbers 0 .. pos - 1
    neg = m - pos  # wavenumbers -neg .. -1
    out = np.zeros((m_new,) + coeffs.shape[1:], dtype=complex)
    out[:pos] = coeffs[:pos]
    out[m_new - neg:] = coeffs[m_old - neg:]
    if m % 2 == 0:
        half = m // 2
        if m_new > m_old:
            out[half] = out[-half] = 0.5 * coeffs[half]
        else:
            out[-half] += coeffs[half]
    return out


def resample(field: ScalarField, m_new: int) -> ScalarField:
    """Trigonometric interpolation of a field onto another grid size.

    Zero-pads (or truncates) the ``rfft2`` coefficients: rows through
    :func:`_resample_axis`, columns by the slice ``irfft2`` takes at the new
    size. Column M/2 of the smaller, even grid stands for +M/2 and, as its
    Hermitian mirror, for -M/2: upsampling halves it (the split), and
    downsampling doubles it (the fold), because ``irfft2`` keeps only the
    real part of the Nyquist column's axis-0 inverse, half its sum with its
    mirror. The mean, and hence the mass, is preserved exactly.
    """
    m_old = field.grid.m
    new_grid = GridSpec(m_new)
    if m_new == m_old:
        return ScalarField(new_grid, field.values.copy())
    coeffs = _resample_axis(rfft2(field.values), m_new)
    m = min(m_old, m_new)
    if m % 2 == 0:
        coeffs[:, m // 2] *= 0.5 if m_new > m_old else 2.0
    coeffs *= (m_new / m_old) ** 2
    return ScalarField(new_grid, irfft2(coeffs, m_new))
