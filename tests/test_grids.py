import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import curl
from swarmherd import (
    DensityField,
    GridSpec,
    KernelParams,
    ScalarField,
    VectorField,
    circular_convolve,
    control_field,
    desired_velocity_field,
    divergence,
    gradient,
    kernel_symbol,
    l2_norm,
    laplacian,
    mass,
    poisson_solve,
    resample,
    sample_at_herders,
    sample_on_grid,
)
from swarmherd.grids import _resample_axis, half_plane, irfft2, rfft2, wavenumbers
from swarmherd.kernel import kernel_periodic
from swarmherd.torus import wrap

PI = np.pi


def band_limited(grid: GridSpec, rng, kmax=None) -> np.ndarray:
    """Random real field supported on |m_i| <= kmax (default M/4)."""
    m = grid.m
    kmax = kmax if kmax is not None else m // 4
    coeffs = np.zeros((m, m), dtype=complex)
    freqs = np.rint(np.fft.fftfreq(m) * m).astype(int)  # truncation drops modes
    for i, f1 in enumerate(freqs):
        for j, f2 in enumerate(freqs):
            if abs(f1) <= kmax and abs(f2) <= kmax:
                coeffs[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    vals = np.real(np.fft.ifft2(coeffs)) * m * m
    return vals


# ---------------------------------------------------------------------------
# grid and mass
# ---------------------------------------------------------------------------


def test_grid_step_times_cells_is_period():
    for m in (16, 25, 64):
        g = GridSpec(m)
        assert g.h * m == pytest.approx(2 * PI, rel=1e-15)
        assert g.axis()[0] == -PI
        assert g.axis().shape == (m,)


def test_mass_of_normalized_uniform_is_one():
    g = GridSpec(32)
    f = DensityField(g, np.full((32, 32), 1.0 / (4 * PI**2)))
    assert mass(f) == pytest.approx(1.0, rel=1e-14)


def test_mass_of_zero_field():
    g = GridSpec(16)
    assert mass(DensityField(g, np.zeros((16, 16)))) == 0.0


def test_density_rejects_negative_beyond_ringing():
    g = GridSpec(16)
    vals = np.full((16, 16), 1.0)
    vals[0, 0] = -1e-4
    with pytest.raises(ValueError):
        DensityField(g, vals)
    vals[0, 0] = -1e-9  # within the spectral ringing allowance
    DensityField(g, vals)


def test_field_shape_and_finite_validation():
    g = GridSpec(16)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        ScalarField(g, np.full((16, 16), np.nan))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((16, 16)))


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def test_gradient_single_mode():
    g = GridSpec(32)
    x1 = g.nodes()[..., 0]
    out = gradient(ScalarField(g, np.cos(x1)))
    np.testing.assert_allclose(out.values[0], -np.sin(x1), atol=1e-12)
    np.testing.assert_allclose(out.values[1], 0.0, atol=1e-12)


def test_laplacian_eigenfunctions():
    g = GridSpec(32)
    x1, x2 = g.nodes()[..., 0], g.nodes()[..., 1]
    f = ScalarField(g, np.cos(x1) + np.cos(2 * x2))
    out = laplacian(f)
    np.testing.assert_allclose(out.values, -np.cos(x1) - 4 * np.cos(2 * x2),
                               atol=1e-11)


def test_divergence_of_gradient_is_laplacian():
    g = GridSpec(32)
    rng = np.random.default_rng(5)
    f = ScalarField(g, band_limited(g, rng))
    lhs = divergence(gradient(f)).values
    rhs = laplacian(f).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


def test_parseval_consistency():
    g = GridSpec(32)
    rng = np.random.default_rng(6)
    f = ScalarField(g, rng.standard_normal((32, 32)))
    c = np.fft.rfft2(f.values) / (32 * 32)
    coef_norm_sq = 4 * PI**2 * np.sum(half_plane(32).parseval * np.abs(c) ** 2)
    assert l2_norm(f) ** 2 == pytest.approx(coef_norm_sq, rel=1e-10)


def test_coefficients_hermitian_for_real_fields():
    # the half-plane's self-mirrored columns, 0 and the even-grid Nyquist
    # column, are Hermitian along axis 0: c[-k1, k2] = conj(c[k1, k2])
    rng = np.random.default_rng(8)
    c = np.fft.rfft2(rng.standard_normal((16, 16))) / (16 * 16)
    for col in (0, 8):
        np.testing.assert_allclose(c[-np.arange(16), col], np.conj(c[:, col]),
                                   atol=1e-14)


# ---------------------------------------------------------------------------
# circular convolution
# ---------------------------------------------------------------------------


def direct_quadrature_convolution(samples: np.ndarray, rho: np.ndarray,
                                  h2: float) -> np.ndarray:
    """Independent oracle: double-sum quadrature of the convolution integral."""
    m = rho.shape[0]
    out = np.zeros((2, m, m))
    for i1 in range(m):
        for i2 in range(m):
            acc = np.zeros(2)
            for j1 in range(m):
                for j2 in range(m):
                    acc += samples[:, (i1 - j1) % m, (i2 - j2) % m] * rho[j1, j2]
            out[:, i1, i2] = h2 * acc
    return out


def test_fft_convolution_matches_direct_quadrature():
    g = GridSpec(16)
    params = KernelParams(length=PI, images=2)
    samples = sample_on_grid(g, params)
    rng = np.random.default_rng(9)
    rho_vals = rng.uniform(0.1, 1.0, size=(16, 16))
    rho = DensityField(g, rho_vals)
    fft_result = circular_convolve(kernel_symbol(samples), rho).values
    direct = direct_quadrature_convolution(samples, rho_vals, g.cell_area)
    rel = np.abs(fft_result - direct).max() / np.abs(direct).max()
    assert rel < 1e-10


def test_odd_kernel_annihilates_uniform_density():
    g = GridSpec(64)
    symbol = kernel_symbol(sample_on_grid(g, KernelParams(length=PI, images=2)))
    rho = DensityField(g, np.full((64, 64), 1.0 / (4 * PI**2)))
    out = circular_convolve(symbol, rho)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-16)


def test_convolution_delta_identity():
    g = GridSpec(25)
    params = KernelParams(length=PI, images=2)
    samples = sample_on_grid(g, params)
    m_delta = 0.7
    rho_vals = np.zeros((25, 25))
    j = (3, 8)
    rho_vals[j] = m_delta / g.cell_area
    out = circular_convolve(kernel_symbol(samples), DensityField(g, rho_vals)).values
    expected = m_delta * np.roll(samples, shift=j, axis=(1, 2))
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_convolution_linear_in_density():
    g = GridSpec(16)
    symbol = kernel_symbol(sample_on_grid(g, KernelParams(length=2.0, images=1)))
    rng = np.random.default_rng(10)
    r1 = ScalarField(g, rng.standard_normal((16, 16)))
    r2 = ScalarField(g, rng.standard_normal((16, 16)))
    combo = ScalarField(g, 2.0 * r1.values - 0.5 * r2.values)
    lhs = circular_convolve(symbol, combo).values
    rhs = 2.0 * circular_convolve(symbol, r1).values \
        - 0.5 * circular_convolve(symbol, r2).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_convolution_rejects_grid_mismatch():
    g = GridSpec(16)
    symbol = kernel_symbol(sample_on_grid(GridSpec(25), KernelParams(length=PI)))
    with pytest.raises(ValueError):
        circular_convolve(symbol, DensityField(g, np.ones((16, 16))))
    for shape in [(16, 16), (3, 16, 16), (2, 16, 25)]:
        with pytest.raises(ValueError, match="not \\(2, M, M\\)"):
            kernel_symbol(np.ones(shape))


# ---------------------------------------------------------------------------
# Poisson solve
# ---------------------------------------------------------------------------


def test_poisson_single_mode():
    g = GridSpec(32)
    x1 = g.nodes()[..., 0]
    phi, removed = poisson_solve(ScalarField(g, np.cos(x1)), gain=1.0)
    np.testing.assert_allclose(phi.values, np.cos(x1), atol=1e-12)
    assert abs(removed) < 1e-14


def test_poisson_mode_two_with_gain():
    g = GridSpec(32)
    x1 = g.nodes()[..., 0]
    phi, _ = poisson_solve(ScalarField(g, np.cos(2 * x1)), gain=10.0)
    np.testing.assert_allclose(phi.values, (10.0 / 4.0) * np.cos(2 * x1), atol=1e-11)


def test_poisson_constant_source_gives_zero_potential():
    g = GridSpec(16)
    phi, removed = poisson_solve(ScalarField(g, np.full((16, 16), 3.7)), gain=2.0)
    np.testing.assert_allclose(phi.values, 0.0, atol=1e-13)
    assert removed == pytest.approx(3.7, rel=1e-12)


def test_poisson_laplacian_round_trip():
    g = GridSpec(32)
    rng = np.random.default_rng(12)
    e = rng.standard_normal((32, 32))
    gain = 7.0
    phi, _ = poisson_solve(ScalarField(g, e), gain)
    lhs = laplacian(phi).values
    rhs = -gain * (e - e.mean())
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-8


def test_poisson_requires_positive_gain():
    g = GridSpec(16)
    for gain in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gain must be positive and finite"):
            poisson_solve(ScalarField(g, np.zeros((16, 16))), gain=gain)


# ---------------------------------------------------------------------------
# real-FFT operators against full-plane complex transforms
# ---------------------------------------------------------------------------


def complex_reference(m: int) -> dict:
    """Each operator as a full-plane complex FFT, the real part taken.

    Wavenumbers include the even grid's Nyquist -M/2; taking the real part
    drops its derivative, the convention the operators (and the density
    twin's symbols) keep.
    """
    k = np.rint(np.fft.fftfreq(m) * m)
    k1, k2 = k[:, None], k[None, :]
    ksq = k1**2 + k2**2
    inv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
    f2, back = np.fft.fft2, lambda c: np.real(np.fft.ifft2(c))
    h2 = (2 * PI / m) ** 2
    return {
        "gradient": lambda f, v: np.stack([back(1j * k1 * f2(f)), back(1j * k2 * f2(f))]),
        "divergence": lambda f, v: back(1j * k1 * f2(v[0]) + 1j * k2 * f2(v[1])),
        "laplacian": lambda f, v: back(-ksq * f2(f)),
        "curl": lambda f, v: back(1j * k1 * f2(v[1]) - 1j * k2 * f2(v[0])),
        "poisson_solve": lambda f, v: back(3.0 * f2(f) * inv),
        "circular_convolve": lambda f, v: np.stack(
            [back(f2(v[c]) * f2(f)) * h2 for c in range(2)]),
    }


def nyquist_rich(m: int, rng) -> np.ndarray:
    """White noise plus Nyquist-row, Nyquist-column and corner checkerboards."""
    i = np.arange(m)
    values = rng.standard_normal((m, m))
    if m % 2 == 0:
        row, col = (-1.0) ** i[:, None], (-1.0) ** i[None, :]
        x = GridSpec(m).axis()
        values += 3 * row * np.cos(x)[None, :] + 2 * col * np.sin(2 * x)[:, None]
        values += row * col
    return values


@pytest.mark.parametrize("m", [9, 16, 25, 64])
def test_operators_match_complex_fft_reference(m):
    g = GridSpec(m)
    rng = np.random.default_rng(70 + m)
    f = nyquist_rich(m, rng)
    v = np.stack([nyquist_rich(m, rng), nyquist_rich(m, rng)])
    got = {
        "gradient": gradient(ScalarField(g, f)).values,
        "divergence": divergence(VectorField(g, v)).values,
        "laplacian": laplacian(ScalarField(g, f)).values,
        "curl": curl(VectorField(g, v)).values,
        "poisson_solve": poisson_solve(ScalarField(g, f), 3.0)[0].values,
        "circular_convolve": circular_convolve(kernel_symbol(v), ScalarField(g, f)).values,
    }
    for name, reference in complex_reference(m).items():
        ref = reference(f, v)
        assert got[name].shape == ref.shape, name
        assert np.abs(got[name] - ref).max() <= 1e-13 * np.abs(ref).max(), name
    assert poisson_solve(ScalarField(g, f), 3.0)[1] == pytest.approx(f.mean(), abs=1e-15)


def test_even_grid_nyquist_derivative_is_zero():
    g = GridSpec(16)
    i = np.arange(16)
    checker = ScalarField(g, (-1.0) ** i[:, None] + (-1.0) ** i[None, :])
    np.testing.assert_allclose(gradient(checker).values, 0.0, atol=1e-14)
    # the Laplacian is even in k, so it keeps the mode: -(M/2)^2 per axis
    np.testing.assert_allclose(laplacian(checker).values, -64.0 * checker.values,
                               atol=1e-11)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def test_resample_preserves_band_limited_fields():
    g25 = GridSpec(25)
    x = g25.nodes()
    vals = 1.0 + 0.5 * np.cos(x[..., 0]) + 0.25 * np.sin(2 * x[..., 1])
    fine = resample(ScalarField(g25, vals), 64)
    xf = GridSpec(64).nodes()
    expected = 1.0 + 0.5 * np.cos(xf[..., 0]) + 0.25 * np.sin(2 * xf[..., 1])
    np.testing.assert_allclose(fine.values, expected, atol=1e-12)


def test_resample_preserves_mass():
    g = GridSpec(25)
    rng = np.random.default_rng(14)
    f = ScalarField(g, rng.uniform(0.0, 1.0, size=(25, 25)))
    up = resample(f, 64)
    assert mass(up) == pytest.approx(mass(f), rel=1e-12)


def test_resample_round_trip_band_limited():
    g = GridSpec(16)
    rng = np.random.default_rng(15)
    f = ScalarField(g, band_limited(g, rng, kmax=4))
    back = resample(resample(f, 48), 16)
    np.testing.assert_allclose(back.values, f.values, atol=1e-11)


_sizes = st.integers(4, 40)
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(m_old=_sizes, m_new=_sizes, seed=_seeds)
@example(m_old=25, m_new=64, seed=0)  # odd -> even, the plan's path
@example(m_old=16, m_new=25, seed=0)  # even -> odd
@example(m_old=16, m_new=48, seed=0)  # even -> even
@example(m_old=48, m_new=16, seed=0)  # downsampling onto an even grid
@example(m_old=64, m_new=25, seed=0)  # downsampling onto an odd grid
def test_resample_preserves_mass_any_sizes(m_old, m_new, seed):
    rng = np.random.default_rng(seed)
    f = ScalarField(GridSpec(m_old), rng.uniform(0.0, 1.0, size=(m_old, m_old)))
    assert mass(resample(f, m_new)) == pytest.approx(mass(f), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(m_old=_sizes, m_new=_sizes, seed=_seeds)
@example(m_old=16, m_new=25, seed=0)
@example(m_old=48, m_new=16, seed=0)
def test_resample_round_trips_band_limited_any_sizes(m_old, m_new, seed):
    # modes both grids hold survive the trip there and back
    rng = np.random.default_rng(seed)
    g = GridSpec(m_old)
    f = band_limited(g, rng, kmax=(min(m_old, m_new) - 1) // 2)
    back = resample(resample(ScalarField(g, f), m_new), m_old)
    np.testing.assert_allclose(back.values, f, atol=1e-11 * max(1.0, np.abs(f).max()))


@settings(max_examples=40, deadline=None)
@given(m_old=_sizes, extra=st.integers(1, 24), seed=_seeds)
@example(m_old=16, extra=1, seed=0)
def test_resample_up_and_down_recovers_any_field(m_old, extra, seed):
    # upsampling splits an even grid's -M/2 mode onto +-M/2 and
    # downsampling folds it back, so even the Nyquist mode survives
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((m_old, m_old))
    back = resample(resample(ScalarField(GridSpec(m_old), f), m_old + extra), m_old)
    np.testing.assert_allclose(back.values, f, atol=1e-12)


def full_plane_resample(values: np.ndarray, m_new: int) -> np.ndarray:
    """Reference: zero-pad or truncate the full-plane fft2 coefficients
    c = fft2(values) / M^2, one axis at a time, then synthesize."""
    m_old = values.shape[0]
    if m_new == m_old:
        return values.copy()

    def axis0(c):
        m = min(m_old, m_new)
        k_new, k_old = wavenumbers(m_new), wavenumbers(m_old)
        out = np.zeros((m_new,) + c.shape[1:], dtype=complex)
        for k in range(-((m - 1) // 2), (m - 1) // 2 + 1):  # paired on both grids
            out[k_new == k] = c[k_old == k]
        if m % 2 == 0:
            h = m // 2
            if m_new > m_old:  # split the unpaired -M/2 mode onto +-M/2
                out[k_new == h] = out[k_new == -h] = 0.5 * c[k_old == -h]
            else:  # fold +M/2 onto -M/2
                out[k_new == -h] = c[k_old == -h] + c[k_old == h]
        return out

    c = axis0(axis0(np.fft.fft2(values) / m_old**2).T).T
    return np.real(np.fft.ifft2(c)) * m_new**2


_wide_sizes = st.integers(4, 70)


@settings(max_examples=80, deadline=None)
@given(m_old=_wide_sizes, m_new=_wide_sizes, seed=_seeds)
@example(m_old=25, m_new=64, seed=0)  # odd -> even up, the plan's path
@example(m_old=16, m_new=25, seed=0)  # even -> odd up
@example(m_old=16, m_new=48, seed=0)  # even -> even up
@example(m_old=21, m_new=33, seed=0)  # odd -> odd up
@example(m_old=70, m_new=16, seed=0)  # even -> even down
@example(m_old=64, m_new=25, seed=0)  # even -> odd down
@example(m_old=33, m_new=20, seed=0)  # odd -> even down
@example(m_old=45, m_new=9, seed=0)  # odd -> odd down
def test_resample_matches_full_plane_reference(m_old, m_new, seed):
    f = np.random.default_rng(seed).standard_normal((m_old, m_old))
    expected = full_plane_resample(f, m_new)
    got = resample(ScalarField(GridSpec(m_old), f), m_new).values
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


# ---------------------------------------------------------------------------
# the package's real-FFT pair against numpy's n-d transforms
# ---------------------------------------------------------------------------


def laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """A new array of ``a``'s values: C-contiguous, read-only, transposed in
    memory (Fortran order in the last two axes) or a strided slice."""
    if layout == "transposed":
        return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
    if layout == "strided":
        big = np.zeros(a.shape[:-2] + (2 * a.shape[-2], 3 * a.shape[-1]), dtype=a.dtype)
        big[..., ::2, ::3] = a
        return big[..., ::2, ::3]
    out = a.copy()
    out.flags.writeable = layout != "read-only"
    return out


_layouts = st.sampled_from(["contiguous", "read-only", "transposed", "strided"])


@settings(max_examples=80, deadline=None)
@given(m=_wide_sizes, lead=st.lists(st.integers(1, 3), max_size=2), seed=_seeds,
       layout=_layouts)
@example(m=4, lead=[], seed=0, layout="contiguous")
@example(m=64, lead=[2], seed=0, layout="contiguous")  # a flux stack on the control grid
@example(m=33, lead=[2, 2], seed=0, layout="contiguous")  # the actuated step's fluxes
@example(m=64, lead=[], seed=0, layout="read-only")  # a memo's reference coefficients
@example(m=16, lead=[2], seed=0, layout="transposed")
@example(m=25, lead=[3], seed=0, layout="strided")
def test_real_fft_pair_matches_numpy_bit_for_bit(m, lead, seed, layout):
    base = np.random.default_rng(seed).standard_normal((*lead, m, m))
    coeffs = np.fft.rfft2(base)
    values, given_coeffs = laid_out(base, layout), laid_out(coeffs, layout)
    assert np.array_equal(rfft2(values), coeffs)
    assert np.array_equal(irfft2(given_coeffs, m), np.fft.irfft2(coeffs, s=(m, m)))
    assert np.array_equal(values, base) and np.array_equal(given_coeffs, coeffs)


def numpy_resample(values: np.ndarray, m_new: int) -> np.ndarray:
    """``resample`` as written on numpy's n-d transforms, for the bit check."""
    m_old = values.shape[0]
    coeffs = _resample_axis(np.fft.rfft2(values), m_new)
    m = min(m_old, m_new)
    if m % 2 == 0:
        coeffs[:, m // 2] *= 0.5 if m_new > m_old else 2.0
    coeffs *= (m_new / m_old) ** 2
    return np.fft.irfft2(coeffs, s=(m_new, m_new))


@settings(max_examples=80, deadline=None)
@given(m_old=_wide_sizes, m_new=_wide_sizes, seed=_seeds)
@example(m_old=25, m_new=64, seed=0)  # odd -> even up, the plan's path
@example(m_old=16, m_new=48, seed=0)  # even -> even up
@example(m_old=70, m_new=16, seed=0)  # even -> even down
@example(m_old=33, m_new=20, seed=0)  # odd -> even down
def test_resample_bit_identical_to_numpy_transforms(m_old, m_new, seed):
    f = np.random.default_rng(seed).standard_normal((m_old, m_old))
    got = resample(ScalarField(GridSpec(m_old), f), m_new).values
    expected = f if m_new == m_old else numpy_resample(f, m_new)
    assert np.array_equal(got, expected)


def test_two_component_fields_are_contiguous_components_first():
    # every two-component grid field is (2, M, M), C-contiguous, as the
    # transforms take and give it; sampled commands are points, (n, 2)
    g = GridSpec(16)
    rng = np.random.default_rng(11)
    rho = DensityField(g, 1.0 + 0.5 * rng.uniform(size=(16, 16)))
    samples = sample_on_grid(g, KernelParams())
    solution = control_field(ScalarField(g, rng.standard_normal((16, 16))), rho, 1.0)
    fields = {
        "gradient": gradient(rho).values,
        "circular_convolve": circular_convolve(kernel_symbol(samples), rho).values,
        "desired_velocity_field": desired_velocity_field(rho, 0.1).values,
        "control_field": solution.velocity.values,
        "sample_on_grid": samples,
    }
    for name, values in fields.items():
        assert values.shape == (2, 16, 16), name
        assert values.flags.c_contiguous, name
    assert sample_at_herders(solution.velocity, rng.uniform(-PI, PI, (7, 2))).shape == (7, 2)
