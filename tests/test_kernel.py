import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import kernel_free
from swarmherd import (DeconvolutionOperator, GridSpec, KernelParams, kernel_periodic,
                       kernel_symbol, wrap)
from swarmherd.grids import irfft2
from swarmherd.kernel import MAX_IMAGES, image_shifts, sample_on_grid
from swarmherd.torus import FieldError

PI = np.pi


@pytest.fixture
def params():
    return KernelParams(length=PI, images=2)


def test_free_kernel_direct_value(params):
    out = kernel_free(np.array([1.0, 0.0]), params)
    np.testing.assert_allclose(out, [np.exp(-1.0 / PI), 0.0], rtol=1e-14)


def test_free_kernel_zero_at_origin(params):
    np.testing.assert_array_equal(kernel_free(np.zeros(2), params), [0.0, 0.0])


def test_free_kernel_odd(params):
    np.testing.assert_allclose(
        kernel_free(np.array([-1.0, 0.0]), params), [-np.exp(-1.0 / PI), 0.0],
        rtol=1e-14,
    )
    rng = np.random.default_rng(0)
    x = rng.uniform(-4, 4, size=(100, 2))
    np.testing.assert_allclose(kernel_free(-x, params), -kernel_free(x, params),
                               atol=1e-15)


def test_periodic_zero_at_origin(params):
    np.testing.assert_allclose(kernel_periodic(np.zeros(2), params), [0.0, 0.0],
                               atol=1e-15)


def test_periodic_reduces_to_free_with_no_images():
    p0 = KernelParams(length=PI, images=0)
    rng = np.random.default_rng(1)
    x = rng.uniform(-PI, PI - 1e-9, size=(50, 2))
    np.testing.assert_allclose(kernel_periodic(x, p0), kernel_free(x, p0),
                               rtol=1e-14)


@pytest.mark.parametrize("images", [0, 1, 2, 3])
def test_periodic_equals_sum_of_free_kernel_images(images):
    # same terms, same order, same arithmetic: equal bit for bit
    params = KernelParams(length=1.7, images=images)
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-9.0, 9.0, size=(300, 2)), np.zeros((1, 2)),
                        [[PI, -PI], [0.0, 2 * PI]]])
    arr = wrap(x)
    expected = np.zeros_like(arr)
    for shift in image_shifts(images):
        expected += kernel_free(arr + shift, params)
    np.testing.assert_array_equal(kernel_periodic(x, params), expected)
    np.testing.assert_array_equal(kernel_periodic(x[7], params), expected[7])


def test_periodic_seam_component_bounded_by_truncation_tail(params):
    # at the seam the symmetric images cancel; what remains is the window
    # asymmetry, which shrinks with the image count
    v2 = kernel_periodic(np.array([PI, 0.0]), params)
    assert abs(v2[0]) < 0.02
    v4 = kernel_periodic(np.array([PI, 0.0]), KernelParams(length=PI, images=4))
    assert abs(v4[0]) < abs(v2[0]) / 10


def test_periodic_odd_off_seam(params):
    rng = np.random.default_rng(2)
    x = rng.uniform(-3.0, 3.0, size=(200, 2))
    np.testing.assert_allclose(
        kernel_periodic(wrap(-x), params), -kernel_periodic(x, params), atol=1e-14
    )


def jacobian_norm_bound(x, dist, params):
    """Bound on |dK/dx| (spectral norm) of ``kernel_periodic`` within ``dist`` of x.

    One image term (d/r) exp(-r/L) has Jacobian eigenvalues exp(-r/L)/r
    across d and -exp(-r/L)/L along it, and both shrink as r grows.
    """
    d = x[:, None, :] + image_shifts(params.images)[None]
    r = np.sqrt(np.sum(d * d, axis=-1)) - dist[:, None]
    return np.sum(np.exp(-r / params.length) * np.maximum(1 / r, 1 / params.length),
                  axis=1)


def test_periodic_exactly_periodic(params):
    shifts = ([2 * PI, 0.0], [0.0, -2 * PI], [4 * PI, 2 * PI])
    # dyadic points with |x| <= 27/16: x + 2*pi*n stays in the binade of
    # 2*pi*n, so every shift below is exact in float64 and so must be the
    # kernel's periodicity
    axis = np.arange(-27, 28) / 16
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for shift in shifts:
        shifted = lattice + np.array(shift)
        np.testing.assert_array_equal(wrap(shifted), lattice)
        np.testing.assert_array_equal(
            kernel_periodic(shifted, params), kernel_periodic(lattice, params)
        )
    # at general points x + 2*pi*n is rounded before wrap sees it: where
    # wrap still recovers x the kernel is bit-equal; elsewhere it moves by
    # at most its slope times the rounding of x, plus two ulps of the
    # summed image-term sizes for the rounding of each evaluation
    rng = np.random.default_rng(3)
    x = rng.uniform(-PI, PI, size=(100, 2))
    base = kernel_periodic(x, params)
    terms = kernel_free(x[:, None, :] + image_shifts(params.images)[None], params)
    rounding = 4 * np.finfo(float).eps * np.sqrt(np.sum(terms**2, axis=-1)).sum(axis=1)
    for shift in shifts:
        shifted = x + np.array(shift)
        dist = np.sqrt(np.sum((wrap(shifted) - x) ** 2, axis=-1))
        diff = np.abs(kernel_periodic(shifted, params) - base)
        np.testing.assert_array_equal(diff[dist == 0], 0.0)
        bound = jacobian_norm_bound(x, dist, params) * dist + rounding
        assert np.all(diff <= bound[:, None])


def test_image_shifts_block(params):
    shifts = image_shifts(2)
    assert shifts.shape == (25, 2)
    assert (np.abs(shifts) <= 2 * 2 * PI).all()
    assert any((s == 0).all() for s in shifts)


def test_grid_samples_exactly_odd(params):
    for m in (16, 25):  # even grid has a seam row, odd does not
        grid = GridSpec(m)
        samples = sample_on_grid(grid, params)
        mirrored = np.roll(samples[:, ::-1, ::-1], 1, axis=(1, 2))
        np.testing.assert_array_equal(samples, -mirrored)
        np.testing.assert_allclose(samples[:, 0, 0], [0.0, 0.0], atol=1e-15)


_lengths = st.floats(0.3, 10.0)
_rings = st.integers(0, 3)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(5, 70), length=_lengths, images=_rings)
@example(m=64, length=PI, images=2)  # the control grid
@example(m=25, length=PI, images=2)  # the deconvolution grid
def test_grid_samples_odd_any_size(m, length, images):
    samples = sample_on_grid(GridSpec(m), KernelParams(length=length, images=images))
    mirrored = np.roll(samples[:, ::-1, ::-1], 1, axis=(1, 2))
    np.testing.assert_array_equal(samples, -mirrored)


@settings(max_examples=100, deadline=None)
@given(d=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                elements=st.floats(-PI, PI, exclude_min=True, exclude_max=True)),
       length=_lengths, images=_rings)
def test_periodic_kernel_odd_to_summation_rounding(d, length, images):
    # -d sums the same image terms negated, in reverse order; only the
    # rounding of the sum can differ
    params = KernelParams(length=length, images=images)
    terms = kernel_free(d[:, None, :] + image_shifts(images)[None], params)
    largest = np.sqrt(np.sum(terms**2, axis=-1)).max(axis=1)
    bound = (2 * images + 1) ** 2 * np.finfo(float).eps * largest
    odd_miss = np.abs(kernel_periodic(-d, params) + kernel_periodic(d, params))
    assert np.all(odd_miss <= bound[:, None])


def mirror_averaged_samples(grid, params):
    """The image sum at every wrapped lattice displacement, then averaged
    with its mirror: 0.5 * (K(d) - K(-d)), which makes it exactly odd."""
    d = wrap(np.arange(grid.m) * grid.h)
    d1, d2 = np.meshgrid(d, d, indexing="ij")
    samples = np.moveaxis(kernel_periodic(np.stack([d1, d2], axis=-1), params), -1, 0)
    return 0.5 * (samples - np.roll(samples[:, ::-1, ::-1], 1, axis=(1, 2)))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(5, 70), length=_lengths, images=_rings)
@example(m=64, length=PI, images=2)
@example(m=25, length=PI, images=2)
@example(m=70, length=10.0, images=3)  # the widest tail, the most rounding
def test_grid_samples_match_mirror_averaged_image_sum(m, length, images):
    grid, params = GridSpec(m), KernelParams(length=length, images=images)
    samples = sample_on_grid(grid, params)
    expected = mirror_averaged_samples(grid, params)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-14 * scale)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(5, 70), length=_lengths, images=_rings)
@example(m=16, length=PI, images=2)
def test_grid_samples_swap_symmetric_with_odd_rows_zero(m, length, images):
    # K_y(d1, d2) = K_x(d2, d1), and an odd component is 0 where d1 and -d1
    # are the same node: row 0, and row M/2 of an even grid
    samples = sample_on_grid(GridSpec(m), KernelParams(length=length, images=images))
    np.testing.assert_array_equal(samples[1], samples[0].T)
    self_mirrored = [0, m // 2] if m % 2 == 0 else [0]
    np.testing.assert_array_equal(samples[0, self_mirrored, :], 0.0)
    np.testing.assert_array_equal(samples[1, :, self_mirrored], 0.0)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(5, 70), length=_lengths, images=_rings)
@example(m=64, length=PI, images=2)
@example(m=25, length=PI, images=2)
@example(m=70, length=10.0, images=3)
def test_kernel_symbol_imaginary_and_inverts_to_samples(m, length, images):
    # the samples are exactly odd, so only rounding makes the symbol's real part
    grid, params = GridSpec(m), KernelParams(length=length, images=images)
    samples = sample_on_grid(grid, params)
    symbol = kernel_symbol(samples)
    assert symbol.shape == (2, m, m // 2 + 1)
    assert np.abs(symbol.real).max() <= 1e-15 * np.abs(symbol).max()
    back = irfft2(symbol, m) / grid.cell_area
    np.testing.assert_allclose(back, samples, rtol=0, atol=1e-14 * np.abs(samples).max())
    assert np.array_equal(DeconvolutionOperator.build(grid, params).symbol, symbol)


def test_grid_samples_match_pointwise_kernel_off_seam():
    params = KernelParams(length=PI, images=2)
    grid = GridSpec(25)
    samples = sample_on_grid(grid, params)
    d = wrap(np.arange(25) * grid.h)
    for i, j in [(1, 2), (7, 20), (12, 13)]:
        np.testing.assert_allclose(
            samples[:, i, j], kernel_periodic(np.array([d[i], d[j]]), params),
            atol=1e-15,
        )


def test_params_validation():
    with pytest.raises(ValueError):
        KernelParams(length=0.0)
    with pytest.raises(ValueError):
        KernelParams(length=1.0, images=-1)


def test_image_rings_bounded():
    # the drift's tail table sums (2P+1)^2 - 1 shifts: 3.4 s to build at 20 rings
    assert KernelParams(images=MAX_IMAGES).images == 12
    with pytest.raises(FieldError, match="<= 12") as err:
        KernelParams(images=13)
    assert err.value.field == "images"
