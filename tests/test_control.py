import numpy as np
import pytest

from oracles import curl
from swarmherd import (
    DensityField,
    GridSpec,
    KdeParams,
    ScalarField,
    control_field,
    divergence,
    estimate_density,
    herder_error,
    l2_norm,
    mass,
    sample_at_herders,
    speed_limit,
    wrap,
)
from swarmherd.control import DENSITY_FLOOR
from swarmherd.grids import VectorField

PI = np.pi


@pytest.fixture
def grid():
    return GridSpec(64)


def uniform_density(grid, total=0.28):
    return DensityField(grid, np.full((grid.m, grid.m), total / (4 * PI**2)))


# ---------------------------------------------------------------------------
# herder error
# ---------------------------------------------------------------------------


def test_error_zero_when_matched(grid):
    rho = uniform_density(grid)
    err = herder_error(rho, rho)
    np.testing.assert_array_equal(err.values, 0.0)


def test_error_antisymmetric_in_arguments(grid):
    rng = np.random.default_rng(0)
    a_vals = rng.uniform(0.5, 1.5, (grid.m, grid.m))
    a_vals *= 0.28 / (a_vals.sum() * grid.cell_area)
    b = uniform_density(grid)
    a = DensityField(grid, a_vals)
    np.testing.assert_allclose(
        herder_error(a, b).values, -herder_error(b, a).values, atol=1e-15
    )


def test_error_zero_mean_after_mass_matched_estimate(grid):
    rng = np.random.default_rng(1)
    agents = rng.uniform(-PI, PI, (60, 2))
    est = estimate_density(agents, KdeParams(bandwidth=0.4), grid, mass=0.28)
    err = herder_error(uniform_density(grid), est)
    assert abs(err.values.mean()) < 1e-6 * l2_norm(err)


def test_error_near_zero_for_lattice_at_large_bandwidth(grid):
    side = 10
    coords = -PI + (np.arange(side) + 0.5) * (2 * PI / side)
    x1, x2 = np.meshgrid(coords, coords, indexing="ij")
    agents = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    est = estimate_density(agents, KdeParams(bandwidth=2.0), grid, mass=0.28)
    err = herder_error(uniform_density(grid), est)
    uniform_level = 0.28 / (4 * PI**2)
    assert np.abs(err.values).max() < 0.01 * uniform_level


def test_error_rejects_mass_mismatch(grid):
    a = uniform_density(grid, total=0.28)
    b = uniform_density(grid, total=0.30)
    with pytest.raises(ValueError, match="mass"):
        herder_error(a, b)


# ---------------------------------------------------------------------------
# control field
# ---------------------------------------------------------------------------


def test_zero_error_gives_zero_velocity(grid):
    rho = uniform_density(grid)
    sol = control_field(ScalarField(grid, np.zeros((grid.m, grid.m))), rho, 10.0)
    np.testing.assert_allclose(sol.velocity.values, 0.0, atol=1e-14)


def test_single_mode_solution(grid):
    # error cos(x1) against a uniform density: potential cos(x1), flux
    # (-sin(x1), 0), velocity scaled by the inverse density level
    m_h = 0.28
    rho = uniform_density(grid, m_h)
    x1 = grid.nodes()[..., 0]
    err = ScalarField(grid, np.cos(x1))
    sol = control_field(err, rho, gain=1.0)
    np.testing.assert_allclose(sol.potential.values, np.cos(x1), atol=1e-12)
    np.testing.assert_allclose(sol.flux.values[0], -np.sin(x1), atol=1e-12)
    np.testing.assert_allclose(sol.flux.values[1], 0.0, atol=1e-12)
    # velocity = flux / density level m_h / (4 pi^2); compared in flux units,
    # since a relative bound cannot hold on the rows where sin(x1) is 0 or
    # rounds to 1e-16
    np.testing.assert_allclose(
        sol.velocity.values[0] * m_h / (4 * PI**2), -np.sin(x1), atol=1e-12
    )


def test_flux_divergence_matches_error(grid):
    rng = np.random.default_rng(2)
    agents = rng.uniform(-PI, PI, (50, 2))
    est = estimate_density(agents, KdeParams(bandwidth=0.5), grid, mass=0.3)
    err = herder_error(uniform_density(grid, 0.3), est)
    gain = 10.0
    sol = control_field(err, est, gain)
    target = -gain * (err.values - err.values.mean())
    np.testing.assert_allclose(divergence(sol.flux).values, target,
                               atol=1e-8 * np.abs(target).max())


def test_flux_is_curl_free(grid):
    rng = np.random.default_rng(3)
    agents = rng.uniform(-PI, PI, (50, 2))
    est = estimate_density(agents, KdeParams(bandwidth=0.5), grid, mass=0.3)
    err = herder_error(uniform_density(grid, 0.3), est)
    sol = control_field(err, est, 5.0)
    flux_scale = np.abs(sol.flux.values).max()
    assert np.abs(curl(sol.flux).values).max() < 1e-10 * max(flux_scale, 1e-300)


def test_gain_linearity(grid):
    rho = uniform_density(grid)
    x1 = grid.nodes()[..., 0]
    err = ScalarField(grid, 0.1 * np.cos(2 * x1))
    u1 = control_field(err, rho, 1.0).velocity.values
    u2 = control_field(err, rho, 2.0).velocity.values
    np.testing.assert_allclose(u2, 2 * u1, rtol=1e-12)


def test_rejects_nonpositive_density(grid):
    vals = np.full((grid.m, grid.m), 1.0)
    vals[0, 0] = 0.0
    rho = DensityField(grid, vals)
    err = ScalarField(grid, np.zeros((grid.m, grid.m)))
    with pytest.raises(ValueError):
        control_field(err, rho, 1.0)


def test_rejects_a_gain_not_positive_and_finite(grid):
    # an infinite gain made every command non-finite, far from its cause
    err = ScalarField(grid, np.zeros((grid.m, grid.m)))
    for gain in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="control gain must be positive and finite"):
            control_field(err, uniform_density(grid), gain)


def test_floor_share_counts_the_floored_nodes(grid):
    zero = ScalarField(grid, np.zeros((grid.m, grid.m)))
    assert control_field(zero, uniform_density(grid), 1.0).floor_share == 0.0
    vals = np.full((grid.m, grid.m), 1.0)
    vals[:3, 0] = DENSITY_FLOOR  # at the floor counts
    vals[5, 5] = 1e-300
    vals[6, 6] = 2 * DENSITY_FLOOR  # above it does not
    sol = control_field(zero, DensityField(grid, vals), 1.0)
    assert sol.floor_share == 4 / grid.m**2


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_on_nodes_returns_node_values(grid):
    rng = np.random.default_rng(4)
    field = VectorField(grid, rng.standard_normal((2, grid.m, grid.m)))
    idx = [(0, 0), (5, 40), (63, 1)]
    pts = np.array([grid.nodes()[i] for i in idx])
    out = sample_at_herders(field, pts)
    for row, (i, j) in enumerate(idx):
        np.testing.assert_allclose(out[row], field.values[:, i, j], atol=1e-12)


def test_sampling_constant_field(grid):
    c = np.array([0.3, -1.2])
    field = VectorField(grid, np.tile(c[:, None, None], (1, grid.m, grid.m)))
    rng = np.random.default_rng(5)
    pts = rng.uniform(-PI, PI, (40, 2))
    out = sample_at_herders(field, pts)
    np.testing.assert_allclose(out, np.tile(c, (40, 1)), atol=1e-12)


def test_sampling_midpoint_of_linear_patch(grid):
    # a field linear in x1 over one cell: midpoint value = node average
    vals = np.zeros((2, grid.m, grid.m))
    vals[0] = np.arange(grid.m)[:, None]  # linear in the x1 index
    field = VectorField(grid, vals)
    node = grid.nodes()[10, 10]
    mid = node + np.array([grid.h / 2, 0.0])
    out = sample_at_herders(field, mid[None, :])
    assert out[0, 0] == pytest.approx(10.5, rel=1e-12)


def test_sampling_periodic_across_seam(grid):
    rng = np.random.default_rng(6)
    field = VectorField(grid, rng.standard_normal((2, grid.m, grid.m)))
    shift = 2 * PI * np.array([1.0, -1.0])
    # dyadic points with |x| <= 27/16: x +- 2*pi is exact in float64, so
    # wrap recovers x and sampling must be bit-equal
    axis = np.arange(-27, 28) / 16
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_array_equal(wrap(lattice + shift), lattice)
    np.testing.assert_array_equal(sample_at_herders(field, lattice + shift),
                                  sample_at_herders(field, lattice))
    # at general points x + shift is rounded before wrap sees it: where wrap
    # still recovers x sampling is bit-equal; elsewhere the bilinear
    # interpolant moves by at most its largest node step per cell times the
    # distance in cells, which is the rounding of x plus up to 2 eps M of
    # rounding in each evaluation's cell coordinate (x + pi) * M / (2 pi)
    pts = rng.uniform(-PI, PI, (30, 2))
    a = sample_at_herders(field, pts)
    b = sample_at_herders(field, pts + shift)
    moved = np.abs(wrap(pts + shift) - pts)
    same = np.all(moved == 0, axis=1)
    np.testing.assert_array_equal(a[same], b[same])
    eps = np.finfo(float).eps
    cells = moved / grid.h + 4 * eps * grid.m
    for c in range(2):
        v = field.values[c]
        step = [np.abs(v - np.roll(v, 1, axis=ax)).max() for ax in range(2)]
        bound = cells @ step + 4 * eps * np.abs(v).max()
        assert np.all(np.abs(a[:, c] - b[:, c]) <= bound)


def test_sampling_equals_per_point_bilinear_formula(grid):
    # both components are sampled in one broadcast; each value must equal
    # the scalar formula, same operations in the same order, bit for bit
    rng = np.random.default_rng(8)
    field = VectorField(grid, rng.standard_normal((2, grid.m, grid.m)))
    pts = rng.uniform(-PI, PI, (40, 2))
    out = sample_at_herders(field, pts)
    for (x, y), got in zip(pts, out):
        sx, sy = (x + PI) * (grid.m / (2 * PI)), (y + PI) * (grid.m / (2 * PI))
        i, j = int(np.floor(sx)), int(np.floor(sy))
        fx, fy = sx - i, sy - j
        i, j = i % grid.m, j % grid.m
        i1, j1 = (i + 1) % grid.m, (j + 1) % grid.m
        for c in range(2):
            v = field.values[c]
            ref = (v[i, j] * (1 - fx) * (1 - fy) + v[i1, j] * fx * (1 - fy)
                   + v[i, j1] * (1 - fx) * fy + v[i1, j1] * fx * fy)
            assert got[c] == ref


def test_sampling_matches_smooth_field_between_nodes(grid):
    x = grid.nodes()
    vals = np.stack([np.sin(x[..., 0]), np.cos(x[..., 1])])
    field = VectorField(grid, vals)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-PI, PI, (20, 2))
    exact = np.stack([np.sin(pts[:, 0]), np.cos(pts[:, 1])], axis=-1)
    np.testing.assert_allclose(sample_at_herders(field, pts), exact, atol=5e-3)


# ---------------------------------------------------------------------------
# speed limit
# ---------------------------------------------------------------------------


def test_speed_limit_cases():
    v_max = 2.0
    cmds = np.array([
        [0.0, 0.0],
        [0.0, 4.0],   # twice the cap
        [0.6, 0.8],   # half the cap
    ])
    out = speed_limit(cmds, v_max)
    np.testing.assert_allclose(out[0], [0.0, 0.0])
    np.testing.assert_allclose(out[1], [0.0, 2.0], rtol=1e-12)
    np.testing.assert_allclose(out[2], [0.6, 0.8], rtol=1e-12)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= v_max + 1e-12)


def test_speed_limit_preserves_direction():
    rng = np.random.default_rng(8)
    cmds = rng.standard_normal((50, 2)) * 5
    out = speed_limit(cmds, 1.0)
    cross = cmds[:, 0] * out[:, 1] - cmds[:, 1] * out[:, 0]
    np.testing.assert_allclose(cross, 0.0, atol=1e-12)
    assert np.all(np.einsum("ij,ij->i", cmds, out) >= 0)


def test_speed_limit_validation():
    with pytest.raises(ValueError):
        speed_limit(np.zeros((1, 2)), 0.0)


# ---------------------------------------------------------------------------
# even-grid Nyquist checkerboards: zero flux, projected out of the error
# ---------------------------------------------------------------------------


def checkerboards(m):
    i = np.arange(m)
    return [np.outer((-1.0) ** i, np.ones(m)), np.outer(np.ones(m), (-1.0) ** i),
            np.outer((-1.0) ** i, (-1.0) ** i)]


@pytest.mark.parametrize("m", [8, 16, 64])
def test_checkerboard_error_gives_zero_flux(m):
    g = GridSpec(m)
    rho = uniform_density(g)
    boards = sum(w * b for w, b in zip((0.3, -0.2, 0.5), checkerboards(m)))
    sol = control_field(ScalarField(g, boards), rho, gain=10.0)
    assert np.abs(sol.flux.values).max() <= 1e-13
    # an error made of checkerboards alone is no error to the law
    est = DensityField(g, rho.values * (1 + 0.1 * boards))
    raw = rho.values - est.values
    assert np.abs(herder_error(rho, est).values).max() <= 1e-13 * np.abs(raw).max()


def fft_projection(values):
    """Reference: zero the three checkerboard coefficients of the full FFT."""
    m = values.shape[0]
    c = np.fft.fft2(values)
    c[m // 2, 0] = c[0, m // 2] = c[m // 2, m // 2] = 0.0
    return np.real(np.fft.ifft2(c))


@pytest.mark.parametrize("m", [16, 32, 64])
def test_projection_removes_exactly_the_checkerboards(m):
    g = GridSpec(m)
    rng = np.random.default_rng(m)
    ref = uniform_density(g)
    level = ref.values[0, 0]
    bump = rng.standard_normal((m, m)) + sum(checkerboards(m))
    est = DensityField(g, level * (1 + 0.1 * (bump - bump.mean())))
    raw = ref.values - est.values
    err = herder_error(ref, est).values
    scale = np.abs(raw).max()
    assert np.abs(err - fft_projection(raw)).max() <= 1e-13 * scale
    coeffs = np.fft.fft2(err)
    for k in [(m // 2, 0), (0, m // 2), (m // 2, m // 2)]:
        assert abs(coeffs[k]) <= 1e-13 * m * m * scale
    # the commands do not change beyond rounding
    with_boards = control_field(ScalarField(g, raw), est, 10.0).velocity.values
    without = control_field(ScalarField(g, err), est, 10.0).velocity.values
    assert np.abs(without - with_boards).max() <= 1e-12 * np.abs(with_boards).max()


@pytest.mark.parametrize("m", [9, 33, 63])
def test_odd_grid_error_is_the_plain_difference(m):
    g = GridSpec(m)
    rng = np.random.default_rng(m)
    ref = uniform_density(g)
    bump = rng.uniform(-0.1, 0.1, (m, m))
    est = DensityField(g, ref.values * (1 + bump - bump.mean()))
    assert np.array_equal(herder_error(ref, est).values, ref.values - est.values)
