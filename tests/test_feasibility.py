import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmherd import (
    DeconvolutionOperator,
    DensityField,
    GoalRegion,
    GridSpec,
    InfeasibleError,
    KernelParams,
    ScalarField,
    VectorField,
    VonMisesSpec,
    circular_convolve,
    deconvolve,
    desired_velocity_field,
    feasibility_map,
    herder_count,
    kernel_symbol,
    l2_norm,
    mass,
    minimal_herder_mass,
    plan_herders,
    resample,
    sample_on_grid,
    stability_margin,
    von_mises_density,
)
from swarmherd import feasibility
from swarmherd.config import ExperimentConfig
from swarmherd.grids import half_plane

PI = np.pi


@pytest.fixture(scope="module")
def kernel():
    return KernelParams(length=PI, images=2)


@pytest.fixture(scope="module")
def grid25():
    return GridSpec(25)


@pytest.fixture(scope="module")
def operator(grid25, kernel):
    op = DeconvolutionOperator.build(grid25, kernel)
    op.svd()  # warm the cache once for the whole module
    return op


# ---------------------------------------------------------------------------
# von Mises target density
# ---------------------------------------------------------------------------


def test_goal_sets_concentration_six_over_pi():
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    spec = VonMisesSpec.from_goal(goal, total_mass=0.72)
    assert spec.concentration[0] == pytest.approx(6 / PI)
    assert spec.concentration[1] == pytest.approx(6 / PI)
    np.testing.assert_array_equal(spec.mean, [0.0, 0.0])


def test_von_mises_mass_and_argmax():
    goal = GoalRegion(center=np.array([0.5, -1.0]), radius=1.0)
    spec = VonMisesSpec.from_goal(goal, total_mass=0.6)
    g = GridSpec(64)
    rho = von_mises_density(spec, g)
    assert mass(rho) == pytest.approx(0.6, rel=1e-12)
    peak = np.unravel_index(np.argmax(rho.values), rho.values.shape)
    np.testing.assert_allclose(g.nodes()[peak], goal.center, atol=g.h / 2)


def test_von_mises_minimum_at_antipode():
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    rho = von_mises_density(VonMisesSpec.from_goal(goal), GridSpec(64))
    low = np.unravel_index(np.argmin(rho.values), rho.values.shape)
    node = GridSpec(64).nodes()[low]
    assert np.all(np.abs(np.abs(node) - PI) < 0.1)


def test_cross_term_variant_normalizes_too():
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    spec = VonMisesSpec.from_goal(goal, total_mass=1.0, cross_term=True)
    rho = von_mises_density(spec, GridSpec(64))
    assert mass(rho) == pytest.approx(1.0, rel=1e-12)
    assert not np.array_equal(
        rho.values, von_mises_density(VonMisesSpec.from_goal(goal), GridSpec(64)).values
    )


# ---------------------------------------------------------------------------
# equilibrium drift field
# ---------------------------------------------------------------------------


def test_uniform_density_needs_no_drift():
    g = GridSpec(32)
    rho = DensityField(g, np.full((32, 32), 0.5))
    v = desired_velocity_field(rho, diffusion=0.3)
    np.testing.assert_allclose(v.values, 0.0, atol=1e-14)


def test_log_gradient_of_single_axis_bump():
    g = GridSpec(64)
    x1 = g.nodes()[..., 0]
    k, d = 1.3, 0.05
    rho = DensityField(g, np.exp(k * np.cos(x1)))
    v = desired_velocity_field(rho, d)
    np.testing.assert_allclose(v.values[0], -d * k * np.sin(x1), atol=1e-10)
    np.testing.assert_allclose(v.values[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("m", [16, 25])
def test_cross_term_drift_is_the_analytic_log_gradient(m):
    # log rho is k1 cos(x1 - mu) + k2 cos(x2 - nu) + cos(x1 - mu) cos(x1 - nu)
    # + sin(x2 - mu) sin(x2 - nu) plus a constant: a trigonometric
    # polynomial of degree 2, whose spectral gradient is exact to rounding
    g = GridSpec(m)
    k1, k2, mu, nu, d = 5.5, 2.25, 0.7, -2.0, 0.03
    spec = VonMisesSpec(concentration=(k1, k2), mean=np.array([mu, nu]), cross_term=True)
    v = desired_velocity_field(von_mises_density(spec, g), d)
    x1, x2 = g.axis()[:, None], g.axis()[None, :]
    exact = d * np.stack(np.broadcast_arrays(
        -k1 * np.sin(x1 - mu) - np.sin(2 * x1 - mu - nu),
        -k2 * np.sin(x2 - nu) + np.sin(2 * x2 - mu - nu),
    ))
    np.testing.assert_allclose(v.values, exact, rtol=0, atol=1e-12 * np.abs(exact).max())


def test_drift_vanishes_at_density_peak():
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    g = GridSpec(64)
    rho = von_mises_density(VonMisesSpec.from_goal(goal), g)
    v = desired_velocity_field(rho, 0.01)
    i, j = np.unravel_index(np.argmax(rho.values), rho.values.shape)
    np.testing.assert_allclose(v.values[:, i, j], [0.0, 0.0], atol=1e-12)


def test_nonpositive_density_rejected():
    g = GridSpec(16)
    vals = np.full((16, 16), 1.0)
    vals[3, 3] = 0.0
    with pytest.raises(ValueError):
        desired_velocity_field(DensityField(g, vals), 0.1)


# ---------------------------------------------------------------------------
# deconvolution
# ---------------------------------------------------------------------------


def dense_operator(grid, kernel):
    """The convolution as a dense 2M^2 x M^2 matrix, stacked component-first.

    Row c*M^2 + i holds h^2 * K_c at the wrapped displacement between node i
    and every node j; the oracle for the spectral operator.
    """
    samples = sample_on_grid(grid, kernel)
    idx = np.arange(grid.m * grid.m)
    i1, i2 = idx // grid.m, idx % grid.m
    d1 = (i1[:, None] - i1[None, :]) % grid.m
    d2 = (i2[:, None] - i2[None, :]) % grid.m
    return np.vstack([grid.cell_area * samples[c, d1, d2] for c in range(2)])


def dense_deconvolve(matrix, v, rcond=1e-8):
    """Truncated-SVD least-squares solution and its relative residual."""
    b = v.ravel()  # (2, M, M): component 0, then component 1
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    keep = s > rcond * s[0]
    x = vt[keep].T @ ((u[:, keep].T @ b) / s[keep])
    return x, np.linalg.norm(matrix @ x - b) / np.linalg.norm(b), s


@pytest.mark.parametrize("m", [9, 16, 25])  # 16: the Nyquist line of an even grid
def test_spectral_operator_matches_dense_svd(kernel, m):
    grid = GridSpec(m)
    op = DeconvolutionOperator.build(grid, kernel)
    matrix = dense_operator(grid, kernel)
    rng = np.random.default_rng(40 + m)
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    rho = von_mises_density(VonMisesSpec.from_goal(goal), grid)
    realizable = {
        "plan drift": desired_velocity_field(rho, 0.01).values,
        "convolution": circular_convolve(kernel_symbol(sample_on_grid(grid, kernel)),
                                         ScalarField(grid, rng.standard_normal((m, m)))).values,
    }
    for name, v in realizable.items():
        x, residual, s = dense_deconvolve(matrix, v)
        out = deconvolve(VectorField(grid, v), op)
        assert np.abs(out.field.values.ravel() - x).max() <= 1e-12, name
        assert abs(out.residual - residual) <= 1e-12, name
    # the half-plane holds each singular value as often as Parseval counts it
    full = np.repeat(op.svd(), half_plane(m).parseval.astype(int), axis=1)
    np.testing.assert_allclose(np.sort(full.ravel()), np.sort(s), rtol=0, atol=1e-13)
    # an unrealizable field: the pseudo-inverse amplifies rounding by up to
    # 1/(rcond s_max) on both sides, so its solution is compared relative
    # to its size; the residual is still absolute
    v = rng.standard_normal((2, m, m))
    x, residual, _ = dense_deconvolve(matrix, v)
    with pytest.warns(UserWarning, match="residual"):
        out = deconvolve(VectorField(grid, v), op)
    assert np.abs(out.field.values.ravel() - x).max() <= 1e-12 * np.abs(x).max()
    assert abs(out.residual - residual) <= 1e-12


def test_deconvolve_zero_field_gives_zero(grid25, operator):
    v = VectorField(grid25, np.zeros((2, 25, 25)))
    out = deconvolve(v, operator)
    np.testing.assert_allclose(out.field.values, 0.0, atol=1e-12)


def test_deconvolve_convolve_round_trip(grid25, kernel, operator):
    x = grid25.nodes()
    test_density = (0.4 * np.cos(x[..., 0]) + 0.3 * np.sin(x[..., 1])
                    + 0.15 * np.cos(x[..., 0] + 2 * x[..., 1]))
    rho = ScalarField(grid25, test_density)
    v = circular_convolve(kernel_symbol(sample_on_grid(grid25, kernel)), rho)
    recovered = deconvolve(v, operator).field
    target = test_density - test_density.mean()
    rel = l2_norm(ScalarField(grid25, recovered.values - target)) / l2_norm(
        ScalarField(grid25, target)
    )
    assert rel < 0.02


def test_deconvolve_constant_invisible(grid25, kernel, operator):
    # constants are in the kernel's null space: shifting the density does
    # not change its convolution
    x = grid25.nodes()
    rho = ScalarField(grid25, 0.5 * np.cos(x[..., 0]))
    symbol = kernel_symbol(sample_on_grid(grid25, kernel))
    v1 = circular_convolve(symbol, rho).values
    v2 = circular_convolve(symbol, ScalarField(grid25, rho.values + 3.3)).values
    np.testing.assert_allclose(v1, v2, atol=1e-12)


def test_deconvolve_warns_on_unrealizable_field(grid25, operator):
    # a curl-free-violating noise field is not a convolution of anything
    rng = np.random.default_rng(22)
    v = VectorField(grid25, rng.standard_normal((2, 25, 25)))
    with pytest.warns(UserWarning, match="residual"):
        deconvolve(v, operator)


# ---------------------------------------------------------------------------
# minimal mass & herder count
# ---------------------------------------------------------------------------


def test_zero_profile_needs_no_herders():
    g = GridSpec(16)
    feas = minimal_herder_mass(ScalarField(g, np.zeros((16, 16))))
    assert feas.min_mass == 0.0
    assert feas.offset == 0.0
    np.testing.assert_array_equal(feas.rho_bar_h.values, 0.0)


def test_cosine_profile_offset_and_mass():
    g = GridSpec(64)
    x1 = g.nodes()[..., 0]
    feas = minimal_herder_mass(ScalarField(g, np.cos(x1)))
    assert feas.offset == pytest.approx(1.0, rel=1e-12)
    # cos integrates to zero, so the mass is that of the unit constant
    assert feas.min_mass == pytest.approx(4 * PI**2, rel=1e-12)
    assert feas.rho_bar_h.values.min() == 0.0


def test_paper_setup_minimal_mass_band(grid25, kernel, operator):
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    rho = von_mises_density(VonMisesSpec.from_goal(goal), grid25)
    v = desired_velocity_field(rho, 0.01)
    feas = minimal_herder_mass(deconvolve(v, operator).field)
    assert 0.28 == pytest.approx(feas.min_mass, rel=0.10)


def test_herder_count_examples():
    assert herder_count(720, 0.28) == 280
    assert herder_count(720, 0.0) == 0
    assert herder_count(500, 0.5) == 500


def test_herder_count_monotone_in_mass():
    counts = [herder_count(720, m) for m in np.linspace(0.0, 0.9, 40)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_herder_count_infeasible_signal():
    with pytest.raises(InfeasibleError):
        herder_count(720, 1.0)
    with pytest.raises(InfeasibleError):
        herder_count(720, 1.2)


# ---------------------------------------------------------------------------
# stability margin
# ---------------------------------------------------------------------------


def test_uniform_density_margin():
    g = GridSpec(32)
    rho = DensityField(g, np.full((32, 32), 1.0))
    rep = stability_margin(rho, diffusion=0.3)
    assert rep.sup_norm == pytest.approx(0.0, abs=1e-12)
    assert rep.rate == pytest.approx(0.6, rel=1e-12)
    assert rep.certified


def test_single_axis_bump_curvature():
    g = GridSpec(64)
    x1 = g.nodes()[..., 0]
    k = 0.7
    rho = DensityField(g, np.exp(k * np.cos(x1)))
    rep = stability_margin(rho, diffusion=0.1)
    np.testing.assert_allclose(rep.curvature.values, -k * np.cos(x1), atol=1e-9)
    assert rep.sup_norm == pytest.approx(k, rel=1e-9)


def test_separable_von_mises_sup_is_twice_k():
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    k = 6 / PI
    rho = von_mises_density(VonMisesSpec.from_goal(goal), GridSpec(64))
    rep = stability_margin(rho, diffusion=0.01)
    assert rep.sup_norm == pytest.approx(2 * k, rel=1e-6)
    assert not rep.certified  # 2k ~ 3.82 > 2: the bound does not apply here
    # G = -k (cos x1 + cos x2) reaches |G| = 2k at both the centre and the
    # antipode; rounding decides which of the two argmax returns
    nodes = GridSpec(64).nodes()
    curv = np.abs(rep.curvature.values)
    centre = np.all(np.abs(nodes) < 1e-12, axis=-1)
    antipode = np.all(np.abs(np.abs(nodes) - PI) < 1e-12, axis=-1)
    assert curv[centre] == pytest.approx([2 * k], rel=1e-6)
    assert curv[antipode] == pytest.approx([2 * k], rel=1e-6)
    peak = np.unravel_index(np.argmax(curv), curv.shape)
    assert centre[peak] or antipode[peak]


@settings(max_examples=150, deadline=None)
@given(m=st.integers(5, 64), k1=st.floats(0.5, 6.0), k2=st.floats(0.5, 6.0),
       mu=st.floats(-PI, PI), nu=st.floats(-PI, PI), cross=st.booleans())
@example(m=16, k1=6 / PI, k2=6 / PI, mu=0.0, nu=0.0, cross=False)  # 16^2 control grid
@example(m=33, k1=6.0, k2=6.0, mu=0.0, nu=0.0, cross=False)
@example(m=64, k1=6.0, k2=6.0, mu=0.0, nu=0.0, cross=True)
def test_curvature_is_exact_laplacian_of_log_von_mises(m, k1, k2, mu, nu, cross):
    # log rho is a trigonometric polynomial of degree <= 2, so its spectral
    # Laplacian is exact up to the rounding of log rho, which the largest
    # wavenumbers (|k|^2 up to M^2 / 2) amplify
    g = GridSpec(m)
    spec = VonMisesSpec(concentration=(k1, k2), mean=np.array([mu, nu]), cross_term=cross)
    rho = von_mises_density(spec, g)
    mu, nu = spec.mean
    x1, x2 = g.axis()[:, None], g.axis()[None, :]
    exact = -k1 * np.cos(x1 - mu) - k2 * np.cos(x2 - nu)
    if cross:
        exact = exact - 2 * np.cos(2 * x1 - mu - nu) + 2 * np.cos(2 * x2 - mu - nu)
    got = stability_margin(rho, diffusion=0.1).curvature.values
    rounding = np.finfo(float).eps * m * m * np.abs(np.log(rho.values)).max()
    np.testing.assert_allclose(got, exact, rtol=0,
                               atol=1e-12 * np.abs(exact).max() + rounding)


# ---------------------------------------------------------------------------
# feasibility map
# ---------------------------------------------------------------------------


def test_map_monotone_in_diffusion_and_infeasible_corner(grid25, kernel, operator):
    k_values = np.array([2.0, 4.0, 6.0])
    d_values = np.array([0.005, 0.02, 0.05, 0.1])
    m = feasibility_map(k_values, d_values, kernel, grid25, operator)
    assert m.shape == (4, 3)
    for col in range(3):
        assert np.all(np.diff(m[:, col]) >= -1e-12)
    assert m[-1, -1] >= 1.0  # large-k, large-D corner saturates
    assert m[0, 0] < 1.0


def test_map_scales_with_diffusion(grid25, kernel, operator):
    k_values = np.array([2.0])
    m = feasibility_map(k_values, np.array([0.004, 0.008]), kernel, grid25, operator)
    assert m[1, 0] > m[0, 0]
    assert m[1, 0] == pytest.approx(2 * m[0, 0], rel=1e-6)


def column_loop_map(k_values, d_values, grid, operator):
    """The sweep one concentration at a time through the public pipeline."""
    out = np.empty((d_values.size, k_values.size))
    for col, k in enumerate(k_values):
        spec = VonMisesSpec(concentration=(k, k), mean=np.zeros(2), mass=1.0)
        v = desired_velocity_field(von_mises_density(spec, grid), 1.0)
        out[:, col] = d_values * minimal_herder_mass(deconvolve(v, operator).field).min_mass
    return out


@pytest.mark.parametrize("m", [16, 25])
def test_map_matches_column_loop(kernel, m):
    grid = GridSpec(m)
    op = DeconvolutionOperator.build(grid, kernel)
    k_values = np.array([0.5, 1.0, 1.3, 2.0, 2.5, 3.8, 5.0, 6.0])
    d_values = np.array([0.005, 0.01, 0.1])
    got = feasibility_map(k_values, d_values, kernel, grid, op, saturate=np.inf)
    ref = column_loop_map(k_values, d_values, grid, op)
    # the loop's drift takes one more transform pair: rounding apart, equal
    assert (np.abs(got - ref) / ref).max() <= 1e-10
    saturated = feasibility_map(k_values, d_values, kernel, grid, op)
    np.testing.assert_array_equal(saturated, np.minimum(got, 1.0))


def test_map_warns_once_per_unrealizable_column(grid25, kernel, operator):
    # an operator that keeps only the wavenumbers |k1|, |k2| <= 1 realizes
    # the separable drift -D k (sin(x1 - mu), sin(x2 - nu)) exactly, but not
    # the cross term's degree-2 part, whose share of the drift is
    # 1 / sqrt(1 + k^2): above RESIDUAL_WARN for k < 20
    k = np.rint(np.fft.fftfreq(25) * 25)
    ring = (np.abs(k)[:, None] <= 1) & (np.abs(k)[None, :] <= 1)
    low_pass = DeconvolutionOperator(grid25, kernel, operator.symbol * ring[:, :13])
    k_values = np.array([1.0, 25.0, 2.0, 30.0, 6.0])
    center = (0.3, -1.1)
    column_warnings = []
    for kv in k_values:
        spec = VonMisesSpec(concentration=(kv, kv), mean=np.array(center), cross_term=True)
        v = desired_velocity_field(von_mises_density(spec, grid25), 1.0)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            deconvolve(v, low_pass)
        column_warnings.append(len(seen))
    assert column_warnings == [1, 0, 1, 0, 1]
    for cross_term, expected in ((True, 3), (False, 0)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            feasibility_map(k_values, np.array([0.01]), kernel, grid25, low_pass,
                            center=center, cross_term=cross_term)
        assert len(seen) == expected, cross_term
        assert all("residual" in str(w.message) and w.filename == __file__ for w in seen)


@pytest.mark.parametrize("m", [16, 25])
def test_separable_sweep_mass_is_linear_in_k(kernel, m):
    # the separable drift is exactly -D k (sin x1, sin x2) on the grid, so
    # its preimage, offset and mass are k times those of k = 1
    grid = GridSpec(m)
    k_values = np.linspace(0.5, 6.0, 12)
    unit = feasibility_map(k_values, np.array([1.0]), kernel, grid,
                           saturate=np.inf)[0] / k_values
    assert np.ptp(unit) <= 1e-10 * unit.min()


def test_map_makes_one_transform_each_way(grid25, kernel, operator, monkeypatch):
    # the whole sweep makes one rfft2 (of log rho) and one irfft2
    calls = []

    def counted(name):
        real = getattr(feasibility, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("rfft2", "irfft2"):
        monkeypatch.setattr(feasibility, name, counted(name))
    cells = feasibility_map(np.linspace(0.5, 6.0, 8), np.linspace(0.005, 0.1, 8),
                            kernel, grid25, operator)
    assert cells.shape == (8, 8)
    assert sorted(calls) == ["irfft2", "rfft2"]


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.5, -1.0)])
def test_map_columns_are_the_plans_cross_term_masses(kernel, center):
    grid = GridSpec(16)
    goal = GoalRegion(center=center, radius=PI / 2)
    k_values = np.array([0.5, 1.7, 3.0, 4.5, 6.0])
    d_values = np.array([0.005, 0.03])
    got = feasibility_map(k_values, d_values, kernel, grid, saturate=np.inf,
                          center=goal.center, cross_term=True)
    # at D = 1 every plan is infeasible; a head count skips herder_count
    plans = [plan_herders(goal, 720, 1.0, kernel, grid, grid, cross_term=True,
                          n_herders=260, concentration=k).min_mass for k in k_values]
    np.testing.assert_allclose(got, np.outer(d_values, plans), rtol=1e-12, atol=0)
    separable = feasibility_map(k_values, d_values, kernel, grid, saturate=np.inf,
                                center=goal.center)
    assert np.abs(separable / got - 1).min() > 1e-3


def test_map_rejects_nonpositive_ranges(grid25, kernel, operator):
    with pytest.raises(ValueError):
        feasibility_map(np.array([0.0]), np.array([0.01]), kernel, grid25, operator)


# ---------------------------------------------------------------------------
# end-to-end plan
# ---------------------------------------------------------------------------


def test_plan_scales_masses_consistently(grid25, kernel):
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 720, 0.01, kernel, grid25, GridSpec(64))
    assert plan.n_targets == 720
    assert plan.target_mass + plan.herder_mass == pytest.approx(1.0)
    assert mass(plan.rho_bar_t) == pytest.approx(plan.target_mass, rel=1e-9)
    assert mass(plan.rho_bar_h) == pytest.approx(plan.herder_mass, rel=1e-9)
    assert plan.rho_bar_h.values.min() >= 0.0
    assert plan.n_herders == herder_count(720, plan.min_mass)


def test_default_plan_mass_and_head_count():
    cfg = ExperimentConfig()
    plan = plan_herders(
        goal=cfg.goal, n_targets=cfg.population.n_targets,
        diffusion=cfg.sim.diffusion, kernel=cfg.kernel,
        deconv_grid=cfg.grids.deconvolution_grid(),
        control_grid=cfg.grids.control_grid(),
    )
    assert plan.min_mass == pytest.approx(0.2652008488, abs=1e-9)
    assert plan.n_herders == 260


def test_default_plan_mass_is_the_analytic_drifts():
    # the default target is separable, so its drift is exactly
    # -D k (sin x1, sin x2) with k = 3 / r; the plan's minimal mass is that
    # field's deconvolution
    cfg = ExperimentConfig()
    grid = cfg.grids.deconvolution_grid()
    plan = plan_herders(
        goal=cfg.goal, n_targets=cfg.population.n_targets,
        diffusion=cfg.sim.diffusion, kernel=cfg.kernel, deconv_grid=grid,
        control_grid=cfg.grids.control_grid(),
    )
    k = 3.0 / cfg.goal.radius
    x = grid.nodes()
    drift = -cfg.sim.diffusion * k * np.sin(np.moveaxis(x, -1, 0))
    op = DeconvolutionOperator.build(grid, cfg.kernel)
    oracle = minimal_herder_mass(deconvolve(VectorField(grid, drift), op).field).min_mass
    assert plan.min_mass == pytest.approx(oracle, rel=1e-12, abs=0)


def test_default_plan_spreads_herder_surplus_as_constant():
    # herder mass above min_mass is added as a constant, which the kernel
    # maps to zero, so K * rho_bar_h is the drift of the unscaled profile
    cfg = ExperimentConfig()
    plan = plan_herders(
        goal=cfg.goal, n_targets=cfg.population.n_targets,
        diffusion=cfg.sim.diffusion, kernel=cfg.kernel,
        deconv_grid=cfg.grids.deconvolution_grid(),
        control_grid=cfg.grids.control_grid(),
    )
    grid = cfg.grids.control_grid()
    assert plan.herder_mass > plan.min_mass
    profile = np.clip(resample(plan.feasibility.rho_bar_h, grid.m).values, 0.0, None)
    surplus = plan.rho_bar_h.values - profile
    assert np.ptp(surplus) <= 1e-15
    assert surplus.mean() > 0
    assert mass(plan.rho_bar_h) == pytest.approx(plan.herder_mass, abs=1e-12)
    symbol = kernel_symbol(sample_on_grid(grid, cfg.kernel))
    drift = circular_convolve(symbol, plan.rho_bar_h).values
    ref = circular_convolve(symbol, ScalarField(grid, profile)).values
    assert np.abs(drift - ref).max() <= 1e-13 * np.abs(ref).max()


def test_plan_respects_override(grid25, kernel):
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 720, 0.01, kernel, grid25, GridSpec(64),
                        n_herders=280)
    assert plan.n_herders == 280
    assert plan.herder_mass == pytest.approx(0.28)
    assert mass(plan.rho_bar_h) == pytest.approx(0.28, rel=1e-9)


@pytest.mark.parametrize("cross_term", [False, True])
def test_largest_concentration_keeps_the_density_normal(cross_term):
    # the exponent spans 4 k (4 k + 4 with the cross term): at the bound the
    # smallest value is still a normal float64, and past it the spec is refused
    k = feasibility.max_concentration(cross_term)
    assert k == pytest.approx(177.099 - cross_term, abs=1e-3)
    spec = VonMisesSpec(concentration=(k, k), mean=np.zeros(2), cross_term=cross_term)
    rho = von_mises_density(spec, GridSpec(25)).values
    assert rho.min() / rho.max() >= np.finfo(float).tiny
    with pytest.raises(ValueError, match="range"):
        VonMisesSpec(concentration=(k + 0.01, k), mean=np.zeros(2), cross_term=cross_term)
