import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmherd import (
    ContinuumState,
    DensityField,
    GoalRegion,
    GridSpec,
    KernelParams,
    ScalarField,
    VectorField,
    VonMisesSpec,
    circular_convolve,
    continuum_step,
    divergence,
    gradient,
    kernel_symbol,
    l2_norm,
    laplacian,
    mass,
    plan_herders,
    poisson_solve,
    sample_on_grid,
    stable_dt,
    verify_herder_convergence,
    verify_target_convergence,
    von_mises_density,
)
from swarmherd import continuum

PI = np.pi


@pytest.fixture(scope="module")
def kernel():
    return KernelParams(length=PI, images=2)


@pytest.fixture(scope="module")
def samples32(kernel):
    return sample_on_grid(GridSpec(32), kernel)


def uniform(grid, total):
    return DensityField(grid, np.full((grid.m, grid.m), total / (4 * PI**2)))


def mode_amplitude(values, grid, wave):
    """Projection onto cos(wave . x): phase-free physical-mode amplitude."""
    x = grid.nodes()
    basis = np.cos(wave[0] * x[..., 0] + wave[1] * x[..., 1])
    return float((values * basis).sum() * grid.cell_area / (2 * PI**2))


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def test_uniform_densities_are_a_fixed_point(samples32):
    g = GridSpec(32)
    state = ContinuumState(uniform(g, 0.3), uniform(g, 0.7))
    out = continuum_step(state, None, samples32, diffusion=0.05, dt=0.01)
    np.testing.assert_allclose(out.rho_t.values, state.rho_t.values, atol=1e-14)
    np.testing.assert_allclose(out.rho_h.values, state.rho_h.values, atol=1e-14)


def test_cfl_violation_rejected(samples32):
    g = GridSpec(32)
    state = ContinuumState(uniform(g, 0.3), uniform(g, 0.7))
    bound = stable_dt(g.h, 0.05, 0.0)
    with pytest.raises(ValueError, match="stability"):
        continuum_step(state, None, samples32, diffusion=0.05, dt=2 * bound)


def test_heat_equation_mode_decay(samples32):
    # zero herder density: pure diffusion; each mode decays at D |m|^2
    g = GridSpec(32)
    x = g.nodes()
    d = 0.1
    rho0 = 1.0 + 0.3 * np.cos(x[..., 0]) + 0.2 * np.cos(2 * x[..., 1])
    state = ContinuumState(
        DensityField(g, np.zeros((32, 32))), DensityField(g, rho0)
    )
    dt = 0.02
    horizon = 1.0 / d  # one diffusion time of the slowest mode
    for _ in range(int(round(horizon / dt))):
        state = continuum_step(state, None, samples32, d, dt)
    t = state.time
    a10 = mode_amplitude(state.rho_t.values, g, (1, 0))
    a02 = mode_amplitude(state.rho_t.values, g, (0, 2))
    assert a10 == pytest.approx(0.3 * np.exp(-d * 1 * t), rel=0.01)
    assert a02 == pytest.approx(0.2 * np.exp(-d * 4 * t), rel=0.01)


def test_mass_conserved_over_many_steps(samples32):
    g = GridSpec(32)
    x = g.nodes()
    rho_h = DensityField(g, 0.3 / (4 * PI**2) * (1 + 0.4 * np.cos(x[..., 0])))
    rho_t = DensityField(g, 0.7 / (4 * PI**2) * (1 + 0.3 * np.sin(x[..., 1])))
    state = ContinuumState(rho_h, rho_t)
    m_h0, m_t0 = mass(state.rho_h), mass(state.rho_t)
    for _ in range(2000):
        state = continuum_step(state, None, samples32, diffusion=0.02, dt=0.01)
    assert abs(mass(state.rho_h) - m_h0) / m_h0 < 1e-6
    assert abs(mass(state.rho_t) - m_t0) / m_t0 < 1e-6


# ---------------------------------------------------------------------------
# herder closed loop (exponential error decay at the gain)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def herder_reference(kernel):
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 120, 0.01, kernel, GridSpec(15), GridSpec(32))
    return plan.rho_bar_h


def test_equilibrium_start_stays_at_zero_error(herder_reference):
    rep = verify_herder_convergence(herder_reference, herder_reference,
                                    gain=5.0, horizon=0.5)
    assert np.all(rep.error_l2 < 1e-12)


def test_single_mode_perturbation_decay_matches_gain(herder_reference):
    g = herder_reference.grid
    x1 = g.nodes()[..., 0]
    eps = 0.01
    rho0 = ScalarField(g, herder_reference.values + eps * np.cos(x1))
    gain = 4.0
    rep = verify_herder_convergence(rho0, herder_reference, gain, horizon=3 / gain)
    assert rep.error_l2[0] == pytest.approx(eps * np.sqrt(2 * PI**2), rel=1e-9)
    assert rep.relative_deviation < 0.05
    # the whole-trajectory envelope, not only the fitted rate
    expected = rep.error_l2[0] * np.exp(-gain * rep.times)
    np.testing.assert_allclose(rep.error_l2, expected, rtol=1e-4)


def test_decay_rate_independent_of_amplitude(herder_reference):
    g = herder_reference.grid
    x1 = g.nodes()[..., 0]
    gain = 2.0
    rates = []
    for eps in (0.005, 0.02):
        rho0 = ScalarField(g, herder_reference.values + eps * np.cos(x1))
        rep = verify_herder_convergence(rho0, herder_reference, gain,
                                        horizon=3 / gain)
        rates.append(rep.fitted_rate)
    assert rates[0] == pytest.approx(rates[1], rel=0.01)


def test_mass_mismatch_rejected(herder_reference):
    g = herder_reference.grid
    rho0 = ScalarField(g, herder_reference.values * 1.5)
    with pytest.raises(ValueError, match="mass"):
        verify_herder_convergence(rho0, herder_reference, 1.0, horizon=1.0)


def test_negative_mass_reference_within_rounding_runs():
    # the tolerance scales by |mass|: a signed reference of negative mass and
    # a start that differs from it by rounding only are the same mass
    g = GridSpec(16)
    rho_bar = ScalarField(g, np.full((16, 16), -0.5))
    rho0 = ScalarField(g, rho_bar.values + 0.02 * np.cos(g.nodes()[..., 0]))
    assert 0 < abs(mass(rho0) - mass(rho_bar)) < 1e-14
    gain = 4.0
    rep = verify_herder_convergence(rho0, rho_bar, gain, horizon=3 / gain)
    assert rep.relative_deviation < 0.05
    with pytest.raises(ValueError, match="mass"):
        verify_herder_convergence(ScalarField(g, rho0.values * 1.5), rho_bar, gain,
                                  horizon=3 / gain)


@pytest.mark.parametrize("horizon, match", [
    (np.nan, "finite"), (np.inf, "finite"), (-1.0, "one step"), (0.0, "one step"),
    (1e-4, "one step"),  # rounds to zero steps of the default 0.01
])
def test_drivers_reject_horizon_without_a_step(herder_reference, horizon, match):
    g = herder_reference.grid
    with pytest.raises(ValueError, match=match):
        verify_herder_convergence(herder_reference, herder_reference, 1.0, horizon=horizon)
    rho = uniform(g, 1.0)
    with pytest.raises(ValueError, match=match):
        verify_target_convergence(rho, rho, diffusion=0.05, horizon=horizon)


@pytest.mark.parametrize("driver, bad", [
    *[("herder", {"gain": v}) for v in (0.0, -1.0, np.nan, np.inf)],
    *[(d, {"dt": v}) for d in ("herder", "target") for v in (0.0, -0.05, np.nan, np.inf)],
    *[("herder", {"sample_every": v}) for v in (np.nan, np.inf, -np.inf)],
    *[("target", {"sample_every": v}) for v in (0.0, -0.1, np.nan, np.inf)],
    *[(d, {"diffusion": v}) for d in ("target", "step") for v in (-0.05, np.nan, np.inf)],
    *[("step", {"dt": v}) for v in (0.0, -0.01, np.nan, np.inf)],
])
def test_twin_rejects_bad_argument_naming_it(herder_reference, samples32, driver, bad):
    g = herder_reference.grid
    name = next(iter(bad))
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        if driver == "herder":
            verify_herder_convergence(herder_reference, herder_reference,
                                      **{"gain": 1.0, "horizon": 1.0, **bad})
        elif driver == "target":
            rho = uniform(g, 1.0)
            verify_target_convergence(rho, rho, **{"diffusion": 0.05, "horizon": 1.0, **bad})
        else:
            state = ContinuumState(uniform(g, 0.3), uniform(g, 0.7))
            continuum_step(state, None, samples32, **{"diffusion": 0.05, "dt": 0.01, **bad})


def test_twin_rejects_fields_on_another_grid(herder_reference, samples32):
    g, other = herder_reference.grid, GridSpec(16)
    with pytest.raises(ValueError, match="herder start and reference must share a grid"):
        verify_herder_convergence(uniform(other, mass(herder_reference)), herder_reference,
                                  1.0, horizon=1.0)
    with pytest.raises(ValueError, match="target start and reference must share a grid"):
        verify_target_convergence(uniform(other, 1.0), uniform(g, 1.0), 0.05, horizon=1.0)
    state = ContinuumState(uniform(g, 0.3), uniform(g, 0.7))
    with pytest.raises(ValueError, match="u must be on the densities' grid"):
        continuum_step(state, VectorField(other, np.zeros((2, 16, 16))), samples32, 0.05, 0.01)


@pytest.mark.parametrize("sample_every", [0.0, -0.1])
def test_herder_sample_every_at_or_below_zero_takes_the_default(herder_reference,
                                                                sample_every):
    g = herder_reference.grid
    rho0 = ScalarField(g, herder_reference.values + 0.01 * np.cos(g.nodes()[..., 0]))
    rep = verify_herder_convergence(rho0, herder_reference, 10.0, horizon=0.3,
                                    sample_every=sample_every)
    default = verify_herder_convergence(rho0, herder_reference, 10.0, horizon=0.3)
    np.testing.assert_array_equal(rep.times, default.times)
    np.testing.assert_array_equal(rep.error_l2, default.error_l2)


# ---------------------------------------------------------------------------
# target feed-forward decay (envelope bound)
# ---------------------------------------------------------------------------


def test_equilibrium_target_start_stays(kernel):
    g = GridSpec(48)
    spec = VonMisesSpec(concentration=(0.5, 0.5), mean=np.zeros(2), mass=1.0)
    rho_bar = von_mises_density(spec, g)
    rep = verify_target_convergence(rho_bar, rho_bar, diffusion=0.05, horizon=2.0)
    assert np.all(rep.error_sq < 1e-20)


def test_small_concentration_decay_within_envelope(kernel):
    g = GridSpec(48)
    spec = VonMisesSpec(concentration=(0.5, 0.5), mean=np.zeros(2), mass=1.0)
    rho_bar = von_mises_density(spec, g)
    rho0 = uniform(g, 1.0)
    rep = verify_target_convergence(rho0, rho_bar, diffusion=0.05, horizon=5.0)
    assert rep.stability.sup_norm == pytest.approx(1.0, rel=1e-6)
    assert rep.stability.certified
    assert rep.bounded is True
    assert rep.mass_drift < 1e-9


def test_uniform_reference_decays_at_least_at_heat_rate(kernel):
    # G = 0 for a uniform reference: envelope rate 2 D; the slowest physical
    # mode decays at exactly 2 D... the |m|=1 heat rate... so the bound is tight
    g = GridSpec(32)
    d = 0.05
    x = g.nodes()
    rho_bar = uniform(g, 1.0)
    rho0 = DensityField(g, (1.0 + 0.2 * np.cos(x[..., 0])) / (4 * PI**2))
    rep = verify_target_convergence(rho0, rho_bar, diffusion=d, horizon=10.0)
    assert rep.stability.sup_norm < 1e-10
    assert rep.stability.rate == pytest.approx(2 * d, rel=1e-9)
    assert rep.bounded is True
    # single cos(x1) perturbation under pure diffusion: ||e||^2 ~ exp(-2 D t)
    ratio = rep.error_sq[-1] / (rep.error_sq[0] * np.exp(-2 * d * rep.times[-1]))
    assert ratio == pytest.approx(1.0, rel=1e-3)


def test_uncertified_regime_reports_without_asserting(kernel):
    g = GridSpec(48)
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    rho_bar = von_mises_density(VonMisesSpec.from_goal(goal), g)  # |G| = 12/pi > 2
    rho0 = uniform(g, 1.0)
    rep = verify_target_convergence(rho0, rho_bar, diffusion=0.05, horizon=1.0)
    assert not rep.stability.certified
    assert rep.bounded is None


def test_frozen_herder_convection_route(kernel):
    # the kernel convolved with the planned herder density as the field
    g = GridSpec(32)
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 120, 0.01, kernel, GridSpec(15), g)
    rho0 = uniform(g, plan.target_mass)
    velocity = circular_convolve(kernel_symbol(sample_on_grid(g, kernel)), plan.rho_bar_h)
    rep = verify_target_convergence(
        rho0, plan.rho_bar_t, diffusion=0.01, horizon=1.0, velocity=velocity,
    )
    assert rep.error_sq[-1] < rep.error_sq[0]  # decaying toward equilibrium
    assert rep.mass_drift < 1e-9


def test_target_step_never_exceeds_stability_bound():
    # 32^2 at D = 0.05: bound 0.0964 < 0.1, so the default 0.8 * bound cannot
    # round to one step per 0.1 sample; it takes two steps of 0.05
    g = GridSpec(32)
    x = g.nodes()
    rho_bar = uniform(g, 1.0)
    rho0 = DensityField(g, (1.0 + 0.2 * np.cos(x[..., 0])) / (4 * PI**2))
    bound = stable_dt(g.h, 0.05, 0.0)
    rep = verify_target_convergence(rho0, rho_bar, diffusion=0.05, horizon=2.0)
    assert rep.steps == 40  # dt = 0.05
    np.testing.assert_allclose(rep.times, np.arange(21) * 0.1, rtol=1e-12)
    with pytest.raises(ValueError, match=f"stability bound {bound:.3e}"):
        verify_target_convergence(rho0, rho_bar, diffusion=0.05, horizon=2.0, dt=0.1)


@pytest.mark.parametrize("m, diffusion, steps", [
    (64, 0.013, 40),  # bound 0.0927: 0.1 would step past it
    (64, 0.01, 20),  # bound 0.12: the CLI's default step stays 0.1
    (16, 0.5, 60),  # bound 0.0386: 0.8 * bound rounds to a third of 0.1
    (33, 0.0, 20),  # no diffusion and no convection: no bound
])
def test_target_step_lands_on_samples_below_bound(m, diffusion, steps):
    g = GridSpec(m)
    rho_bar = uniform(g, 1.0)
    rep = verify_target_convergence(rho_bar, rho_bar, diffusion=diffusion, horizon=2.0)
    assert rep.steps == steps
    assert 2.0 / rep.steps <= stable_dt(g.h, diffusion, 0.0)


# ---------------------------------------------------------------------------
# symbol drivers against stage-by-stage operator right-hand sides
# ---------------------------------------------------------------------------


def oracle_rk4(rhs, y, dt):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("dtype", [float, complex])
def test_rk4_is_the_stage_form_bit_for_bit(dtype):
    # a nonlinear right-hand side; y and every array rhs returns are
    # read-only, so a write into either raises
    rng = np.random.default_rng(5)
    y = rng.standard_normal((2, 8, 5)).astype(dtype)
    if dtype is complex:
        y += 1j * rng.standard_normal(y.shape)
    y.flags.writeable = False
    returned = []

    def rhs(x):
        out = np.sin(x) * x - 0.3 * x * x
        out.flags.writeable = False
        returned.append(out)
        return out

    expected = oracle_rk4(rhs, y, 0.07)
    returned.clear()
    got = continuum._rk4(rhs, y, 0.07)
    assert np.array_equal(got, expected)
    assert len(returned) == 4
    assert not any(np.shares_memory(got, a) for a in [y, *returned])
    # an rhs may hand back its argument, the stage buffer itself
    assert np.array_equal(continuum._rk4(lambda x: x, y, 0.07),
                          oracle_rk4(lambda x: x, y, 0.07))


def oracle_transport(rho, velocity, diffusion, grid):
    out = -divergence(VectorField(grid, rho * velocity)).values
    if diffusion > 0:
        out = out + diffusion * laplacian(ScalarField(grid, rho)).values
    return out


def oracle_herder_errors(rho0, ref, gain, dt, n_steps):
    grid = GridSpec(ref.shape[0])

    def rhs(r):
        phi, _ = poisson_solve(ScalarField(grid, ref - r), gain)
        return -divergence(gradient(phi)).values

    errors, rho = [l2_norm(ScalarField(grid, ref - rho0))], rho0
    for _ in range(n_steps):
        rho = oracle_rk4(rhs, rho, dt)
        errors.append(l2_norm(ScalarField(grid, ref - rho)))
    return np.array(errors)


def oracle_target_errors(rho0, ref, velocity, diffusion, dt, n_steps):
    grid = GridSpec(ref.shape[0])
    errors, rho = [l2_norm(ScalarField(grid, ref - rho0)) ** 2], rho0
    for _ in range(n_steps):
        rho = oracle_rk4(lambda r: oracle_transport(r, velocity, diffusion, grid), rho, dt)
        errors.append(l2_norm(ScalarField(grid, ref - rho)) ** 2)
    return np.array(errors)


def oracle_step(state, u, samples, diffusion, dt):
    grid = state.rho_h.grid

    def rhs(y):
        rho_h, rho_t = y
        d_h = np.zeros_like(rho_h) if u is None else \
            -divergence(VectorField(grid, rho_h * u.values)).values
        v_th = circular_convolve(kernel_symbol(samples), ScalarField(grid, rho_h)).values
        return np.stack([d_h, oracle_transport(rho_t, v_th, diffusion, grid)])

    return oracle_rk4(rhs, np.stack([state.rho_h.values, state.rho_t.values]), dt)


def rough(m, seed, amplitude):
    """Smooth field plus white noise; on even grids a Nyquist checkerboard."""
    rng = np.random.default_rng(seed)
    x = GridSpec(m).nodes()
    out = np.cos(x[..., 0]) + 0.5 * np.sin(2 * x[..., 1] - x[..., 0])
    out = out + 0.1 * rng.standard_normal((m, m))
    if m % 2 == 0:
        out = out + 0.2 * (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    return amplitude * out


def relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("m", [15, 16, 32, 33])
def test_herder_driver_matches_operator_oracle(m, samples32, kernel):
    g = GridSpec(m)
    ref = uniform(g, 0.3).values * (1 + 0.5 * np.cos(g.nodes()[..., 1]))
    bump = rough(m, m, 1e-3)
    rho0 = ref + bump - bump.mean()
    gain, dt, n = 2.0, 0.01, 30
    rep = verify_herder_convergence(ScalarField(g, rho0), ScalarField(g, ref), gain,
                                    horizon=n * dt, dt=dt, sample_every=dt)
    expected = oracle_herder_errors(rho0, ref, gain, dt, n)
    assert rep.steps == n
    np.testing.assert_allclose(rep.error_l2, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [15, 16, 32, 33])
def test_target_driver_matches_operator_oracle(m):
    g = GridSpec(m)
    ref = uniform(g, 1.0)
    rho0 = ref.values * (1 + rough(m, m, 0.2))
    v = VectorField(g, np.stack([rough(m, m + 1, 0.3), rough(m, m + 2, 0.3)]))
    diffusion, n = 0.05, 12
    dt = 0.5 * stable_dt(g.h, diffusion, float(np.sqrt((v.values**2).sum(0)).max()))
    rep = verify_target_convergence(DensityField(g, rho0), ref, diffusion, horizon=n * dt,
                                    velocity=v, dt=dt, sample_every=dt)
    expected = oracle_target_errors(rho0, ref.values, v.values, diffusion, dt, n)
    assert rep.steps == n
    np.testing.assert_allclose(rep.error_sq, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [15, 16, 32, 33])
@pytest.mark.parametrize("actuated", [False, True])
def test_continuum_step_matches_operator_oracle(m, actuated, kernel):
    g = GridSpec(m)
    samples = sample_on_grid(g, kernel)
    state = ContinuumState(DensityField(g, uniform(g, 0.3).values * (1 + rough(m, 1, 0.2))),
                           DensityField(g, uniform(g, 0.7).values * (1 + rough(m, 2, 0.2))))
    u = VectorField(g, np.stack([rough(m, 3, 0.2), rough(m, 4, 0.2)])) \
        if actuated else None
    for _ in range(3):
        expected_h, expected_t = oracle_step(state, u, samples, 0.05, 0.02)
        state = continuum_step(state, u, samples, 0.05, 0.02)
        assert relative(state.rho_t.values, expected_t) < 1e-12
        if actuated:
            assert relative(state.rho_h.values, expected_h) < 1e-12
        else:  # the frozen herder density is carried over bit for bit
            assert np.array_equal(state.rho_h.values, expected_h)


def test_frozen_herder_convolves_once_per_step(samples32, monkeypatch):
    # with u = None every stage reuses the stability check's convection
    # field, which is bit for bit what a per-stage convolution would give;
    # with u the stages convolve from their own coefficients, so only the
    # stability check calls circular_convolve
    calls = []
    real = continuum.circular_convolve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(continuum, "circular_convolve", counted)
    g = GridSpec(32)
    state = ContinuumState(uniform(g, 0.3), uniform(g, 0.7))
    continuum_step(state, None, samples32, 0.05, 0.01)
    assert len(calls) == 1
    continuum_step(state, VectorField(g, np.zeros((2, 32, 32))), samples32, 0.05, 0.01)
    assert len(calls) == 1 + 1


# ---------------------------------------------------------------------------
# mass conservation, every driver, odd and even grids
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(m=st.integers(9, 40), seed=st.integers(0, 2**32 - 1))
@example(m=9, seed=0)
@example(m=40, seed=0)
def test_rk4_drivers_keep_mass(m, seed, kernel):
    g = GridSpec(m)
    rng = np.random.default_rng(seed)
    positive = lambda total: DensityField(
        g, total / (4 * PI**2) * (1 + 0.3 * rng.uniform(-1, 1, (m, m))))
    ref = positive(0.3)
    bump = 0.01 * rng.standard_normal((m, m))
    rho_h0 = ScalarField(g, ref.values + bump - bump.mean())
    rep_h = verify_herder_convergence(rho_h0, ref, gain=3.0, horizon=0.2)
    velocity = VectorField(g, 0.2 * rng.standard_normal((2, m, m)))
    rep_t = verify_target_convergence(positive(1.0), positive(1.0), 0.02, horizon=0.5,
                                      velocity=velocity)
    assert rep_h.mass_drift <= 1e-13
    assert rep_t.mass_drift <= 1e-13

    state = ContinuumState(positive(0.3), positive(0.7))
    m_h, m_t = mass(state.rho_h), mass(state.rho_t)
    u = VectorField(g, 0.1 * rng.standard_normal((2, m, m)))
    for actuator in (None, u):
        s = state
        for _ in range(3):
            s = continuum_step(s, actuator, sample_on_grid(g, kernel), 0.02, 0.005)
        assert abs(mass(s.rho_h) / m_h - 1) <= 1e-13
        assert abs(mass(s.rho_t) / m_t - 1) <= 1e-13


# ---------------------------------------------------------------------------
# Fourier state: RK4 amplification, Parseval norms, mass over long runs
# ---------------------------------------------------------------------------


def stage_form_herder_errors(rho0, ref, gain, dt, n_steps):
    """The herder error series from n_steps stage-form RK4 steps of the
    Fourier coefficients, each norm taken on the inverse transform."""
    grid = GridSpec(ref.shape[0])
    m = grid.m
    phi, _ = poisson_solve(ScalarField(grid, np.eye(1, m * m).reshape(m, m)), gain)
    symbol = continuum._symbol(-divergence(gradient(phi)).values)[0]
    ref_hat = np.fft.rfft2(ref)
    y = np.fft.rfft2(rho0)
    errors = [l2_norm(ScalarField(grid, ref - rho0))]
    for _ in range(n_steps):
        y = continuum._rk4(lambda r: symbol * (ref_hat - r), y, dt)
        errors.append(l2_norm(ScalarField(grid, ref - np.fft.irfft2(y, s=(m, m)))))
    return np.array(errors)


@pytest.mark.parametrize("m", [32, 33, 64])
@pytest.mark.parametrize("n", [1, 5, 600])
def test_amplification_matches_stage_form_rk4(m, n):
    g = GridSpec(m)
    ref = uniform(g, 0.3).values * (1 + 0.5 * np.cos(g.nodes()[..., 1]))
    bump = rough(m, m, 1e-3)  # a Nyquist checkerboard on even grids
    rho0 = ref + bump - bump.mean()
    gain, dt = 10.0, 0.005
    rep = verify_herder_convergence(ScalarField(g, rho0), ScalarField(g, ref), gain,
                                    horizon=n * dt, dt=dt, sample_every=dt)
    expected = stage_form_herder_errors(rho0, ref, gain, dt, n)
    assert rep.steps == n and rep.times.shape == (n + 1,)
    assert np.abs(rep.error_l2 - expected).max() <= 1e-12 * expected.max()


@pytest.mark.parametrize("m", [15, 16, 33, 64])
def test_parseval_norm_matches_inverse_transform(m):
    g = GridSpec(m)
    values = rough(m, m, 1.0)
    coeffs = np.fft.rfft2(values)
    expected = l2_norm(ScalarField(g, np.fft.irfft2(coeffs, s=(m, m))))
    assert abs(np.sqrt(continuum._norm_sq(coeffs, g)) - expected) <= 1e-13 * expected


def test_long_runs_keep_mass():
    g = GridSpec(64)
    x = g.nodes()
    ref = uniform(g, 0.3).values * (1 + 0.5 * np.cos(x[..., 1]))
    bump = rough(64, 7, 1e-3)
    rep_h = verify_herder_convergence(ScalarField(g, ref + bump - bump.mean()),
                                      ScalarField(g, ref), gain=10.0, horizon=3.0, dt=0.005)
    spec = VonMisesSpec(concentration=(1.0, 1.0), mean=np.zeros(2), mass=0.7)
    rho_bar_t = von_mises_density(spec, g)
    rho_t0 = DensityField(g, uniform(g, 0.7).values * (1 + 0.3 * np.sin(x[..., 0])))
    rep_t = verify_target_convergence(rho_t0, rho_bar_t, 0.01, horizon=20.0, dt=0.1,
                                      sample_every=0.1)
    assert (rep_h.steps, rep_t.steps) == (600, 200)
    assert rep_h.mass_drift <= 1e-13
    assert rep_t.mass_drift <= 1e-13


# ---------------------------------------------------------------------------
# fixed costs: the closed-form decay fit and the shared transport symbols
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), rate=st.floats(0.01, 20.0), dt=st.floats(1e-3, 0.5),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, rate=1.0, dt=0.1, seed=0)
def test_decay_fit_matches_polyfit(n, rate, dt, seed):
    rng = np.random.default_rng(seed)
    times = np.arange(n) * dt
    norms = np.exp(-rate * times + 0.1 * rng.standard_normal(n))
    # exp underflows to 0 beyond rate * t of about 745, and the fit leaves zeros out
    usable = norms > 0
    expected = -np.polyfit(times[usable], np.log(norms[usable]), 1)[0]
    assert continuum._fit_decay_rate(times, norms) == pytest.approx(expected, rel=1e-12)
    # zero norms are left out of the fit
    norms[::3] = 0.0
    usable = norms > 0
    if np.count_nonzero(usable) >= 2:
        expected = -np.polyfit(times[usable], np.log(norms[usable]), 1)[0]
        assert continuum._fit_decay_rate(times, norms) == pytest.approx(expected,
                                                                        rel=1e-12)


@pytest.mark.parametrize("norms", [[], [0.5], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
def test_decay_fit_needs_two_usable_points(norms):
    norms = np.asarray(norms, dtype=float)
    assert np.isnan(continuum._fit_decay_rate(0.1 * np.arange(norms.size), norms))


def clear_memos():
    for memo in (continuum._step_symbols, continuum._kernel_hat, continuum._reference):
        memo.cache_clear()


def test_transport_symbols_are_read_only(samples32):
    # each memo hands every caller the same arrays
    g = GridSpec(16)
    rho_bar = DensityField(g, uniform(g, 1.0).values * (1 + rough(16, 3, 0.2)))
    report, ref_hat, equilibrium = continuum._reference(rho_bar, 0.05)
    for shared in (continuum._step_symbols(16, 0.05), continuum._kernel_hat(samples32),
                   report.curvature.values, ref_hat, equilibrium.values):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0, 0] = 1.0


def test_second_call_takes_the_memoized_constants(samples32, monkeypatch):
    calls = []

    def counted(name):
        real = getattr(continuum, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(continuum, name, wrapper)

    for name in ("stability_margin", "desired_velocity_field", "kernel_symbol"):
        counted(name)
    clear_memos()
    g = GridSpec(16)
    rho_bar = DensityField(g, uniform(g, 1.0).values * (1 + rough(16, 3, 0.2)))
    for reference in (rho_bar, DensityField(g, rho_bar.values.copy())):  # equal values
        report = verify_target_convergence(rho_bar, reference, 0.05, horizon=0.3,
                                           sample_every=0.1)
        assert np.isfinite(report.envelope).all()
        report.stability.rate = np.nan  # a caller's edit stays its own
    assert calls == ["desired_velocity_field", "stability_margin"]
    calls.clear()
    g = GridSpec(32)
    state = ContinuumState(uniform(g, 0.3), uniform(g, 0.7))
    for _ in range(2):
        state = continuum_step(state, None, samples32, 0.05, 0.01)
    assert calls == ["kernel_symbol"]


def target_call(m, diffusion, seed, equilibrium=False, rho_bar=None):
    """A short target-driver call: uniform reference and a rough velocity, or
    with ``equilibrium`` a rough reference with its own equilibrium drift."""
    g = GridSpec(m)
    if rho_bar is None:
        rho_bar = uniform(g, 1.0)
        if equilibrium:
            rho_bar = DensityField(g, rho_bar.values * (1 + rough(m, seed + 3, 0.2)))
    rho0 = DensityField(g, uniform(g, 1.0).values * (1 + rough(m, seed, 0.2)))
    if equilibrium:
        return verify_target_convergence(rho0, rho_bar, diffusion, horizon=0.03,
                                         sample_every=0.01)
    v = VectorField(g, np.stack([rough(m, seed + 1, 0.3), rough(m, seed + 2, 0.3)]))
    dt = 0.5 * stable_dt(g.h, diffusion, float(np.sqrt((v.values**2).sum(0)).max()))
    return verify_target_convergence(rho0, rho_bar, diffusion, horizon=3 * dt,
                                     velocity=v, dt=dt, sample_every=dt)


def assert_same_report(got, fresh):
    assert np.array_equal(got.times, fresh.times)
    assert np.array_equal(got.error_sq, fresh.error_sq)
    assert np.array_equal(got.envelope, fresh.envelope)
    assert np.array_equal(got.stability.curvature.values, fresh.stability.curvature.values)
    assert got.stability.rate == fresh.stability.rate
    assert got.mass_drift == fresh.mass_drift and got.steps == fresh.steps


@settings(max_examples=10, deadline=None)
@given(calls=st.lists(st.tuples(st.sampled_from([15, 16]), st.sampled_from([0.02, 0.05]),
                                st.booleans()),
                      min_size=2, max_size=6),
       seed=st.integers(0, 1000))
@example(calls=[(15, 0.02, False), (16, 0.05, True), (15, 0.05, True), (16, 0.02, False),
                (15, 0.02, False)], seed=0)
@example(calls=[(16, 0.02, True), (16, 0.05, True), (16, 0.02, False), (16, 0.02, True)],
         seed=1)
def test_interleaved_target_calls_equal_fresh_calls(calls, seed):
    # two references (uniform, rough) and two diffusions in any order
    interleaved = [target_call(m, d, seed, eq) for m, d, eq in calls]
    for (m, d, eq), got in zip(calls, interleaved):
        clear_memos()
        assert_same_report(got, target_call(m, d, seed, eq))
    # a reference changed in place after a call is a new reference
    m, d, eq = calls[-1]
    rho_bar = DensityField(GridSpec(m), uniform(GridSpec(m), 1.0).values
                           * (1 + rough(m, seed + 3, 0.2)))
    target_call(m, d, seed, eq, rho_bar)
    rho_bar.values[1:3] *= 1.25
    got = target_call(m, d, seed, eq, rho_bar)
    clear_memos()
    assert_same_report(got, target_call(m, d, seed, eq, rho_bar))


def test_step_after_samples_change_in_place_equals_fresh_step(samples32):
    g = GridSpec(32)
    state = ContinuumState(DensityField(g, uniform(g, 0.3).values * (1 + rough(32, 5, 0.2))),
                           uniform(g, 0.7))
    samples = samples32.copy()
    continuum_step(state, None, samples, 0.05, 0.01)
    samples *= 0.5
    got = continuum_step(state, None, samples, 0.05, 0.01)
    clear_memos()
    fresh = continuum_step(state, None, samples, 0.05, 0.01)
    assert np.array_equal(got.rho_t.values, fresh.rho_t.values)
    assert not np.array_equal(
        got.rho_t.values, continuum_step(state, None, samples32, 0.05, 0.01).rho_t.values)
