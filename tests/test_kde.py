import itertools
import math

import numpy as np
import pytest

from swarmherd import GridSpec, KdeParams, estimate_density, kde, mass, wrap

PI = np.pi


@pytest.fixture
def grid():
    return GridSpec(64)


def test_single_agent_peak_at_agent_and_unit_mass(grid):
    params = KdeParams(bandwidth=0.4)
    est = estimate_density(np.zeros((1, 2)), params, grid, mass=1.0)
    assert mass(est) == pytest.approx(1.0, rel=1e-12)
    peak = np.unravel_index(np.argmax(est.values), est.values.shape)
    node = grid.nodes()[peak]
    np.testing.assert_allclose(node, [0.0, 0.0], atol=grid.h / 2)
    # peak height close to the free bivariate Gaussian maximum
    assert est.values[peak] == pytest.approx(1.0 / (2 * PI * 0.4**2), rel=1e-2)


def test_symmetric_pair_gives_symmetric_field(grid):
    params = KdeParams(bandwidth=0.5)
    agents = np.array([[1.0, 0.5], [-1.0, -0.5]])
    est = estimate_density(agents, params, grid, mass=2.0)
    flipped = np.roll(est.values[::-1, ::-1], 1, axis=(0, 1))  # x -> -x on nodes
    np.testing.assert_allclose(est.values, flipped, rtol=1e-10, atol=1e-12)


def test_lattice_with_large_bandwidth_approaches_uniform(grid):
    side = 12
    coords = -PI + (np.arange(side) + 0.5) * (2 * PI / side)
    x1, x2 = np.meshgrid(coords, coords, indexing="ij")
    agents = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    params = KdeParams(bandwidth=2.0)
    est = estimate_density(agents, params, grid, mass=1.0)
    uniform = 1.0 / (4 * PI**2)
    assert np.abs(est.values - uniform).max() < 0.01 * uniform


def test_strict_positivity(grid):
    params = KdeParams(bandwidth=0.4)
    est = estimate_density(np.array([[2.0, -2.0]]), params, grid, mass=0.3)
    assert est.values.min() > 0.0


def test_mass_matches_request(grid):
    rng = np.random.default_rng(4)
    agents = rng.uniform(-PI, PI, size=(37, 2))
    params = KdeParams(bandwidth=0.3)
    est = estimate_density(agents, params, grid, mass=0.28)
    assert mass(est) == pytest.approx(0.28, rel=1e-6)


def test_translation_equivariance_on_lattice_shift(grid):
    rng = np.random.default_rng(5)
    agents = rng.uniform(-PI, PI, size=(20, 2))
    params = KdeParams(bandwidth=0.4)
    base = estimate_density(agents, params, grid, mass=1.0)
    shift_cells = (5, -3)
    delta = np.array([shift_cells[0] * grid.h, shift_cells[1] * grid.h])
    shifted = estimate_density(agents + delta, params, grid, mass=1.0)
    np.testing.assert_allclose(
        shifted.values, np.roll(base.values, shift_cells, axis=(0, 1)),
        rtol=1e-9, atol=1e-12,
    )


@pytest.mark.parametrize("bandwidth", [0.05, 0.4, 1.0, 2.0, 3.0])
def test_equals_image_sum_with_three_more_rings(grid, bandwidth):
    # P rings leave out images more than 2*pi*P away, against a nearest one
    # at most pi away: each dropped term is below 2**-53 of the nearest
    rings = math.ceil(math.sqrt(PI**2 + 2 * bandwidth**2 * 53 * math.log(2)) / (2 * PI))
    rng = np.random.default_rng(8)
    agents = rng.uniform(-PI, PI, size=(260, 2))
    shifts = 2 * PI * np.arange(-rings - 3, rings + 4)[:, None, None]
    d = agents.T[:, None, :, None] - grid.axis() + shifts  # (axis, image, agent, node)
    g = np.exp(-d**2 / (2 * bandwidth**2)).sum(axis=1)
    ref = g[0].T @ g[1]
    ref /= ref.sum() * grid.cell_area
    est = estimate_density(agents, KdeParams(bandwidth=bandwidth), grid, mass=1.0)
    assert np.abs(est.values - ref).max() <= 1e-15 * ref.max()


def test_agents_outside_the_domain_are_wrapped_first(grid):
    rng = np.random.default_rng(7)
    agents = rng.uniform(-PI, PI, size=(25, 2)) + 2 * PI * rng.integers(-2, 3, (25, 2))
    params = KdeParams(bandwidth=1.0)
    a = estimate_density(agents, params, grid, mass=0.5)
    b = estimate_density(wrap(agents), params, grid, mass=0.5)
    assert np.array_equal(a.values, b.values)


def test_empty_agent_set_rejected(grid):
    with pytest.raises(ValueError):
        estimate_density(np.zeros((0, 2)), KdeParams(), grid)


@pytest.mark.parametrize("shape", [(2, 2, 2), (4, 3), (4, 1)])
def test_agents_not_shaped_n_by_2_rejected(grid, shape):
    with pytest.raises(ValueError, match=rf"^agents of shape \({shape[0]}, .*need \(n, 2\) points$"):
        estimate_density(np.zeros(shape), KdeParams(), grid)
    # one bare point is one agent
    np.testing.assert_array_equal(estimate_density(np.zeros(2), KdeParams(), grid).values,
                                  estimate_density(np.zeros((1, 2)), KdeParams(), grid).values)


def test_param_validation(grid):
    with pytest.raises(ValueError):
        KdeParams(bandwidth=0.0)
    # the widest bandwidth taken: each Fourier mode is at most exp(-2 pi^2)
    # of the mean, and the four first modes of one agent peak at 1.07e-8
    est = estimate_density(np.zeros((1, 2)), KdeParams(bandwidth=2 * PI), grid)
    uniform = 1.0 / (4 * PI**2)
    assert np.abs(est.values - uniform).max() < 4.1 * np.exp(-2 * PI**2) * uniform
    with pytest.raises(ValueError, match="mass"):
        estimate_density(np.zeros((1, 2)), KdeParams(), grid, mass=-1.0)


def test_calls_of_other_sizes_in_between_leave_a_result_unchanged():
    # calls of other agent counts, grid sizes and ring counts in between
    # must not change a result
    rng = np.random.default_rng(12)
    cases = [(rng.uniform(-PI, PI, (260, 2)), KdeParams(), GridSpec(64)),
             (rng.uniform(-PI, PI, (1, 2)), KdeParams(), GridSpec(16)),
             (rng.uniform(-PI, PI, (37, 2)), KdeParams(bandwidth=1.0), GridSpec(33)),
             (rng.uniform(-PI, PI, (260, 2)), KdeParams(bandwidth=3.0), GridSpec(64))]
    assert [kde._rings(p.bandwidth) for _, p, _ in cases] == [1, 1, 2, 5]
    first = []
    for agents, params, grid in cases:
        first.append(estimate_density(agents, params, grid).values)
    for order in itertools.permutations(range(len(cases))):
        for idx in order:
            again = estimate_density(*cases[idx]).values
            assert np.array_equal(again, first[idx]), (order, idx)
