import itertools
from dataclasses import replace

import numpy as np
import pytest

from swarmherd import GridSpec, KdeParams, estimate_density, kde, mass

PI = np.pi


@pytest.fixture
def grid():
    return GridSpec(64)


def test_single_agent_peak_at_agent_and_unit_mass(grid):
    params = KdeParams(bandwidth=0.4, images=2)
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
    params = KdeParams(bandwidth=2.0, images=2)
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


def test_sequential_matches_blas_reduction(grid):
    rng = np.random.default_rng(6)
    agents = rng.uniform(-PI, PI, size=(25, 2))
    params = KdeParams(bandwidth=0.4)
    fast = estimate_density(agents, params, grid, mass=0.5)
    seq = estimate_density(agents, replace(params, sequential=True), grid, mass=0.5)
    np.testing.assert_allclose(fast.values, seq.values, rtol=1e-13)


def test_sequential_bit_reproducible(grid):
    rng = np.random.default_rng(7)
    agents = rng.uniform(-PI, PI, size=(25, 2))
    params = KdeParams(bandwidth=0.4, sequential=True)
    a = estimate_density(agents, params, grid, mass=0.5)
    b = estimate_density(agents, params, grid, mass=0.5)
    assert np.array_equal(a.values, b.values)


def test_empty_agent_set_rejected(grid):
    with pytest.raises(ValueError):
        estimate_density(np.zeros((0, 2)), KdeParams(), grid)


def test_param_validation(grid):
    with pytest.raises(ValueError):
        KdeParams(bandwidth=0.0)
    with pytest.raises(ValueError, match="mass"):
        estimate_density(np.zeros((1, 2)), KdeParams(), grid, mass=-1.0)
    with pytest.raises(ValueError):
        KdeParams(images=-1)
    with pytest.raises(ValueError):
        KdeParams(sequential=1)


def test_image_buffer_reuse_leaks_no_state():
    # the scratch is kept per (agents, grid size); calls of other sizes and
    # image counts in between must not change a result
    rng = np.random.default_rng(12)
    cases = [(rng.uniform(-PI, PI, (260, 2)), KdeParams(images=2), GridSpec(64)),
             (rng.uniform(-PI, PI, (1, 2)), KdeParams(images=0), GridSpec(16)),
             (rng.uniform(-PI, PI, (37, 2)),
              KdeParams(bandwidth=1.0, images=3, sequential=True), GridSpec(33)),
             (rng.uniform(-PI, PI, (260, 2)), KdeParams(images=1, sequential=True),
              GridSpec(64))]
    first = []
    for agents, params, grid in cases:
        kde._image_buffer.cache_clear()
        first.append(estimate_density(agents, params, grid).values)
    for order in itertools.permutations(range(len(cases))):
        for idx in order:
            again = estimate_density(*cases[idx]).values
            assert np.array_equal(again, first[idx]), (order, idx)
