import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swarmherd import ArenaMap, torus_distance, wrap, wrapped_displacement

PI = np.pi


def test_wrap_shifts_by_one_period():
    np.testing.assert_allclose(wrap(np.array([3 * PI / 2, 0.0])), [-PI / 2, 0.0])


def test_wrap_identity_inside_domain():
    p = np.array([0.0, 0.0])
    assert np.array_equal(wrap(p), p)


def test_wrap_hand_evaluated_shift():
    out = wrap(np.array([-PI - 0.1, PI + 0.1]))
    np.testing.assert_allclose(out, [PI - 0.1, -PI + 0.1])


def test_wrap_seam_convention():
    # half-open [-pi, pi): +pi maps to -pi, -pi stays
    assert wrap(np.array([PI]))[0] == -PI
    assert wrap(np.array([-PI]))[0] == -PI


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
@example(np.array([PI, -PI, np.nextafter(PI, 0), np.nextafter(-PI, -4), -0.0, 1e6, -1e6]))
def test_wrap_idempotent_and_in_domain(x):
    once = wrap(x)
    assert np.all((once >= -PI) & (once < PI))
    np.testing.assert_array_equal(wrap(once), once)


def test_wrap_rejects_non_finite():
    with pytest.raises(ValueError):
        wrap(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        wrap(np.array([np.inf, 0.0]))


def test_wrap_idempotent_and_periodic():
    rng = np.random.default_rng(7)
    p = rng.uniform(-10, 10, size=(500, 2))
    w = wrap(p)
    assert np.array_equal(wrap(w), w)  # bit-exact idempotence
    assert np.all(w >= -PI) and np.all(w < PI)
    for n in ([2.0, -1.0], [5.0, 3.0]):
        np.testing.assert_allclose(wrap(p + 2 * PI * np.array(n)), w, atol=1e-9)


def test_displacement_shortest_across_seam():
    a = np.array([PI - 0.1, 0.0])
    b = np.array([-PI + 0.1, 0.0])
    np.testing.assert_allclose(wrapped_displacement(a, b), [-0.2, 0.0], atol=1e-12)


def test_displacement_zero_and_interior():
    a = np.array([1.0, 0.0])
    np.testing.assert_allclose(wrapped_displacement(a, a), [0.0, 0.0])
    np.testing.assert_allclose(wrapped_displacement(a, np.zeros(2)), [1.0, 0.0])


def test_displacement_antisymmetric_off_seam():
    rng = np.random.default_rng(11)
    a = rng.uniform(-3, 3, size=(200, 2))
    b = rng.uniform(-3, 3, size=(200, 2))
    d_ab = wrapped_displacement(a, b)
    d_ba = wrapped_displacement(b, a)
    off_seam = np.all(d_ab != -PI, axis=1) & np.all(d_ba != -PI, axis=1)
    np.testing.assert_allclose(d_ab[off_seam], -d_ba[off_seam], atol=1e-12)


def test_distance_examples():
    a = np.array([PI - 0.1, 0.0])
    b = np.array([-PI + 0.1, 0.0])
    assert torus_distance(a, b) == pytest.approx(0.2, abs=1e-12)
    assert torus_distance(a, a) == 0.0
    assert torus_distance(np.zeros(2), np.array([0.0, PI / 2])) == pytest.approx(PI / 2)


def test_distance_symmetric_triangle_and_bounded():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-PI, PI, size=(60, 2))
    for _ in range(300):
        i, j, k = rng.integers(0, len(pts), size=3)
        d_ij = torus_distance(pts[i], pts[j])
        d_ji = torus_distance(pts[j], pts[i])
        assert d_ij == pytest.approx(d_ji, abs=1e-12)
        assert d_ij <= torus_distance(pts[i], pts[k]) + torus_distance(pts[k], pts[j]) + 1e-12
        assert d_ij <= PI * np.sqrt(2) + 1e-12


def test_arena_round_trip():
    arena = ArenaMap(half_width=1.0)
    rng = np.random.default_rng(3)
    p = rng.uniform(-PI, PI, size=(50, 2))
    np.testing.assert_allclose(arena.to_torus(p * arena.scale), p, rtol=1e-14)
    np.testing.assert_allclose(np.array([PI, -PI / 2]) * arena.scale, [1.0, -0.5])


def test_arena_rejects_bad_width():
    with pytest.raises(ValueError):
        ArenaMap(half_width=0.0)
