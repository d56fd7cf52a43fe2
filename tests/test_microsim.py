import itertools
import logging
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmherd import (
    AgentEnsemble,
    GoalRegion,
    GridSpec,
    KdeParams,
    KernelParams,
    SimParams,
    containment,
    drift_all,
    herder_lattice,
    kernel_free,
    plan_herders,
    run,
    step,
    uniform_targets,
    wrap,
    wrapped_displacement,
)
from swarmherd import microsim
from swarmherd.kernel import image_shifts

PI = np.pi


@pytest.fixture(scope="module")
def kernel():
    return KernelParams(length=PI, images=2)


def brute_force_drift(target, herders, alpha, kernel):
    """Oracle: explicit image-block sum, independent of the library path."""
    total = np.zeros(2)
    for h in herders:
        d = wrapped_displacement(target, h)
        for shift in image_shifts(kernel.images):
            total += kernel_free(d + shift, kernel)
    return alpha * total


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def test_drift_no_herders_is_zero(kernel):
    for fast in (True, False):
        out = drift_all(np.array([[0.3, -0.2]]), np.zeros((0, 2)), 1.0, kernel, fast=fast)
        np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_drift_coincident_herder_is_zero(kernel):
    p = np.array([[0.5, 0.5]])
    for fast in (True, False):
        out = drift_all(p, p, 1.0, kernel, fast=fast)
        np.testing.assert_allclose(out, [[0.0, 0.0]], atol=1e-15)


def test_drift_single_herder_matches_oracle(kernel):
    target = np.array([1.0, 0.0])
    herders = np.array([[0.0, 0.0]])
    expected = brute_force_drift(target, herders, 1.0, kernel)
    # the reference image sum to rounding, the table path to the tolerance
    # test_drift_all_matches_oracle_both_paths holds it to
    for fast, rtol, atol in ((False, 1e-12, 0.0), (True, 1e-6, 1e-12)):
        (got,) = drift_all(target[None, :], herders, 1.0, kernel, fast=fast)
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)
        # for L = pi the images are not small: the nearest pair on the axis,
        # at 1 - 2 pi and 1 + 2 pi, gives the closed form below (the one
        # across the seam alone is -0.186), and the 22 farther images of the
        # 5 x 5 block shift it by a further -0.004; together they pull the
        # drift below the free kernel exp(-1/pi) = 0.727
        closed_form = (np.exp(-1 / PI) - np.exp(-(2 * PI - 1) / PI)
                       + np.exp(-(2 * PI + 1) / PI))
        assert got[0] == pytest.approx(closed_form, abs=0.01)
        assert got[0] < np.exp(-1 / PI)
        assert got[1] == pytest.approx(0.0, abs=1e-12)


def test_drift_all_matches_oracle_both_paths(kernel):
    rng = np.random.default_rng(31)
    targets = rng.uniform(-PI, PI, (12, 2))
    herders = rng.uniform(-PI, PI, (7, 2))
    alpha = 1.0 / 19
    expected = np.array([brute_force_drift(t, herders, alpha, kernel)
                         for t in targets])
    slow = drift_all(targets, herders, alpha, kernel, fast=False)
    np.testing.assert_allclose(slow, expected, rtol=1e-12)
    fast = drift_all(targets, herders, alpha, kernel, fast=True)
    np.testing.assert_allclose(fast, expected, rtol=1e-6, atol=1e-12)


def test_fast_drift_close_to_exact_at_scale(kernel):
    rng = np.random.default_rng(32)
    targets = rng.uniform(-PI, PI, (300, 2))
    herders = rng.uniform(-PI, PI, (100, 2))
    exact = drift_all(targets, herders, 1e-3, kernel, fast=False)
    fast = drift_all(targets, herders, 1e-3, kernel, fast=True)
    assert np.abs(fast - exact).max() / np.abs(exact).max() < 1e-7


def assert_fast_close(targets, herders, kernel, alpha=1e-3):
    """Fast path within 1e-7 max-norm relative of the reference image sum.

    Where the drift cancels to zero (a target on its only herder) the
    reference is its own rounding: each of the (2P+1)^2 image terms of a
    pair is at most alpha in size, so that is the absolute floor.
    """
    exact = drift_all(targets, herders, alpha, kernel, fast=False)
    fast = drift_all(targets, herders, alpha, kernel)
    assert np.isfinite(fast).all()
    rounding = (np.finfo(float).eps * (2 * kernel.images + 1) ** 2
                * alpha * len(herders))
    assert np.abs(fast - exact).max() <= 1e-7 * np.abs(exact).max() + rounding


def test_fast_drift_odd_bit_for_bit(kernel):
    rng = np.random.default_rng(33)
    targets = rng.uniform(-PI, PI, (50, 2))
    herders = rng.uniform(-PI, PI, (40, 2))
    forward = drift_all(targets, herders, 0.01, kernel)
    assert np.array_equal(drift_all(-targets, -herders, 0.01, kernel), -forward)


# differences of these coordinates are exact, so displacements land on the
# seam (+pi wraps to -pi) and on the corners of the square
_seam = st.sampled_from([-PI, -PI / 2, 0.0, PI / 2])
_coord = st.one_of(_seam, st.floats(-PI, PI, exclude_max=True))
_point = st.tuples(_coord, _coord)


@settings(max_examples=100, deadline=None)
@given(target=_point, herder=_point)
# near the axis the tail must vanish with its first argument: a table that
# is not exactly 0 on a = 0 misses here by 7e-17 against a 5.6e-18 floor
@example(target=(0.0, 0.0), herder=(0.0, 1.943322992034681e-213))
def test_fast_drift_close_to_exact_on_seam(kernel, target, herder):
    # one pair per example: on the seam the nearest image and the one
    # across the seam nearly cancel, the hardest case for the tail table
    assert_fast_close(np.array([target]), np.array([herder]), kernel)


def image_tail(a, b, kernel):
    """x component of every image but the nearest, at (a, b) in [0, pi]^2."""
    q = np.zeros_like(a)
    for sx, sy in image_shifts(kernel.images):
        if sx or sy:
            q += kernel_free(np.stack([a + sx, b + sy], axis=-1), kernel)[:, 0]
    return q


@pytest.mark.parametrize("length", [1.0, PI, 2 * PI])
@pytest.mark.parametrize("images", [0, 1, 2, 3])
def test_tail_table_matches_image_tail(length, images):
    # evaluate the table term by term from its monomials, independently of
    # drift's in-place Horner scheme
    kernel = KernelParams(length=length, images=images)
    table = microsim._tail_table(kernel)
    cells = microsim._TAIL_CELLS
    rng = np.random.default_rng(39)
    points = rng.uniform(0.0, PI, (2, 4000))
    points[0, :200] = 0.0  # the edge a = 0, where the tail is odd in a
    points[:, 200:204] = [[0.0, PI, PI, 0.0], [0.0, 0.0, PI, PI]]  # corners
    scaled = points * (cells / PI)
    cell = np.minimum(scaled.astype(int), cells - 1)
    u, v = scaled - cell
    coeffs = table[:, cell[0] * cells + cell[1]]
    got = sum(c * u**p * v**q for c, (p, q) in zip(coeffs, microsim._POWERS))
    assert np.all(got[:200] == 0.0)
    expected = image_tail(*points, kernel)
    assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()


def test_fast_drift_target_on_herder_is_finite(kernel):
    rng = np.random.default_rng(34)
    herders = rng.uniform(-PI, PI, (30, 2))
    targets = np.vstack([herders[:3], rng.uniform(-PI, PI, (10, 2))])
    assert_fast_close(targets, herders, kernel)


def test_fast_drift_clustered_herders(kernel):
    rng = np.random.default_rng(35)
    herders = wrap(np.array([3.0, -3.0]) + 1e-3 * rng.standard_normal((50, 2)))
    targets = wrap(np.array([3.0, -3.0]) + 0.05 * rng.standard_normal((40, 2)))
    assert_fast_close(np.vstack([targets, rng.uniform(-PI, PI, (20, 2))]),
                      herders, kernel)


@pytest.mark.parametrize("length, images", [
    (PI, 0), (PI, 1), (PI, 3), (0.3, 2), (1.0, 2), (2 * PI, 2),
])
def test_fast_drift_close_to_exact_across_kernels(length, images):
    rng = np.random.default_rng(36)
    assert_fast_close(rng.uniform(-PI, PI, (200, 2)), rng.uniform(-PI, PI, (60, 2)),
                      KernelParams(length=length, images=images))


@pytest.mark.parametrize("n_targets", [1, 721])
def test_fast_drift_any_target_count(kernel, n_targets):
    # 721 targets do not fill a whole number of blocks of work
    rng = np.random.default_rng(37)
    assert_fast_close(rng.uniform(-PI, PI, (n_targets, 2)),
                      rng.uniform(-PI, PI, (260, 2)), kernel)


def test_fast_drift_buffer_reuse_leaks_no_state(kernel):
    # the workspace is shared by calls of one block shape, and a shorter
    # last block (721 = 23 * 31 + 8 targets) carves its views from a prefix
    rng = np.random.default_rng(38)
    cases = [(rng.uniform(-PI, PI, (nt, 2)), rng.uniform(-PI, PI, (nh, 2)))
             for nt, nh in [(15, 260), (721, 260), (40, 7)]]
    first = []
    for targets, herders in cases:
        microsim._workspace.cache_clear()
        first.append(drift_all(targets, herders, 1e-3, kernel))
    for order in itertools.permutations(range(len(cases))):
        for idx in order:
            again = drift_all(*cases[idx], 1e-3, kernel)
            assert np.array_equal(again, first[idx]), (order, idx)


@pytest.mark.parametrize("n_h", [1, 7, 260])
def test_fast_drift_same_bits_for_every_block_size(kernel, monkeypatch, n_h):
    rng = np.random.default_rng(39)
    herders = rng.uniform(-PI, PI, (n_h, 2))
    targets = np.vstack([herders[:3], [[-PI, -PI], [-PI, 0.0]],
                         rng.uniform(-PI, PI, (721 - min(n_h, 3) - 2, 2))])
    expected = drift_all(targets, herders, 1e-3, kernel)
    # one pair, one target, the old and the current default, one block for all
    for pairs in (1, n_h, 4096, 8192, 721 * n_h):
        monkeypatch.setattr(microsim, "_BLOCK_PAIRS", pairs)
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected), pairs


def test_fast_drift_row_equals_single_target_call(kernel):
    rng = np.random.default_rng(40)
    targets, herders = rng.uniform(-PI, PI, (721, 2)), rng.uniform(-PI, PI, (260, 2))
    full = drift_all(targets, herders, 1e-3, kernel)
    block = microsim._BLOCK_PAIRS // 260
    rows = {0, 720} | {j * block + o for j in (1, 2, 720 // block) for o in (-1, 0, 1)}
    for k in sorted(rows):
        one = drift_all(targets[k:k + 1], herders, 1e-3, kernel)
        assert np.array_equal(one, full[k:k + 1]), k


def warm_drift_peak(kernel, monkeypatch, split):
    """Traced peak of a warm drift call at paper scale, split or in one process."""
    rng = np.random.default_rng(41)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    if split:
        ready_helper(monkeypatch, kernel)
    else:
        monkeypatch.setattr(microsim, "_spare_cpu", lambda: False)
    drift_all(targets, herders, 1e-3, kernel)
    calls = microsim._split_calls
    tracemalloc.start()
    try:
        drift_all(targets, herders, 1e-3, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert microsim._split_calls - calls == split
    return peak


def test_warm_fast_drift_makes_no_block_temporaries(kernel, monkeypatch):
    # a warm call at paper scale allocates its result and its wrapped and
    # transposed inputs; every block array is a workspace view, and no call
    # needs iterator buffers (measured 74 KiB)
    peak = warm_drift_peak(kernel, monkeypatch, split=False)
    assert peak <= 80 * 1024, peak


def test_warm_split_drift_makes_no_block_temporaries(kernel, monkeypatch):
    # the caller's share plus the request and the reply (measured 46 KiB)
    peak = warm_drift_peak(kernel, monkeypatch, split=True)
    assert peak <= 80 * 1024, peak


# ---------------------------------------------------------------------------
# the drift helper process
# ---------------------------------------------------------------------------


def ready_helper(monkeypatch, kernel):
    """This process's drift helper, started if need be, once it reports ready.

    The split is forced on, so it is tested on a single CPU too.
    """
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)
    deadline = time.monotonic() + 60
    while (helper := microsim._ready_helper(kernel)) is None:
        assert time.monotonic() < deadline, "the drift helper never reported ready"
        time.sleep(0.01)
    return helper


def one_process_drift(monkeypatch, targets, herders, alpha, kernel):
    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_spare_cpu", lambda: False)
        return drift_all(targets, herders, alpha, kernel)


def split_cases():
    rng = np.random.default_rng(42)
    uniform = lambda n: rng.uniform(-PI, PI, (n, 2))
    herders = uniform(260)
    clustered = wrap(np.array([3.0, -3.0]) + 1e-3 * rng.standard_normal((260, 2)))
    seam = np.array([[-PI, -PI], [-PI, 0.0], [0.0, -PI], [-PI, 1.5]])
    return {
        "one block": (uniform(31), herders),
        "two blocks": (uniform(62), herders),
        "721 x 260": (uniform(721), herders),
        "1 herder": (uniform(721), uniform(1)),
        "7 herders": (uniform(721), uniform(7)),
        "9000 herders": (uniform(40), uniform(9000)),
        "seam": (np.vstack([np.repeat(seam, 20, axis=0), uniform(100)]),
                 np.vstack([seam, herders])),
        "targets on herders": (np.vstack([uniform(100), herders]), herders),
        "clustered herders": (uniform(300), clustered),
        "herder lattice": (uniform(720), herder_lattice(260)),
    }


@pytest.mark.parametrize("case", list(split_cases()))
def test_split_drift_same_bits_as_one_process(kernel, monkeypatch, case):
    targets, herders = split_cases()[case]
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    ready_helper(monkeypatch, kernel)
    calls = microsim._split_calls
    got = drift_all(targets, herders, 1e-3, kernel)
    block = max(1, microsim._BLOCK_PAIRS // len(herders))
    assert microsim._split_calls - calls == (len(targets) > block)
    assert np.array_equal(got, expected)


def test_split_drift_carries_the_callers_block_size(kernel, monkeypatch):
    # the helper computes its share with the block size of the request
    rng = np.random.default_rng(43)
    targets, herders = rng.uniform(-PI, PI, (300, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    ready_helper(monkeypatch, kernel)
    for pairs in (1, 260, 4096):
        monkeypatch.setattr(microsim, "_BLOCK_PAIRS", pairs)
        calls = microsim._split_calls
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
        assert microsim._split_calls == calls + 1


def test_killed_helper_is_named_then_replaced(kernel, monkeypatch):
    rng = np.random.default_rng(44)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    helper = ready_helper(monkeypatch, kernel)
    helper.proc.kill()
    helper.proc.wait(timeout=60)
    with pytest.raises(RuntimeError, match=f"drift helper process {helper.proc.pid} "):
        drift_all(targets, herders, 1e-3, kernel)
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    fresh = ready_helper(monkeypatch, kernel)
    assert fresh is not helper
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1


@pytest.mark.parametrize("start", ["exits before ready", "cannot launch"])
def test_helper_that_fails_to_start_leaves_one_process(kernel, monkeypatch, tmp_path,
                                                       caplog, start):
    # the split only saves time: a helper that never reports ready warns once
    # and leaves every later call to this process, with the same bits
    rng = np.random.default_rng(48)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    microsim._stop_helper()
    interpreter = tmp_path / "interpreter"
    if start == "exits before ready":
        interpreter.write_text("#!/bin/sh\nexit 3\n")
        interpreter.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(interpreter))
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)
    monkeypatch.setattr(microsim, "_no_helper", False)
    calls = microsim._split_calls
    with caplog.at_level(logging.WARNING, logger="swarmherd"):
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
        if microsim._helper is not None:
            microsim._helper.proc.wait(timeout=60)
        for _ in range(3):
            assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._helper is None and microsim._no_helper
    assert microsim._split_calls == calls
    warnings = [r for r in caplog.records if "drift helper unavailable" in r.message]
    assert len(warnings) == 1


def test_failure_in_the_callers_share_leaves_no_stale_reply(kernel, monkeypatch):
    rng = np.random.default_rng(45)
    first = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    second = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, *second, 1e-3, kernel)
    ready_helper(monkeypatch, kernel)

    def failing(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_table_drift", failing)  # the caller's share only
        with pytest.raises(KeyboardInterrupt):
            drift_all(*first, 1e-3, kernel)
    # the request for ``first`` was sent; its reply must never be read as this one
    assert np.array_equal(drift_all(*second, 1e-3, kernel), expected)
    ready_helper(monkeypatch, kernel)
    calls = microsim._split_calls
    assert np.array_equal(drift_all(*second, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_leaves_the_parents_helper_alone(kernel, monkeypatch):
    rng = np.random.default_rng(47)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    helper = ready_helper(monkeypatch, kernel)
    pid = os.fork()
    if pid == 0:  # the child must never return into pytest
        code = 1
        try:
            ok = microsim._helper is None and np.array_equal(
                drift_all(targets, herders, 1e-3, kernel), expected)
            microsim._stop_helper()
            code = 0 if ok else 2
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert microsim._helper is helper
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1


def test_helper_does_not_outlive_its_caller(tmp_path):
    script = tmp_path / "drift.py"
    script.write_text(textwrap.dedent("""
        import time
        import numpy as np
        from swarmherd import KernelParams, microsim
        microsim._spare_cpu = lambda: True
        rng = np.random.default_rng(46)
        targets, herders = rng.uniform(-3, 3, (720, 2)), rng.uniform(-3, 3, (260, 2))
        kernel = KernelParams()
        while microsim._ready_helper(kernel) is None:
            time.sleep(0.01)
        microsim.drift_all(targets, herders, 1e-3, kernel)
        print(microsim._helper.proc.pid, microsim._split_calls)
    """))
    src = os.path.dirname(os.path.dirname(microsim.__file__))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    pid, calls = map(int, done.stdout.split())
    assert calls == 1
    # checked at once: the caller reaped its helper before it exited
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_fixed_point_without_noise_or_commands(kernel):
    params = SimParams(diffusion=0.0, dt=0.01, horizon=1.0, seed=1)
    ens = AgentEnsemble(herders=np.zeros((0, 2)),
                        targets=np.array([[0.1, 0.2], [-1.0, 2.0]]))
    out = step(ens, np.zeros((0, 2)), params, 0, kernel)
    np.testing.assert_array_equal(out.targets, ens.targets)


def test_explicit_euler_herder_advance(kernel):
    params = SimParams(diffusion=0.0, dt=0.01, horizon=1.0, seed=1)
    ens = AgentEnsemble(herders=np.array([[0.0, 0.0]]),
                        targets=np.array([[2.0, 2.0]]))
    out = step(ens, np.array([[1.0, 0.0]]), params, 0, kernel)
    np.testing.assert_allclose(out.herders[0], [0.01, 0.0], atol=1e-15)


def test_step_deterministic_given_seed_and_index(kernel):
    params = SimParams(diffusion=0.02, dt=0.01, horizon=1.0, seed=7)
    ens = AgentEnsemble(herders=np.array([[1.0, 1.0]]),
                        targets=uniform_targets(50, np.random.default_rng(3)))
    a = step(ens, np.zeros((1, 2)), params, 5, kernel)
    b = step(ens, np.zeros((1, 2)), params, 5, kernel)
    assert np.array_equal(a.targets, b.targets)
    c = step(ens, np.zeros((1, 2)), params, 6, kernel)
    assert not np.array_equal(a.targets, c.targets)


def test_noise_scaling_statistics(kernel):
    # per-axis increment std sqrt(2 D dt); sample variance over 1e5 draws
    d, dt = 0.01, 0.01
    params = SimParams(diffusion=d, dt=dt, horizon=1.0, seed=11)
    n = 100_000
    ens = AgentEnsemble(herders=np.zeros((0, 2)),
                        targets=uniform_targets(n, np.random.default_rng(0)))
    out = step(ens, np.zeros((0, 2)), params, 0, kernel)
    inc = wrapped_displacement(out.targets, ens.targets)
    expected_var = 2 * d * dt
    assert inc.var() == pytest.approx(expected_var, rel=0.02)

    params2 = SimParams(diffusion=2 * d, dt=dt, horizon=1.0, seed=11)
    out2 = step(ens, np.zeros((0, 2)), params2, 0, kernel)
    inc2 = wrapped_displacement(out2.targets, ens.targets)
    assert inc2.var() == pytest.approx(2 * expected_var, rel=0.02)


def test_positions_stay_wrapped(kernel):
    params = SimParams(diffusion=0.05, dt=0.1, horizon=1.0, seed=2)
    ens = AgentEnsemble(herders=np.array([[3.0, -3.0]]),
                        targets=uniform_targets(100, np.random.default_rng(1)))
    for s in range(10):
        ens = step(ens, np.array([[2.0, -2.0]]), params, s, kernel)
        assert np.all(ens.herders >= -PI) and np.all(ens.herders < PI)
        assert np.all(ens.targets >= -PI) and np.all(ens.targets < PI)


def test_step_requires_command_per_herder(kernel):
    params = SimParams()
    ens = AgentEnsemble(herders=np.zeros((3, 2)), targets=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        step(ens, np.zeros((2, 2)), params, 0, kernel)


# ---------------------------------------------------------------------------
# containment metric
# ---------------------------------------------------------------------------


def test_containment_extremes():
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    inside = AgentEnsemble(herders=np.zeros((0, 2)), targets=np.zeros((10, 2)))
    assert containment(inside, goal).chi == 100.0
    outside = AgentEnsemble(herders=np.zeros((0, 2)),
                            targets=np.full((10, 2), PI - 0.01))
    assert containment(outside, goal).chi == 0.0


def test_containment_half():
    goal = GoalRegion(center=np.zeros(2), radius=1.0)
    targets = np.vstack([np.zeros((5, 2)), np.full((5, 2), 2.0)])
    metric = containment(
        AgentEnsemble(herders=np.zeros((0, 2)), targets=targets), goal
    )
    assert metric.chi == 50.0
    assert metric.n_inside == 5


def test_containment_uses_torus_distance():
    goal = GoalRegion(center=np.array([PI - 0.2, 0.0]), radius=0.5)
    target = np.array([[-PI + 0.2, 0.0]])  # 0.4 away across the seam
    metric = containment(
        AgentEnsemble(herders=np.zeros((0, 2)), targets=target), goal
    )
    assert metric.chi == 100.0


# ---------------------------------------------------------------------------
# lattice and ensemble invariants
# ---------------------------------------------------------------------------


def test_lattice_centered_with_equal_margins():
    pts = herder_lattice(16)
    assert pts.shape == (16, 2)
    np.testing.assert_allclose(pts.mean(axis=0), [0.0, 0.0], atol=1e-12)
    assert np.all(pts >= -PI) and np.all(pts < PI)


def test_lattice_partial_fill_keeps_row_major_order():
    pts = herder_lattice(5)  # 3x3 lattice, first five sites
    assert pts.shape == (5, 2)
    assert len(np.unique(pts, axis=0)) == 5


def test_alpha_normalization():
    ens = AgentEnsemble(herders=np.zeros((3, 2)), targets=np.zeros((7, 2)))
    assert ens.alpha * (ens.n_herders + ens.n_targets) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# closed-loop run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_plan(kernel):
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    return goal, plan_herders(goal, 60, 0.01, kernel, GridSpec(15), GridSpec(32))


def test_run_conserves_counts_and_domain(kernel, small_plan):
    goal, plan = small_plan
    res = run(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=1.0, seed=3),
        metrics_every=20, snapshot_every=50,
    )
    assert res.final.n_targets == 60
    assert res.final.n_herders == plan.n_herders
    for _, herders, targets in res.snapshots:
        assert herders.shape[0] == plan.n_herders
        assert targets.shape[0] == 60
        assert np.all(herders >= -PI) and np.all(herders < PI)
        assert np.all(targets >= -PI) and np.all(targets < PI)
    assert res.metric_times[0] == 0.0
    assert res.metric_times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("n_steps, reported", [
    (1, [1]), (23, [3, 6, 9, 12, 15, 18, 21]), (100, list(range(10, 101, 10))),
])
def test_run_reports_progress_at_most_every_tenth(kernel, small_plan, caplog,
                                                   n_steps, reported):
    goal, plan = small_plan
    with caplog.at_level(logging.INFO, logger="swarmherd"):
        run(n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
            goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
            sim=SimParams(dt=0.01, horizon=n_steps * 0.01), metrics_every=10)
    lines = [r.getMessage() for r in caplog.records if r.name == "swarmherd"]
    assert [line.split(",")[0] for line in lines] == [
        f"step {s} of {n_steps}" for s in reported]


def test_run_bit_identical_given_seed(kernel, small_plan):
    goal, plan = small_plan
    kwargs = dict(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.5, seed=5),
        metrics_every=10,
    )
    a = run(**kwargs)
    b = run(**kwargs)
    assert np.array_equal(a.chi, b.chi)
    assert np.array_equal(a.final.targets, b.final.targets)
    assert np.array_equal(a.final.herders, b.final.herders)


def test_run_replays_through_step(kernel, small_plan):
    # targets move by the drift of the step's starting herders and the
    # step's noise; the commands only move the herders
    goal, plan = small_plan
    sim = SimParams(diffusion=0.02, dt=0.01, horizon=0.05, seed=9)
    res = run(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(), sim=sim,
        snapshot_every=1,
    )
    assert len(res.snapshots) == sim.n_steps + 1
    rng = np.random.default_rng(4)
    for s, ((_, h0, x0), (_, _, x1)) in enumerate(
            zip(res.snapshots, res.snapshots[1:])):
        ens = AgentEnsemble(herders=h0, targets=x0)
        out = step(ens, rng.standard_normal(h0.shape), sim, s, kernel)
        assert np.array_equal(out.targets, x1)


def test_run_stage_seconds_cover_at_most_the_wall_time(kernel, small_plan):
    goal, plan = small_plan
    res = run(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.2, seed=3, v_max=1.0),
        metrics_every=5, snapshot_every=7,
    )
    stages = res.stage_seconds
    assert set(stages) == {"kde", "control", "sampling", "step", "metrics"}
    assert all(np.isfinite(v) and v >= 0 for v in stages.values())
    assert stages["step"] > 0 and stages["kde"] > 0
    assert sum(stages.values()) <= res.wall_time


@pytest.mark.parametrize("v_max", [None, 1e-3])
def test_run_records_loop_health_per_metric(kernel, small_plan, v_max):
    goal, plan = small_plan
    res = run(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.2, seed=3, v_max=v_max),
        metrics_every=5,
    )
    health = (res.herder_error_l2, res.removed_mean, res.peak_speed, res.clipped_share,
              res.floor_share)
    for series in health:
        assert series.shape == res.chi.shape
        assert np.all(np.isfinite(series))
    # the herders' KDE stays far above the density floor everywhere
    assert np.all(res.floor_share == 0.0)
    # the KDE carries the reference's mass, so the Poisson solve removes
    # only rounding
    assert np.abs(res.removed_mean).max() <= 1e-14 * plan.rho_bar_h.values.max()
    assert np.all(res.peak_speed > 0)
    if v_max is None:
        assert np.all(res.clipped_share == 0.0)
    else:  # commands start at several rad/s, far above the limit
        assert np.all((res.clipped_share > 0) & (res.clipped_share <= 1))


def test_run_records_its_drift_processes_and_same_bits(kernel, monkeypatch):
    # paper scale is many blocks of work: split or not, the run ends in the
    # same state
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 720, 0.01, kernel, GridSpec(15), GridSpec(32))
    kwargs = dict(
        n_targets=720, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.05, seed=6),
    )
    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_spare_cpu", lambda: False)
        alone = run(**kwargs)
    ready_helper(monkeypatch, kernel)
    shared = run(**kwargs)
    assert (alone.drift_processes, shared.drift_processes) == (1, 2)
    assert np.array_equal(alone.final.targets, shared.final.targets)
    assert np.array_equal(alone.chi, shared.chi)
    for res in (alone, shared):
        assert np.isfinite(res.cpu_time) and 0 <= res.cpu_time


def test_run_zero_horizon_gives_initial_metric_only(kernel, small_plan):
    goal, plan = small_plan
    res = run(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.0, seed=3),
    )
    assert len(res.chi) == 2  # the t=0 record and the final record coincide
    assert res.chi[0] == res.chi[-1]


def test_zero_gain_frozen_lattice_baseline(kernel):
    # no control, frozen lattice herders: containment hovers at the uniform
    # baseline, the goal-area fraction of the domain
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    n_t, n_h = 400, 49
    ens = AgentEnsemble(herders=herder_lattice(n_h),
                        targets=uniform_targets(n_t, np.random.default_rng((21, 0))))
    params = SimParams(diffusion=0.05, dt=0.02, horizon=1.0, seed=21)
    chis = [containment(ens, goal).chi]
    for s in range(50):
        ens = step(ens, np.zeros((n_h, 2)), params, s, kernel)
        chis.append(containment(ens, goal).chi)
    baseline = 100.0 * PI * (PI / 2) ** 2 / (4 * PI**2)  # ~19.6%
    assert abs(np.mean(chis) - baseline) < 6.0
