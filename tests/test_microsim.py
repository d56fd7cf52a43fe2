import itertools
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import kernel_free
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
    coeffs = table[cell[0] * cells + cell[1]].T
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
    # calls of other shapes, in any order, leave each call's bits alone; the
    # last block of 721 = 23 * 31 + 8 targets is a short one
    rng = np.random.default_rng(38)
    cases = [(rng.uniform(-PI, PI, (nt, 2)), rng.uniform(-PI, PI, (nh, 2)))
             for nt, nh in [(15, 260), (721, 260), (40, 7)]]
    first = [drift_all(targets, herders, 1e-3, kernel) for targets, herders in cases]
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
    """Traced peak of a warm drift call at paper scale, split or in one thread."""
    rng = np.random.default_rng(41)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: split)
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
    # a warm call at paper scale allocates its result and its wrapped inputs;
    # the compiled kernel allocates nothing (measured 28 KiB)
    peak = warm_drift_peak(kernel, monkeypatch, split=False)
    assert peak <= 80 * 1024, peak


def test_warm_split_drift_makes_no_block_temporaries(kernel, monkeypatch):
    # the same arrays, plus the helper thread (measured 32 KiB)
    peak = warm_drift_peak(kernel, monkeypatch, split=True)
    assert peak <= 80 * 1024, peak


# ---------------------------------------------------------------------------
# the compiled kernel and the helper thread
# ---------------------------------------------------------------------------


def split_on(monkeypatch):
    """Force the split on, so it is tested on a single CPU too."""
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)


def one_thread_drift(monkeypatch, targets, herders, alpha, kernel):
    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_spare_cpu", lambda: False)
        return drift_all(targets, herders, alpha, kernel)


def drift_threads_alive():
    return [t for t in threading.enumerate() if t.name == "swarmherd-drift"]


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
        # the kernel reads C-ordered copies of these
        "Fortran order": (np.asfortranarray(uniform(720)), np.asfortranarray(herders)),
        "Fortran order, out of range": (np.asfortranarray(3 * uniform(720)),
                                        np.asfortranarray(3 * uniform(260))),
    }


@pytest.mark.parametrize("case", list(split_cases()) + ["720 x 260"])
def test_compiled_drift_matches_the_reference(kernel, monkeypatch, case):
    # the kernel against the image sum, on one thread and on two
    assert microsim._compiled_drift() is not None
    rng = np.random.default_rng(56)
    targets, herders = (split_cases()[case] if case in split_cases()
                        else (rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))))
    shared = len(targets) > microsim._block_size(len(herders))
    for split in (False, True):
        monkeypatch.setattr(microsim, "_spare_cpu", lambda: split)
        calls = microsim._split_calls
        assert_fast_close(targets, herders, kernel)
        assert microsim._split_calls - calls == (split and shared)


@pytest.mark.parametrize("case", list(split_cases()))
def test_split_drift_same_bits_as_one_process(kernel, monkeypatch, case):
    targets, herders = split_cases()[case]
    expected = one_thread_drift(monkeypatch, targets, herders, 1e-3, kernel)
    split_on(monkeypatch)
    calls = microsim._split_calls
    got = drift_all(targets, herders, 1e-3, kernel)
    block = max(1, microsim._BLOCK_PAIRS // len(herders))
    assert microsim._split_calls - calls == (len(targets) > block)
    assert np.array_equal(got, expected)


def test_split_drift_carries_the_callers_block_size(kernel, monkeypatch):
    # the helper thread takes blocks of the call's size, down to one target
    rng = np.random.default_rng(43)
    targets, herders = rng.uniform(-PI, PI, (300, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_thread_drift(monkeypatch, targets, herders, 1e-3, kernel)
    split_on(monkeypatch)
    for pairs in (1, 260, 4096):
        monkeypatch.setattr(microsim, "_BLOCK_PAIRS", pairs)
        calls = microsim._split_calls
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
        assert microsim._split_calls == calls + 1


def test_failed_build_warns_once_and_drifts_with_the_reference(kernel, monkeypatch, caplog,
                                                               tmp_path):
    # the kernel only saves time: a build that fails warns once, is never
    # retried, and leaves every call to the image sum in one thread
    rng = np.random.default_rng(48)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = drift_all(targets, herders, 1e-3, kernel, fast=False)
    builds = []

    def failing(directory, name):
        builds.append(name)
        raise OSError("no compiler here")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # nothing cached there
    monkeypatch.setattr(microsim, "_build_kernel", failing)
    split_on(monkeypatch)
    microsim._compiled_drift.cache_clear()
    calls = microsim._split_calls
    try:
        with caplog.at_level(logging.WARNING, logger="swarmherd"):
            for _ in range(3):
                assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
            assert microsim._hand_out(wrap(targets), wrap(herders), kernel) is None
    finally:
        microsim._compiled_drift.cache_clear()
    assert len(builds) == 1 and microsim._split_calls == calls
    assert microsim._handed is None and not drift_threads_alive()
    warnings = [r for r in caplog.records if "compiled drift unavailable" in r.message]
    assert len(warnings) == 1 and "no compiler here" in warnings[0].message


def test_compiler_failure_is_named(monkeypatch, tmp_path):
    monkeypatch.setattr(microsim, "_CFLAGS", microsim._CFLAGS + ("-no-such-flag",))
    with pytest.raises(OSError, match="C compiler exited with status [1-9].*no-such-flag"):
        microsim._build_kernel(str(tmp_path), "_drift-test.so")


def test_kernel_is_built_once_then_loaded_from_the_cache(monkeypatch, tmp_path):
    builds, build = [], microsim._build_kernel

    def counted(directory, name):
        builds.append(name)
        return build(directory, name)

    monkeypatch.setattr(microsim, "_build_kernel", counted)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    try:
        for _ in range(2):
            microsim._compiled_drift.cache_clear()
            assert microsim._compiled_drift() is not None
        assert len(builds) == 1
        assert os.listdir(tmp_path / "swarmherd") == builds  # no temporary left
        # where the cache cannot be written, the library is built, loaded and
        # removed again
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        microsim._compiled_drift.cache_clear()
        assert microsim._compiled_drift() is not None
        assert len(builds) == 2
    finally:
        microsim._compiled_drift.cache_clear()


def test_import_and_plan_build_no_kernel(tmp_path):
    # the kernel is built at the first fast drift, so setup and the plan run
    # none of it
    script = tmp_path / "plan.py"
    script.write_text(textwrap.dedent("""
        import os
        import swarmherd
        from swarmherd import GoalRegion, GridSpec, KernelParams, microsim, plan_herders
        plan_herders(GoalRegion(), 720, 0.01, KernelParams(), GridSpec(15), GridSpec(32))
        assert microsim._compiled_drift.cache_info().currsize == 0
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as maps:
                assert "_drift-" not in maps.read()
    """))
    src = os.path.dirname(os.path.dirname(microsim.__file__))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr


def test_hand_out_is_collected_only_by_its_own_arrays(kernel, monkeypatch):
    # a hand-out is matched by identity: equal arrays that are not the ones
    # handed out drop it and drift anew, with the same bits
    rng = np.random.default_rng(46)
    targets, herders = wrap(rng.uniform(-PI, PI, (720, 2))), wrap(rng.uniform(-PI, PI, (260, 2)))
    expected = one_thread_drift(monkeypatch, targets, herders, 1e-3, kernel)
    split_on(monkeypatch)
    for pair in ((targets.copy(), herders), (targets, herders.copy())):
        handed = microsim._hand_out(targets, herders, kernel)
        assert np.array_equal(drift_all(*pair, 1e-3, kernel), expected)
        assert not handed.thread.is_alive() and microsim._handed is None
    handed = microsim._hand_out(targets, herders, kernel)
    assert np.array_equal(drift_all(targets, herders, 1e-3, KernelParams(PI, 1)),
                          one_thread_drift(monkeypatch, targets, herders, 1e-3,
                                           KernelParams(PI, 1)))
    assert microsim._handed is None and not handed.thread.is_alive()
    handed = microsim._hand_out(targets, herders, kernel)
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1 and microsim._handed is None
    assert handed.next.value == handed.blocks + 2


def test_failure_in_the_callers_share_leaves_no_stale_reply(kernel, monkeypatch):
    # the caller's share fails: the helper thread is stopped and joined, and
    # neither its rows nor its counter reach the next call
    rng = np.random.default_rng(45)
    first = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    second = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_thread_drift(monkeypatch, *second, 1e-3, kernel)
    split_on(monkeypatch)
    call = microsim._Drift.call

    def failing_in_the_caller(self):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        call(self)

    with monkeypatch.context() as patch:
        patch.setattr(microsim._Drift, "call", failing_in_the_caller)
        with pytest.raises(KeyboardInterrupt):
            drift_all(*first, 1e-3, kernel)
    assert microsim._handed is None and not drift_threads_alive()
    calls = microsim._split_calls
    assert np.array_equal(drift_all(*second, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1


@pytest.fixture(scope="module")
def paper_run(kernel):
    """``run`` arguments at paper scale: many blocks of drift per step."""
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 720, 0.01, kernel, GridSpec(15), GridSpec(32))
    return dict(n_targets=720, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
                goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
                sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.05, seed=8))


def one_thread_run(monkeypatch, kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_spare_cpu", lambda: False)
        return run(**kwargs)


def test_queue_same_bits_when_the_helper_takes_every_block(kernel, monkeypatch, paper_run):
    # each control tick waits until the helper thread has taken every block
    alone = one_thread_run(monkeypatch, paper_run)
    split_on(monkeypatch)
    estimate, waits = microsim.estimate_density, []

    def after_the_last_block(*args, **kwargs):
        drift, deadline = microsim._handed, time.monotonic() + 60
        while drift.next.value < drift.blocks and time.monotonic() < deadline:
            time.sleep(1e-4)
        waits.append(drift.next.value >= drift.blocks)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(microsim, "estimate_density", after_the_last_block)
    shared = run(**paper_run)
    assert waits == [True] * paper_run["sim"].n_steps
    assert shared.drift_threads == 2
    assert np.array_equal(shared.final.targets, alone.final.targets)
    assert np.array_equal(shared.chi, alone.chi)


class LateThread(threading.Thread):
    """A thread that starts only when it is joined."""

    def start(self):
        pass

    def join(self, timeout=None):
        super().start()
        super().join(timeout)


def test_queue_same_bits_when_the_caller_takes_every_block(kernel, monkeypatch):
    rng = np.random.default_rng(50)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_thread_drift(monkeypatch, targets, herders, 1e-3, kernel)
    split_on(monkeypatch)
    monkeypatch.setattr(microsim.threading, "Thread", LateThread)
    handed = []
    hand_out = microsim._hand_out
    monkeypatch.setattr(microsim, "_hand_out", lambda *a: handed.append(hand_out(*a))
                        or handed[-1])
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1
    # the caller took all 24 blocks and one index past them, the helper one more
    assert handed[0].blocks == 24 and handed[0].next.value == 26


def test_failure_between_hand_out_and_collection_drops_the_helper(kernel, monkeypatch,
                                                                  paper_run):
    # the control tick runs while the helper thread drifts: its failure must
    # stop and join that thread, and leave nothing for the next call
    alone = one_thread_run(monkeypatch, paper_run)
    split_on(monkeypatch)

    def failing(*args):
        raise ValueError("no control field")

    with monkeypatch.context() as patch:
        patch.setattr(microsim, "control_field", failing)
        with pytest.raises(ValueError, match="no control field"):
            run(**paper_run)
    assert microsim._handed is None and not drift_threads_alive()
    shared = run(**paper_run)
    assert shared.drift_threads == 2
    assert np.array_equal(shared.final.targets, alone.final.targets)


def test_helper_thread_that_cannot_start_leaves_one_thread(kernel, monkeypatch, paper_run,
                                                           caplog):
    # a thread that fails to start warns once, is never tried again, and
    # leaves the run on the calling thread, with the same bits
    alone = one_thread_run(monkeypatch, paper_run)
    split_on(monkeypatch)
    monkeypatch.setattr(microsim, "_no_helper", False)
    starts = []

    def failing(self):
        starts.append(self.name)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", failing)
    with caplog.at_level(logging.WARNING, logger="swarmherd"):
        res = run(**paper_run)
    assert starts == ["swarmherd-drift"]
    assert res.drift_threads == 1
    assert np.array_equal(res.final.targets, alone.final.targets)
    assert np.array_equal(res.chi, alone.chi)
    assert microsim._handed is None and not drift_threads_alive()
    warnings = [r for r in caplog.records if "helper thread unavailable" in r.message]
    assert len(warnings) == 1 and "can't start new thread" in warnings[0].message


def test_many_one_target_blocks_from_one_write(kernel, monkeypatch):
    # one counter serves any number of blocks: here 16 391 of one target each,
    # every one drifted exactly once
    for n_h in (1, 260, 9000):  # each block stays about _BLOCK_PAIRS pairs
        block = microsim._block_size(n_h)
        assert block * n_h <= max(microsim._BLOCK_PAIRS, n_h)
    assert microsim._block_size(260) == 31  # paper scale: 24 blocks of 720 targets
    rng = np.random.default_rng(52)
    n_t = 16391
    targets, herders = rng.uniform(-PI, PI, (n_t, 2)), rng.uniform(-PI, PI, (1, 2))
    expected = one_thread_drift(monkeypatch, targets, herders, 1e-3, kernel)
    split_on(monkeypatch)
    monkeypatch.setattr(microsim, "_BLOCK_PAIRS", 1)
    handed = []
    hand_out = microsim._hand_out
    monkeypatch.setattr(microsim, "_hand_out", lambda *a: handed.append(hand_out(*a))
                        or handed[-1])
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    # the counter hands out each index once: the blocks, then one past the
    # last to each of the two threads
    assert handed[0].blocks == n_t and handed[0].next.value == n_t + 2


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")


@needs_proc
def test_growing_calls_leak_no_descriptor_or_mapping(kernel, monkeypatch):
    # the kernel is loaded once; a call of any size opens no descriptor, maps
    # nothing and leaves no thread behind
    rng = np.random.default_rng(55)
    herders = rng.uniform(-PI, PI, (260, 2))
    split_on(monkeypatch)
    drift_all(rng.uniform(-PI, PI, (100, 2)), herders, 1e-3, kernel)
    fds = len(os.listdir("/proc/self/fd"))
    with open("/proc/self/maps") as maps:
        mapped = len(maps.readlines())
    threads = threading.active_count()
    for n_t in (200, 400, 800, 1600, 3200):
        targets = rng.uniform(-PI, PI, (n_t, 2))
        expected = one_thread_drift(monkeypatch, targets, herders, 1e-3, kernel)
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert len(os.listdir("/proc/self/fd")) == fds
    with open("/proc/self/maps") as maps:  # allocator arenas may come and go
        assert len(maps.readlines()) <= mapped + 4
    assert threading.active_count() == threads


def test_helper_does_not_outlive_its_caller(kernel, monkeypatch, paper_run):
    # every step's helper thread is joined before the step ends
    split_on(monkeypatch)
    threads = threading.active_count()
    joins, join = [], threading.Thread.join
    monkeypatch.setattr(threading.Thread, "join", lambda self, *a: joins.append(
        self.name) or join(self, *a))
    res = run(**paper_run)
    assert res.drift_threads == 2
    assert joins == ["swarmherd-drift"] * paper_run["sim"].n_steps
    assert threading.active_count() == threads and not drift_threads_alive()


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


def test_run_records_its_drift_threads_and_same_bits(kernel, monkeypatch):
    # paper scale is many blocks of work: split or not, the run ends in the
    # same state, and its threads account for all of its CPU time but rounding
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 720, 0.01, kernel, GridSpec(15), GridSpec(32))
    kwargs = dict(
        n_targets=720, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.05, seed=6),
    )
    alone = one_thread_run(monkeypatch, kwargs)
    split_on(monkeypatch)
    shared = run(**kwargs)
    assert (alone.drift_threads, shared.drift_threads) == (1, 2)
    assert np.array_equal(alone.final.targets, shared.final.targets)
    assert np.array_equal(alone.chi, shared.chi)
    for res in (alone, shared):
        assert np.isfinite(res.cpu_time) and 0 <= res.cpu_time
        assert 0 < res.thread_cpu_time <= res.cpu_time + 0.01


def test_shared_run_wraps_each_state_once(kernel, monkeypatch, paper_run):
    # the hand-out takes the ensemble's own arrays, wrapped when it was built:
    # the initial state and each step's new one are the only wraps
    split_on(monkeypatch)
    wraps, real = [], microsim.wrap
    monkeypatch.setattr(microsim, "wrap", lambda p: wraps.append(p.shape) or real(p))
    res = run(**paper_run)
    assert res.drift_threads == 2
    assert len(wraps) == 2 + 2 * paper_run["sim"].n_steps


@pytest.mark.parametrize("every", [0, -1, 1.5])
def test_run_rejects_a_bad_metrics_cadence(kernel, small_plan, every):
    goal, plan = small_plan
    with pytest.raises(ValueError, match=rf"metrics_every = {every}\b"):
        run(n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
            goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
            sim=SimParams(dt=0.01, horizon=0.03), metrics_every=every)


@pytest.mark.parametrize("every", [-1, 1.5])
def test_run_rejects_a_bad_snapshot_cadence(kernel, small_plan, every):
    # the config loader rejects these; run used to store the ends only
    goal, plan = small_plan
    with pytest.raises(ValueError, match=rf"snapshot_every = {every}\b"):
        run(n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
            goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
            sim=SimParams(dt=0.01, horizon=0.03), snapshot_every=every)


def test_run_zero_horizon_gives_initial_metric_only(kernel, small_plan):
    goal, plan = small_plan
    res = run(
        n_targets=60, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
        goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
        sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.0, seed=3),
    )
    # the initial state is the final one: one record and one snapshot of it
    assert res.metric_times.tolist() == [0.0] and len(res.chi) == 1
    assert [t for t, *_ in res.snapshots] == [0.0]


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
