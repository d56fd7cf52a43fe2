import errno
import itertools
import json
import logging
import os
import signal
import subprocess
import sys
import textwrap
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
        forked_helper(monkeypatch, kernel)
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
    # needs iterator buffers (measured 48 KiB)
    peak = warm_drift_peak(kernel, monkeypatch, split=False)
    assert peak <= 80 * 1024, peak


def test_warm_split_drift_makes_no_block_temporaries(kernel, monkeypatch):
    # the wrapped inputs, the result and whatever share of the blocks this
    # process pulls (measured 48 KiB, whichever blocks it takes)
    peak = warm_drift_peak(kernel, monkeypatch, split=True)
    assert peak <= 80 * 1024, peak


def test_short_last_block_makes_no_temporaries(kernel):
    # the 7-target last block of 720 x 260 carves its arrays from a prefix of
    # the workspace and traces no more than a full block (the transposed
    # inputs); a ufunc over a reversed view of so short a block copies it
    rng = np.random.default_rng(41)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    block = microsim._block_size(260)
    last = 720 // block
    assert 0 < 720 - last * block < block
    out = np.empty_like(targets)
    microsim._table_drift(targets, herders, kernel, block, out, [0])  # warm
    peaks = []
    for j in (0, last):
        tracemalloc.start()
        try:
            microsim._table_drift(targets, herders, kernel, block, out, [j])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 * 1024, peaks


# ---------------------------------------------------------------------------
# the drift helper process
# ---------------------------------------------------------------------------


def forked_helper(monkeypatch, kernel):
    """This process's drift helper, forked if need be.

    The split is forced on, so it is tested on a single CPU too. Its shared
    buffer has room for every call of these tests (the largest, 16 391
    targets under one herder, needs 65 572 words), so no call forks it again
    and callers can compare its pid across calls.
    """
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)
    return microsim._running_helper(kernel, 1 << 17)


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
        # the helper's rows are read into row slices of a C-ordered result
        "Fortran order": (np.asfortranarray(uniform(720)), np.asfortranarray(herders)),
        "Fortran order, out of range": (np.asfortranarray(3 * uniform(720)),
                                        np.asfortranarray(3 * uniform(260))),
    }


@pytest.mark.parametrize("case", list(split_cases()))
def test_split_drift_same_bits_as_one_process(kernel, monkeypatch, case):
    targets, herders = split_cases()[case]
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    forked_helper(monkeypatch, kernel)
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
    forked_helper(monkeypatch, kernel)
    for pairs in (1, 260, 4096):
        monkeypatch.setattr(microsim, "_BLOCK_PAIRS", pairs)
        calls = microsim._split_calls
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
        assert microsim._split_calls == calls + 1


def test_killed_helper_is_named_then_replaced(kernel, monkeypatch):
    rng = np.random.default_rng(44)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    helper = forked_helper(monkeypatch, kernel)
    os.kill(helper.pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=f"drift helper process {helper.pid} .*exit "
                                           f"status -{signal.SIGKILL:d}"):
        drift_all(targets, herders, 1e-3, kernel)
    assert microsim._helper is None
    # the next call forks a fresh helper and shares with it
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1
    assert microsim._helper.pid != helper.pid


def test_failure_in_the_helper_is_printed_named_then_replaced(kernel, monkeypatch,
                                                              capfd):
    rng = np.random.default_rng(49)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    microsim._stop_helper()
    caller, table_drift = os.getpid(), microsim._table_drift

    def failing_in_the_helper(*args):
        if os.getpid() != caller:
            raise ValueError("no drift in the helper")
        table_drift(*args)

    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_table_drift", failing_in_the_helper)
        helper = forked_helper(patch, kernel)  # the fork sees the patch
        with pytest.raises(RuntimeError, match=f"drift helper process {helper.pid} "
                                               r".*\(exit status 1\)"):
            drift_all(targets, herders, 1e-3, kernel)
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: no drift in the helper" in err
    forked_helper(monkeypatch, kernel)
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1
    assert microsim._helper.pid != helper.pid


def test_failed_fork_leaves_one_process(kernel, monkeypatch, caplog):
    # the split only saves time: a fork that fails warns once, is never
    # retried, and leaves every later call to this process, with the same bits
    rng = np.random.default_rng(48)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    microsim._stop_helper()
    forks = []

    def failing_fork():
        forks.append(os.getpid())
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)
    monkeypatch.setattr(microsim, "_no_helper", False)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    calls = microsim._split_calls
    with caplog.at_level(logging.WARNING, logger="swarmherd"):
        for _ in range(4):
            assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert len(forks) == 1
    assert microsim._helper is None and microsim._no_helper
    assert microsim._split_calls == calls
    warnings = [r for r in caplog.records if "drift helper unavailable" in r.message]
    assert len(warnings) == 1
    if fds is not None:  # both pipes closed again
        assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)


def test_failure_in_the_callers_share_leaves_no_stale_reply(kernel, monkeypatch):
    rng = np.random.default_rng(45)
    first = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    second = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, *second, 1e-3, kernel)
    forked_helper(monkeypatch, kernel)

    def failing(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_table_drift", failing)  # the caller's share only
        with pytest.raises(KeyboardInterrupt):
            drift_all(*first, 1e-3, kernel)
    # the request for ``first`` was sent; its reply must never be read as this one
    assert np.array_equal(drift_all(*second, 1e-3, kernel), expected)
    forked_helper(monkeypatch, kernel)
    calls = microsim._split_calls
    assert np.array_equal(drift_all(*second, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fdinfo"),
                                reason="needs /proc")


def queued_blocks(helper):
    """Blocks still in the helper's queue: the count of its eventfd."""
    with open(f"/proc/self/fdinfo/{helper.queue}") as info:
        (count,) = (line.split()[1] for line in info if line.startswith("eventfd-count:"))
    return int(count, 16)


def callers_blocks(monkeypatch):
    """The block indices this process pulls from the queue from now on; a
    helper forked before keeps its own ``_pull``."""
    mine, pull = [], microsim._pull

    def recording(*args):
        for j in pull(*args):
            mine.append(j)
            yield j

    monkeypatch.setattr(microsim, "_pull", recording)
    return mine


@pytest.fixture(scope="module")
def paper_run(kernel):
    """``run`` arguments at paper scale: many blocks of drift per step."""
    goal = GoalRegion(center=np.zeros(2), radius=PI / 2)
    plan = plan_herders(goal, 720, 0.01, kernel, GridSpec(15), GridSpec(32))
    return dict(n_targets=720, n_herders=plan.n_herders, rho_bar_h=plan.rho_bar_h,
                goal=goal, gain=10.0, kernel=kernel, kde=KdeParams(),
                sim=SimParams(diffusion=0.01, dt=0.01, horizon=0.05, seed=8))


def one_process_run(monkeypatch, kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_spare_cpu", lambda: False)
        return run(**kwargs)


@needs_proc
def test_queue_same_bits_when_the_helper_takes_every_block(kernel, monkeypatch,
                                                           paper_run):
    # each control tick waits until the helper has pulled every block
    alone = one_process_run(monkeypatch, paper_run)
    helper = forked_helper(monkeypatch, kernel)
    estimate = microsim.estimate_density

    def after_the_queue_empties(*args, **kwargs):
        deadline = time.monotonic() + 60
        while queued_blocks(helper) and time.monotonic() < deadline:
            time.sleep(1e-4)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(microsim, "estimate_density", after_the_queue_empties)
    mine = callers_blocks(monkeypatch)
    shared = run(**paper_run)
    assert (mine, shared.drift_processes) == ([], 2)
    assert np.array_equal(shared.final.targets, alone.final.targets)
    assert np.array_equal(shared.chi, alone.chi)


def resuming_read(helper):
    """``os.read`` that lets a stopped helper go on once this process waits
    for its byte."""
    read = os.read

    def resuming(fd, n):
        if fd == helper.replies:
            os.kill(helper.pid, signal.SIGCONT)
        return read(fd, n)

    return resuming


def test_queue_same_bits_when_the_caller_takes_every_block(kernel, monkeypatch):
    rng = np.random.default_rng(50)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    helper = forked_helper(monkeypatch, kernel)
    # stopped, the helper pulls nothing until this process waits for its byte
    os.kill(helper.pid, signal.SIGSTOP)
    os.waitpid(helper.pid, os.WUNTRACED)
    monkeypatch.setattr(os, "read", resuming_read(helper))
    mine = callers_blocks(monkeypatch)
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert mine == list(range(-(-720 // (microsim._BLOCK_PAIRS // 260))))
    assert microsim._split_calls == calls + 1


@needs_proc
def test_reply_is_read_when_the_caller_took_every_block(kernel, monkeypatch):
    # the helper's byte is the only sign it is done with a request: unread,
    # the stopped helper would start that request late, pull the next call's
    # blocks and drift them from a buffer the next call is writing
    rng = np.random.default_rng(53)
    first = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    second = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, *second, 1e-3, kernel)
    helper = forked_helper(monkeypatch, kernel)
    os.kill(helper.pid, signal.SIGSTOP)
    os.waitpid(helper.pid, os.WUNTRACED)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "read", resuming_read(helper))
            mine = callers_blocks(patch)
            drift_all(*first, 1e-3, kernel)
        assert mine == list(range(-(-720 // microsim._block_size(260))))
        microsim._hand_out(*second, kernel)
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    deadline = time.monotonic() + 60
    while queued_blocks(helper) and time.monotonic() < deadline:
        time.sleep(1e-4)
    mine = callers_blocks(monkeypatch)
    assert np.array_equal(drift_all(*second, 1e-3, kernel), expected)
    assert mine == []  # every block of the second call came from the helper


def test_failure_between_hand_out_and_collection_drops_the_helper(kernel, monkeypatch,
                                                                  paper_run):
    # the control tick runs while the helper drifts: its failure must leave
    # no queued block or reply for the next call
    alone = one_process_run(monkeypatch, paper_run)
    helper = forked_helper(monkeypatch, kernel)

    def failing(*args):
        raise ValueError("no control field")

    with monkeypatch.context() as patch:
        patch.setattr(microsim, "control_field", failing)
        with pytest.raises(ValueError, match="no control field"):
            run(**paper_run)
    assert microsim._helper is None
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(helper.pid, 0)
    shared = run(**paper_run)
    assert shared.drift_processes == 2 and microsim._helper.pid != helper.pid
    assert np.array_equal(shared.final.targets, alone.final.targets)


@needs_proc
def test_helper_killed_mid_queue_is_named_then_replaced(kernel, monkeypatch):
    rng = np.random.default_rng(51)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    microsim._stop_helper()
    caller, table_drift = os.getpid(), microsim._table_drift

    def dying_in_the_helper(targets, herders, kernel, block, out, blocks):
        if os.getpid() != caller:
            next(blocks)  # takes a block from the queue, then dies with it
            os.kill(os.getpid(), signal.SIGKILL)
        table_drift(targets, herders, kernel, block, out, blocks)

    with monkeypatch.context() as patch:
        patch.setattr(microsim, "_table_drift", dying_in_the_helper)
        helper = forked_helper(patch, kernel)  # the fork sees the patch
    forked_helper(monkeypatch, kernel)
    queued = queued_blocks(helper)
    microsim._hand_out(targets, herders, kernel)
    full, deadline = queued_blocks(helper), time.monotonic() + 60
    while queued_blocks(helper) == full and time.monotonic() < deadline:
        time.sleep(1e-4)
    assert queued == 0 and queued_blocks(helper) < full
    with pytest.raises(RuntimeError, match=f"drift helper process {helper.pid} .*exit "
                                           f"status -{signal.SIGKILL:d}"):
        drift_all(targets, herders, 1e-3, kernel)
    assert microsim._helper is None
    calls = microsim._split_calls
    assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
    assert microsim._split_calls == calls + 1
    assert microsim._helper.pid != helper.pid


def test_many_one_target_blocks_from_one_write(kernel, monkeypatch):
    # one write queues any number of blocks: here 16 391 of one target each
    for n_h in (1, 260, 9000):  # each block stays about _BLOCK_PAIRS pairs
        block = microsim._block_size(n_h)
        assert block * n_h <= max(microsim._BLOCK_PAIRS, n_h)  # bounds the workspace
    assert microsim._block_size(260) == 31  # paper scale: 24 blocks of 720 targets
    forked_helper(monkeypatch, kernel)
    rng = np.random.default_rng(52)
    n_t = 16391
    targets, herders = rng.uniform(-PI, PI, (n_t, 2)), rng.uniform(-PI, PI, (1, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    monkeypatch.setattr(microsim, "_BLOCK_PAIRS", 1)
    writes, eventfd_write = [], os.eventfd_write

    def counted(fd, n):
        writes.append(n)
        eventfd_write(fd, n)

    monkeypatch.setattr(os, "eventfd_write", counted)
    mine = callers_blocks(monkeypatch)
    calls = microsim._split_calls

    def deadlocked(signum, frame):
        raise TimeoutError("the drift call did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, deadlocked)
    signal.alarm(60)
    try:
        got = drift_all(targets, herders, 1e-3, kernel)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.array_equal(got, expected)
    assert microsim._split_calls == calls + 1
    assert writes == [n_t]
    # the caller's blocks from the front, the helper's (the rest) from the back
    assert mine == list(range(len(mine))) and len(mine) < n_t


def test_larger_call_forks_a_helper_with_room(kernel, monkeypatch):
    # the shared buffer holds one request: a call that needs more room forks
    # a new helper, and a smaller call keeps the running one
    rng = np.random.default_rng(54)
    herders = rng.uniform(-PI, PI, (260, 2))
    calls = [rng.uniform(-PI, PI, (n_t, 2)) for n_t in (720, 5000, 720)]
    expected = [one_process_drift(monkeypatch, t, herders, 1e-3, kernel) for t in calls]
    microsim._stop_helper()
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)
    split, pids = microsim._split_calls, []
    for targets, want in zip(calls, expected):
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), want)
        pids.append(microsim._helper.pid)
    assert pids[0] != pids[1] == pids[2]
    assert microsim._split_calls == split + 3


def shared_mappings() -> int:
    """Shared mappings of this process: its helper's buffer among them."""
    with open("/proc/self/maps") as maps:
        return sum(line.split()[1].endswith("s") for line in maps)


@needs_proc
def test_growing_calls_leak_no_descriptor_or_mapping(kernel, monkeypatch):
    # each larger call stops the running helper and forks one with room: the
    # old helper's descriptors are closed and its buffer is unmapped
    rng = np.random.default_rng(55)
    herders = rng.uniform(-PI, PI, (260, 2))
    microsim._stop_helper()
    monkeypatch.setattr(microsim, "_spare_cpu", lambda: True)
    alone = len(os.listdir("/proc/self/fd"))
    drift_all(rng.uniform(-PI, PI, (100, 2)), herders, 1e-3, kernel)
    fds, maps, pids = len(os.listdir("/proc/self/fd")), shared_mappings(), set()
    assert fds == alone + 3  # two pipe ends and the queue
    for n_t in (200, 400, 800, 1600, 3200):
        targets = rng.uniform(-PI, PI, (n_t, 2))
        expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
        assert np.array_equal(drift_all(targets, herders, 1e-3, kernel), expected)
        pids.add(microsim._helper.pid)
    assert len(pids) == 5
    assert len(os.listdir("/proc/self/fd")) == fds
    assert shared_mappings() == maps


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_leaves_the_parents_helper_alone(kernel, monkeypatch):
    rng = np.random.default_rng(47)
    targets, herders = rng.uniform(-PI, PI, (720, 2)), rng.uniform(-PI, PI, (260, 2))
    expected = one_process_drift(monkeypatch, targets, herders, 1e-3, kernel)
    helper = forked_helper(monkeypatch, kernel)
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
    # a paper-scale simulate, split from its first step, then checked at once:
    # the caller reaped its helper before it exited
    config = tmp_path / "paper.json"
    config.write_text('{"sim": {"horizon": 0.03}}')
    script = tmp_path / "simulate.py"
    script.write_text(textwrap.dedent(f"""
        from swarmherd import cli, microsim
        microsim._spare_cpu = lambda: True
        code = cli.main(["simulate", "--config", {str(config)!r},
                         "--out", {str(tmp_path / "out")!r}])
        assert code == 0
        print(microsim._helper.pid)
    """))
    src = os.path.dirname(os.path.dirname(microsim.__file__))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    pid = int(done.stdout.split()[-1])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["drift_processes"] == 2
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
    forked_helper(monkeypatch, kernel)
    shared = run(**kwargs)
    assert (alone.drift_processes, shared.drift_processes) == (1, 2)
    assert np.array_equal(alone.final.targets, shared.final.targets)
    assert np.array_equal(alone.chi, shared.chi)
    for res in (alone, shared):
        assert np.isfinite(res.cpu_time) and 0 <= res.cpu_time


def test_shared_run_wraps_each_state_once(kernel, monkeypatch, paper_run):
    # the hand-out copies the ensemble's own arrays, wrapped when it was built:
    # the initial state and each step's new one are the only wraps
    forked_helper(monkeypatch, kernel)
    wraps, real = [], microsim.wrap
    monkeypatch.setattr(microsim, "wrap", lambda p: wraps.append(p.shape) or real(p))
    res = run(**paper_run)
    assert res.drift_processes == 2
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
