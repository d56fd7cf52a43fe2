"""Euler-Maruyama integration of the agent-level herding dynamics.

Herders are velocity-controlled integrators; each target drifts with the
normalized sum of the periodized repulsion kernel over all herders plus
isotropic diffusion noise. The pairwise drift is almost all of a step's
cost. ``drift_all`` computes it with NumPy; there is no compiled path. Over
blocks of 8192 pairs in one reused workspace it adds the exact nearest-image
kernel term to the smooth tail of the other images, read from a table of
local cubics (10 coefficients per cell, 96^2 cells of side pi/96 on
[0, pi]^2, 0.74 MB). Against the image sum, ``drift_all(fast=False)``, its
max-norm relative error measured about 3e-10 at scale and at most 3.1e-8 for
a single pair on the seam (L = pi).

No target's drift depends on another's, so a call of two blocks or more,
in a process allowed two CPUs, is shared with one persistent helper
process through a queue: a non-blocking Linux eventfd in semaphore mode.
The caller adds the call's block count to it, and each read takes one
unit; the caller numbers the blocks it takes from the front, the helper
from the back. The two take every unit between them, so every block is
drifted once, by whichever process is free, with the same bits as one
process. ``run`` hands out each step's drift at the top of the step, so
the helper drifts while the caller runs the control tick, metrics and noise
draw; ``step`` then collects it through ``drift_all``. The helper is an
``os.fork`` of the caller, made at the first call that can share and used
by it (fork plus reap measured 3.2-3.6 ms), and again when a call needs a
larger mapping. Both processes map one anonymous shared buffer: the caller
writes a request's positions there, both drift the blocks they pull into
its rows there (``_drift_shared``), and one byte each way over two pipes
starts a request and ends it. The helper shares the caller's other pages
until either writes them: at paper scale its proportional set size is
about 15.5 MB beside the caller's 26.5 MB. It is stopped and reaped at
exit, and after any failure between a hand-out and its collection; a fork
that fails leaves the caller drifting alone. Threads would not help:
block-sized NumPy calls gained nothing under the GIL, where two processes
ran 1.7-2.1 times as fast. The KDE's matrix product stays below
OpenBLAS's threading threshold, so no idle BLAS worker spins on the core
the helper needs.
"""

from __future__ import annotations

import atexit
import logging
import os
import signal
import time
import traceback
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .control import control_field, herder_error, sample_at_herders, speed_limit
from .feasibility import GoalRegion
from .grids import DensityField, l2_norm
from .kde import KdeParams, estimate_density
from .kernel import KernelParams, image_shifts, kernel_periodic
from .torus import PI, TWO_PI, FieldError, torus_distance, wrap, wrapped_displacement

log = logging.getLogger("swarmherd")


@dataclass(frozen=True)
class SimParams:
    """Time stepping and stochasticity of the microscopic system."""

    diffusion: float = 0.01
    dt: float = 0.01
    horizon: float = 200.0
    seed: int = 0
    v_max: float | None = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:  # also false for NaN
            raise FieldError("dt", "time step must be positive and finite")
        if not 0 <= self.horizon < np.inf:
            raise FieldError("horizon", "horizon must be finite and non-negative")
        if not 0 <= self.diffusion < np.inf:
            raise FieldError("diffusion", "diffusion must be finite and non-negative")
        if not isinstance(self.seed, Integral):
            raise FieldError("seed", "seed must be an integer")
        if self.seed < 0:
            raise FieldError("seed", "seed cannot be negative")
        if self.v_max is not None and not self.v_max > 0:
            raise FieldError("v_max", "speed limit must be positive")
        # two fields clash here, so no one field is named
        if self.horizon < self.dt and self.horizon != 0:
            raise ValueError("horizon must be zero or at least one step")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"horizon {self.horizon} is not a whole number of steps "
                             f"of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def params(self) -> SimParams:
        # kept for perfbench/workloads.py, which calls cfg.sim.params()
        return self


@dataclass
class AgentEnsemble:
    """Herder and target positions, wrapped into the domain."""

    herders: np.ndarray  # (n_h, 2)
    targets: np.ndarray  # (n_t, 2)

    def __post_init__(self):
        self.herders = wrap(np.asarray(self.herders, dtype=float).reshape(-1, 2))
        self.targets = wrap(np.asarray(self.targets, dtype=float).reshape(-1, 2))

    @property
    def n_herders(self) -> int:
        return self.herders.shape[0]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[0]

    @property
    def alpha(self) -> float:
        """Normalization 1/(n_h + n_t); makes the total agent mass unity."""
        return 1.0 / (self.n_herders + self.n_targets)


@dataclass
class ContainmentMetric:
    """Share of targets within the goal region at one instant."""

    n_inside: int
    chi: float  # percentage in [0, 100]


def containment(ensemble: AgentEnsemble, goal: GoalRegion) -> ContainmentMetric:
    dist = torus_distance(ensemble.targets, goal.center)
    n_in = int(np.count_nonzero(dist <= goal.radius))
    return ContainmentMetric(n_inside=n_in, chi=100.0 * n_in / ensemble.n_targets)


def herder_lattice(n: int) -> np.ndarray:
    """ceil(sqrt(n))-per-side centered lattice; the first n sites row-major.

    Sites sit at cell centers, so margins to the domain edge are half a
    cell on every side.
    """
    if n == 0:
        return np.zeros((0, 2))
    side = int(np.ceil(np.sqrt(n)))
    coords = -PI + (np.arange(side) + 0.5) * (TWO_PI / side)
    x1, x2 = np.meshgrid(coords, coords, indexing="ij")
    sites = np.stack([x1.ravel(), x2.ravel()], axis=-1)
    return sites[:n]


def uniform_targets(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-PI, PI, size=(n, 2))


# ---------------------------------------------------------------------------
# pairwise drift
# ---------------------------------------------------------------------------


# Read by reports that name the drift path; there is no compiled path.
NUMBA_AVAILABLE = False

_TAIL_CELLS = 96  # table cells per side of the quadrant [0, pi]^2, h = pi / 96
_BLOCK_PAIRS = 8192  # pairs per block of the fast drift; larger measured no faster
_BUILD_ROWS = 8  # cell rows per chunk of the table build

# The 10 monomials u**p v**q of total degree <= 3, grouped by p: the
# evaluation in ``_table_drift`` relies on this order.
_POWERS = np.array([(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                    (2, 0), (2, 1), (3, 0)])


def _cell_fit() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4 x 4 Chebyshev nodes of the unit cell and two least-squares maps
    from values there to the 10 coefficients of ``_POWERS``.

    Returns the nodes, shape (2, 16) as (u, v) rows, and two maps of shape
    (10, 16): the fit to all 10 monomials, and that fit without its u**0
    terms, whose cubic vanishes on u = 0. The products T_p(2u - 1) T_q(2v - 1)
    of Chebyshev polynomials are orthogonal on these nodes, so the fit is the
    discrete Chebyshev projection onto p + q <= 3: no matrix to factor.
    """
    theta = (2 * np.arange(4) + 1) * PI / 8
    t = 0.5 - 0.5 * np.cos(theta)
    nodes = np.stack([w.ravel() for w in np.meshgrid(t, t, indexing="ij")])
    deg = np.arange(4)
    # T_p(2t - 1) = cos(p (pi - theta)) at the nodes, over its squared norm there
    cheb = np.cos(np.outer(deg, PI - theta)) / np.where(deg > 0, 2.0, 4.0)[:, None]
    # mono[p, a]: the coefficient of u**a in T_p(2u - 1), by the recurrence
    # T_(p+1) = 2 (2u - 1) T_p - T_(p-1)
    mono = np.zeros((4, 4))
    mono[0, 0], mono[1, :2] = 1.0, (-1.0, 2.0)
    for p in (1, 2):
        mono[p + 1] = 4.0 * np.roll(mono[p], 1) - 2.0 * mono[p] - mono[p - 1]
    fit = np.einsum("pa,qb,pi,qj,pq->abij", mono, mono, cheb, cheb, deg[:, None] + deg <= 3)
    free = fit[_POWERS[:, 0], _POWERS[:, 1]].reshape(len(_POWERS), -1)
    return nodes, free, free * (_POWERS[:, 0] >= 1)[:, None]


@lru_cache(maxsize=4)
def _tail_table(kernel: KernelParams) -> np.ndarray:
    """Cubic table of the image tail (every image but the nearest).

    The image block is symmetric, so the tail of a wrapped displacement
    (x, y) is (sign(x) Q(|x|, |y|), sign(y) Q(|y|, |x|)), where Q is its x
    component on the quadrant [0, pi]^2. Entry [k, i * 96 + j] is the
    coefficient of the monomial u**p v**q, (p, q) = ``_POWERS[k]``, of Q in
    cell (i, j) of side pi/96, local coordinates (u, v) in [0, 1]^2. Each
    cell's 10 coefficients are the least-squares fit of the cubics of total
    degree <= 3 to Q at the cell's 4 x 4 Chebyshev nodes. Q is odd in its
    first argument, so it is 0 on a = 0; the cells there (i = 0) drop the
    fit's u**0 monomials, which makes the table exactly 0 on that edge.
    Every image is at least pi away from the quadrant, so Q is smooth there.
    Against Q itself the table measured 9e-10 to 5.5e-9 of max|Q| at 20 000
    random points for L = 1 to 2 pi and 1 to 3 image rings (with no rings Q
    and the table are 0). Shape (10, 96^2), 0.74 MB, read-only; built on
    first use per kernel, 8 cell rows at a time, in about 60 ms at 2 rings.
    """
    cells = _TAIL_CELLS
    h = PI / cells
    nodes, free, odd = _cell_fit()
    shifts = [s for s in image_shifts(kernel.images) if s.any()]
    inv_len = 1.0 / kernel.length
    y0 = (np.arange(cells)[:, None] + nodes[1]) * h  # (cells, 16)
    table = np.empty((len(_POWERS), cells, cells))
    for lo in range(0, cells, _BUILD_ROWS):
        hi = min(lo + _BUILD_ROWS, cells)
        x0 = (np.arange(lo, hi)[:, None, None] + nodes[0]) * h  # (rows, 1, 16)
        q = np.zeros((hi - lo, cells, nodes.shape[1]))
        for sx, sy in shifts:
            x = x0 + sx
            r = np.hypot(x, y0 + sy)
            q += x * np.exp(-r * inv_len) / r
        table[:, lo:hi] = np.einsum("kn,ijn->kij", free, q)
        if lo == 0:
            table[:, 0] = np.einsum("kn,jn->kj", odd, q[0])
    table = table.reshape(len(_POWERS), -1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=2)
def _workspace(block: int, n_h: int) -> np.ndarray:
    """Flat float64 scratch for every array of a block, reused across calls:
    16 words per pair plus 2 per target, 1.0 MB for 260 herders. A shorter
    last block carves its views from a prefix, so each stays C-contiguous.
    Not safe for concurrent calls."""
    return np.empty((6 + len(_POWERS)) * block * n_h + 2 * block)


def _table_drift(targets: np.ndarray, herders: np.ndarray, kernel: KernelParams,
                 block: int, out: np.ndarray, blocks: Iterable[int]) -> None:
    """Unnormalized drift of wrapped targets under wrapped herders, into
    ``out``, for each of ``blocks``: block j is the ``block`` targets from
    row j * block on (fewer in the last)."""
    table = _tail_table(kernel)
    cells = _TAIL_CELLS
    n_h = herders.shape[0]
    tt = np.ascontiguousarray(targets.T)[:, :, None]
    ht = np.ascontiguousarray(herders.T)[:, None, :]
    ws = _workspace(block, n_h)
    for j in blocks:
        lo = j * block
        n = min(block, targets.shape[0] - lo)
        m, pair = n * n_h, (2, n, n_h)
        # displacements (then signs), squares (then scaled |d| and fraction),
        # flat indices (then tail values), one component's coefficient planes
        d, sq, q = (ws[j * m:(j + 2) * m].reshape(pair) for j in (0, 2, 4))
        flat = q.view(np.intp)
        c = ws[6 * m:16 * m].reshape(len(_POWERS), n, n_h)
        tail = ws[16 * m:16 * m + 2 * n].reshape(n, 2)
        # until the first gather the planes hold r, near, cell indices, masks
        # and the cell indices as floats
        r, near, i, cell = c[0], c[1], c[2:4].view(np.intp), c[5:7]
        mask = c[4].reshape(-1).view(bool)[:2 * m].reshape(pair)
        # broadcast by copies: a ufunc would allocate iterator buffers for it
        np.copyto(d, tt[:, lo:lo + n])
        np.copyto(sq, ht)
        np.subtract(d, sq, out=d)
        # both ends lie in [-pi, pi): one exact shift wraps d as torus.wrap does
        np.subtract(d, TWO_PI, out=d, where=np.greater_equal(d, PI, out=mask))
        np.add(d, TWO_PI, out=d, where=np.less(d, -PI, out=mask))
        np.multiply(d, d, out=sq)
        np.sqrt(np.add(sq[0], sq[1], out=r), out=r)
        # r / -L is -r / L bit for bit
        np.exp(np.divide(r, -kernel.length, out=near), out=near)
        np.divide(near, r, out=near, where=np.greater(r, 0.0, out=mask[0]))
        np.einsum("cth,th->tc", d, near, out=out[lo:lo + n])
        a = np.multiply(np.abs(d, out=sq), cells / PI, out=sq)
        np.sign(d, out=d)
        # a >= 0, so trunc is the integer part; float - float needs no cast
        np.minimum(np.trunc(a, out=cell), cells - 1, out=cell)
        frac = np.subtract(a, cell, out=a)
        np.copyto(i, cell, casting="unsafe")
        for k in (0, 1):  # not through i[::-1]: NumPy copies that view of a short block
            np.add(np.multiply(i[k], cells, out=flat[k]), i[1 - k], out=flat[k])
        # tail: component k reads Q at (|d_k|, |d_other|)
        for k, (u, v) in enumerate(((frac[0], frac[1]), (frac[1], frac[0]))):
            # indices are in range by construction; mode="raise" would buffer out
            np.take(table, flat[k], axis=1, out=c, mode="clip")
            # in place, in the order of _POWERS: Horner in v for each power
            # of u, into c[3], c[6], c[8], then Horner in u into c[9] ...
            for acc, lower, w in ((3, (2, 1, 0), v), (6, (5, 4), v), (8, (7,), v),
                                  (9, (8, 6), u)):
                for j in lower:
                    c[acc] *= w
                    c[acc] += c[j]
            # ... whose last step writes Q over the spent indices flat[k]
            np.add(np.multiply(c[9], u, out=c[9]), c[3], out=q[k])
        out[lo:lo + n] += np.einsum("cth,cth->tc", d, q, out=tail)


# The buffer shared with the helper, in float64 words: a header of this
# many (n_t, n_h, kernel length, images, block), then the n_t + n_h wrapped
# positions (x, y pairs, targets first), then the n_t drift rows.
_HEAD = 5


def _request(shared: np.ndarray, n_t: int, n_h: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions, shape (n_t + n_h, 2), and the drift rows, shape
    (n_t, 2), of a request in the shared buffer."""
    rows = _HEAD + 2 * (n_t + n_h)
    return shared[_HEAD:rows].reshape(-1, 2), shared[rows:rows + 2 * n_t].reshape(-1, 2)


def _pull(queue: int, blocks: int, from_back: bool) -> Iterator[int]:
    """Block indices from the shared queue until it is empty: 0, 1, 2, ...
    or, ``from_back``, blocks - 1, blocks - 2, ... Each read takes one unit
    of the semaphore, and the two processes take the call's ``blocks`` units
    between them, so their indices meet with no gap and no overlap."""
    for taken in range(blocks):
        try:
            os.eventfd_read(queue)
        except BlockingIOError:
            return
        yield blocks - 1 - taken if from_back else taken


def _drift_shared(shared: np.ndarray, queue: int, from_back: bool) -> np.ndarray:
    """Drift the blocks this process pulls from ``queue`` of the request in
    ``shared`` into its rows there; the rows. Caller and helper both run it,
    on the same words, from opposite ends, so each row is written once, by
    whichever process pulled its block."""
    n_t, n_h, length, images, block = shared[:_HEAD].tolist()
    n_t, n_h, block = int(n_t), int(n_h), int(block)
    positions, rows = _request(shared, n_t, n_h)
    _table_drift(positions[:n_t], positions[n_t:], KernelParams(length, int(images)),
                 block, rows, _pull(queue, -(-n_t // block), from_back))
    return rows


class _DriftHelper:
    """A fork of the caller that drifts the blocks it pulls from a shared
    queue, in a buffer both processes map.

    ``shared`` is an anonymous ``MAP_SHARED`` mapping of float64 words, made
    just before the fork, so each process sees the other's writes there: the
    caller writes a request into it, and both drift that request there. The
    helper shares the caller's other pages (the tail table among them) until
    either writes them. A request starts with one byte on one pipe and ends
    with one byte back on another, so a stray print cannot reach either. The
    queue is an eventfd semaphore, made before the fork: the caller adds a
    call's block count to it before its byte, and both processes take one
    unit per read until it is empty. The caller writes the next request only
    after it has read the byte that ends the last one: a helper still on the
    last request would read a half-written header. The helper ignores
    SIGINT, exits when its input ends and always leaves through
    ``os._exit``, so the caller's ``atexit`` hooks and buffered output never
    run twice; an exception in its loop prints its traceback to stderr and
    exits 1. It is forked only where ``_spare_cpu`` holds, which means
    Linux, and runs NumPy ufuncs and ``einsum`` on its own arrays and the
    shared ones: no BLAS, no import, no logging. OpenBLAS quiesces its
    thread pool across the fork; from Python 3.12 on, ``os.fork`` warns
    (``DeprecationWarning``) in a process with other OS threads, OpenBLAS's
    among them: expected, and not filtered.
    """

    def __init__(self, words: int):
        import mmap  # only a process that forks a helper pays for the module

        self.shared = np.frombuffer(mmap.mmap(-1, 8 * words), dtype=float)
        requests, self.requests = os.pipe()
        self.replies, replies = os.pipe()
        self.queue = os.eventfd(0, os.EFD_SEMAPHORE | os.EFD_NONBLOCK)
        # the arrays and kernel of the drift handed out, matched by identity
        self.handed: tuple[np.ndarray, np.ndarray, KernelParams] | None = None
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self.requests, self.replies, replies, self.queue):
                os.close(fd)
            raise
        if self.pid == 0:  # never returns into the caller's code
            code = 1
            try:
                for fd in (self.requests, self.replies):
                    os.close(fd)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles it
                while os.read(requests, 1):  # until the caller closes its end
                    _drift_shared(self.shared, self.queue, from_back=True)
                    os.write(replies, b"\0")
                code = 0
            except BrokenPipeError:
                code = 0  # the caller has gone
            except BaseException:
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)

    def _failed(self, what: str) -> RuntimeError:
        # it has ended or is ending: reap it now, for its status
        status = _stop_helper(kill=True)
        return RuntimeError(f"drift helper process {self.pid} {what} (exit status {status})")

    def hand_out(self, targets: np.ndarray, herders: np.ndarray, kernel: KernelParams,
                 block: int) -> None:
        """Write the request into the shared buffer and queue its block count,
        then send its byte: the helper starts at once."""
        n_t, n_h = targets.shape[0], herders.shape[0]
        self.shared[:_HEAD] = n_t, n_h, kernel.length, kernel.images, block
        np.concatenate((targets, herders), out=_request(self.shared, n_t, n_h)[0])
        os.eventfd_write(self.queue, -(-n_t // block))
        try:
            os.write(self.requests, b"\0")
        except BrokenPipeError:
            raise self._failed("has exited") from None
        self.handed = targets, herders, kernel

    def holds(self, targets: np.ndarray, herders: np.ndarray, kernel: KernelParams) -> bool:
        """Whether the drift handed out is of these very arrays."""
        handed = self.handed
        return (handed is not None and handed[0] is targets and handed[1] is herders
                and handed[2] == kernel)

    def collect(self) -> np.ndarray:
        """Drift the blocks still queued, then wait for the helper's byte; the
        request's drift rows, a view of the shared buffer that the next request
        overwrites. The byte is read even when this process drifted every
        block: it is the only sign that the helper is done with the request,
        and so that the next one may be written."""
        self.handed = None
        rows = _drift_shared(self.shared, self.queue, from_back=False)
        if not os.read(self.replies, 1):
            raise self._failed("has exited")
        return rows

    def close(self, kill: bool) -> int:
        """Stop the helper, at the end of its input or killed, and reap it;
        its exit status, negative for the signal that ended it."""
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        # replies first, so a helper still writing one stops on a broken pipe
        for fd in (self.replies, self.requests, self.queue):
            os.close(fd)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


_helper: _DriftHelper | None = None
_no_helper = False  # a fork failed here: never split again
_split_calls = 0  # drift calls the helper shared; ``run`` reports whether it did


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs or more and has the eventfd
    queue (never split where the platform cannot tell or has none)."""
    return (hasattr(os, "eventfd") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _running_helper(kernel: KernelParams, words: int) -> _DriftHelper | None:
    """This process's helper, with a shared buffer of ``words`` words or
    more: forked if none runs, forked again if the running one's buffer is
    smaller. A fork that fails leaves this process drifting alone from then
    on: the split only saves time."""
    global _helper, _no_helper
    if _helper is not None and _helper.shared.size < words:
        _stop_helper()
    if _helper is None:
        _tail_table(kernel)  # built before the fork, so both share its pages
        try:
            _helper = _DriftHelper(words)
        except OSError as exc:
            _no_helper = True
            log.warning("drift helper unavailable, drifting in one process: %s", exc)
    return _helper


def _stop_helper(kill: bool = False) -> int | None:
    """Stop, reap and forget this process's helper, if it has one; its exit
    status."""
    global _helper
    helper, _helper = _helper, None
    return None if helper is None else helper.close(kill)


def _drop_hand_out() -> None:
    """Stop the helper if it holds a drift never collected, so that neither
    its queued blocks nor its byte can reach a later call."""
    if _helper is not None and _helper.handed is not None:
        _stop_helper(kill=True)


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper and this copy of its
    descriptors, so that the helper still sees its input end when the parent
    closes it."""
    global _helper
    if _helper is not None:
        for fd in (_helper.requests, _helper.replies, _helper.queue):
            os.close(fd)
        _helper = None


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _block_size(n_h: int) -> int:
    """Targets per block: about ``_BLOCK_PAIRS`` pairs."""
    return max(1, _BLOCK_PAIRS // n_h)


def _hand_out(targets: np.ndarray, herders: np.ndarray,
              kernel: KernelParams) -> _DriftHelper | None:
    """Queue the blocks of this drift for the helper, which starts on them at
    once; the helper, or None where this process drifts alone.

    The arrays must be wrapped. They are copied into the shared buffer, and
    both processes drift that copy. A drift is shared where it has two
    blocks or more and a second CPU. ``drift_all`` of the same two arrays
    collects it; until then any failure must drop it (``_drop_hand_out``).
    After a fork failed, nothing is handed out.
    """
    _drop_hand_out()
    if herders.size == 0 or targets.size == 0:
        return None
    n_t, n_h = targets.shape[0], herders.shape[0]
    block = _block_size(n_h)
    if n_t <= block or _no_helper or not _spare_cpu():
        return None
    helper = _running_helper(kernel, _HEAD + 4 * n_t + 2 * n_h)
    if helper is not None:
        try:
            helper.hand_out(targets, herders, kernel, block)
        except BaseException:
            _stop_helper(kill=True)
            raise
    return helper


def _split_drift(targets: np.ndarray, herders: np.ndarray,
                 kernel: KernelParams) -> np.ndarray:
    """``_table_drift`` of all targets, shared with the helper where it pays.

    Collects the drift ``_hand_out`` queued for these arrays, or wraps them
    and hands that out first: this process pulls blocks from the queue until
    it is empty, then waits for the helper to finish its own. The result is
    then a view of the shared buffer, valid until the next hand-out. Where
    nothing is handed out, this process drifts every block into a new array.
    """
    global _split_calls
    helper = _helper
    if helper is None or not helper.holds(targets, herders, kernel):
        targets, herders = wrap(targets), wrap(herders)
        helper = _hand_out(targets, herders, kernel)
    if helper is None:
        out = np.empty_like(targets)
        block = _block_size(herders.shape[0])
        _table_drift(targets, herders, kernel, block, out,
                     range(-(-targets.shape[0] // block)))
        return out
    try:
        rows = helper.collect()
    except BaseException:
        # its byte may still be on its way: never read it as the next call's
        _stop_helper(kill=True)
        raise
    _split_calls += 1
    return rows


def drift_all(targets: np.ndarray, herders: np.ndarray, alpha: float,
              kernel: KernelParams, fast: bool = True) -> np.ndarray:
    """Drift of every target under every herder, shape (n_t, 2).

    The fast path works on blocks of about 8192 target-herder pairs. It
    adds the exact nearest-image term to the other images' tail, read from
    the table of ``_tail_table``: per cell a least-squares cubic of total
    degree <= 3 (10 coefficients) fitted at 4 x 4 Chebyshev nodes, 96^2
    cells of side pi/96, 0.74 MB, built on first use per kernel and cached.
    Against the image sum its max-norm relative error measured 4e-12 to
    3e-10 for 720 targets and 260 herders, L = 0.3 to 2 pi and 1 to 3 image
    rings (1e-15 with none), and at most 3.1e-8 for a single pair over
    40 000 pairs on the seam and near the axes (L = pi); both are far below
    the kernel's own image-truncation error.
    ``fast=False`` is the plain vectorized image sum, the fast path's
    reference. Both are deterministic, and the fast path is odd: negating
    every position negates its drift bit for bit, except on the seam. A
    block's arrays are views of one kept workspace (``_workspace``, 1.0 MB
    at 260 herders) written through ``out=``: a warm call at 720 x 260 makes
    no per-block temporaries and peaks at 48 KiB traced, shared or not,
    its shorter last block included. Each target's row depends on no other
    target, so the result is the same bits for every block size and
    whichever process drifts which block.

    Where the drift is shared, this process and the helper pull its blocks
    from one queue until it is empty (``_split_drift``). ``run`` hands out
    each step's drift before its control tick (``_hand_out``), so the
    helper starts on it at once; this call then collects it.
    """
    targets = np.ascontiguousarray(targets, dtype=float)
    herders = np.ascontiguousarray(herders, dtype=float)
    if herders.size == 0 or targets.size == 0:
        return np.zeros_like(targets)
    if fast:
        return alpha * _split_drift(targets, herders, kernel)
    disp = wrapped_displacement(targets[:, None, :], herders[None, :, :])
    return alpha * kernel_periodic(disp, kernel).sum(axis=1)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def noise_rng(seed: int, step_index: int) -> np.random.Generator:
    """Stream for one step's noise block, keyed by (seed, step index).

    Independent of execution order across steps, so a run can be replayed
    from any step. Key (seed, 0) draws the initial targets.
    """
    return np.random.default_rng((seed, step_index + 1))


def step(ensemble: AgentEnsemble, commands: np.ndarray, params: SimParams,
         step_index: int, kernel: KernelParams) -> AgentEnsemble:
    """One Euler-Maruyama step; deterministic given seed and step index.

    Herders move by their commands, targets by the drift of the current
    herders plus the step's noise block. ``run`` advances through this
    function, so a run replays from any of its snapshots.
    """
    commands = np.asarray(commands, dtype=float)
    if commands.shape != ensemble.herders.shape:
        raise ValueError("need one velocity command per herder")
    new_herders = ensemble.herders + commands * params.dt
    # the noise before the drift, which ``run`` handed out at the top of the step
    noise = (noise_rng(params.seed, step_index).standard_normal(ensemble.targets.shape)
             if params.diffusion > 0 else None)
    drift = drift_all(ensemble.targets, ensemble.herders, ensemble.alpha, kernel)
    move = drift * params.dt
    if noise is not None:
        move = move + np.sqrt(2.0 * params.diffusion * params.dt) * noise
    return AgentEnsemble(herders=new_herders, targets=ensemble.targets + move)


_HEALTH = ("herder_error_l2", "removed_mean", "peak_speed", "clipped_share",
           "floor_share")


@dataclass
class SimulationResult:
    """Metric series and final state of one closed-loop run."""

    metric_times: np.ndarray
    chi: np.ndarray
    n_inside: np.ndarray
    # loop health at each metric time, from that step's own control tick (NaN
    # without herders): herder error L2, the mean the Poisson solve removed,
    # the peak commanded speed before the speed limit, the share the limit
    # clipped and the share of grid nodes where the density estimate hit
    # DENSITY_FLOOR
    herder_error_l2: np.ndarray
    removed_mean: np.ndarray
    peak_speed: np.ndarray
    clipped_share: np.ndarray
    floor_share: np.ndarray
    snapshots: list[tuple[float, np.ndarray, np.ndarray]]
    final: AgentEnsemble
    n_targets: int
    n_herders: int
    wall_time: float
    cpu_time: float  # this process's CPU seconds over the run, helper excluded
    drift_processes: int  # 2 if any step's drift was handed to the helper, else 1
    # seconds per stage: kde, control (herder_error, control_field), sampling
    # (sample_at_herders, speed_limit), step, metrics (metrics and snapshots)
    stage_seconds: dict[str, float]


def run(
    *,
    n_targets: int,
    n_herders: int,
    rho_bar_h: DensityField,
    goal: GoalRegion,
    gain: float,
    kernel: KernelParams,
    kde: KdeParams,
    sim: SimParams,
    metrics_every: int = 100,
    snapshot_every: int = 0,
) -> SimulationResult:
    """Full closed loop: estimate, error, potential solve, sample, step.

    Herders start on a centered lattice, targets i.i.d. uniform. The
    control runs on the grid of ``rho_bar_h``: each tick estimates the
    herder density there with a KDE of bandwidth ``kde.bandwidth``, at the
    herders' share of the agent mass, and samples the commands bilinearly.
    Each step with herders runs its own control tick from the state at that
    step; nothing carries over from an earlier step. With
    ``snapshot_every`` > 0 the run stores (t, herders, targets) tuples at
    that cadence plus the final state; 0 stores initial and final only, and
    a zero horizon stores the initial state once. The metric series always
    holds a t = 0 record and a final record at t = n_steps * dt, one record
    for a zero horizon; in a run with steps the t = 0 record follows the
    first control tick, so it carries that tick's loop health.

    Every step goes through ``step`` on the state at the start of that
    step; the control chain reads the same state. ``stage_seconds`` sums
    the ``time.perf_counter`` deltas of each stage; its total never
    exceeds ``wall_time``. ``cpu_time`` is this process's
    ``time.process_time`` over the run, without the drift helper's: well
    above ``wall_time``, it shows a spinning thread pool.
    ``drift_processes`` is 2 if any step's drift was handed to the helper.
    Progress goes to the ``swarmherd`` logger at INFO, at most once per 10%
    of the steps.
    """
    if not (isinstance(metrics_every, Integral) and metrics_every >= 1):
        raise ValueError(f"metrics_every = {metrics_every!r}: metrics cadence must be "
                         "an integer >= 1 step")
    if not (isinstance(snapshot_every, Integral) and snapshot_every >= 0):
        raise ValueError(f"snapshot_every = {snapshot_every!r}: snapshot cadence must be "
                         "an integer >= 0 steps")
    t_start, cpu_start = time.perf_counter(), time.process_time()
    split_start = _split_calls
    grid = rho_bar_h.grid
    herder_mass = n_herders / (n_herders + n_targets) if n_herders > 0 else 0.0

    init = np.random.default_rng((sim.seed, 0))  # noise_rng keys the steps from 1
    state = AgentEnsemble(herders=herder_lattice(n_herders),
                          targets=uniform_targets(n_targets, init))
    commands = np.zeros((n_herders, 2))  # stays zero without herders
    health = (np.nan,) * len(_HEALTH)  # the step's control tick's, in _HEALTH order

    times: list[float] = []
    chis: list[float] = []
    inside: list[int] = []
    healths: list[tuple] = []
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []

    def record_metrics(t: float):
        metric = containment(state, goal)
        times.append(t)
        chis.append(metric.chi)
        inside.append(metric.n_inside)
        healths.append(health)

    def record_snapshot(t: float):
        snapshots.append((t, state.herders.copy(), state.targets.copy()))

    stage_seconds = dict.fromkeys(("kde", "control", "sampling", "step", "metrics"), 0.0)
    mark = time.perf_counter()

    def lap(stage: str):
        # charges the time since the last lap to ``stage``; allocates no arrays
        nonlocal mark
        now = time.perf_counter()
        stage_seconds[stage] += now - mark
        mark = now

    n_steps = sim.n_steps
    progress = -(-n_steps // 10)  # steps between progress reports
    record_snapshot(0.0)
    try:
        for s in range(n_steps):
            t = s * sim.dt
            # the helper drifts this step while this process runs its control tick
            _hand_out(state.targets, state.herders, kernel)
            lap("step")
            if n_herders > 0:
                estimate = estimate_density(state.herders, kde, grid, mass=herder_mass)
                lap("kde")
                err = herder_error(rho_bar_h, estimate)
                solution = control_field(err, estimate, gain)
                err_l2 = l2_norm(err)
                lap("control")
                commands = sample_at_herders(solution.velocity, state.herders)
                speeds = np.sqrt(np.sum(commands * commands, axis=-1))
                clipped = 0 if sim.v_max is None else np.count_nonzero(speeds > sim.v_max)
                health = (err_l2, solution.removed_mean, float(speeds.max()),
                          clipped / n_herders, solution.floor_share)
                if sim.v_max is not None:
                    commands = speed_limit(commands, sim.v_max)
                lap("sampling")
            if s % metrics_every == 0:
                record_metrics(t)
            if snapshot_every > 0 and s > 0 and s % snapshot_every == 0:
                record_snapshot(t)
            lap("metrics")
            state = step(state, commands, sim, s, kernel)
            if (s + 1) % progress == 0:
                log.info("step %d of %d, %.1f s; chi %.1f%% at t = %g", s + 1, n_steps,
                         time.perf_counter() - t_start, chis[-1], times[-1])
            lap("step")
    except BaseException:
        _drop_hand_out()  # its queued blocks and reply must never reach a later call
        raise
    record_metrics(n_steps * sim.dt)
    if n_steps > 0:  # with none, the initial state is the final one
        record_snapshot(n_steps * sim.dt)
    lap("metrics")

    return SimulationResult(
        metric_times=np.asarray(times),
        chi=np.asarray(chis),
        n_inside=np.asarray(inside, dtype=int),
        **dict(zip(_HEALTH, np.array(healths).T)),
        snapshots=snapshots,
        final=state,
        n_targets=n_targets,
        n_herders=n_herders,
        wall_time=time.perf_counter() - t_start,
        cpu_time=time.process_time() - cpu_start,
        drift_processes=2 if _split_calls > split_start else 1,
        stage_seconds=stage_seconds,
    )
