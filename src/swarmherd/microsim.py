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
in a process allowed two CPUs, is split: one persistent helper process
drifts the trailing half of the blocks while the caller drifts the leading
half, with the same bits as one process. The helper is a child interpreter
(``_serve``) that exchanges fixed-size binary frames over its stdin and
stdout. It starts on first need and is never waited for: it reports ready
about 0.25 s later, and until then the caller drifts every block. It peaks
at about 33 MB resident, besides the caller's 44 MB at paper scale. It is
stopped and reaped at exit, and after any failure between a request and its
reply; one that fails to start leaves the caller drifting alone.
Threads would not help: block-sized NumPy calls gained nothing under the
GIL, where two processes ran 1.7-2.1 times as fast. The KDE's reduction
calls no BLAS, so no idle BLAS worker spins on the core the helper needs.
"""

from __future__ import annotations

import atexit
import logging
import os
import struct
import sys
import time
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
    control_every: int = 1
    v_max: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise FieldError("dt", "time step must be positive")
        if not self.horizon >= 0:
            raise FieldError("horizon", "horizon cannot be negative")
        if self.diffusion < 0:
            raise FieldError("diffusion", "diffusion coefficient cannot be negative")
        if not isinstance(self.seed, Integral):
            raise FieldError("seed", "seed must be an integer")
        if self.seed < 0:
            raise FieldError("seed", "seed cannot be negative")
        if not isinstance(self.control_every, Integral):
            raise FieldError("control_every", "control period must be an integer")
        if self.control_every < 1:
            raise FieldError("control_every", "control period must be >= 1 step")
        if self.v_max is not None and not self.v_max > 0:
            raise FieldError("v_max", "speed limit must be positive")
        # two fields clash here, so no one field is named
        if self.horizon < self.dt and self.horizon != 0:
            raise ValueError("horizon must be zero or at least one step")

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

    time: float
    n_inside: int
    chi: float  # percentage in [0, 100]


def containment(ensemble: AgentEnsemble, goal: GoalRegion,
                time_stamp: float = 0.0) -> ContainmentMetric:
    dist = torus_distance(ensemble.targets, goal.center)
    n_in = int(np.count_nonzero(dist <= goal.radius))
    return ContainmentMetric(
        time=time_stamp, n_inside=n_in, chi=100.0 * n_in / ensemble.n_targets
    )


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
                 block: int, out: np.ndarray) -> None:
    """Unnormalized drift of wrapped targets under wrapped herders, into
    ``out``, ``block`` targets at a time."""
    table = _tail_table(kernel)
    cells = _TAIL_CELLS
    n_h = herders.shape[0]
    tt = np.ascontiguousarray(targets.T)[:, :, None]
    ht = np.ascontiguousarray(herders.T)[:, None, :]
    ws = _workspace(block, n_h)
    for lo in range(0, targets.shape[0], block):
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
        np.add(np.multiply(i, cells, out=flat), i[::-1], out=flat)
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


# The helper's frames: a request is this header, then n_t + n_h positions
# (float64 x, y pairs, targets first); its reply is n_t drift rows.
_HEADER = struct.Struct("<qqdqq")  # n_t, n_h, kernel length, images, block
_READY = b"R"  # the helper's first and only other byte on its stdout


def _read_into(stream, buf) -> bool:
    """Fill ``buf`` from an unbuffered binary stream; False if it ends first."""
    view = memoryview(buf).cast("B")
    while view:
        got = stream.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True


def _write_all(stream, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[stream.write(view):]


class _DriftHelper:
    """A child interpreter that drifts the trailing share of a split call.

    It runs ``_serve`` in ``sys.executable`` with the directory of this
    package first on ``PYTHONPATH``, so it imports nothing of the caller's
    ``__main__``. It ignores SIGINT and exits when its stdin ends.
    """

    def __init__(self, kernel: KernelParams):
        import subprocess

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "from swarmherd.microsim import _serve; _serve()",
             repr(kernel.length), str(kernel.images)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            env=dict(os.environ, PYTHONPATH=path))
        self.is_ready = False

    def _failed(self, what: str) -> RuntimeError:
        code = self.proc.poll()
        state = "still running" if code is None else f"exit status {code}"
        return RuntimeError(f"drift helper process {self.proc.pid} {what} ({state})")

    def ready(self) -> bool:
        """Whether the helper has reported ready; never waits."""
        if not self.is_ready:
            import select

            if select.select([self.proc.stdout], [], [], 0)[0]:
                if self.proc.stdout.read(1) != _READY:
                    raise self._failed("exited before it was ready")
                self.is_ready = True
        return self.is_ready

    def send(self, targets: np.ndarray, herders: np.ndarray, kernel: KernelParams,
             block: int) -> None:
        header = _HEADER.pack(targets.shape[0], herders.shape[0], kernel.length,
                              kernel.images, block)
        try:
            _write_all(self.proc.stdin, header + targets.tobytes() + herders.tobytes())
        except BrokenPipeError:
            raise self._failed("has exited") from None

    def receive(self, out: np.ndarray) -> None:
        if not _read_into(self.proc.stdout, out):
            raise self._failed("sent a short reply")

    def close(self, kill: bool) -> None:
        """Stop the helper and reap it: at the end of its stdin, or killed."""
        if kill:
            self.proc.kill()
        # its stdout first, so a helper still writing a reply stops on a broken pipe
        self.proc.stdout.close()
        self.proc.stdin.close()
        self.proc.wait()


_helper: _DriftHelper | None = None
_no_helper = False  # a helper failed to start here: never split again
_split_calls = 0  # drift calls the helper shared; ``run`` reports whether it did


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs or more (never split where
    the platform cannot tell)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _ready_helper(kernel: KernelParams) -> _DriftHelper | None:
    """This process's helper once it has reported ready, else None; starts
    one if none runs. A helper that cannot be launched, or that ends before
    it reports ready, leaves this process drifting alone from then on: the
    split only saves time."""
    global _helper, _no_helper
    try:
        if _helper is None:
            _helper = _DriftHelper(kernel)
        elif _helper.ready():
            return _helper
        return None
    except (OSError, RuntimeError) as exc:
        _stop_helper(kill=True)
        _no_helper = True
        log.warning("drift helper unavailable, drifting in one process: %s", exc)
        return None
    except BaseException:
        _stop_helper(kill=True)
        raise


def _stop_helper(kill: bool = False) -> None:
    """Stop and forget this process's helper, if it has one. One that has not
    reported ready holds no request, and is killed rather than waited for."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.close(kill or not helper.is_ready)


def _forget_helper() -> None:
    """In a forked child: drop the parent's helper and this copy of its pipes,
    so that the helper still sees its input end when the parent closes it."""
    global _helper
    if _helper is not None:
        _helper.proc.stdin.close()
        _helper.proc.stdout.close()
        _helper = None


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _serve() -> None:
    """The helper's loop: answer each request on stdin until stdin ends."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
    requests = open(0, "rb", buffering=0, closefd=False)
    replies = open(os.dup(1), "wb", buffering=0)
    os.dup2(2, 1)  # a stray print goes to stderr, never into a reply
    _tail_table(KernelParams(float(sys.argv[1]), int(sys.argv[2])))
    header = bytearray(_HEADER.size)
    try:
        replies.write(_READY)
        while _read_into(requests, header):
            n_t, n_h, length, images, block = _HEADER.unpack(header)
            pos, out = np.empty((n_t + n_h, 2)), np.empty((n_t, 2))
            if not _read_into(requests, pos):
                return
            _table_drift(pos[:n_t], pos[n_t:], KernelParams(length, images), block, out)
            _write_all(replies, out)
    except BrokenPipeError:
        pass  # the caller has gone


def _split_drift(targets: np.ndarray, herders: np.ndarray,
                 kernel: KernelParams) -> np.ndarray:
    """``_table_drift`` of all targets, shared with the helper where it pays.

    With two target blocks or more and a second CPU, the helper drifts the
    trailing half of the blocks while this process drifts the leading half.
    Until the helper has reported ready, and after it failed to start, this
    process drifts them all.
    """
    global _split_calls
    out = np.empty_like(targets)
    block = max(1, _BLOCK_PAIRS // herders.shape[0])
    blocks = -(-targets.shape[0] // block)
    helper = (_ready_helper(kernel) if blocks >= 2 and not _no_helper and _spare_cpu()
              else None)
    if helper is None:
        _table_drift(targets, herders, kernel, block, out)
        return out
    lead = blocks // 2 * block
    try:
        helper.send(targets[lead:], herders, kernel, block)
        _table_drift(targets[:lead], herders, kernel, block, out[:lead])
        helper.receive(out[lead:])
    except BaseException:
        # a reply may still be on its way: never read it as the next call's
        _stop_helper(kill=True)
        raise
    _split_calls += 1
    return out


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
    no per-block temporaries and peaks at 74 KiB traced (46 KiB split). Each target's row
    depends on no other target, so the result is the same bits for every
    block size and whether or not the helper process took a share
    (``_split_drift``).
    """
    targets = np.asarray(targets, dtype=float)
    herders = np.asarray(herders, dtype=float)
    if herders.size == 0 or targets.size == 0:
        return np.zeros_like(targets)
    if fast:
        return alpha * _split_drift(wrap(targets), wrap(herders), kernel)
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
    new_herders = wrap(ensemble.herders + commands * params.dt)
    drift = drift_all(ensemble.targets, ensemble.herders, ensemble.alpha, kernel)
    move = drift * params.dt
    if params.diffusion > 0:
        noise = noise_rng(params.seed, step_index).standard_normal(
            ensemble.targets.shape
        )
        move = move + np.sqrt(2.0 * params.diffusion * params.dt) * noise
    return AgentEnsemble(herders=new_herders, targets=wrap(ensemble.targets + move))


_HEALTH = ("herder_error_l2", "removed_mean", "peak_speed", "clipped_share",
           "floor_share")


@dataclass
class SimulationResult:
    """Metric series and final state of one closed-loop run."""

    metric_times: np.ndarray
    chi: np.ndarray
    n_inside: np.ndarray
    # loop health at each metric time, from the latest control tick (NaN before
    # one): herder error L2, the mean the Poisson solve removed, the peak
    # commanded speed before the speed limit, the share the limit clipped and
    # the share of grid nodes where the density estimate hit DENSITY_FLOOR
    herder_error_l2: np.ndarray
    removed_mean: np.ndarray
    peak_speed: np.ndarray
    clipped_share: np.ndarray
    floor_share: np.ndarray
    snapshots: list[tuple[float, np.ndarray, np.ndarray]]
    final: AgentEnsemble
    n_targets: int
    n_herders: int
    herder_mass: float
    wall_time: float
    cpu_time: float  # this process's CPU seconds over the run, helper excluded
    drift_processes: int  # 2 if the drift helper took a share of any step, else 1
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
    The control field is refreshed every ``sim.control_every`` steps from
    the state at that step and held between refreshes. With
    ``snapshot_every`` > 0 the run stores (t, herders, targets) tuples at
    that cadence plus the final state; 0 stores initial and final only. The
    metric series always holds a t = 0 record and a final record at
    t = n_steps * dt (both at t = 0 for a zero horizon); in a run with steps
    the t = 0 record follows the first control tick, so it carries that
    tick's loop health.

    Every step goes through ``step`` on the state at the start of that
    step; the control chain reads the same state. ``stage_seconds`` sums
    the ``time.perf_counter`` deltas of each stage; its total never
    exceeds ``wall_time``. ``cpu_time`` is this process's
    ``time.process_time`` over the run, without the drift helper's: well
    above ``wall_time``, it shows a spinning thread pool.
    ``drift_processes`` is 2 if the helper shared the drift of any step.
    Progress goes to the ``swarmherd`` logger at INFO, at most once per 10%
    of the steps.
    """
    t_start, cpu_start = time.perf_counter(), time.process_time()
    split_start = _split_calls
    grid = rho_bar_h.grid
    herder_mass = n_herders / (n_herders + n_targets) if n_herders > 0 else 0.0

    init = np.random.default_rng((sim.seed, 0))  # noise_rng keys the steps from 1
    state = AgentEnsemble(herders=herder_lattice(n_herders),
                          targets=uniform_targets(n_targets, init))
    commands = np.zeros((n_herders, 2))
    health = (np.nan,) * len(_HEALTH)  # the latest control tick's, in _HEALTH order

    times: list[float] = []
    chis: list[float] = []
    inside: list[int] = []
    healths: list[tuple] = []
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []

    def record_metrics(t: float):
        metric = containment(state, goal, t)
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
    if n_steps == 0:
        record_metrics(0.0)
    for s in range(n_steps):
        t = s * sim.dt
        if n_herders > 0 and s % sim.control_every == 0:
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
    record_metrics(n_steps * sim.dt)
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
        herder_mass=herder_mass,
        wall_time=time.perf_counter() - t_start,
        cpu_time=time.process_time() - cpu_start,
        drift_processes=2 if _split_calls > split_start else 1,
        stage_seconds=stage_seconds,
    )
