"""Euler-Maruyama integration of the agent-level herding dynamics.

Herders are velocity-controlled integrators; each target drifts with the
normalized sum of the periodized repulsion kernel over all herders plus
isotropic diffusion noise. The pairwise drift is almost all of a step's
cost. ``drift_all`` adds the exact nearest-image kernel term to the smooth
tail of the other images, read from a table of local cubics (10
coefficients per cell, 96^2 cells of side pi/96 on [0, pi]^2, 0.74 MB).
Against the image sum, ``drift_all(fast=False)``, its max-norm relative
error measured about 3e-10 at scale and at most 3.1e-8 for a single pair
on the seam (L = pi).

That arithmetic runs in a small C kernel, ``_drift.c``, called through
``ctypes``, which releases the GIL for the whole call. Its exponential is
its own, from add, sub and mul only (within 1 ulp of ``math.exp`` as
measured), so the drift's bits do not depend on the host's libm. The kernel
is one source, the drift of four targets at once, one per vector lane, each
lane's 10 table coefficients loaded as one row and transposed with the
other lanes'. It is compiled for the baseline ISA and for AVX2, which an
x86-64 CPU with AVX2 runs: about 11 ns per pair on one thread, against 18
for the baseline build. Blocks hold whole groups of 4 targets; a call's
last 1 to 3 run as one group with the last repeated. Every lane performs
the same operations in the same order, so the bits depend neither on the
build nor on the block size.
The same library also formats text: its ``text_rows`` writes the exact
``%.17g`` cells of ``fileio``'s tables and fields from integer arithmetic.
It is compiled on the first drift or text write that needs it, with the C
compiler Python was built with, and cached under
``$XDG_CACHE_HOME/swarmherd`` (else ``~/.cache/swarmherd``). Where it cannot
be built or loaded, one warning is logged; every drift is then the image
sum, ``fast=False``'s code, in one thread (at 720 targets and 260 herders 60
to 65 ms a call with an 18 MB traced peak, against 1.7 to 2.3 ms for the
kernel on two threads), and text is formatted by Python's ``%``.

No target's drift depends on another's, so a call of two blocks or more,
in a process allowed two CPUs, is shared between the calling thread and
one helper thread: both take block indices from one counter, by an atomic
add in the kernel, until none is left, so every block is drifted once, by
whichever thread is free, with the same bits as one thread. One ``_Drift``
owns each call and its helper thread. ``run`` makes each step's drift at
the top of the step, so the helper thread drifts while the caller runs the
control tick, metrics and noise draw; ``step`` collects it through
``drift_all``. Threads help only because the kernel holds no GIL:
block-sized NumPy calls gain nothing on two threads, as each short ufunc
hands the GIL back and forth. The KDE's matrix product stays below
OpenBLAS's threading threshold, so no idle BLAS worker spins on the core
the helper thread needs.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from pathlib import Path

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
    """Herder and target positions, wrapped into the domain. Points not shaped
    (n, 2) are a ``ValueError`` that names which."""

    herders: np.ndarray  # (n_h, 2)
    targets: np.ndarray  # (n_t, 2)

    def __post_init__(self):
        for name in ("herders", "targets"):
            points = np.asarray(getattr(self, name), dtype=float)
            if points.ndim != 2 or points.shape[1] != 2:
                raise ValueError(f"{name} of shape {points.shape}: need (n, 2) points")
            setattr(self, name, wrap(points))

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
    if ensemble.n_targets == 0:
        raise ValueError("containment of an empty target set is undefined")
    dist = torus_distance(ensemble.targets, goal.center)
    n_in = int(np.count_nonzero(dist <= goal.radius))
    return ContainmentMetric(n_inside=n_in, chi=100.0 * n_in / ensemble.n_targets)


def herder_lattice(n: int) -> np.ndarray:
    """ceil(sqrt(n))-per-side centered lattice; the first n sites row-major.

    Sites sit at cell centers, so margins to the domain edge are half a
    cell on every side.
    """
    if not (isinstance(n, Integral) and n >= 0):
        raise ValueError(f"n = {n!r}: the herder count must be an integer >= 0")
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


# Kept only for perfbench, which reports it as its ``numba_drift`` field.
NUMBA_AVAILABLE = False

_TAIL_CELLS = 96  # table cells per side of the quadrant [0, pi]^2, h = pi / 96
_BLOCK_PAIRS = 8192  # pairs per block the drift's threads take from their counter
_LANES = 4  # targets per group of the kernel, one per vector lane
_BUILD_ROWS = 8  # cell rows per chunk of the table build

# The 10 monomials u**p v**q of total degree <= 3, grouped by p: the
# kernel's Horner evaluation in ``_drift.c`` relies on this order.
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
    component on the quadrant [0, pi]^2. Entry [i * 96 + j, k] is the
    coefficient of the monomial u**p v**q, (p, q) = ``_POWERS[k]``, of Q in
    cell (i, j) of side pi/96, local coordinates (u, v) in [0, 1]^2. Each
    cell's 10 coefficients are the least-squares fit of the cubics of total
    degree <= 3 to Q at the cell's 4 x 4 Chebyshev nodes. Q is odd in its
    first argument, so it is 0 on a = 0; the cells there (i = 0) drop the
    fit's u**0 monomials, which makes the table exactly 0 on that edge.
    Every image is at least pi away from the quadrant, so Q is smooth there.
    Against Q itself the table measured 9e-10 to 5.5e-9 of max|Q| at 20 000
    random points for L = 1 to 2 pi and 1 to 3 image rings (with no rings Q
    and the table are 0). Shape (96^2, 10), 0.74 MB, read-only: the kernel
    reads each pair's 10 coefficients from one 80-byte row (from 10 planes
    of 96^2 it took 1.6 times as long). Built on first use per kernel, 8
    cell rows at a time, in about 60 ms at 2 rings.
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
    table = np.ascontiguousarray(table.reshape(len(_POWERS), -1).T)
    table.flags.writeable = False
    return table


_SOURCE = Path(__file__).with_name("_drift.c")
# no -march and no -ffast-math: every operation rounds as written, on any
# build host. The kernel's one vector source is compiled for the baseline
# ISA and, by a target attribute, for AVX2, chosen at run time; both round
# each lane alike, so the bits do not depend on the host's vector units.
_CFLAGS = ("-O2", "-fno-math-errno", "-ffp-contract=off", "-fPIC", "-shared")


def _compiler() -> list[str]:
    """The C compiler Python was built with, else ``cc``, as a command."""
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc if cc and shutil.which(cc[0]) else ["cc"]


def _build_kernel(directory: str, name: str) -> str:
    """Compile ``_drift.c`` into the shared library ``directory/name``; its
    path. Raises ``OSError``, with the compiler's last words, on failure."""
    import subprocess

    path = os.path.join(directory, name)
    done = subprocess.run([*_compiler(), *_CFLAGS, "-o", path, str(_SOURCE), "-lm"],
                          capture_output=True, timeout=120)
    if done.returncode != 0:
        words = done.stderr.decode(errors="replace").strip().splitlines()
        raise OSError(f"the C compiler exited with status {done.returncode}"
                      + (f": {words[-1]}" if words else ""))
    return path


def _cache_dir() -> str:
    return os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                        "swarmherd")


@lru_cache(maxsize=None)
def _compiled_drift():
    """The kernel library through ``ctypes``, its ``drift_blocks``,
    ``drift_lanes``, ``drift_exp`` and ``text_rows`` declared; None, with one
    warning, where it cannot be built or loaded.

    Built on the first drift or text write that needs it, never at import or
    in the plan.
    The library's name is keyed by a hash of the source, the compiler, the
    flags and the platform, so hosts of two architectures can share one
    cache directory. It is built in a temporary directory and loaded from
    there, then moved into the cache directory where that is writable, so
    later processes load it without building.
    """
    import ctypes
    import hashlib
    import subprocess
    import sysconfig

    cc, cache = _compiler(), _cache_dir()
    try:
        words = [*cc, *_CFLAGS, sysconfig.get_platform()]
        key = hashlib.sha256(_SOURCE.read_bytes() + "\0".join(words).encode())
        name = f"_drift-{key.hexdigest()[:16]}.so"
        cached = os.path.join(cache, name)
        if os.path.exists(cached):
            lib = ctypes.CDLL(cached)
        else:
            try:
                os.makedirs(cache, exist_ok=True)
                scratch = tempfile.TemporaryDirectory(dir=cache)
            except OSError:  # no writable cache: build, load and let it go
                scratch, cached = tempfile.TemporaryDirectory(), None
            with scratch as directory:
                lib = ctypes.CDLL(_build_kernel(directory, name))
                if cached is not None:
                    os.replace(os.path.join(directory, name), cached)
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning("compiled kernel unavailable: drifting with the image sum in one "
                    "thread, writing text through Python's %%-formatting: %s", exc)
        return None
    lib.drift_blocks.restype = None
    lib.drift_blocks.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                                 ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,
                                 ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                                 ctypes.c_void_p)
    lib.drift_lanes.restype = ctypes.c_int
    lib.drift_lanes.argtypes = ()
    lib.drift_exp.restype = None
    lib.drift_exp.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    lib.text_rows.restype = ctypes.c_int64
    lib.text_rows.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                              ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                              ctypes.c_char_p, ctypes.c_void_p)
    return lib


def _block_size(n_h: int) -> int:
    """Targets per block: about ``_BLOCK_PAIRS`` pairs, in whole groups of
    ``_LANES`` targets, at least one group."""
    return _LANES * max(1, _BLOCK_PAIRS // (_LANES * n_h))


class _Drift:
    """One call of the compiled kernel ``lib`` on wrapped, C-contiguous float
    arrays: its rows, the counter its threads take blocks from, and its
    helper thread.

    The constructor starts the helper thread where the call has two blocks
    or more and the process a spare CPU; one that cannot be started logs one
    warning, and none is tried again. The helper runs only the kernel call
    and a read of its own clock (``cpu``), so none of this package's traced
    functions runs off the calling thread. ``rows`` drifts the blocks left
    on the calling thread and joins the helper; ``stop``, and ``rows`` on any
    failure, moves the counter past the last block and joins it. The arrays,
    the table and the rows live here while any thread may use them.
    """

    def __init__(self, lib, targets: np.ndarray, herders: np.ndarray, kernel: KernelParams):
        global _no_helper
        import ctypes

        self.targets, self.herders, self.kernel = targets, herders, kernel
        self.table = _tail_table(kernel)
        block = _block_size(herders.shape[0])
        self.blocks = -(-targets.shape[0] // block)
        self.out = np.empty_like(targets)
        self.next = ctypes.c_int64(0)
        self.args = (targets.ctypes.data, targets.shape[0], herders.ctypes.data,
                     herders.shape[0], kernel.length, self.table.ctypes.data, _TAIL_CELLS,
                     block, ctypes.addressof(self.next), self.out.ctypes.data)
        self.fn = lib.drift_blocks
        self.cpu = 0.0  # the helper thread's CPU seconds, once joined
        self.thread: threading.Thread | None = None
        if self.blocks < 2 or _no_helper or not _spare_cpu():
            return

        def share():
            self.fn(*self.args)
            self.cpu = time.thread_time()

        thread = threading.Thread(target=share, name="swarmherd-drift", daemon=True)
        try:
            thread.start()
        except RuntimeError as exc:  # "can't start new thread"
            _no_helper = True
            log.warning("drift helper thread unavailable, drifting in one thread: %s", exc)
        else:
            self.thread = thread

    def rows(self) -> np.ndarray:
        """The unnormalized drift of every target."""
        try:
            self.fn(*self.args)
        except BaseException:
            self.stop()
            raise
        if self.thread is not None:
            self.thread.join()
        return self.out

    def stop(self) -> None:
        self.next.value = self.blocks  # past the last block
        if self.thread is not None:
            self.thread.join()

    def holds(self, targets: np.ndarray, herders: np.ndarray, kernel: KernelParams) -> bool:
        """Whether this is the drift of these very arrays."""
        return self.targets is targets and self.herders is herders and self.kernel == kernel


_handed: _Drift | None = None  # run's drift of this step, until drift_all collects it
_no_helper = False  # set once a helper thread failed to start: never tried again


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs or more (never split where
    the platform cannot tell)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _hand_out(drift: _Drift | None) -> None:
    """Park ``run``'s drift of a step, its helper thread already at work, for
    ``drift_all`` to collect; stop the one parked before, if never collected.
    ``run`` parks None on any failure, which stops the drift left parked."""
    global _handed
    if _handed is not None:
        _handed.stop()
    _handed = drift


def drift_all(targets: np.ndarray, herders: np.ndarray, alpha: float,
              kernel: KernelParams, fast: bool = True) -> np.ndarray:
    """Drift of every target under every herder, shape (n_t, 2).

    The fast path adds the exact nearest-image term to the other images'
    tail, read from the table of ``_tail_table``: per cell a least-squares
    cubic of total degree <= 3 (10 coefficients) fitted at 4 x 4 Chebyshev
    nodes, 96^2 cells of side pi/96, 0.74 MB, built on first use per kernel
    and cached. Against the image sum its max-norm relative error measured
    4e-12 to 3e-10 for 720 targets and 260 herders, L = 0.3 to 2 pi and 1 to
    3 image rings (1e-15 with none), and at most 3.1e-8 for a single pair
    over 40 000 pairs on the seam and near the axes (L = pi); both are far
    below the kernel's own image-truncation error. It runs in the compiled
    kernel, over blocks of about 8192 target-herder pairs in whole groups of
    4 targets, one per vector lane (the call's last 1 to 3 padded to a
    group), in the AVX2 build where the CPU has AVX2 and in the baseline
    build elsewhere, and allocates nothing: a warm call at 720 x 260 traces
    only its result and wrapped inputs. Each target's row is summed over the
    herders in index order, by the same operations in every lane and build,
    with the kernel's own exp in place of libm's, and depends on no other
    target, so the result is the same bits for every block size, in either
    build, on any libm, and whichever thread drifts which block. It is odd:
    negating every position negates its drift bit for bit, except on the
    seam.

    ``fast=False`` is the plain vectorized image sum, the fast path's
    reference. Where the kernel cannot be built or loaded, ``fast=True``
    returns the image sum too, after one warning. Both are deterministic
    and reject ``targets`` or ``herders`` not shaped (n, 2) with a
    ``ValueError``, before any kernel call. The fast path collects the drift
    ``run`` parked where it holds these very arrays; otherwise it stops that
    one and makes its own ``_Drift`` of the wrapped arrays.
    """
    global _handed
    targets = np.ascontiguousarray(targets, dtype=float)
    herders = np.ascontiguousarray(herders, dtype=float)
    for name, points in (("targets", targets), ("herders", herders)):
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"{name} of shape {points.shape}: need (n, 2) points")
    if herders.size == 0 or targets.size == 0:
        return np.zeros_like(targets)
    lib = _compiled_drift() if fast else None
    if lib is None:
        disp = wrapped_displacement(targets[:, None, :], herders[None, :, :])
        return alpha * kernel_periodic(disp, kernel).sum(axis=1)
    drift, _handed = _handed, None
    if drift is None or not drift.holds(targets, herders, kernel):
        if drift is not None:
            drift.stop()
        drift = _Drift(lib, wrap(targets), wrap(herders), kernel)
    return alpha * drift.rows()


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
    cpu_time: float  # this process's CPU seconds over the run, every thread's
    thread_cpu_time: float  # the CPU seconds of run's own thread and its helper threads
    drift_threads: int  # 2 if any step's drift was handed to a helper thread, else 1
    drift_lanes: int  # the kernel's drift_lanes() if any step drifted with it, else 1
    # seconds per stage: kernel (the compiled kernel and its table), kde,
    # control (herder_error, control_field), sampling (sample_at_herders,
    # speed_limit), step, metrics (metrics and snapshots)
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
    step; the control chain reads the same state. The kernel library and
    its table are obtained before the first step (stage ``kernel``); each
    step's drift is made and parked (``_hand_out``) at the top of the step,
    and ``step`` collects it. ``stage_seconds`` sums the
    ``time.perf_counter`` deltas of each stage; its total never exceeds
    ``wall_time``. ``cpu_time`` is this process's ``time.process_time``
    over the run, and ``thread_cpu_time`` the ``time.thread_time`` of the
    calling thread and of those drifts' helper threads: well above it,
    ``cpu_time`` shows some other thread spinning, such as an idle BLAS
    worker. ``drift_threads`` is 2 if any of those drifts had a helper
    thread, and ``drift_lanes`` 4 if the steps drifted with the kernel's
    AVX2 build (1 with its baseline build or without the kernel).
    Progress goes to the ``swarmherd`` logger at INFO, at most once per 10%
    of the steps.
    """
    if not (isinstance(n_targets, Integral) and n_targets >= 1):
        raise ValueError(f"n_targets = {n_targets!r}: need an integer >= 1 targets")
    if not (isinstance(n_herders, Integral) and n_herders >= 0):
        raise ValueError(f"n_herders = {n_herders!r}: need an integer >= 0 herders")
    if not (isinstance(metrics_every, Integral) and metrics_every >= 1):
        raise ValueError(f"metrics_every = {metrics_every!r}: metrics cadence must be "
                         "an integer >= 1 step")
    if not (isinstance(snapshot_every, Integral) and snapshot_every >= 0):
        raise ValueError(f"snapshot_every = {snapshot_every!r}: snapshot cadence must be "
                         "an integer >= 0 steps")
    t_start, cpu_start = time.perf_counter(), time.process_time()
    thread_start = time.thread_time()
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

    stages = ("kernel", "kde", "control", "sampling", "step", "metrics")
    stage_seconds = dict.fromkeys(stages, 0.0)
    mark = time.perf_counter()

    def lap(stage: str):
        # charges the time since the last lap to ``stage``; allocates no arrays
        nonlocal mark
        now = time.perf_counter()
        stage_seconds[stage] += now - mark
        mark = now

    n_steps = sim.n_steps
    progress = -(-n_steps // 10)  # steps between progress reports
    # every step with herders drifts with the kernel, where it is built
    lib = _compiled_drift() if n_steps > 0 and n_herders > 0 else None
    if lib is not None:
        _tail_table(kernel)
    lap("kernel")
    helpers, helper_seconds = 0, 0.0  # the helper threads of the drifts made here
    record_snapshot(0.0)
    try:
        for s in range(n_steps):
            t = s * sim.dt
            if lib is not None:
                # its helper thread drifts this step while this one runs the control tick
                drift = _Drift(lib, state.targets, state.herders, kernel)
                _hand_out(drift)
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
            if lib is not None:  # collected, its helper thread joined
                helpers += drift.thread is not None
                helper_seconds += drift.cpu
            if (s + 1) % progress == 0:
                log.info("step %d of %d, %.1f s; chi %.1f%% at t = %g", s + 1, n_steps,
                         time.perf_counter() - t_start, chis[-1], times[-1])
            lap("step")
    except BaseException:
        _hand_out(None)  # the helper thread stops after its current block
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
        thread_cpu_time=time.thread_time() - thread_start + helper_seconds,
        drift_threads=2 if helpers else 1,
        drift_lanes=lib.drift_lanes() if lib is not None else 1,
        stage_seconds=stage_seconds,
    )
