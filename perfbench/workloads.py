"""The perfbench workloads: seeded inputs, one unit of user work, output checks.

closed_loop -- what ``swarmherd simulate`` does at paper scale: plan, run
               the agent closed loop, write metrics and trajectory.
plan_sweep  -- ``plan_herders`` on the default config, then the CLI's default
               8x8 feasibility sweep: deconvolution only, no agents.
continuum   -- the three RK4 drivers of the density twin on the control
               grid, in short calls timed one by one: spectral grid
               operators only, no agents, no SVD.

Each workload object has ``setup()`` (untimed), ``rep()`` (one unit of user
work, timed by the caller), ``checks(reps)`` and the exact counts the
traced run needs. Layer functions are called through their modules so
that the tracer's wrappers see every call. Plans come from
``swarmherd.cli._plan`` and the closed loop from ``cli.cmd_simulate``, so
the workloads make the CLI's own calls.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from swarmherd import cli, continuum, feasibility, grids, kernel, microsim
from swarmherd.config import ExperimentConfig

HERDER_DT = 0.005  # the herder driver's own default for gain 10: min(0.05 / gain, 0.01)
TARGET_DT = 0.1  # one step per sample; below the 0.12 explicit-step bound on 64^2
COUPLED_DT = 0.02
CALL_STEPS = 5  # RK4 steps per timed herder or target driver call
PERTURBATION = 0.01  # amplitude of the seeded low-mode perturbation
PERTURBATION_MODES = 2  # |k1|, |k2| <= 2
SWEEP_K = (0.5, 6.0)  # CLI defaults of `swarmherd sweep`
SWEEP_D = (0.005, 0.1)
DRIFT_RTOL = 1e-6
REFERENCE_TARGETS = 48  # targets in the explicit image-sum drift reference
MASS_DRIFT_TOL = 1e-12
RATE_TOL = 1e-3


@dataclass(frozen=True)
class Sizes:
    n_targets: int
    control_grid: int
    deconvolution_grid: int
    sim_steps: int  # closed-loop steps per simulate call
    replay_steps: int
    sweep_cells_per_axis: int
    herder_horizon: float
    target_horizon: float
    coupled_steps: int
    probes: int  # fresh interpreters timed for setup_s, after one discarded
    expected_plan: tuple[int, float] | None  # (n_herders, min_mass)


# One closed-loop step per simulate call: the shortest piece of ``run`` that
# can be timed from outside it (see README).
FULL = Sizes(720, 64, 25, 1, 3, 8, 3.0, 20.0, 100, 7, (260, 0.265200813))
TINY = Sizes(40, 16, 9, 2, 2, 2, 0.2, 0.5, 3, 2, None)


@dataclass
class Rep:
    """Timings and outputs of one unit of user work."""

    wall_s: float  # continuum: the sum of ``parts``
    ops: int  # steps, sweep cells or RK4 steps
    parts: dict[str, float]  # seconds spent on those operations, by kind of call
    plan_s: float  # time of this unit's plan_herders call
    attempted: int  # operations for the error rate: steps, plans, cells, drivers
    output: Any  # what the checks read; the caller keeps it for the last rep only


Check = tuple[str, bool, str]


def experiment(seed: int, sizes: Sizes, steps: int | None = None,
               snapshot_every: int = 0) -> ExperimentConfig:
    """The default config at ``sizes``, run for ``steps`` (default: sim_steps)."""
    dt = ExperimentConfig().sim.dt
    return ExperimentConfig.from_dict({
        "population": {"n_targets": sizes.n_targets},
        "grids": {"control": sizes.control_grid,
                  "deconvolution": sizes.deconvolution_grid},
        "sim": {"seed": seed, "horizon": (steps or sizes.sim_steps) * dt},
        "output": {"snapshot_every": snapshot_every},
    })


def same_state(a: microsim.AgentEnsemble, b: microsim.AgentEnsemble) -> bool:
    return bool(np.array_equal(a.herders, b.herders)
                and np.array_equal(a.targets, b.targets))


def array_bytes(obj) -> int:
    """Bytes of the arrays an object holds, directly or in tuples: a computed size."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, tuple) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def image_sum_drift(targets: np.ndarray, herders: np.ndarray, alpha: float,
                    params: kernel.KernelParams) -> np.ndarray:
    """alpha * sum over herders and periodic images of (x/|x|) exp(-|x|/L).

    Written out from the kernel's formula, with no call into swarmherd, so
    the drift checks hold whichever drift path the program takes.
    """
    disp = targets[:, None, :] - herders[None, :, :]
    disp = np.mod(disp + np.pi, 2 * np.pi) - np.pi
    total = np.zeros_like(targets)
    offsets = range(-params.images, params.images + 1)
    for a in offsets:
        for b in offsets:
            x = disp + 2 * np.pi * np.array([a, b])
            r = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
            scale = np.divide(np.exp(-r / params.length), r,
                              out=np.zeros_like(r), where=r > 0)
            total += (x * scale[..., None]).sum(axis=1)
    return alpha * total


def max_rel_err(value: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(value - ref).max() / np.abs(ref).max())


@contextlib.contextmanager
def recorded(module, name: str, seen: dict):
    """Wrap ``module.name`` so each call leaves (result, seconds) in ``seen[name]``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        out = original(*args, **kwargs)
        seen[name] = (out, time.perf_counter() - start)
        return out

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def simulate(cfg: ExperimentConfig, out_dir: Path):
    """``swarmherd simulate`` on ``cfg``, its summary printed to nowhere.

    Returns the run's SimulationResult and the seconds spent in the plan
    and in ``run``.
    """
    seen: dict = {}
    with recorded(cli, "_plan", seen), recorded(cli, "run", seen), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.cmd_simulate(cfg, out_dir)
    if code != 0:
        raise RuntimeError(f"cmd_simulate returned {code}")
    (result, run_s), (_, plan_s) = seen["run"], seen["_plan"]
    return result, plan_s, run_s


def low_mode_perturbation(grid: grids.GridSpec, seed: int) -> np.ndarray:
    """Zero-mean sum of random low Fourier modes, scaled to PERTURBATION."""
    rng = np.random.default_rng(seed)
    nodes = grid.nodes()
    out = np.zeros((grid.m, grid.m))
    modes = range(-PERTURBATION_MODES, PERTURBATION_MODES + 1)
    for k1 in modes:
        for k2 in modes:
            if k1 == 0 and k2 == 0:
                continue
            phase = k1 * nodes[..., 0] + k2 * nodes[..., 1]
            a, b = rng.standard_normal(2)
            out += a * np.cos(phase) + b * np.sin(phase)
    out -= out.mean()
    return PERTURBATION * out / np.abs(out).max()


class ClosedLoop:
    """``swarmherd simulate`` at paper scale; the benchmark seed becomes ``sim.seed``."""

    name = "closed_loop"
    ops = "simulated steps inside run"
    spans = (
        "feasibility.plan_herders", "microsim.run", "microsim.drift_all",
        "kde.estimate_density", "control.herder_error", "control.control_field",
        "control.sample_at_herders", "microsim.containment",
        "fileio.write_metrics", "fileio.write_trajectory",
    )

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path):
        self.cfg = experiment(seed, sizes)
        self.sizes = sizes
        self.out_dir = out_dir
        self.first_final: microsim.AgentEnsemble | None = None
        self.differing_reps = 0
        self.counts: dict[str, float] = {}

    def setup(self) -> None:
        """Replay a few steps twice, with a snapshot after every step."""
        short = experiment(self.cfg.sim.seed, self.sizes, self.sizes.replay_steps,
                           snapshot_every=1)
        self.replay, _, _ = simulate(short, self.out_dir)
        again, _, _ = simulate(short, self.out_dir)
        self.replay_identical = all(
            ta == tb and np.array_equal(ha, hb) and np.array_equal(xa, xb)
            for (ta, ha, xa), (tb, hb, xb) in zip(self.replay.snapshots, again.snapshots))
        sim = self.cfg.sim.params()
        self.counts = {
            "drift_pairs_per_call": self.replay.n_targets * self.replay.n_herders,
            "steps_per_run": sim.n_steps,
        }

    def rep(self) -> Rep:
        t0 = time.perf_counter()
        result, plan_s, run_s = simulate(self.cfg, self.out_dir)
        wall = time.perf_counter() - t0
        if self.first_final is None:
            self.first_final = result.final
        elif not same_state(result.final, self.first_final):
            self.differing_reps += 1
        steps = self.counts["steps_per_run"]
        return Rep(wall, steps, {"run": run_s}, plan_s, steps + 1, result)

    def run_drift_errors(self) -> list[float]:
        """Drift each replayed step used, recovered from its snapshots, against
        the image sum on the step's starting state."""
        sim = self.cfg.sim.params()
        alpha = 1.0 / (self.replay.n_targets + self.replay.n_herders)
        n = REFERENCE_TARGETS
        errors = []
        for s, ((_, h0, x0), (_, _, x1)) in enumerate(
                zip(self.replay.snapshots, self.replay.snapshots[1:])):
            noise = microsim.noise_rng(sim.seed, s).standard_normal(x0.shape)[:n]
            move = np.mod(x1[:n] - x0[:n] + np.pi, 2 * np.pi) - np.pi
            used = (move - np.sqrt(2 * sim.diffusion * sim.dt) * noise) / sim.dt
            ref = image_sum_drift(x0[:n], h0, alpha, self.cfg.kernel.params())
            errors.append(max_rel_err(used, ref))
        return errors

    def checks(self, reps: list[Rep]) -> Iterator[Check]:
        last = reps[-1].output
        final = last.final
        params = self.cfg.kernel.params()
        targets = final.targets[:REFERENCE_TARGETS]
        ref = image_sum_drift(targets, final.herders, final.alpha, params)
        for label, fast in (("drift_matches_reference", True),
                            ("reference_drift_matches_image_sum", False)):
            got = microsim.drift_all(targets, final.herders, final.alpha, params,
                                     fast=fast)
            rel = max_rel_err(got, ref)
            yield (label, rel <= DRIFT_RTOL,
                   f"drift_all(fast={fast}) vs image sum over {len(targets)} "
                   f"targets, max-norm rel err {rel:.3g}")
        errors = self.run_drift_errors()
        ok = len(errors) == self.sizes.replay_steps and max(errors) <= DRIFT_RTOL
        yield ("run_drift_matches_reference", ok,
               f"{len(errors)} replayed steps, max-norm rel err {max(errors):.3g}")
        pos = np.concatenate([final.herders, final.targets])
        in_domain = bool(np.isfinite(pos).all() and (pos >= -np.pi).all()
                         and (pos < np.pi).all())
        yield "positions_finite_in_domain", in_domain, f"{len(pos)} agents"
        chi_ok = bool(((last.chi >= 0) & (last.chi <= 100)).all())
        err_ok = bool(np.isfinite(last.herder_error_l2).all())
        yield ("chi_in_range_error_finite", chi_ok and err_ok,
               f"chi_final={last.chi[-1]:.6g}")
        yield ("short_replay_bit_identical", self.replay_identical,
               f"{self.sizes.replay_steps} steps, every snapshot")
        yield ("final_state_identical_across_reps", self.differing_reps == 0,
               f"{self.differing_reps} of {len(reps)} reps differ from the first")


class PlanSweep:
    """Default-config plan plus the CLI's default sweep.

    The inputs are deterministic: the default config draws nothing at
    random, so the seed does not change them.
    """

    name = "plan_sweep"
    ops = "sweep cells, operator build included"
    spans = (
        "feasibility.plan_herders", "kernel.sample_on_grid",
        "feasibility.DeconvolutionOperator.build",
        "feasibility.DeconvolutionOperator.svd", "grids.resample",
        "feasibility.stability_margin", "feasibility.deconvolve",
        "feasibility.desired_velocity_field", "feasibility.feasibility_map",
    )

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path):
        self.cfg = experiment(seed, sizes)
        self.sizes = sizes
        n = sizes.sweep_cells_per_axis
        self.k_values = np.linspace(*SWEEP_K, n)
        self.d_values = np.linspace(*SWEEP_D, n)
        self.counts: dict[str, float] = {}

    def setup(self) -> None:
        pass

    def rep(self) -> Rep:
        cfg = self.cfg
        t0 = time.perf_counter()
        plan = cli._plan(cfg)
        t1 = time.perf_counter()
        grid = cfg.grids.deconvolution_grid()
        params = cfg.kernel.params()
        operator = feasibility.DeconvolutionOperator.build(grid, params)
        cells = feasibility.feasibility_map(self.k_values, self.d_values, params,
                                            grid, operator)
        t2 = time.perf_counter()
        self.counts["operator_bytes"] = array_bytes(operator)
        return Rep(t2 - t0, cells.size, {"sweep": t2 - t1}, t1 - t0, 1 + cells.size,
                   (plan, cells))

    def checks(self, reps: list[Rep]) -> Iterator[Check]:
        plan, cells = reps[-1].output
        if self.sizes.expected_plan is not None:
            n_herders, min_mass = self.sizes.expected_plan
            yield ("n_herders_expected", plan.n_herders == n_herders,
                   f"n_herders={plan.n_herders}")
            rel = abs(plan.min_mass - min_mass) / min_mass
            yield "min_mass_expected", rel <= 1e-6, f"min_mass={plan.min_mass!r}"
        yield ("residual_below_warn", plan.residual < feasibility.RESIDUAL_WARN,
               f"residual={plan.residual:.3g}")
        ok = bool(np.isfinite(cells).all() and (cells > 0).all() and (cells <= 1).all())
        yield "sweep_cells_in_unit_interval", ok, f"{cells.size} cells"


class Continuum:
    """RK4 drivers from the planned densities plus a seeded perturbation.

    A unit of work makes as many RK4 steps as the drivers at ``sizes``
    (herder horizon, target horizon, coupled steps), but the herder and
    target drivers run in calls of CALL_STEPS steps and the coupled steps
    one call each. Every call is timed alone, and the unit's time of each
    kind of call is its fastest call times the number of calls. On a host
    whose speed changes from one millisecond to the next, a call of a few
    milliseconds often runs at full speed; a call of a second almost never
    does. Set-up runs each driver once at the full horizon for the
    convergence checks. Like ``swarmherd continuum``, each unit of work
    plans first; the plan is timed as ``plan_s`` but kept out of the unit's
    time and RK4 rate.
    """

    name = "continuum"
    ops = "RK4 steps across the three drivers"
    spans = (
        "grids.poisson_solve", "grids.gradient", "grids.divergence",
        "grids.laplacian", "grids.circular_convolve", "continuum.continuum_step",
        "continuum.verify_herder_convergence", "continuum.verify_target_convergence",
    )

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path):
        self.cfg = experiment(seed, sizes)
        self.seed = seed
        self.sizes = sizes
        self.counts: dict[str, float] = {}

    def herder(self, rho_bar_h, horizon: float):
        return continuum.verify_herder_convergence(
            self.rho_h0, rho_bar_h, self.cfg.gain, horizon=horizon, dt=HERDER_DT)

    def target(self, rho_bar_t, horizon: float):
        return continuum.verify_target_convergence(
            self.rho_t0, rho_bar_t, self.cfg.sim.diffusion, horizon=horizon,
            dt=TARGET_DT, sample_every=TARGET_DT)

    def setup(self) -> None:
        self.plan = plan = cli._plan(self.cfg)
        grid = self.cfg.grids.control_grid()
        bump = low_mode_perturbation(grid, self.seed)
        uniform = plan.target_mass / (4 * np.pi**2)
        self.rho_h0 = grids.ScalarField(grid, plan.rho_bar_h.values + bump)
        self.rho_t0 = grids.DensityField(grid, uniform * (1 + bump))  # stays positive
        self.samples = kernel.sample_on_grid(grid, self.cfg.kernel.params())
        sizes = self.sizes
        self.herder_calls = round(sizes.herder_horizon / HERDER_DT) // CALL_STEPS
        self.target_calls = round(sizes.target_horizon / TARGET_DT) // CALL_STEPS
        self.full = (self.herder(plan.rho_bar_h, sizes.herder_horizon),
                     self.target(plan.rho_bar_t, sizes.target_horizon))
        self.counts = {"rk4_steps_per_rep": CALL_STEPS * (self.herder_calls
                                                          + self.target_calls)
                       + sizes.coupled_steps}

    def rep(self) -> Rep:
        diffusion = self.cfg.sim.diffusion
        start = time.perf_counter()
        plan = cli._plan(self.cfg)  # deterministic: equal to the set-up plan
        t0 = time.perf_counter()
        fastest = {"herder": np.inf, "target": np.inf, "coupled": np.inf}
        herder_horizon, target_horizon = CALL_STEPS * HERDER_DT, CALL_STEPS * TARGET_DT
        for _ in range(self.herder_calls):
            t = time.perf_counter()
            herder = self.herder(plan.rho_bar_h, herder_horizon)
            fastest["herder"] = min(fastest["herder"], time.perf_counter() - t)
        for _ in range(self.target_calls):
            t = time.perf_counter()
            target = self.target(plan.rho_bar_t, target_horizon)
            fastest["target"] = min(fastest["target"], time.perf_counter() - t)
        state = continuum.ContinuumState(plan.rho_bar_h, self.rho_t0)
        for _ in range(self.sizes.coupled_steps):
            t = time.perf_counter()
            state = continuum.continuum_step(state, None, self.samples, diffusion,
                                             COUPLED_DT)
            fastest["coupled"] = min(fastest["coupled"], time.perf_counter() - t)
        calls = {"herder": self.herder_calls, "target": self.target_calls,
                 "coupled": self.sizes.coupled_steps}
        parts = {k: calls[k] * fastest[k] for k in calls}
        steps = self.counts["rk4_steps_per_rep"]
        return Rep(sum(parts.values()), steps, parts, t0 - start, 1 + sum(calls.values()),
                   (herder, target, state))

    def checks(self, reps: list[Rep]) -> Iterator[Check]:
        (herder, target), (short_herder, short_target, state) = self.full, reps[-1].output
        yield ("herder_rate_matches_gain", herder.relative_deviation <= RATE_TOL,
               f"horizon {self.sizes.herder_horizon:g}: relative deviation "
               f"{herder.relative_deviation:.3g}")
        for label, reports in (("herder_mass_drift", (herder, short_herder)),
                               ("target_mass_drift", (target, short_target))):
            drift = max(r.mass_drift for r in reports)
            yield (label, drift <= MASS_DRIFT_TOL,
                   f"{drift:.3g}, full horizon and last short call")
        drift = max(
            abs(grids.mass(state.rho_h) / grids.mass(self.plan.rho_bar_h) - 1),
            abs(grids.mass(state.rho_t) / grids.mass(self.rho_t0) - 1),
        )
        yield "coupled_mass_drift", drift <= MASS_DRIFT_TOL, f"{drift:.3g}"


WORKLOADS = {w.name: w for w in (ClosedLoop, PlanSweep, Continuum)}
