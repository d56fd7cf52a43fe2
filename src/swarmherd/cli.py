"""Batch command line: feasibility, simulate, continuum, analyze, sweep.

Exit codes: 0 success, 2 infeasible configuration, 1 any other error.
Progress and errors go to stderr through the ``swarmherd`` logger, at the
level of ``--log-level`` (default INFO); summaries go to stdout.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .continuum import verify_herder_convergence, verify_target_convergence
from .feasibility import InfeasibleError, feasibility_map, max_concentration, plan_herders
from .fileio import (
    read_metadata,
    read_trajectory,
    write_field,
    write_metrics,
    write_series,
    write_summary,
    write_sweep_csv,
    write_trajectory,
)
from .grids import DensityField, ScalarField
from .microsim import AgentEnsemble, containment, run
from .torus import ArenaMap, PI

log = logging.getLogger("swarmherd")


def _meta(config: ExperimentConfig, seed: int | None = None) -> dict:
    """The run record every output carries: the config hash and the seed."""
    return {"config_sha256": config.hash(), "seed": config.sim.seed if seed is None else seed}


def _max_or_none(values: np.ndarray) -> float | None:
    """Largest value that is not NaN; None (JSON null) if no control tick ran."""
    seen = values[~np.isnan(values)]
    return float(seen.max()) if seen.size else None


def _plan_record(plan) -> dict:
    """A plan's head counts, masses and diagnostics, as every summary reports them."""
    return {
        "feasible": True,
        "min_mass": plan.min_mass,
        "n_herders": plan.n_herders,
        "n_targets": plan.n_targets,
        "target_mass": plan.target_mass,
        "herder_mass": plan.herder_mass,
        "offset": plan.offset,
        "deconvolution_residual": plan.residual,
        "curvature_sup_norm": plan.stability.sup_norm,
        "feedforward_rate": plan.stability.rate,
        "rate_certified": plan.stability.certified,
    }


def _infeasible(out: Path, meta: dict, exc: InfeasibleError) -> int:
    out.mkdir(parents=True, exist_ok=True)
    print(write_summary(out / "summary.json",
                        dict(meta, feasible=False, min_mass=exc.min_mass)))
    log.warning("infeasible: minimal herder mass %.4f >= 1", exc.min_mass)
    return 2


def _plan(config: ExperimentConfig):
    return plan_herders(
        goal=config.goal,
        n_targets=config.population.n_targets,
        diffusion=config.sim.diffusion,
        kernel=config.kernel,
        deconv_grid=config.grids.deconvolution_grid(),
        control_grid=config.grids.control_grid(),
        cross_term=config.target_density.cross_term,
        n_herders=config.population.n_herders,
        concentration=config.target_density.concentration,
    )


def cmd_feasibility(config: ExperimentConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(config)
    try:
        plan = _plan(config)
    except InfeasibleError as exc:
        return _infeasible(out, meta, exc)
    write_field(out / "rho_bar_T.field", plan.rho_bar_t, meta)
    write_field(out / "rho_bar_H.field", plan.rho_bar_h, meta)
    write_field(out / "v_bar_TH.field", plan.desired_velocity, meta)
    write_field(out / "deconvolution_H.field", plan.feasibility.deconvolved, meta)
    print(write_summary(out / "summary.json", dict(meta, **_plan_record(plan))))
    return 0


def cmd_simulate(config: ExperimentConfig, out: Path, seed: int | None = None,
                 arena_half_width: float | None = None) -> int:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed: {seed} cannot be negative")
    if arena_half_width is not None and not (np.isfinite(arena_half_width)
                                             and arena_half_width > 0):
        raise ConfigError(f"--rescale-arena: {arena_half_width} is not a finite "
                          "positive half width")
    arena = arena_half_width if arena_half_width is not None \
        else config.domain.arena_half_width
    scale = ArenaMap(arena).scale if arena is not None else 1.0
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(config, seed)
    plan_start = time.perf_counter()
    try:
        plan = _plan(config)
    except InfeasibleError as exc:
        return _infeasible(out, meta, exc)
    plan_s = time.perf_counter() - plan_start

    result = run(
        n_targets=plan.n_targets,
        n_herders=plan.n_herders,
        rho_bar_h=plan.rho_bar_h,
        goal=plan.goal,
        gain=config.gain,
        kernel=config.kernel,
        kde=config.kde,
        sim=replace(config.sim, seed=meta["seed"]),
        metrics_every=config.output.metrics_every,
        snapshot_every=config.output.snapshot_every,
    )

    if arena is not None:
        meta = dict(meta, arena_half_width=arena)
    write_start = time.perf_counter()
    health = {"removed_mean": result.removed_mean, "peak_speed": result.peak_speed,
              "clipped_share": result.clipped_share, "floor_share": result.floor_share}
    write_metrics(out / "metrics.csv", result.metric_times, result.chi,
                  result.n_inside, result.herder_error_l2, meta, health)
    write_trajectory(out / "trajectory.csv", result.snapshots, meta, scale=scale)
    if config.output.fields:
        write_field(out / "rho_bar_H.field", plan.rho_bar_h, meta, arena_half_width=arena)
        write_field(out / "rho_bar_T.field", plan.rho_bar_t, meta, arena_half_width=arena)
    write_s = time.perf_counter() - write_start
    print(write_summary(out / "summary.json", dict(
        meta,
        **_plan_record(plan),
        chi_final=float(result.chi[-1]),
        n_inside_final=int(result.n_inside[-1]),
        goal_radius=plan.goal.radius * scale,
        wall_time_s=result.wall_time,
        cpu_time_s=result.cpu_time,
        thread_cpu_time_s=result.thread_cpu_time,
        drift_threads=result.drift_threads,
        drift_lanes=result.drift_lanes,
        stage_seconds=dict(result.stage_seconds, plan=plan_s, write=write_s),
        removed_mean_max_abs=_max_or_none(np.abs(result.removed_mean)),
        peak_speed_max=_max_or_none(result.peak_speed),
        clipped_share_max=_max_or_none(result.clipped_share),
        floor_share_max=_max_or_none(result.floor_share),
    )))
    return 0


def cmd_continuum(config: ExperimentConfig, out: Path, mode: str,
                  perturbation: float | None = None, horizon: float | None = None) -> int:
    """The density twin's convergence check; ``out`` is made only once there is
    something to write. ``perturbation`` (default 0.01) is the herder mode's."""
    if horizon is not None and not (np.isfinite(horizon) and horizon > 0):
        raise ConfigError(f"--horizon: {horizon} is not a finite positive time")
    if perturbation is not None and mode != "herders":
        raise ConfigError(f"--perturbation: applies to --mode herders only, not {mode}")
    if perturbation is not None and not np.isfinite(perturbation):
        raise ConfigError(f"--perturbation: {perturbation} is not finite")
    meta = _meta(config)
    try:
        plan = _plan(config)
    except InfeasibleError as exc:
        return _infeasible(out, meta, exc)
    grid = config.grids.control_grid()
    if mode == "herders":
        gain = config.gain
        x1 = grid.nodes()[..., 0]
        amplitude = 0.01 if perturbation is None else perturbation
        rho0 = ScalarField(grid, plan.rho_bar_h.values + amplitude * np.cos(x1))
        start = time.perf_counter()
        report = verify_herder_convergence(
            rho0, plan.rho_bar_h, gain,
            horizon=horizon if horizon is not None else 3.0 / gain,
        )
        wall = time.perf_counter() - start
        decay_file, columns = "herder_decay.csv", {"error_l2": report.error_l2}
        summary = {"mode": "herders", "gain": gain, "fitted_rate": report.fitted_rate,
                   "relative_deviation": report.relative_deviation,
                   "mass_drift": report.mass_drift}
    elif mode == "targets":
        uniform = np.full((grid.m, grid.m), plan.target_mass / (4 * PI * PI))
        start = time.perf_counter()
        report = verify_target_convergence(
            DensityField(grid, uniform), plan.rho_bar_t, config.sim.diffusion,
            horizon=horizon if horizon is not None else 20.0,
        )
        wall = time.perf_counter() - start
        decay_file = "target_decay.csv"
        columns = {"error_sq": report.error_sq, "envelope": report.envelope}
        # the curvature bound is the plan's own: same density, same check
        summary = {"mode": "targets", "bounded": report.bounded,
                   "mass_drift": report.mass_drift}
    else:
        log.error("unknown continuum mode %r", mode)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    write_series(out / decay_file, report.times, columns, meta)
    print(write_summary(out / "summary.json", dict(meta, **_plan_record(plan), **summary,
                                                   rk4_steps=report.steps, wall_time_s=wall)))
    return 0


def cmd_analyze(config: ExperimentConfig, trajectory: Path, out: Path) -> int:
    """Containment of every frame of a trajectory, into ``chi.csv``.

    Positions written in an arena (``arena_half_width`` in the file's
    metadata) are mapped back onto the torus first. ``out`` is made only once
    there is something to write.
    """
    goal = config.goal
    frames = read_trajectory(trajectory)
    arena = read_metadata(trajectory).get("arena_half_width")
    if arena is not None:
        try:
            to_torus = ArenaMap(float(arena)).to_torus
        except ValueError as exc:
            raise ValueError(f"{trajectory}: arena_half_width {arena}: {exc}") from None
        frames = [(t, to_torus(h), to_torus(x)) for t, h, x in frames]
    if not frames:
        log.error("trajectory file holds no frames")
        return 1
    rows = []
    for t, herders, targets in frames:
        if targets.size == 0:
            log.error("frame t=%s: no targets, containment undefined", t)
            return 1
        metric = containment(AgentEnsemble(herders=herders, targets=targets), goal)
        rows.append((t, metric.chi, metric.n_inside))
    times, chi, n_inside = zip(*rows)
    out.mkdir(parents=True, exist_ok=True)
    write_series(out / "chi.csv", times, {"chi": chi, "n_inside": n_inside}, _meta(config))
    print(f"wrote {out / 'chi.csv'} ({len(rows)} frames)")
    return 0


def parse_range(flag: str, spec: str) -> np.ndarray:
    """``lo:hi:n`` as n evenly spaced values; bounds finite and > 0, n >= 1."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"{flag}: bad range {spec!r}, expected lo:hi:n") from exc
    if n < 1:
        raise ConfigError(f"{flag}: range {spec!r} needs n >= 1 values")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo > 0 and hi > 0):
        raise ConfigError(f"{flag}: range {spec!r} needs finite positive bounds")
    return np.linspace(lo, hi, n)


def cmd_sweep(config: ExperimentConfig, out: Path, k_range: str, d_range: str) -> int:
    k_values = parse_range("--k-range", k_range)
    top = max_concentration(config.target_density.cross_term)
    if k_values.max() > top:
        raise ConfigError(f"--k-range: range {k_range!r} reaches past the largest "
                          f"concentration, {top:.2f}: beyond it the target density's "
                          "smallest value is not a normal float64")
    d_values = parse_range("--d-range", d_range)
    out.mkdir(parents=True, exist_ok=True)
    matrix = feasibility_map(k_values, d_values, config.kernel,
                             config.grids.deconvolution_grid(),
                             center=config.goal.center,
                             cross_term=config.target_density.cross_term)
    write_sweep_csv(out / "feasibility_map.csv", k_values, d_values, matrix,
                    _meta(config))
    n_infeasible = int(np.count_nonzero(matrix >= 1.0))
    print(f"wrote {out / 'feasibility_map.csv'}; "
          f"{n_infeasible}/{matrix.size} cells infeasible")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmherd",
        description="Shepherding control of large swarms on a periodic domain",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON experiment config (defaults used if omitted)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: config output.directory)")
        p.add_argument("--log-level", type=str.upper, default="INFO",
                       choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                       help="stderr messages at this level and above (default INFO)")

    p_feas = sub.add_parser("feasibility", help="herder mass / count analysis")
    add_common(p_feas)

    p_sim = sub.add_parser("simulate", help="closed-loop microscopic run")
    add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--rescale-arena", type=float, default=None, metavar="W",
                       help="write positions scaled to the arena [-W, W]^2")

    p_cont = sub.add_parser("continuum", help="density-twin convergence checks")
    add_common(p_cont)
    p_cont.add_argument("--mode", choices=("herders", "targets"), default="herders")
    p_cont.add_argument("--horizon", type=float, default=None)
    p_cont.add_argument("--perturbation", type=float, default=None,
                        help="herder mode only: cos(x1) amplitude (default 0.01)")

    p_an = sub.add_parser("analyze", help="recompute containment from a trajectory")
    add_common(p_an)
    p_an.add_argument("--trajectory", type=Path, required=True)

    p_sw = sub.add_parser("sweep", help="minimum-mass map over (k, D)")
    add_common(p_sw)
    p_sw.add_argument("--k-range", default="0.5:6:8", help="lo:hi:n")
    p_sw.add_argument("--d-range", default="0.005:0.1:8", help="lo:hi:n")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = logging.StreamHandler()  # the stderr of this call
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        config = (ExperimentConfig.load(args.config) if args.config
                  else ExperimentConfig())
        out = args.out if args.out is not None else Path(config.output.directory)
        t0 = time.perf_counter()
        if args.command == "feasibility":
            code = cmd_feasibility(config, out)
        elif args.command == "simulate":
            code = cmd_simulate(config, out, seed=args.seed,
                                arena_half_width=args.rescale_arena)
        elif args.command == "continuum":
            code = cmd_continuum(config, out, args.mode,
                                 perturbation=args.perturbation,
                                 horizon=args.horizon)
        elif args.command == "analyze":
            code = cmd_analyze(config, args.trajectory, out)
        elif args.command == "sweep":
            code = cmd_sweep(config, out, args.k_range, args.d_range)
        else:  # pragma: no cover - argparse enforces choices
            code = 1
        if code == 0:
            log.info("[%s] done in %.1f s", args.command, time.perf_counter() - t0)
        return code
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 1
    except (OSError, ValueError) as exc:
        log.error("error: %s", exc)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
