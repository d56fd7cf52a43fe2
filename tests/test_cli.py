import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmherd
from swarmherd import microsim
from swarmherd.cli import main
from swarmherd.config import ExperimentConfig
from swarmherd.fileio import read_field, read_trajectory


@pytest.fixture
def small_config(tmp_path):
    """Desk-sized config that keeps CLI runs fast."""
    cfg = {
        "population": {"n_targets": 40, "n_herders": 16},
        "sim": {"diffusion": 0.01, "dt": 0.01, "horizon": 0.5, "seed": 3},
        "grids": {"control": 32, "deconvolution": 15},
        "output": {"metrics_every": 10, "snapshot_every": 25},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_feasibility_command(tmp_path, small_config):
    out = tmp_path / "feas"
    code = main(["feasibility", "--config", str(small_config), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["n_herders"] == 16
    for name in ("rho_bar_T", "rho_bar_H", "v_bar_TH", "deconvolution_H"):
        field, header = read_field(out / f"{name}.field")
        assert "config_sha256" in " ".join(
            (out / f"{name}.field").read_text().splitlines()[:5]
        )


def test_feasibility_infeasible_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sim": {"diffusion": 0.2},  # huge diffusion: minimal mass tops 1
        "grids": {"control": 32, "deconvolution": 15},
    }))
    out = tmp_path / "feas"
    code = main(["feasibility", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] is False
    assert summary["min_mass"] >= 1.0


@pytest.mark.parametrize("command", ["simulate", "continuum"])
def test_infeasible_run_writes_its_record(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sim": {"diffusion": 0.2},  # huge diffusion: minimal mass tops 1
        "grids": {"control": 32, "deconvolution": 15},
    }))
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    assert set(summary) == {"config_sha256", "seed", "feasible", "min_mass"}
    assert summary["config_sha256"] == ExperimentConfig.load(cfg).hash()
    assert summary["seed"] == 0
    assert summary["feasible"] is False
    assert summary["min_mass"] >= 1.0
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_simulate_and_analyze_round_trip(tmp_path, small_config):
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(small_config), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["chi_final"] <= 100.0
    for key in ("min_mass", "deconvolution_residual", "curvature_sup_norm"):
        assert math.isfinite(summary[key]), key
    assert isinstance(summary["rate_certified"], bool)
    stages = summary["stage_seconds"]
    run_stages = ("kernel", "kde", "control", "sampling", "step", "metrics")
    assert set(stages) == {*run_stages, "plan", "write"}
    assert all(math.isfinite(v) and v >= 0 for v in stages.values())
    assert sum(stages[k] for k in run_stages) <= summary["wall_time_s"]
    assert math.isfinite(summary["cpu_time_s"]) and summary["cpu_time_s"] >= 0
    assert 0 <= summary["thread_cpu_time_s"] <= summary["cpu_time_s"] + 0.01
    assert summary["drift_threads"] == 1  # 40 targets are one block of work
    assert summary["drift_lanes"] == microsim._compiled_drift().drift_lanes()
    assert summary["removed_mean_max_abs"] < 1e-14
    assert summary["peak_speed_max"] > 0
    assert summary["clipped_share_max"] == 0.0  # no speed limit
    assert summary["floor_share_max"] == 0.0

    metrics_lines = [
        l for l in (out / "metrics.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert metrics_lines[0] == ("t,chi,n_inside,herder_error_l2,removed_mean,"
                                "peak_speed,clipped_share,floor_share")
    live = {}
    for line in metrics_lines[1:]:
        t, chi, n_in, *health = line.split(",")
        live[float(t)] = (float(chi), int(n_in))
        assert all(math.isfinite(float(v)) for v in health)

    an = tmp_path / "an"
    code = main(["analyze", "--config", str(small_config),
                 "--trajectory", str(out / "trajectory.csv"), "--out", str(an)])
    assert code == 0
    re_lines = [
        l for l in (an / "chi.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ][1:]
    matched = 0
    for line in re_lines:
        t, chi, n_in = line.split(",")
        t = float(t)
        if t in live:  # snapshot cadence is a multiple of the metric cadence
            assert (float(chi), int(n_in)) == live[t]
            matched += 1
    assert matched >= 2


def test_simulate_seed_override_changes_outcome(tmp_path, small_config):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        assert main(["simulate", "--config", str(small_config),
                     "--out", str(out), "--seed", str(seed)]) == 0
        outs.append(json.loads((out / "summary.json").read_text()))
    assert outs[0]["seed"] != outs[1]["seed"]


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"),
    ("--rescale-arena", "0"),
    ("--rescale-arena", "-2"),
    ("--rescale-arena", "inf"),
    ("--rescale-arena", "nan"),
])
def test_simulate_rejects_bad_flag_naming_it(tmp_path, small_config, capsys,
                                             flag, value):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(out),
                 f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not out.exists()


def test_simulate_logs_progress_at_its_level(tmp_path, small_config, capsys):
    log = logging.getLogger("swarmherd")
    before = (log.level, list(log.handlers))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    # 50 steps: a report every 5th, then the closing line
    assert [line.split(",")[0] for line in err[:-1]] == [
        f"step {s} of 50" for s in range(5, 51, 5)]
    assert err[-1].startswith("[simulate] done in")
    assert (log.level, log.handlers) == before
    assert main(["simulate", "--config", str(small_config), "--out", str(out),
                 "--log-level", "warning"]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_arena_rescale(tmp_path, small_config):
    out = tmp_path / "arena"
    code = main(["simulate", "--config", str(small_config), "--out", str(out),
                 "--rescale-arena", "1.0"])
    assert code == 0
    frames = read_trajectory(out / "trajectory.csv")
    for _, herders, targets in frames:
        assert np.all(np.abs(herders) <= 1.0 + 1e-12)
        assert np.all(np.abs(targets) <= 1.0 + 1e-12)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["goal_radius"] == pytest.approx(0.5)


def data_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_analyze_maps_arena_positions_back(tmp_path):
    # a rescaled trajectory holds arena coordinates; analyze must measure
    # containment on the torus, as the live loop does
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "population": {"n_targets": 40}, "grids": {"control": 16, "deconvolution": 9},
        "sim": {"horizon": 0.05}, "output": {"metrics_every": 1, "snapshot_every": 1},
    }))
    out, an = tmp_path / "sim", tmp_path / "an"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--rescale-arena", "2.0"]) == 0
    assert main(["analyze", "--config", str(cfg), "--trajectory",
                 str(out / "trajectory.csv"), "--out", str(an)]) == 0
    live = {t: chi for t, chi, *_ in data_rows(out / "metrics.csv")}
    again = {t: chi for t, chi, _ in data_rows(an / "chi.csv")}
    shared = sorted(set(live) & set(again), key=float)
    assert len(shared) == 6
    assert [again[t] for t in shared] == [live[t] for t in shared]


def test_zero_horizon_run_is_analyzed_to_its_own_counts(tmp_path):
    # the initial state is the final one: stored twice, analyze merged the
    # two copies of the frame and counted every target twice
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({
        "population": {"n_targets": 40}, "grids": {"control": 16, "deconvolution": 9},
        "sim": {"horizon": 0},
    }))
    out, an = tmp_path / "sim", tmp_path / "an"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["analyze", "--config", str(cfg), "--trajectory",
                 str(out / "trajectory.csv"), "--out", str(an)]) == 0
    assert len(read_trajectory(out / "trajectory.csv")) == 1
    live = [[t, chi, n_in] for t, chi, n_in, *_ in data_rows(out / "metrics.csv")]
    assert len(live) == 1  # one metric record, as one frame
    assert data_rows(an / "chi.csv") == live


def test_chi_csv_bytes(tmp_path):
    # the layout of every other table: rows end in \r\n, as csv.writer ends them
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(
        "t,agent_kind,agent_id,x1,x2\n"
        "0,herder,0,3,3\n"
        "0,target,0,0,0\n"
        "0,target,1,3,0\n"
        "0,target,2,0,3\n"
        "0.10000000000000001,target,0,0,0\n"
        "0.10000000000000001,target,1,0.5,0\n"
        "0.10000000000000001,target,2,0,-0.5\n")
    an = tmp_path / "an"
    assert main(["analyze", "--trajectory", str(trajectory), "--out", str(an)]) == 0
    assert (an / "chi.csv").read_bytes() == (
        f"# swarmherd {swarmherd.__version__}\n"
        f"# config_sha256={ExperimentConfig().hash()}\n"
        "# seed=0\n"
        "t,chi,n_inside\r\n"
        "0,33.333333333333336,1\r\n"
        "0.10000000000000001,100,3\r\n").encode()


def test_analyze_names_a_frame_without_targets(tmp_path, capsys):
    # containment is undefined there: an error naming the frame's time
    trajectory = tmp_path / "trajectory.csv"
    trajectory.write_text(
        "t,agent_kind,agent_id,x1,x2\n"
        "0,herder,0,3,3\n"
        "0,target,0,0,0\n"
        "0.25,herder,0,1,1\n")
    an = tmp_path / "an"
    capsys.readouterr()
    assert main(["analyze", "--trajectory", str(trajectory), "--out", str(an)]) == 1
    err = capsys.readouterr().err
    assert "t=0.25" in err and "no targets" in err and "Traceback" not in err
    assert not (an / "chi.csv").exists()


@pytest.mark.parametrize("case", ["missing", "no targets"])
def test_failed_analyze_leaves_no_output_directory(tmp_path, capsys, case):
    # --out is made only once chi.csv is about to be written
    trajectory = tmp_path / "trajectory.csv"
    if case == "no targets":
        trajectory.write_text("t,agent_kind,agent_id,x1,x2\n0,herder,0,3,3\n")
    an = tmp_path / "an"
    assert main(["analyze", "--trajectory", str(trajectory), "--out", str(an)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not an.exists()


@pytest.mark.parametrize("width", ["inf", "-inf", "nan", "0", "wide"])
def test_analyze_rejects_a_bad_arena_width_naming_the_file(tmp_path, small_config,
                                                           capsys, width):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(small_config), "--out", str(out),
                 "--rescale-arena", "2.0"]) == 0
    trajectory = out / "trajectory.csv"
    text = trajectory.read_text()
    assert "arena_half_width=2.0\n" in text
    trajectory.write_text(text.replace("arena_half_width=2.0\n",
                                       f"arena_half_width={width}\n"))
    capsys.readouterr()
    assert main(["analyze", "--config", str(small_config), "--trajectory",
                 str(trajectory), "--out", str(tmp_path / "an")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(trajectory) in err
    assert "arena_half_width" in err and "Traceback" not in err
    assert not (tmp_path / "an" / "chi.csv").exists()


def assert_run_record(summary, config_path, steps):
    assert summary["config_sha256"] == ExperimentConfig.load(config_path).hash()
    assert summary["rk4_steps"] == steps
    assert math.isfinite(summary["wall_time_s"]) and summary["wall_time_s"] > 0


def test_continuum_herders_mode(tmp_path, small_config):
    out = tmp_path / "cont"
    code = main(["continuum", "--config", str(small_config), "--out", str(out),
                 "--mode", "herders"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["relative_deviation"] < 0.05
    assert (out / "herder_decay.csv").exists()
    # default horizon 3 / gain at the driver's default step min(0.05 / gain, 0.01)
    gain = ExperimentConfig.load(small_config).gain
    assert_run_record(summary, small_config, round((3.0 / gain) / min(0.05 / gain, 0.01)))


def test_continuum_without_perturbation_writes_strict_json(tmp_path, small_config):
    # no error to fit: the rate and its deviation are null, not NaN and Infinity
    out = tmp_path / "flat"
    assert main(["continuum", "--config", str(small_config), "--out", str(out),
                 "--mode", "herders", "--perturbation", "0"]) == 0

    def not_strict(constant):
        raise ValueError(f"{constant} is not strict JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=not_strict)
    assert summary["fitted_rate"] is None and summary["relative_deviation"] is None
    assert summary["mode"] == "herders" and math.isfinite(summary["mass_drift"])


def test_continuum_targets_mode(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "target_density": {"concentration": 0.5},
        "population": {"n_targets": 40, "n_herders": 16},
        "sim": {"diffusion": 0.05},
        "grids": {"control": 32, "deconvolution": 15},
    }))
    out = tmp_path / "cont"
    code = main(["continuum", "--config", str(cfg), "--out", str(out),
                 "--mode", "targets", "--horizon", "2.0"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rate_certified"] is True
    assert summary["bounded"] is True
    # 32^2 at D = 0.05 bounds the step by 0.0964 < 0.1, so it halves to 0.05
    assert_run_record(summary, cfg, 40)


@pytest.mark.parametrize("mode, flag, value", [
    ("herders", "--horizon", "-1"),
    ("targets", "--horizon", "-1"),
    ("herders", "--horizon", "0"),
    ("targets", "--horizon", "0"),
    ("herders", "--horizon", "nan"),
    ("targets", "--horizon", "inf"),
    ("herders", "--perturbation", "nan"),
    ("herders", "--perturbation", "-inf"),
    ("targets", "--perturbation", "0.01"),  # the target mode has no perturbation
])
def test_continuum_rejects_bad_flag_naming_it(tmp_path, small_config, capsys,
                                              mode, flag, value):
    out = tmp_path / "cont"
    assert main(["continuum", "--config", str(small_config), "--out", str(out),
                 "--mode", mode, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["herders", "targets"])
def test_continuum_horizon_below_one_step_is_error(tmp_path, small_config, capsys,
                                                   mode):
    out = tmp_path / "cont"
    assert main(["continuum", "--config", str(small_config), "--out", str(out),
                 "--mode", mode, "--horizon", "1e-6"]) == 1
    assert "shorter than one step" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert not out.exists()


def test_sweep_command(tmp_path, small_config):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(small_config), "--out", str(out),
                 "--k-range", "2:6:3", "--d-range", "0.01:0.1:3"])
    assert code == 0
    lines = [l for l in (out / "feasibility_map.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 4  # header + 3 diffusion rows
    matrix = np.array([[float(x) for x in l.split(",")[1:]] for l in lines[1:]])
    assert np.all(np.diff(matrix, axis=0) >= -1e-12)  # monotone in D
    assert matrix[-1, -1] >= 1.0


def test_sweep_uses_the_configs_goal_center_and_cross_term(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "goal": {"center": [0.5, -1.0]},
        "target_density": {"cross_term": True},
        "grids": {"control": 32, "deconvolution": 15},
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--k-range", "1:5:3", "--d-range", "0.002:0.005:2"]) == 0
    lines = [l for l in (out / "feasibility_map.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    got = np.array([[float(x) for x in l.split(",")[1:]] for l in lines[1:]])
    config = ExperimentConfig.load(cfg)
    k, d = np.linspace(1, 5, 3), np.linspace(0.002, 0.005, 2)
    args = (k, d, config.kernel, config.grids.deconvolution_grid())
    expected = swarmherd.feasibility_map(*args, center=config.goal.center, cross_term=True)
    assert (got < 1).all()
    np.testing.assert_array_equal(got, expected)
    assert not np.allclose(got, swarmherd.feasibility_map(*args), rtol=1e-3)


def test_sweep_single_value_range(tmp_path, small_config):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(small_config), "--out", str(out),
                 "--k-range", "3:3:1", "--d-range", "0.01:0.02:1"]) == 0
    lines = [l for l in (out / "feasibility_map.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 2


@pytest.mark.parametrize("flag, spec", [
    ("--k-range", "1:2:0"),  # no values
    ("--k-range", "1:2:-3"),
    ("--k-range", "0:2:3"),  # zero concentration
    ("--k-range", "-1:2:3"),
    ("--k-range", "100:178:3"),  # past max_concentration: subnormal density values
    ("--d-range", "0.01:inf:3"),
    ("--d-range", "nan:0.1:3"),
    ("--d-range", "0.01:0.1"),  # not lo:hi:n
    ("--d-range", "0.01:0.1:2.5"),
])
def test_sweep_rejects_bad_range_naming_the_flag(tmp_path, small_config, capsys,
                                                 flag, spec):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(small_config), "--out", str(out),
                 f"{flag}={spec}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not out.exists()


def test_python_dash_m_entry_point():
    src = str(Path(swarmherd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "swarmherd", "--version"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == swarmherd.__version__


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": {}}))
    assert main(["feasibility", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("output, where", [({"fields": "no"}, "output.fields"),
                                           ({"directory": 5}, "output.directory")])
def test_wrong_json_type_is_a_config_error(tmp_path, monkeypatch, capsys, output, where):
    # no --out: the run would write to output.directory
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"output": output}))
    assert main(["feasibility", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where in err


def test_missing_trajectory_is_error(tmp_path, small_config):
    assert main(["analyze", "--config", str(small_config),
                 "--trajectory", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "y")]) == 1
