import csv
import io
import json
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from swarmherd import (ArenaMap, DensityField, GoalRegion, GridSpec, KdeParams,
                       KernelParams, ScalarField, SimParams, VectorField, __version__,
                       mass)
from swarmherd.cli import parse_range
from swarmherd.config import ConfigError, ExperimentConfig
from swarmherd.fileio import (
    FLOAT_FMT,
    metadata_lines,
    read_field,
    read_trajectory,
    write_field,
    write_metrics,
    write_series,
    write_sweep_csv,
    write_trajectory,
)
from swarmherd.torus import FieldError

PI = np.pi


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_default_config_round_trip(tmp_path):
    cfg = ExperimentConfig()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.canonical_json())
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg
    assert loaded.hash() == cfg.hash()


def test_config_from_partial_dict_uses_defaults():
    cfg = ExperimentConfig.from_dict({"sim": {"diffusion": 0.05}, "gain": 2.0})
    assert cfg.sim.diffusion == 0.05
    assert cfg.sim.dt == 0.01
    assert cfg.gain == 2.0
    assert cfg.population.n_targets == 720


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({"simm": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="diffusionn"):
        ExperimentConfig.from_dict({"sim": {"diffusionn": 0.01}})


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"gain": 0.0})
    for gain in (True, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match=r"'gain'.*\bgain = "):
            ExperimentConfig.from_dict({"gain": gain})
    for gain in (0.0, float("inf"), float("nan")):  # built directly, not loaded
        with pytest.raises(FieldError) as exc:
            ExperimentConfig(gain=gain)
        assert exc.value.field == "gain"
    for bad in ({"sim": {"dt": -0.01}}, {"kernel": {"length": 0.0}},
                {"sim": {"v_max": 0}}, {"kde": {"bandwidth": -1}},
                {"grids": {"control": 2}}, {"grids": {"deconvolution": 2}},
                {"kde": {"bandwidth": 0.0}},
                # past 2 pi the estimate is flat to 2.7e-9, and the image
                # rings grow with the bandwidth: 1e9 spent over 20 s in them,
                # 1e200 overflowed
                {"kde": {"bandwidth": 6.3}}, {"kde": {"bandwidth": 1e9}},
                {"kde": {"bandwidth": 1e200}}, {"kde": {"bandwidth": float("inf")}},
                {"goal": {"radius": 0.0}},
                {"goal": {"center": [0.0, 0.0, 0.0]}},
                # counts must be integers: 1.5 image rings would shift the
                # images by half periods and leave out the zero image
                {"kernel": {"images": 1.5}},
                {"grids": {"control": 64.5}}, {"grids": {"deconvolution": 24.5}},
                {"population": {"n_targets": 10.5}},
                {"population": {"n_herders": 2.5}},
                {"sim": {"seed": 1.5}},
                {"output": {"metrics_every": 1.5}},
                {"output": {"snapshot_every": 0.5}},
                # JSON true/false is not a number; NaN and Infinity, which
                # Python's json parses, are not finite
                {"population": {"n_targets": True}},
                {"population": {"n_herders": False}}, {"kernel": {"length": True}},
                {"goal": {"center": [True, 0.0]}},
                {"sim": {"horizon": float("inf")}}, {"sim": {"diffusion": float("nan")}},
                {"sim": {"diffusion": float("inf")}}, {"sim": {"dt": float("inf")}},
                {"goal": {"center": [0.0, float("-inf")]}},
                {"population": {"n_targets": 0}}, {"population": {"n_herders": -1}},
                {"output": {"metrics_every": 0}}, {"output": {"snapshot_every": -1}},
                {"domain": {"arena_half_width": 0}}, {"domain": {"arena_half_width": -2.0}},
                {"target_density": {"concentration": 0}},
                {"target_density": {"concentration": -1.0}}):
        ((section, values),) = bad.items()
        (key,) = values
        with pytest.raises(ConfigError, match=rf"'{section}'.*\b{section}\.{key}\b"):
            ExperimentConfig.from_dict(bad)
        if section in ("sim", "kde"):  # the library's own class rejects it too
            with pytest.raises(FieldError) as exc:
                {"sim": SimParams, "kde": KdeParams}[section](**values)
            assert exc.value.field == key
    # a horizon between two step counts was rounded, ties to even: 0.015 and
    # 0.025 both ran 2 steps of 0.01, 0.035 ran 4
    for horizon in (0.015, 0.025, 0.035, 200.005):
        clash = rf"horizon {horizon} is not a whole number of steps of dt 0\.01\b"
        with pytest.raises(ConfigError, match=rf"invalid 'sim' section: {clash}"):
            ExperimentConfig.from_dict({"sim": {"horizon": horizon}})
        with pytest.raises(ValueError, match=clash):
            SimParams(horizon=horizon)


def test_a_section_that_is_not_an_object_rejected():
    with pytest.raises(ConfigError, match="^'sim' must be a JSON object$"):
        ExperimentConfig.from_dict({"sim": 5})


def test_bad_value_named_next_to_a_field_pair():
    # dt 0.001 and horizon 0.005 are only valid together: tried alone against
    # the default dt 0.01, the horizon would fail and take the blame
    with pytest.raises(ConfigError, match=r"'sim'.*\bsim\.v_max = 0\b.*speed limit"):
        ExperimentConfig.from_dict({"sim": {"dt": 0.001, "horizon": 0.005, "v_max": 0}})
    # a clash between two fields is still reported for the section
    with pytest.raises(ConfigError, match=r"invalid 'sim' section: horizon must be"):
        ExperimentConfig.from_dict({"sim": {"dt": 0.1, "horizon": 0.05}})


# JSON values of a type each field annotation does not take: strings, lists,
# true/false for numbers, numbers for flags; null where the field has no null
WRONG_TYPES = {
    "float": ["1.0", [1.0], True, None, float("nan")],
    "float | None": ["1.0", [1.0], False, float("inf")],
    "int": ["1", [1], True, None, 1.5],
    "int | None": ["1", [1], False, 1.5],
    "bool": [1, 0, "true", [True], None],
    "str": [5, True, ["out"], None],
    "tuple[float, float]": ["0 0", [0.0], [True, 0.0], 0.0, None],
}


@pytest.mark.parametrize("top", fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_field_rejects_a_wrong_json_type_naming_it(top):
    name = top.name
    if top.default_factory is MISSING:  # gain, a field of the root
        cases = [(top.type, f"{name} = ", lambda v: {name: v})]
    else:
        cases = [(f.type, f"{name}.{f.name} = ", lambda v, key=f.name: {name: {key: v}})
                 for f in fields(top.default_factory)]
    for annotation, where, config in cases:
        for value in WRONG_TYPES[annotation]:
            with pytest.raises(ConfigError, match=rf"\b{re.escape(where)}.*expected"):
                ExperimentConfig.from_dict(config(value))


@pytest.mark.parametrize("bad, where", [
    # a step below zero is named whatever the key order, not the horizon it
    # leaves too short
    ({"sim": {"horizon": 0.005, "dt": -0.01}}, "sim.dt = -0.01: time step"),
    ({"sim": {"dt": -0.01, "horizon": 0.005}}, "sim.dt = -0.01: time step"),
    # a string is not a flag, however truthy
    ({"output": {"fields": "no"}}, "output.fields = 'no': expected true or false"),
    ({"output": {"directory": 5}}, "output.directory = 5: expected a string"),
    # 1 is not true: it would load and hash apart from the config with true
    ({"target_density": {"cross_term": 1}}, "target_density.cross_term = 1: expected"),
    ({"kernel": {"length": "3"}}, "kernel.length = '3': expected a finite number"),
    # the noise streams take no negative seed
    ({"sim": {"seed": -1}}, "sim.seed = -1: seed cannot be negative"),
])
def test_bad_value_named_at_load(bad, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("bad, where", [
    # the tail table's build grows with the square of the ring count
    ({"kernel": {"images": 13}}, "kernel.images = 13: image ring count must be <= 12"),
    ({"kernel": {"images": 200}}, "kernel.images = 200: image ring count must be <= 12"),
    # the target density's smallest value, exp(-4 k) of its peak, stays normal
    ({"target_density": {"concentration": 177.2}},
     "target_density.concentration = 177.2: concentration must be at most 177.10:"),
    ({"target_density": {"concentration": 176.5, "cross_term": True}},
     "target_density.concentration = 176.5: concentration must be at most 176.10 "
     "with cross_term"),
    # without a concentration the goal radius sets it, to 3 / radius
    ({"goal": {"radius": 0.016}},
     "goal.radius = 0.016: the target concentration 3 / radius = 187.5 must be at "
     "most 177.10"),
    ({"goal": {"radius": 0.017}, "target_density": {"cross_term": True}},
     "goal.radius = 0.017: the target concentration 3 / radius = 176.5 must be at "
     "most 176.10 with cross_term"),
])
def test_costly_or_degenerate_value_named_at_load(bad, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("good", [
    {"kernel": {"images": 12}},
    {"target_density": {"concentration": 177.0}},
    {"target_density": {"concentration": 176.0, "cross_term": True}},
    {"goal": {"radius": 0.017}},
    {"goal": {"radius": 0.016}, "target_density": {"concentration": 10.0}},
])
def test_values_at_the_bounds_load(good):
    ExperimentConfig.from_dict(good)


def test_integer_for_a_float_field_loads_as_that_float():
    cfg = ExperimentConfig.from_dict({"sim": {"horizon": 1}, "goal": {"center": [1, 0]}})
    same = ExperimentConfig.from_dict({"sim": {"horizon": 1.0},
                                       "goal": {"center": [1.0, 0.0]}})
    assert type(cfg.sim.horizon) is float and cfg.goal.center == (1.0, 0.0)
    assert cfg == same and cfg.hash() == same.hash()


def test_kde_mass_is_not_a_config_key():
    # the KDE's mass is the herders' share of the agents, set by the run
    with pytest.raises(ConfigError, match=r"unknown key.*'kde'.*mass"):
        ExperimentConfig.from_dict({"kde": {"mass": 0.3}})


@pytest.mark.parametrize("key, value", [("images", 2), ("sequential", True)])
def test_retired_kde_keys_rejected(key, value):
    # the image rings follow from the bandwidth, and there is one reduction
    with pytest.raises(ConfigError, match=rf"unknown key.*'kde'.*'{key}'"):
        ExperimentConfig.from_dict({"kde": {key: value}})


def test_retired_control_period_rejected():
    # every step with herders runs its own control tick
    with pytest.raises(ConfigError, match=r"unknown key.*'sim'.*'control_every'"):
        ExperimentConfig.from_dict({"sim": {"control_every": 1}})


def test_goal_center_is_stored_wrapped():
    cfg = ExperimentConfig.from_dict({"goal": {"center": [4.0, -PI]}})
    assert cfg.goal.center == (4.0 - 2 * PI, -PI)
    same = ExperimentConfig.from_dict({"goal": {"center": [4.0 - 2 * PI, -PI]}})
    assert cfg == same and cfg.hash() == same.hash()


def test_sections_are_the_library_parameter_classes():
    cfg = ExperimentConfig()
    assert type(cfg.kernel) is KernelParams
    assert type(cfg.goal) is GoalRegion
    assert type(cfg.sim) is SimParams
    assert type(cfg.kde) is KdeParams


def test_non_default_config_round_trips():
    cfg = ExperimentConfig.from_dict({"kernel": {"images": 3}, "sim": {"v_max": 0.5},
                                      "kde": {"bandwidth": 0.6},
                                      "goal": {"center": [1.0, -0.5]}})
    assert (cfg.kernel.images, cfg.sim.v_max, cfg.kde.bandwidth, cfg.goal.center) \
        == (3, 0.5, 0.6, (1.0, -0.5))
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert back.hash() == cfg.hash() != ExperimentConfig().hash()


def test_hash_tracks_content():
    a = ExperimentConfig()
    b = ExperimentConfig.from_dict({"sim": {"seed": 1}})
    assert a.hash() != b.hash()


def test_default_hash_unchanged():
    # validation must not change the canonical form, or old outputs lose
    # their link to the default config
    assert ExperimentConfig().hash() == "bf8ded808f40ed3a"


def test_malformed_json_reported(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.load(p)


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------


def test_scalar_field_round_trip(tmp_path):
    g = GridSpec(16)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal((16, 16)))
    path = tmp_path / "f.field"
    write_field(path, f, {"config_sha256": "abc", "seed": 3})
    back, header = read_field(path)
    assert isinstance(back, ScalarField)
    np.testing.assert_array_equal(back.values, f.values)  # 17 digits: exact
    assert header["kind"] == "scalar"
    assert int(header["m"]) == 16


def test_density_field_round_trip_and_header(tmp_path):
    g = GridSpec(25)
    f = DensityField(g, np.full((25, 25), 0.3))
    path = tmp_path / "rho.field"
    write_field(path, f, {"seed": 0})
    back, header = read_field(path)
    assert isinstance(back, DensityField)
    assert mass(back) == pytest.approx(mass(f))
    text = path.read_text()
    assert text.startswith("# swarmherd")
    assert "seed=0" in text


def test_vector_field_round_trip(tmp_path):
    g = GridSpec(16)
    rng = np.random.default_rng(1)
    f = VectorField(g, rng.standard_normal((2, 16, 16)))
    path = tmp_path / "v.field"
    write_field(path, f)
    back, header = read_field(path)
    assert isinstance(back, VectorField)
    np.testing.assert_array_equal(back.values, f.values)
    assert int(header["components"]) == 2


def test_vector_field_file_holds_component_0_block_first(tmp_path):
    # the round trip passes for any self-consistent order; the text pins it:
    # M rows of component 0, then M rows of component 1
    m = 4
    values = np.arange(2 * m * m, dtype=float).reshape(2, m, m)
    path = tmp_path / "v.field"
    write_field(path, VectorField(GridSpec(m), values))
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith("#") and "=" not in line]
    assert rows == [" ".join(str(int(v)) for v in row)
                    for c in range(2) for row in values[c]]


@pytest.mark.parametrize("header, key", [
    ("kind=bogus\ncomponents=1", "kind"),
    ("kind=vector\ncomponents=1", "components"),
    ("kind=scalar\ncomponents=2", "components"),
])
def test_field_reader_names_file_and_bad_header_key(tmp_path, header, key):
    p = tmp_path / "bad.field"
    p.write_text(f"m=4\n{header}\n" + "1 2 3 4\n" * 8)
    with pytest.raises(ValueError, match=re.escape(f"{p}: header key {key}=")):
        read_field(p)


@pytest.mark.parametrize("key", ["m", "components"])
def test_field_reader_names_file_and_non_integer_size(tmp_path, key):
    header = {"m": "4", "kind": "scalar", "components": "1"}
    header[key] += "x"
    p = tmp_path / "bad.field"
    p.write_text("".join(f"{k}={v}\n" for k, v in header.items()) + "1 2 3 4\n" * 4)
    with pytest.raises(ValueError, match=re.escape(f"{p}: header key {key}='{header[key]}'")):
        read_field(p)


def test_field_reader_names_file_and_line_of_a_ragged_row(tmp_path):
    p = tmp_path / "bad.field"
    p.write_text("m=4\nkind=scalar\ncomponents=1\n" + "1 2 3 4\n" * 2 + "1 2 3\n"
                 + "1 2 3 4\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:6: 3 values")):
        read_field(p)


@pytest.mark.parametrize("text, message", [
    ("m=2\nkind=scalar\ncomponents=1\n1 2\n3 4\n", "grid needs at least 4 cells"),
    ("m=4\nkind=scalar\ncomponents=1\n" + "1 2 3 4\n" * 3 + "1 nan 3 4\n",
     "non-finite"),
    ("m=4\nkind=density\ncomponents=1\n" + "1 2 3 4\n" * 3 + "1 2 3 -1\n",
     "ringing floor"),
], ids=["m=2", "nan", "below-floor"])
def test_field_reader_names_file_of_a_field_it_cannot_build(tmp_path, text, message):
    p = tmp_path / "bad.field"
    p.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{p}: ") + ".*" + message):
        read_field(p)


def test_field_writer_takes_the_kind_from_the_exact_class(tmp_path):
    # a DensityField is a ScalarField, and is still written as a density
    g = GridSpec(4)
    path = tmp_path / "f.field"
    for field, kind, components in ((ScalarField(g, -np.ones((4, 4))), "scalar", 1),
                                    (DensityField(g, np.ones((4, 4))), "density", 1),
                                    (VectorField(g, np.zeros((2, 4, 4))), "vector", 2)):
        write_field(path, field)
        back, header = read_field(path)
        assert type(back) is type(field)
        assert (header["kind"], int(header["components"])) == (kind, components)
    with pytest.raises(ValueError, match="cannot write a GridSpec"):
        write_field(path, g)


def test_field_reader_validates(tmp_path):
    p = tmp_path / "bad.field"
    p.write_text("m=4\nkind=scalar\ncomponents=1\n1 2 3 4\n")
    with pytest.raises(ValueError, match="rows"):
        read_field(p)
    p.write_text("m=4\nkind=scalar\ncomponents=1\n" + "1 2 3 4\n" * 4 + "1 2 x 4\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:8: bad sample line")):
        read_field(p)
    p.write_text("m=4\ncomponents=1\n" + "1 2 3 4\n" * 4)
    with pytest.raises(ValueError, match=re.escape(f"{p}: missing header key 'kind'")):
        read_field(p)


# ---------------------------------------------------------------------------
# trajectories and metrics
# ---------------------------------------------------------------------------


def test_trajectory_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    snaps = [
        (0.0, rng.uniform(-PI, PI, (3, 2)), rng.uniform(-PI, PI, (5, 2))),
        (1.5, rng.uniform(-PI, PI, (3, 2)), rng.uniform(-PI, PI, (5, 2))),
    ]
    path = tmp_path / "traj.csv"
    write_trajectory(path, snaps, {"seed": 9})
    frames = read_trajectory(path)
    assert len(frames) == 2
    for (t0, h0, g0), (t1, h1, g1) in zip(snaps, frames):
        assert t0 == t1
        np.testing.assert_array_equal(h0, h1)  # bit-exact via repr digits
        np.testing.assert_array_equal(g0, g1)


def test_trajectory_scaling(tmp_path):
    snaps = [(0.0, np.array([[PI, 0.0]]), np.array([[0.0, -PI / 2]]))]
    path = tmp_path / "traj.csv"
    write_trajectory(path, snaps, scale=1.0 / PI)
    frames = read_trajectory(path)
    np.testing.assert_allclose(frames[0][1], [[1.0, 0.0]])
    np.testing.assert_allclose(frames[0][2], [[0.0, -0.5]])


def csv_writer_trajectory(snapshots, meta, scale):
    """Row-by-row ``csv.writer`` rendering: the oracle for the writer's bytes."""
    out = io.StringIO(newline="")
    for line in metadata_lines(meta):
        out.write(line + "\n")
    writer = csv.writer(out)
    writer.writerow(["t", "agent_kind", "agent_id", "x1", "x2"])
    for t, herders, targets in snapshots:
        for kind, block in (("herder", herders), ("target", targets)):
            for idx, pos in enumerate(block):
                writer.writerow([FLOAT_FMT % t, kind, idx, FLOAT_FMT % (pos[0] * scale),
                                 FLOAT_FMT % (pos[1] * scale)])
    return out.getvalue().encode()


@pytest.mark.parametrize("scale", [1.0, 10.0 / PI])
def test_trajectory_bytes_match_csv_writer(tmp_path, scale):
    rng = np.random.default_rng(4)
    snaps = [
        (0.0, rng.uniform(-PI, PI, (7, 2)), rng.uniform(-PI, PI, (11, 2))),
        (0.1, np.array([[-PI, 0.0], [1e-300, -0.0]]), np.empty((0, 2))),
        (12.3456789, rng.uniform(-PI, PI, (1, 2)), rng.uniform(-PI, PI, (3, 2))),
    ]
    path = tmp_path / "traj.csv"
    write_trajectory(path, snaps, {"seed": 9, "config_sha256": "ab"}, scale=scale)
    assert path.read_bytes() == csv_writer_trajectory(
        snaps, {"seed": 9, "config_sha256": "ab"}, scale)


def test_trajectory_reader_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,agent_kind,agent_id,x1,x2\n0.0,herder,zero,1,2\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_trajectory(p)


def test_trajectory_reader_counts_comment_lines_in_line_numbers(tmp_path):
    p = tmp_path / "commented.csv"
    p.write_text("# swarmherd 0\n# seed=1\nt,agent_kind,agent_id,x1,x2\n0,herder,0,1,2\n"
                 "# a note\n\n0,robot,0,1,2\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:7: unknown agent kind 'robot'")):
        read_trajectory(p)
    p.write_text("# swarmherd 0\nt,kind,agent_id,x1,x2\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: bad header")):
        read_trajectory(p)


def test_trajectory_reader_rejects_a_repeated_agent_naming_file_and_line(tmp_path):
    p = tmp_path / "twice.csv"
    p.write_text("t,agent_kind,agent_id,x1,x2\n0,herder,0,1,2\n0,target,0,0,0\n"
                 "0,target,1,3,0\n0.5,target,0,1,1\n0,target,1,3,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:6: target 1 repeated at t=0")):
        read_trajectory(p)


def test_metrics_file_shape(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics(path, [0.0, 1.0], [10.0, 20.0], [1, 2], [np.nan, 0.5],
                  {"seed": 1})
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,chi,n_inside,herder_error_l2"
    assert lines[1].endswith(",")  # nan herder error serialized as empty
    assert "0.5" in lines[2]


def test_sweep_csv_layout(tmp_path):
    path = tmp_path / "map.csv"
    write_sweep_csv(path, [1.0, 2.0], [0.01], np.array([[0.1, 0.2]]))
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[0] == "D\\k"
    assert len(lines) == 2


# Every table has one layout: the metadata lines, the header, then rows
# ending in \r\n, floats with 17 significant digits, NaN as an empty cell.


def test_metrics_bytes(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics(path, [0.0, 0.1], [12.5, 100.0], np.array([1, 8]), [np.nan, 0.25],
                  {"seed": 1}, {"peak_speed": np.array([np.nan, 1 / 3]),
                                "floor_share": [0.0, 0.5]})
    assert path.read_bytes() == (
        f"# swarmherd {__version__}\n"
        "# seed=1\n"
        "t,chi,n_inside,herder_error_l2,peak_speed,floor_share\r\n"
        "0,12.5,1,,,0\r\n"
        "0.10000000000000001,100,8,0.25,0.33333333333333331,0.5\r\n").encode()


def test_trajectory_bytes_in_an_arena(tmp_path):
    path = tmp_path / "trajectory.csv"
    arena = ArenaMap(2 * PI)  # scale 2: every scaled value is exact
    snaps = [
        (0.0, np.array([[0.1, -0.25]]), np.array([[1.0, 2.0], [-PI, 0.5]])),
        (0.5, np.array([[0.2, 0.0]]), np.array([[1.5, -1.0], [0.0, 3.0]])),
    ]
    write_trajectory(path, snaps, {"seed": 9, "arena_half_width": arena.half_width},
                     scale=arena.scale)
    assert path.read_bytes() == (
        f"# swarmherd {__version__}\n"
        "# seed=9\n"
        "# arena_half_width=6.283185307179586\n"
        "t,agent_kind,agent_id,x1,x2\r\n"
        "0,herder,0,0.20000000000000001,-0.5\r\n"
        "0,target,0,2,4\r\n"
        "0,target,1,-6.2831853071795862,1\r\n"
        "0.5,herder,0,0.40000000000000002,0\r\n"
        "0.5,target,0,3,-2\r\n"
        "0.5,target,1,0,6\r\n").encode()


def test_decay_bytes(tmp_path):
    path = tmp_path / "target_decay.csv"
    write_series(path, np.array([0.0, 0.15]),
                 {"error_sq": np.array([1.0, 1 / 3]), "envelope": [2.0, 1e-300]},
                 {"config_sha256": "ab", "seed": 0})
    assert path.read_bytes() == (
        f"# swarmherd {__version__}\n"
        "# config_sha256=ab\n"
        "# seed=0\n"
        "t,error_sq,envelope\r\n"
        "0,1,2\r\n"
        "0.14999999999999999,0.33333333333333331,1e-300\r\n").encode()


def test_sweep_bytes_with_a_repeated_k(tmp_path):
    # --k-range 1:1:3 gives three equal k values: three columns, not one
    path = tmp_path / "feasibility_map.csv"
    k_values = parse_range("--k-range", "1:1:3")
    write_sweep_csv(path, k_values, [0.01, 0.35],
                    np.array([[0.5, 0.5, 0.5], [1 / 3, 1.0, np.inf]]), {"seed": 0})
    assert path.read_bytes() == (
        f"# swarmherd {__version__}\n"
        "# seed=0\n"
        "D\\k,1,1,1\r\n"
        "0.01,0.5,0.5,0.5\r\n"
        "0.34999999999999998,0.33333333333333331,1,inf\r\n").encode()
