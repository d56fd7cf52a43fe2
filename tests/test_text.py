"""The compiled ``%.17g`` text of fileio's tables and fields.

The compiled library's ``text_rows`` writes each cell from integer arithmetic;
Python's ``%`` is the reference and the fallback. Every writer must give the
same bytes either way.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmherd import DensityField, GridSpec, ScalarField, VectorField, fileio, microsim
from swarmherd.fileio import (
    write_field,
    write_metrics,
    write_series,
    write_sweep_csv,
    write_trajectory,
)

PI = np.pi
TINY = 1e-5  # below it, and from 2^52 on, text_rows leaves a value to %
HUGE = 2.0**52


def in_range(v: float) -> bool:
    return not math.isfinite(v) or v == 0 or TINY <= abs(v) < HUGE


def compiled_cells(values) -> list[str] | None:
    """Each value's cell through text_rows, one per row; None where it declines."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    text = fileio._text_rows(values, "", ",", "\n", "")
    return None if text is None else text.split("\n")[:-1]


def reference(v: float) -> str:
    return "" if v != v else "%.17g" % v


@pytest.fixture(autouse=True)
def library():
    assert microsim._compiled_drift() is not None


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(2.0**48 + 0.125)  # a tie at the 17th digit: rounds to the even ...12
@example(2.0**48 + 0.375)  # and to the even ...38
@example(9.999999999999999e-05)  # 17 digits round up to 1e-04
def test_cell_is_the_exact_percent_17g(v):
    cells = compiled_cells([v])
    if in_range(v):
        assert cells == [reference(v)]
    else:
        assert cells is None


def test_a_million_random_bit_patterns():
    # every double whose biased exponent lies in the exact range, sign and
    # significand at random, then a sample of every exponent
    rng = np.random.default_rng(2018)
    low, high, n = np.frexp(TINY)[1] + 1022, 1075, 1_020_000  # [2^-17, 2^52)
    bits = (rng.integers(0, 2**52, n, dtype=np.uint64)
            | (rng.integers(low, high, n, dtype=np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)))
    values = bits.view(np.float64)
    values = values[np.abs(values) >= TINY]
    assert len(values) >= 1_000_000
    assert compiled_cells(values) == ["%.17g" % v for v in values.tolist()]
    anywhere = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
    for v in anywhere.view(np.float64).tolist():
        cells = compiled_cells([v])
        assert cells == ([reference(v)] if in_range(v) else None), v


def edges():
    """(value, formatted by text_rows) at every edge of the exact range."""
    smallest_subnormal = np.nextafter(0.0, 1.0)
    yield from ((0.0, True), (-0.0, True), (math.inf, True), (-math.inf, True),
                (math.nan, True), (smallest_subnormal, False),
                (-smallest_subnormal, False), (np.finfo(float).tiny, False),
                (np.nextafter(TINY, 0.0), False), (TINY, True),
                (np.nextafter(TINY, 1.0), True), (np.nextafter(HUGE, 0.0), True),
                (HUGE, False), (np.nextafter(HUGE, math.inf), False),
                (np.finfo(float).max, False))
    for p in range(-5, 16):  # 10^p and its neighbours, 1e-5 to 1e15
        power = 10.0**p
        for v in (np.nextafter(power, 0.0), power, np.nextafter(power, math.inf)):
            yield v, v >= TINY


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edges_of_the_exact_range(sign):
    for v, formatted in edges():
        v = sign * v
        cells = compiled_cells([v])
        assert cells == ([reference(v)] if formatted else None), v


def test_text_rows_layout():
    values = np.array([[0.5, -2.0, math.nan], [1 / 3, 0.0, math.inf]])
    assert fileio._text_rows(values, "7,target,", ";", "\r\n", "NaN") == (
        "7,target,0.5;-2;NaN\r\n7,target,0.33333333333333331;0;inf\r\n")
    assert fileio._text_rows(np.empty((0, 3)), "x,", ",", "\n", "") == ""


# ---------------------------------------------------------------------------
# every writer: the same bytes with the library and with Python's %
# ---------------------------------------------------------------------------


def write_all(directory, rng):
    """One file of each writer, from values that reach every kind of cell."""
    awkward = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 3e-6, 1e-5,
                        2.0**52, 2.0**60, 1 / 3, -PI])
    snapshots = [(0.0, rng.uniform(-PI, PI, (26, 2)), rng.uniform(-PI, PI, (72, 2))),
                 (0.1, np.empty((0, 2)), np.array([[1e-7, 0.5], [-PI, 3.0]])),
                 (0.30000000000000004, rng.uniform(-PI, PI, (1, 2)), np.empty((0, 2)))]
    write_trajectory(directory / "trajectory.csv", snapshots, {"seed": 3})
    write_trajectory(directory / "arena.csv", snapshots[:1], {"seed": 3}, scale=10 / PI)
    times = np.arange(12) * 0.1
    write_metrics(directory / "metrics.csv", times, rng.uniform(0, 100, 12),
                  np.arange(12) * 60, rng.uniform(0, 1, 12), {"seed": 3},
                  {"peak_speed": awkward, "floor_share": np.full(12, 0.25)})
    write_series(directory / "series.csv", times, {"error_sq": np.exp(-times),
                                                   "count": np.arange(12, dtype=np.uint8)})
    write_series(directory / "awkward.csv", times, {"value": awkward})
    write_sweep_csv(directory / "sweep.csv", [0.5, 1.0, 2.0], [0.01, 0.02, 0.35],
                    np.where(rng.uniform(size=(3, 3)) < 0.3, math.inf, rng.uniform(size=(3, 3))))
    grid = GridSpec(16)
    write_field(directory / "density.field", DensityField(grid, rng.uniform(0.1, 1, (16, 16))))
    scalar = rng.standard_normal((16, 16))
    scalar[3, 4] = 1e-9
    write_field(directory / "scalar.field", ScalarField(grid, scalar), arena_half_width=2.0)
    write_field(directory / "vector.field", VectorField(grid, rng.standard_normal((2, 16, 16))))
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_every_writer_same_bytes_without_the_library(tmp_path, monkeypatch):
    (tmp_path / "compiled").mkdir()
    (tmp_path / "python").mkdir()
    written, text_rows = [], fileio._text_rows

    def spy(*args):
        text = text_rows(*args)
        written.append(text is not None)
        return text

    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_text_rows", spy)
        compiled = write_all(tmp_path / "compiled", np.random.default_rng(5))
    # 12 table blocks and 64 field rows; all but four are compiled text, the
    # four hold a value outside its exact range: a target at 1e-7, the
    # metrics, awkward.csv and the scalar field's row 3
    assert len(written) == 12 + 64 and written.count(False) == 4
    monkeypatch.setattr(microsim, "_compiled_drift", lambda: None)
    python = write_all(tmp_path / "python", np.random.default_rng(5))
    assert len(compiled) == 9 and compiled == python


@pytest.mark.parametrize("outside", [3e-6, -1e-300, 2.0**52, -1e20])
def test_a_block_with_one_value_out_of_range_takes_the_percent_path(tmp_path, monkeypatch,
                                                                     outside):
    values = np.random.default_rng(7).uniform(-PI, PI, 50)
    columns = [np.asarray(0.5), np.asarray("target"), np.arange(50), values]
    assert fileio._compiled_block(columns) == fileio._formatted_block(columns)
    values[17] = outside
    assert fileio._compiled_block(columns) is None
    write_series(tmp_path / "compiled.csv", np.arange(50.0), {"x": values})
    monkeypatch.setattr(microsim, "_compiled_drift", lambda: None)
    write_series(tmp_path / "python.csv", np.arange(50.0), {"x": values})
    text = (tmp_path / "compiled.csv").read_bytes()
    assert f"\r\n17,{outside:.17g}\r\n".encode() in text
    assert text == (tmp_path / "python.csv").read_bytes()


@pytest.mark.parametrize("big", [2**53, -2**53, 2**63 - 1, 2**52])
def test_large_integer_columns_take_the_percent_path(tmp_path, big):
    ids = np.arange(5, dtype=np.int64)
    ids[2] = big
    columns = [np.arange(5) * 0.5, ids]
    assert fileio._compiled_block(columns) is None
    write_series(tmp_path / "ids.csv", columns[0], {"id": ids})
    rows = (tmp_path / "ids.csv").read_text().splitlines()
    assert rows[-3] == f"1,{big}"
    # below 2^52 an integer column is written as its exact float
    ids[2] = 2**52 - 1
    assert fileio._compiled_block(columns) == fileio._formatted_block(columns)
