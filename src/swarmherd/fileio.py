"""On-disk formats: grid fields, trajectories, metric series, sweeps, summaries.

Every file starts with ``#``-prefixed metadata lines (config hash, seed,
package version) so a result can be traced to the exact run that produced
it. Positions are written with 17 significant digits, which round-trips
float64 exactly, so torus positions read back bit for bit. Positions
written in an arena (``arena_half_width`` in the metadata) are torus
positions times the arena's scale; dividing by it may miss the torus
position in the last bit, so re-analysis with the run's goal reproduces
the live containment except for a target within that rounding of the goal
boundary. Re-analysis sees only the snapshot times.

Tables (trajectories, metric and decay series, sweep maps) are CSV from
one writer: metadata lines, a header row, then rows ending in ``\r\n``,
floats with 17 significant digits and NaN as an empty cell.

The digits of tables and fields are Python's ``"%.17g" % v``. They are
written by ``text_rows`` in the compiled library of ``microsim`` (loaded at
the first write, never at import), from exact integer arithmetic with no
libc ``printf``. A table block or field row holding a value it cannot
format exactly (0 < |v| < 1e-5, |v| >= 2^52, an integer |v| >= 2^53), and
all text where the library cannot be built or loaded, takes the fallback:
Python's ``%``, the reference, with the same bytes.

Field files: metadata lines, then ``key=value`` header lines (m, h, kind,
components, arena_half_width), then the samples row-major with one grid
row per line (for two-component fields, the full component-0 block is
followed by the component-1 block).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import __version__, microsim
from .grids import DensityField, GridSpec, ScalarField, VectorField
from .torus import PI

FLOAT_FMT = "%.17g"
_TRAJECTORY_COLUMNS = ["t", "agent_kind", "agent_id", "x1", "x2"]


def metadata_lines(meta: dict) -> list[str]:
    lines = [f"# swarmherd {__version__}"]
    for key, value in meta.items():
        lines.append(f"# {key}={value}")
    return lines


def read_metadata(path: str | Path) -> dict[str, str]:
    """The ``# key=value`` lines at the top of a file, values as text."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
    return meta


# ---------------------------------------------------------------------------
# grid fields
# ---------------------------------------------------------------------------

# kind -> field class and component count
_FIELD_KINDS = {"density": (DensityField, 1), "scalar": (ScalarField, 1),
                "vector": (VectorField, 2)}
_KIND_OF = {cls: kind for kind, (cls, _) in _FIELD_KINDS.items()}  # exact class -> kind


def write_field(path: str | Path, field, meta: dict | None = None,
                arena_half_width: float | None = None):
    """The field's exact class gives its kind: a ``DensityField`` is written
    as ``density``, never as ``scalar``."""
    if type(field) not in _KIND_OF:
        raise ValueError(f"cannot write a {type(field).__name__}")
    kind = _KIND_OF[type(field)]
    components = _FIELD_KINDS[kind][1]
    values = field.values
    m = field.grid.m
    lines = metadata_lines(meta or {})
    lines.append(f"m={m}")
    lines.append(f"h={field.grid.h!r}")
    lines.append(f"kind={kind}")
    lines.append(f"components={components}")
    lines.append(f"arena_half_width={(arena_half_width if arena_half_width else PI)!r}")
    # row by row, so that a value outside text_rows' exact range sends only its
    # row to the % path
    text = "".join(_text_rows(row[None], "", " ", "\n", "nan")
                   or " ".join(FLOAT_FMT % v for v in row) + "\n"
                   for row in values.reshape(-1, m))
    Path(path).write_text("\n".join(lines) + "\n" + text)


def read_field(path: str | Path):
    """Returns (field object, header dict)."""
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line and not rows:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad sample line ({exc})") from exc
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{line_no}: {len(row)} values, but the first "
                             f"sample row has {len(rows[0])}")
        rows.append(row)
    for key in ("m", "kind", "components"):
        if key not in header:
            raise ValueError(f"{path}: missing header key {key!r}")
        if key != "kind" and not header[key].isdecimal():
            raise ValueError(f"{path}: header key {key}={header[key]!r} is not an integer")
    m, kind, components = int(header["m"]), header["kind"], int(header["components"])
    if kind not in _FIELD_KINDS:
        raise ValueError(f"{path}: header key kind={kind!r} is not one of "
                         f"{', '.join(_FIELD_KINDS)}")
    cls, expected = _FIELD_KINDS[kind]
    if components != expected:
        raise ValueError(f"{path}: header key components={components} does not fit "
                         f"kind={kind}, which has {expected}")
    data = np.asarray(rows)
    if data.shape != (components * m, m):
        raise ValueError(f"{path}: expected {components}x{m} rows of {m} values, "
                         f"got shape {data.shape}")
    values = data.reshape(components, m, m) if components > 1 else data
    try:
        return cls(GridSpec(m), values), header
    except ValueError as exc:  # a grid too small, or samples the field rejects
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# tables and the run summary
# ---------------------------------------------------------------------------


def _write_table(path: str | Path, header: list[str], blocks, meta: dict | None = None):
    """Every table's writer. A block's columns are 1-D arrays of one length, or scalars
    repeated down it. Each block is written by ``_compiled_block``, else by
    ``_formatted_block``: the same bytes."""
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in metadata_lines(meta or {}))
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            columns = [np.asarray(column) for column in block]
            text = _compiled_block(columns)
            fh.write(_formatted_block(columns) if text is None else text)


def _cell_format(kind: str) -> str:
    """The ``%`` format of a cell of dtype kind ``kind``."""
    return "%d" if kind in "iu" else FLOAT_FMT if kind == "f" else "%s"


def _scalar_text(value: np.ndarray) -> str:
    """A scalar column's cell, NaN as empty."""
    item = value.item()
    return "" if item != item else _cell_format(value.dtype.kind) % item


def _formatted_block(columns: list[np.ndarray]) -> str:
    """A block through Python's ``%``, the reference: one format of the repeated row,
    scalars as its constants; no cell needs quotes."""
    fields, cells = [], []
    for values in columns:
        if not values.ndim:  # a scalar: a constant of the row format
            fields.append(_scalar_text(values).replace("%", "%%"))
            continue
        items, kind = values.tolist(), values.dtype.kind
        field = _cell_format(kind)
        if kind == "f" and np.isnan(values).any():
            field, items = "%s", ["" if v != v else FLOAT_FMT % v for v in items]
        fields.append(field)
        cells.append(items)
    k, n = len(cells), len(cells[0])
    flat = [0] * (k * n)
    for j, items in enumerate(cells):
        flat[j::k] = items  # a column of another length raises here
    return (",".join(fields) + "\r\n") * n % tuple(flat)


def _compiled_block(columns: list[np.ndarray]) -> str | None:
    """A block through the compiled ``text_rows``: its leading scalars as each row's
    prefix, then its arrays, float columns and integer columns with every
    |v| < 2^53, as the cells. None for any other block, and where ``text_rows``
    cannot write it."""
    lead = next((j for j, values in enumerate(columns) if values.ndim), len(columns))
    arrays = columns[lead:]
    if not arrays or any(values.ndim != 1 or len(values) != len(arrays[0])
                         or not _exact_as_float(values) for values in arrays):
        return None
    table = np.empty((len(arrays[0]), len(arrays)))
    for j, values in enumerate(arrays):
        table[:, j] = values
    prefix = "".join(_scalar_text(values) + "," for values in columns[:lead])
    return _text_rows(table, prefix, ",", "\r\n", "")


def _exact_as_float(values: np.ndarray) -> bool:
    kind = values.dtype.kind
    if kind in "iu":
        return not values.size or (values.min() > -2**53 and values.max() < 2**53)
    return kind == "f"


# the most bytes text_rows writes for one cell
_CELL_BYTES = 24


def _text_rows(values: np.ndarray, prefix: str, sep: str, end: str, nan: str) -> str | None:
    """The rows of the float (n, k) ``values`` as text: each row ``prefix``, its k
    cells joined by ``sep``, then ``end``. A cell is the exact ``%.17g`` of its
    value, NaN as ``nan``, from the compiled library's ``text_rows``. None where
    the library cannot be built or loaded, or ``text_rows`` cannot write a value
    exactly (0 < |v| < 1e-5, |v| >= 2^52): the caller then formats with ``%``."""
    lib = microsim._compiled_drift()
    if lib is None:
        return None
    values = np.ascontiguousarray(values, dtype=float)
    (n, k), (prefix, sep, end, nan) = values.shape, (prefix.encode(), sep.encode(),
                                                     end.encode(), nan.encode())
    buffer = np.empty(n * (len(prefix) + len(end) + k * (_CELL_BYTES + len(sep))), np.uint8)
    size = lib.text_rows(values.ctypes.data, n, k, prefix, sep, end, nan, buffer.ctypes.data)
    return None if size < 0 else buffer[:size].tobytes().decode()


def write_trajectory(path: str | Path, snapshots, meta: dict | None = None,
                     scale: float = 1.0):
    """Snapshots are (t, herders, targets) tuples; positions scaled on write."""
    blocks = ((t, kind, np.arange(len(p)), p[:, 0], p[:, 1])
              for t, herders, targets in snapshots
              for kind, p in (("herder", np.asarray(herders, dtype=float) * scale),
                              ("target", np.asarray(targets, dtype=float) * scale)))
    _write_table(path, _TRAJECTORY_COLUMNS, blocks, meta)


def read_trajectory(path: str | Path):
    """Returns a list of (t, herders, targets) tuples in file order. A frame
    that holds one agent twice is an error."""
    frames: dict[float, dict[str, dict]] = {}  # in file order
    comments = 0  # lines skipped so far, so that errors give the file's line numbers

    def table(fh):
        nonlocal comments
        for raw in fh:
            if raw.startswith("#"):
                comments += 1
            else:
                yield raw

    with open(path, newline="") as fh:
        reader = csv.reader(table(fh))
        header = next(reader, None)
        if header is not None and header != _TRAJECTORY_COLUMNS:
            raise ValueError(f"{path}:{reader.line_num + comments}: bad header {header}")
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num + comments
            try:
                t, kind, idx = float(row[0]), row[1], int(row[2])
                x1, x2 = float(row[3]), float(row[4])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: bad trajectory row ({exc})") from exc
            if kind not in ("herder", "target"):
                raise ValueError(f"{path}:{line_no}: unknown agent kind {kind!r}")
            agents = frames.setdefault(t, {"herder": {}, "target": {}})[kind]
            if idx in agents:
                raise ValueError(f"{path}:{line_no}: {kind} {idx} repeated at t={row[0]}")
            agents[idx] = (x1, x2)

    def positions(agents):  # id -> (x1, x2), in id order
        return np.array([agents[i] for i in sorted(agents)]).reshape(-1, 2)

    return [(t, positions(f["herder"]), positions(f["target"])) for t, f in frames.items()]


def write_metrics(path: str | Path, times, chi, n_inside, herder_error_l2,
                  meta: dict | None = None, columns: dict | None = None):
    """Metric records: time, containment, herder error, further named ``columns``."""
    write_series(path, times, {"chi": chi, "n_inside": n_inside,
                               "herder_error_l2": herder_error_l2, **(columns or {})}, meta)


def write_series(path: str | Path, times, columns: dict, meta: dict | None = None):
    """``t``, then the named ``columns`` in order: one row per time."""
    _write_table(path, ["t", *columns], [[times, *columns.values()]], meta)


def write_sweep_csv(path: str | Path, k_values, d_values, matrix, meta: dict | None = None):
    """Feasibility sweep: first row holds k values, first column D values."""
    _write_table(path, ["D\\k", *(FLOAT_FMT % k for k in k_values)],
                 [[d_values, *np.asarray(matrix, dtype=float).T]], meta)


def _finite_or_none(value):
    """``value`` with every non-finite float, nested ones too, as None."""
    if isinstance(value, dict):
        return {key: _finite_or_none(v) for key, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_summary(path: str | Path, summary: dict) -> str:
    """``summary.json``: strict JSON (a NaN or infinity is null), sorted keys,
    a trailing newline; returns the JSON."""
    text = json.dumps(_finite_or_none(summary), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")
    return text
