"""On-disk formats: grid fields, trajectories, metric series, sweep matrices.

Every file starts with ``#``-prefixed metadata lines (config hash, seed,
package version) so a result can be traced to the exact run that produced
it. Positions are written with 17 significant digits, which round-trips
float64 exactly, so torus positions read back bit for bit. Positions
written in an arena (``arena_half_width`` in the metadata) are torus
positions times the arena's scale; dividing by it may miss the torus
position in the last bit, so re-analysis with the run's goal reproduces
the live containment except for a target within that rounding of the goal
boundary. Re-analysis sees only the snapshot times.

Field files: metadata lines, then ``key=value`` header lines (m, h, kind,
components, arena_half_width), then the samples row-major with one grid
row per line (for two-component fields, the full component-0 block is
followed by the component-1 block).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import __version__
from .grids import DensityField, GridSpec, ScalarField, VectorField
from .torus import PI

FLOAT_FMT = "%.17g"


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


def write_field(path: str | Path, field, kind: str, meta: dict | None = None,
                arena_half_width: float | None = None):
    if kind not in _FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}")
    cls, components = _FIELD_KINDS[kind]
    if not isinstance(field, cls):
        raise ValueError(f"a {type(field).__name__} cannot be written as kind={kind}")
    values = field.values
    m = field.grid.m
    lines = metadata_lines(meta or {})
    lines.append(f"m={m}")
    lines.append(f"h={field.grid.h!r}")
    lines.append(f"kind={kind}")
    lines.append(f"components={components}")
    lines.append(f"arena_half_width={(arena_half_width if arena_half_width else PI)!r}")
    for row in values.reshape(-1, m):
        lines.append(" ".join(FLOAT_FMT % v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


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
# trajectories and metrics
# ---------------------------------------------------------------------------


def write_trajectory(path: str | Path, snapshots, meta: dict | None = None,
                     scale: float = 1.0):
    """Snapshots are (t, herders, targets) tuples; positions scaled on write.

    Rows are CSV with csv's default ``\r\n`` terminator; no field needs
    quoting, so each block of rows is one ``%`` format of the row format
    repeated, over one flat tuple of (id, x1, x2) values.
    """
    with open(path, "w", newline="") as fh:
        for line in metadata_lines(meta or {}):
            fh.write(line + "\n")
        fh.write("t,agent_kind,agent_id,x1,x2\r\n")
        for t, herders, targets in snapshots:
            for kind, block in (("herder", herders), ("target", targets)):
                row = f"{FLOAT_FMT % t},{kind},%d,{FLOAT_FMT},{FLOAT_FMT}\r\n"
                positions = np.asarray(block, dtype=float) * scale
                n = positions.shape[0]
                values = [0] * (3 * n)
                values[0::3] = range(n)
                values[1::3] = positions[:, 0].tolist()
                values[2::3] = positions[:, 1].tolist()
                fh.write(row * n % tuple(values))


def read_trajectory(path: str | Path):
    """Returns a list of (t, herders, targets) tuples in file order."""
    frames: dict[float, dict[str, list]] = {}
    order: list[float] = []
    with open(path, newline="") as fh:
        line_no = 0
        reader = None
        for raw in fh:
            line_no += 1
            if raw.startswith("#"):
                continue
            if reader is None:
                header = next(csv.reader([raw]))
                expected = ["t", "agent_kind", "agent_id", "x1", "x2"]
                if header != expected:
                    raise ValueError(f"{path}:{line_no}: bad header {header}")
                reader = True
                continue
            row = next(csv.reader([raw]))
            if not row:
                continue
            try:
                t = float(row[0])
                kind = row[1]
                idx = int(row[2])
                x1, x2 = float(row[3]), float(row[4])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: bad trajectory row ({exc})") from exc
            if kind not in ("herder", "target"):
                raise ValueError(f"{path}:{line_no}: unknown agent kind {kind!r}")
            if t not in frames:
                frames[t] = {"herder": [], "target": []}
                order.append(t)
            frames[t][kind].append((idx, (x1, x2)))
    out = []
    for t in order:
        frame = frames[t]
        herders = np.array([p for _, p in sorted(frame["herder"])]).reshape(-1, 2)
        targets = np.array([p for _, p in sorted(frame["target"])]).reshape(-1, 2)
        out.append((t, herders, targets))
    return out


def write_metrics(path: str | Path, times, chi, n_inside, herder_error_l2,
                  meta: dict | None = None, columns: dict | None = None):
    """Metric records: time, containment, herder error and any further
    named float ``columns``, in order; NaN (no control tick yet) is written
    as an empty cell."""
    series = {"herder_error_l2": herder_error_l2, **(columns or {})}
    with open(path, "w", newline="") as fh:
        for line in metadata_lines(meta or {}):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "chi", "n_inside", *series])
        for t, c, n, *values in zip(times, chi, n_inside, *series.values()):
            writer.writerow([FLOAT_FMT % t, FLOAT_FMT % c, int(n)]
                            + ["" if np.isnan(v) else FLOAT_FMT % v for v in values])


def write_decay(path: str | Path, times, columns: dict, meta: dict | None = None):
    """Line-delimited decay records: time plus named series columns."""
    names = list(columns)
    with open(path, "w", newline="") as fh:
        for line in metadata_lines(meta or {}):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + names)
        for i, t in enumerate(times):
            writer.writerow([FLOAT_FMT % t] + [FLOAT_FMT % columns[n][i] for n in names])


def write_sweep_csv(path: str | Path, k_values, d_values, matrix,
                    meta: dict | None = None):
    """Feasibility sweep: first row holds k values, first column D values."""
    with open(path, "w", newline="") as fh:
        for line in metadata_lines(meta or {}):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(["D\\k"] + [FLOAT_FMT % k for k in k_values])
        for i, d in enumerate(d_values):
            writer.writerow([FLOAT_FMT % d] + [FLOAT_FMT % v for v in matrix[i]])
