"""CSV/JSON serialization for series, estimates and result tables.

Floats are written with 17 significant digits, which round-trips 64-bit
values exactly. Files are written atomically (temp file + rename) and
carry a provenance comment (command line, seed, library version) so a
rerun with identical flags is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from . import __version__
from .series import FunctionalSeries, ValueGrid

__all__ = ["MalformedInput", "provenance", "write_text_atomic",
           "write_json_atomic", "read_series_csv", "write_series_csv",
           "write_csv"]


class MalformedInput(ValueError):
    """Input file cannot be parsed into a series."""


# np.loadtxt arguments for data rows; with comments=None a `#` after data
# is an error, not a comment.
_ROWS = {"delimiter": ",", "comments": None, "ndmin": 2}


def provenance(command: str | None, seed=None) -> str:
    parts = [f"version {__version__}"]
    if command:
        parts.insert(0, command)
    if seed is not None:
        parts.append(f"seed {seed}")
    return "# " + " | ".join(parts) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write text to a temp file beside path and rename it; the OS applies
    the umask, so a new file gets the mode open(path, "w") gives."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f"tmp{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_series_csv(path: str, meta_path: str | None = None) -> FunctionalSeries:
    """Read a series file: rows are time points, first column the stamp.

    Blank lines and lines starting with `#` are ignored. The first other
    line is a header if its first cell is `t` or `time`; then only the
    stamp and the `x*` columns are kept. Every further line is a row of
    decimal or scientific numbers, all of the same width; a bad one is
    reported as path:line, counting every line of the file from 1.
    A sidecar JSON (default: <path>.meta.json) may supply d, m and norm.
    """
    try:
        with open(path) as f:
            numbered = [(no, s) for no, s in enumerate(map(str.strip, f), 1)
                        if s and s[0] != "#"]
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")
    header = None
    if numbered and numbered[0][1].split(",")[0] in ("t", "time"):
        line, header = numbered.pop(0)
        header = header.split(",")
    if len(numbered) < 2:
        raise MalformedInput(f"{path}: need at least 2 data rows")
    try:
        arr = np.loadtxt([s for _, s in numbered], **_ROWS)
    except ValueError as exc:
        raise MalformedInput(_first_bad_row(path, numbered, exc))
    if arr.shape[1] < 2:
        raise MalformedInput(f"{path}: rows need at least 2 columns")
    if header is not None:
        if len(header) != arr.shape[1]:
            raise MalformedInput(f"{path}:{line}: header has {len(header)} "
                                 f"columns, the rows have {arr.shape[1]}")
        arr = arr[:, [j for j, name in enumerate(header)
                      if j == 0 or name.startswith("x")]]
        if arr.shape[1] < 2:
            raise MalformedInput(f"{path}: header names no value column x*")

    meta = {}
    if meta_path is None and os.path.exists(path + ".meta.json"):
        meta_path = path + ".meta.json"
    if meta_path is not None:
        try:
            with open(meta_path) as f:
                meta = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedInput(f"cannot read sidecar {meta_path}: {exc}")
        if not isinstance(meta, dict):
            raise MalformedInput(f"{meta_path}: not a JSON object")
        unknown = set(meta) - {"d", "m", "norm"}
        if unknown:
            raise MalformedInput(f"{meta_path}: unknown keys {sorted(unknown)}")
        for key in ("d", "m"):
            if type(meta.get(key, 0)) is not int:  # bool is an int subclass
                raise MalformedInput(
                    f"{meta_path}: {key} must be an integer, got {meta[key]!r}")

    p = arr.shape[1] - 1
    d = meta.get("d", 1)
    m = meta.get("m", p // max(d, 1))
    norm = meta.get("norm", "l2")
    try:
        return FunctionalSeries(arr[:, 0], arr[:, 1:], ValueGrid(d, m), norm)
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}")


def _first_bad_row(path: str, numbered, exc: ValueError) -> str:
    """Name the first numbered row that fails to parse or changes width."""
    width = None
    for no, line in numbered:
        try:
            cells = np.loadtxt([line], **_ROWS).shape[1]
        except ValueError:
            return f"{path}:{no}: bad data row {line!r}"
        width = width or cells
        if cells != width:
            return f"{path}:{no}: {cells} columns, the first row has {width}"
    return f"{path}: bad data rows: {exc}"


# Cell format by numpy dtype kind: floats round-trip at 17 significant
# digits, bools are written 0/1, anything else as str().
_CELL = {"f": "{:.17g}", "b": "{:d}"}


def write_csv(path: str, columns: dict, command=None, seed=None) -> None:
    """Write an ordered name -> equal-length column mapping as CSV, one row
    at a time, in a cell format chosen once per column from its dtype."""
    cols = [np.asarray(c) for c in columns.values()]
    row = ",".join(_CELL.get(c.dtype.kind, "{}") for c in cols) + "\n"
    rows = itertools.starmap(
        row.format, zip(*(c.tolist() for c in cols), strict=True))
    write_text_atomic(path, provenance(command, seed) + ",".join(columns)
                      + "\n" + "".join(rows))


def write_series_csv(path: str, times: np.ndarray, values: np.ndarray,
                     command=None,
                     extra_cols: dict[str, np.ndarray] | None = None) -> None:
    values = np.reshape(values, (len(times), -1))
    columns = {"t": times}
    columns.update((f"x{j}", values[:, j]) for j in range(values.shape[1]))
    write_csv(path, {**columns, **(extra_cols or {})}, command)


def write_json_atomic(path: str, obj: dict, command: str, seed=None) -> None:
    """Write obj as JSON with write_csv's provenance: command, version, seed."""
    obj = {**obj, "command": command, "version": __version__}
    if seed is not None:
        obj["seed"] = seed
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")
