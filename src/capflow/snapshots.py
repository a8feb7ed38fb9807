"""Snapshot and diagnostics-table output for flow runs.

A snapshot is a line-delimited JSON file: the first line is a header
carrying the schema tag and the run manifest (`run_manifest`), every
following line is one saved frame (time, node values, boundary residual,
volume, min rho).
Floats pass through json, which writes them with repr, the shortest
decimal form that parses back to the identical double, so node values
round-trip bit-exactly.  Nothing in the file depends on wall-clock state,
which keeps reruns byte-identical.
"""

import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .flow import ConfigError

SCHEMA = "capflow-snapshot/1"

FRAME_KEYS = ("time", "values", "bc_residual", "volume", "min_rho")

CSV_COLUMNS = ("t", "volume", "sup_dev", "max_bc_residual", "picard_iters", "dt")

__all__ = [
    "SCHEMA",
    "SnapshotError",
    "SchemaMismatchError",
    "CorruptRecordError",
    "run_manifest",
    "frame_record",
    "write_snapshot",
    "read_snapshot",
    "load_snapshot",
    "write_csv",
]


class SnapshotError(RuntimeError):
    """Base class for snapshot I/O failures."""


class SchemaMismatchError(SnapshotError):
    """The file declares a different schema version."""


class CorruptRecordError(SnapshotError):
    """A record is truncated, unparseable, or missing fields."""


def run_manifest(cfg):
    """Self-describing record of one run, embedded in every output header.

    Holds the full echo of the FlowConfig cfg, the grid spec that
    load_snapshot checks a restart against, the initial-condition spec, a
    deterministic marker (no seeds exist anywhere), and the package
    version.  Plain JSON types only, so it round-trips through json.
    """
    return {
        "config": asdict(cfg),
        "grid": {"n": cfg.n, "resolution": cfg.resolution, "topology": cfg.topology},
        "initial": cfg.initial,
        "deterministic": True,
        "version": __version__,
    }


def frame_record(t, values, bc_residual, volume):
    """One saved frame as a plain dict ready for serialization."""
    vals = [float(v) for v in np.asarray(values)]
    return {
        "time": float(t),
        "values": vals,
        "bc_residual": float(bc_residual),
        "volume": float(volume),
        "min_rho": min(vals),
    }


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_snapshot(path, manifest, frames):
    """Write header plus frames; the manifest is embedded in the header."""
    with open(path, "w") as fh:
        fh.write(_dumps({"schema": SCHEMA, "manifest": manifest}) + "\n")
        for frame in frames:
            fh.write(_dumps(frame) + "\n")


def _is_number(value):
    """A JSON number that is a finite double: an int or float, not a bool
    (json reads true as True), nor NaN, Infinity or an int past the range."""
    is_num = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_num and abs(value) <= sys.float_info.max


def read_snapshot(path):
    """Read and validate a snapshot file.

    Returns (manifest, frames).  Raises SchemaMismatchError when the header
    names a different schema and CorruptRecordError for anything
    structurally wrong: unparseable lines, missing fields, fields that are
    not finite numbers (`values` a list of them), or a file cut off
    mid-record.
    All lines are checked before anything is returned, so a truncated file
    never yields partial state.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not lines:
        raise CorruptRecordError(f"{path}: empty snapshot file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorruptRecordError(f"{path}: header is not valid JSON") from exc
    if not isinstance(header, dict) or "schema" not in header:
        raise CorruptRecordError(f"{path}: header lacks a schema tag")
    if header["schema"] != SCHEMA:
        raise SchemaMismatchError(
            f"{path}: schema {header['schema']!r} does not match {SCHEMA!r}"
        )
    if not isinstance(header.get("manifest"), dict):
        raise CorruptRecordError(f"{path}: header lacks a manifest")
    frames = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptRecordError(
                f"{path}:{lineno}: truncated or unparseable frame"
            ) from exc
        if not isinstance(frame, dict):
            raise CorruptRecordError(f"{path}:{lineno}: frame is not a JSON object")
        missing = [k for k in FRAME_KEYS if k not in frame]
        if missing:
            raise CorruptRecordError(
                f"{path}:{lineno}: frame lacks fields {missing}"
            )
        not_numbers = [
            k for k in FRAME_KEYS if k != "values" and not _is_number(frame[k])
        ]
        if not_numbers:
            raise CorruptRecordError(
                f"{path}:{lineno}: frame fields {not_numbers} are not numbers"
            )
        values = frame["values"]
        if not isinstance(values, list) or not all(map(_is_number, values)):
            raise CorruptRecordError(
                f"{path}:{lineno}: frame values are not a list of numbers"
            )
        frames.append(frame)
    if not frames:
        raise CorruptRecordError(f"{path}: snapshot holds no frames")
    return header["manifest"], frames


def load_snapshot(path, grid):
    """Final field of a snapshot, to restart a run on `grid`; nothing is
    built.  A manifest grid spec other than `grid`'s is a ConfigError, a
    final frame that does not fit it a CorruptRecordError."""
    manifest, frames = read_snapshot(path)
    spec = manifest.get("grid")
    if not isinstance(spec, dict):
        raise CorruptRecordError(f"{path}: manifest lacks a grid spec")
    try:
        n, resolution, topology = spec["n"], spec["resolution"], spec["topology"]
    except KeyError as exc:
        raise CorruptRecordError(f"{path}: bad grid spec: {exc}") from exc
    values = np.asarray(frames[-1]["values"], dtype=float)
    if (n, resolution, topology) != (grid.n, grid.resolution, grid.topology):
        raise ConfigError(
            f"initial: snapshot {path} is on an n = {n} {topology} grid of "
            f"{values.size} nodes, the configured grid is n = {grid.n} "
            f"{grid.topology} with {grid.size} nodes"
        )
    if values.shape != (grid.size,):
        raise CorruptRecordError(
            f"{path}: final frame has {values.size} values for a grid of "
            f"size {grid.size}"
        )
    return values


def write_csv(path, manifest, diagnostics):
    """Per-step diagnostics table of the CSV_COLUMNS, picard_iters as an
    integer and the rest as float reprs; the manifest rides in a comment."""
    with open(path, "w") as fh:
        fh.write("# manifest: " + _dumps(manifest) + "\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for d in diagnostics:
            row = (
                str(int(d[c])) if c == "picard_iters" else repr(float(d[c]))
                for c in CSV_COLUMNS
            )
            fh.write(",".join(row) + "\n")
