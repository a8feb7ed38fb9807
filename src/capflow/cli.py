"""Batch front end: run flows from config files, validate, inspect.

Commands:
    capflow run <config>                  write <base>.snap and <base>.csv
    capflow validate <suite> [--resolution N]
    capflow inspect <snapshot>

The config file is plain key=value text (blank lines and # comments
ignored).  Its keys are the fields of `flow.FlowConfig`, cast by their
annotations, plus `output`; the fields without a default (s, theta, dt,
resolution, topology) are required.  Angles are radians.  Outputs carry
the full run manifest (`snapshots.run_manifest`) in their headers and are
byte-identical across reruns of the same config.

Exit codes: 0 ok, 2 config error, 3 nonconvergence, 4 extinction,
5 injectivity failure, 6 I/O error.
"""

import argparse
import atexit
import gc
import json
import os
import sys
from dataclasses import MISSING, fields

from .flow import ConfigError, FlowConfig, run_flow
from .snapshots import (
    SnapshotError,
    frame_record,
    read_snapshot,
    run_manifest,
    write_csv,
    write_snapshot,
)
from .validation import SUITES, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_EXTINCTION = 4
EXIT_INJECTIVITY = 5
EXIT_IO = 6

_STATUS_CODES = {
    "completed": EXIT_OK,
    "nonconvergence": EXIT_NONCONVERGENCE,
    "extinct": EXIT_EXTINCTION,
    "injectivity": EXIT_INJECTIVITY,
}

# Cast and the noun of its error message for each FlowConfig annotation;
# a field with any other annotation fails here, at import.
_ANNOTATION_CASTS = {
    "float": (float, "a number"),
    "float | None": (float, "a number"),
    "int": (int, "an integer"),
    "str": (str, None),
}
_FIELDS = fields(FlowConfig)
_CASTS = {f.name: _ANNOTATION_CASTS[f.type] for f in _FIELDS}


def parse_config(path):
    """Parse a key=value config file into (FlowConfig, output base path).

    Unknown keys are rejected by name; value errors name the key and its
    legal range.  The output base defaults to the config path without its
    extension, and must end in a file name (not "", "." or "..").
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in _CASTS and key != "output":
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; legal keys: "
                + ", ".join(sorted([*_CASTS, "output"]))
            )
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [
        f.name
        for f in _FIELDS
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw
    ]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in raw.items():
        if key == "output":
            continue
        cast, noun = _CASTS[key]
        try:
            kwargs[key] = cast(value)
        except ValueError:
            raise ConfigError(f"{key} must be {noun}, got {value!r}") from None
    try:
        cfg = FlowConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    base = raw.get("output", os.path.splitext(path)[0])
    if os.path.basename(base) in ("", ".", ".."):
        raise ConfigError(f"output must end in a file name, got {base!r}")
    return cfg, base


def cmd_run(args):
    cfg, base = parse_config(args.config)
    manifest = run_manifest(cfg)
    traj = run_flow(cfg)
    by_time = {d["t"]: d for d in traj.diagnostics}
    frames = [
        frame_record(t, vals, by_time[t]["max_bc_residual"], by_time[t]["volume"])
        for t, vals in traj.saved
    ]
    write_snapshot(base + ".snap", manifest, frames)
    write_csv(base + ".csv", manifest, traj.diagnostics)
    code = _STATUS_CODES[traj.status]
    note = f" ({traj.message})" if traj.message else ""
    print(
        f"{traj.status}{note}: {len(traj.diagnostics) - 1} steps to "
        f"t={traj.diagnostics[-1]['t']:.6g}, {len(frames)} frames -> "
        f"{base}.snap, {base}.csv"
    )
    return code


def cmd_validate(args):
    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; available: "
            + ", ".join(sorted(SUITES)),
            file=sys.stderr,
        )
        return EXIT_CONFIG
    least = SUITES[args.suite].min_resolution
    if args.resolution is not None and args.resolution < least:
        raise ConfigError(f"resolution must be at least {least}, got {args.resolution}")
    rows = run_suite(args.suite, resolution=args.resolution)
    name_w = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        flag = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(
            f"{flag}  {r.name:<{name_w}}  measured {r.measured:>12.5g}  "
            f"tolerance {r.tolerance!r:>8}  [{r.basis}]"
        )
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return EXIT_OK if failures == 0 else 1


def cmd_inspect(args):
    manifest, frames = read_snapshot(args.snapshot)
    first, last = frames[0], frames[-1]
    print(f"snapshot {args.snapshot}")
    print(f"  manifest: {json.dumps(manifest, sort_keys=True)}")
    print(f"  frames: {len(frames)}")
    print(f"  time span: {first['time']:.6g} .. {last['time']:.6g}")
    print(
        f"  final field: {len(last['values'])} nodes, "
        f"min {last['min_rho']:.6g}, volume {last['volume']:.6g}, "
        f"boundary residual {last['bc_residual']:.3g}"
    )
    return EXIT_OK


def main(argv=None):
    """The `capflow` entry point.  Calling it in-process makes the host
    process skip cycle collection at shutdown, so an in-process caller must
    not rely on the finalizers of cyclic garbage running at exit."""
    # At exit, freeze what the imports left (numpy's ~20k objects), so the
    # interpreter's shutdown collections skip them; registered once per
    # process, and a caller's heap is never frozen during a call.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(
        prog="capflow", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a flow from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)
    p_val = sub.add_parser("validate", help="run a named oracle suite")
    p_val.add_argument("suite")
    p_val.add_argument("--resolution", type=int, default=None)
    p_val.set_defaults(func=cmd_validate)
    p_ins = sub.add_parser("inspect", help="summarize a snapshot file")
    p_ins.add_argument("snapshot")
    p_ins.set_defaults(func=cmd_inspect)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
