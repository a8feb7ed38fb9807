"""Config parsing, snapshot round-trips, and command exit codes."""

import dataclasses
import filecmp
import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from capflow import (
    FlowConfig,
    RadialField,
    bc_residual,
    build_grid,
    cli,
    flow,
    geometry,
)
from capflow.cli import ConfigError, main, parse_config
from capflow.geometry import MIN_RESOLUTION
from capflow.snapshots import (
    SCHEMA,
    CorruptRecordError,
    SchemaMismatchError,
    frame_record,
    load_snapshot,
    read_snapshot,
    run_manifest,
    write_csv,
    write_snapshot,
)
from capflow.validation import SUITES, CheckResult, Suite

BASE_CONFIG = """\
s = 0.5
theta = 1.5707963267948966
dt = 1e-3
resolution = 64
topology = full-sphere
t_end = 3e-3
homotopy_order = 4
"""


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ----------------------------------------------------------------------
# parse_config
# ----------------------------------------------------------------------


def test_parse_config_minimal(tmp_path):
    path = _write_config(
        tmp_path,
        "s=0.4\ntheta=1.0\ndt=1e-3\nresolution=64\ntopology=full-sphere\n",
    )
    cfg, base = parse_config(path)
    assert cfg.s == 0.4
    assert cfg.theta == 1.0
    assert cfg.resolution == 64
    assert cfg.topology == "full-sphere"
    assert cfg.initial == "constant:1.0"
    assert base == str(tmp_path / "run")


def test_parse_config_ignores_comments_and_blanks(tmp_path):
    path = _write_config(
        tmp_path,
        "# capillary run\n\ns=0.5\ntheta=1.0\ndt=1e-3\n"
        "resolution=64\ntopology=full-sphere\n  # trailing note\n",
    )
    cfg, _ = parse_config(path)
    assert cfg.s == 0.5


def test_parse_config_output_key_sets_base(tmp_path):
    path = _write_config(tmp_path, BASE_CONFIG + f"output = {tmp_path}/custom\n")
    _, base = parse_config(path)
    assert base == f"{tmp_path}/custom"


@pytest.mark.parametrize("output", ["", "{tmp}/sub/", "{tmp}/.", "."])
def test_run_rejects_an_output_without_a_file_name(tmp_path, monkeypatch, capsys, output):
    # an empty file-name part would write the hidden files .snap and .csv
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    line = f"output = {output.format(tmp=tmp_path)}\n"
    path = _write_config(tmp_path, BASE_CONFIG + line)
    with pytest.raises(ConfigError, match="output must end in a file name"):
        parse_config(path)
    assert main(["run", str(path)]) == 2
    assert "config error: output" in capsys.readouterr().err
    outputs = [p for p in tmp_path.rglob("*") if p.name.endswith((".snap", ".csv"))]
    assert outputs == []


@pytest.mark.parametrize(
    "old, new, fragment",
    [
        (None, "colour = red", "unknown key 'colour'"),
        (None, "s = 0.7", "duplicate key 's'"),
        (None, "just some words", "expected key=value"),
        ("dt = 1e-3", "dt = fast", "dt must be a number, got 'fast'"),
        (
            "resolution = 64",
            "resolution = 64.5",
            "resolution must be an integer, got '64.5'",
        ),
    ],
)
def test_parse_config_rejects_bad_lines(tmp_path, old, new, fragment):
    text = BASE_CONFIG + new + "\n" if old is None else BASE_CONFIG.replace(old, new)
    path = _write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_config_unknown_key_lists_legal_keys(tmp_path):
    path = _write_config(tmp_path, BASE_CONFIG + "shape = round\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "legal keys" in msg
    for key in ("s", "theta", "dt", "resolution", "topology", "output"):
        assert key in msg


def test_parse_config_missing_required_keys(tmp_path):
    path = _write_config(tmp_path, "s=0.5\ntheta=1.0\n")
    with pytest.raises(ConfigError, match="missing required keys"):
        parse_config(path)


def test_parse_config_wraps_range_errors(tmp_path):
    path = _write_config(tmp_path, BASE_CONFIG.replace("s = 0.5", "s = 1.2"))
    with pytest.raises(ConfigError, match=r"s must lie in \(0,1\), got 1.2"):
        parse_config(path)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/run.cfg")


# ----------------------------------------------------------------------
# manifest round-trip
# ----------------------------------------------------------------------


def test_manifest_roundtrips_through_json(tmp_path):
    path = _write_config(tmp_path, BASE_CONFIG)
    cfg, _ = parse_config(path)
    manifest = run_manifest(cfg)
    assert json.loads(json.dumps(manifest)) == manifest
    assert sorted(manifest) == ["config", "deterministic", "grid", "initial", "version"]
    assert manifest["deterministic"] is True
    assert manifest["grid"] == {"n": 1, "resolution": 64, "topology": "full-sphere"}
    assert manifest["config"]["s"] == 0.5
    assert FlowConfig(**manifest["config"]) == cfg


# Every FlowConfig key, each away from its default but hs_ref_mode, whose
# one legal value is its default
ALL_KEYS = {
    "s": 0.4,
    "theta": 1.2,
    "dt": 5e-4,
    "resolution": 32,
    "topology": "hemisphere",
    "n": 2,
    "t_end": 2e-3,
    "hs_ref_mode": "full-sphere",
    "initial": "height:0.1",
    "save_every": 2,
    "homotopy_order": 6,
    "refresh_remainders": "per-step",
    "picard_tol": 1e-8,
    "max_picard": 12,
    "bc_tol": 1e-7,
}
ANNOTATED_TYPES = {"float": float, "float | None": float, "int": int, "str": str}


@pytest.mark.parametrize("field", dataclasses.fields(FlowConfig), ids=lambda f: f.name)
def test_parse_config_casts_every_field_by_annotation(tmp_path, field):
    def config(**changed):
        return "".join(f"{k} = {changed.get(k, v)}\n" for k, v in ALL_KEYS.items())

    cfg, _ = parse_config(_write_config(tmp_path, config()))
    value = getattr(cfg, field.name)
    assert value == ALL_KEYS[field.name]
    if field.name != "hs_ref_mode":
        assert value != field.default
    assert type(value) is ANNOTATED_TYPES[field.type]
    assert run_manifest(cfg)["config"][field.name] == value
    if field.type == "str":
        return
    wrong, noun = ("2.5", "an integer") if field.type == "int" else ("many", "a number")
    bad = config(**{field.name: wrong})
    message = f"{field.name} must be {noun}, got '{wrong}'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(_write_config(tmp_path, bad))


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------


def _sample_snapshot(tmp_path, values=None):
    rng = np.random.default_rng(17)
    vals = rng.uniform(0.9, 1.1, 64) if values is None else values
    manifest = {
        "grid": {"n": 1, "resolution": 64, "topology": "full-sphere"},
        "config": {"s": 0.5},
    }
    frames = [
        frame_record(0.0, vals, 0.0, 3.1),
        frame_record(1e-3, vals * 0.99, 1e-9, 3.0),
    ]
    path = tmp_path / "sample.snap"
    write_snapshot(path, manifest, frames)
    return path, manifest, frames


def test_snapshot_values_roundtrip_bit_exact(tmp_path):
    path, manifest, frames = _sample_snapshot(tmp_path)
    values = load_snapshot(path, build_grid(1, 64, "full-sphere"))
    assert read_snapshot(path)[0] == manifest
    assert np.array_equal(values, np.asarray(frames[-1]["values"]))


def test_read_snapshot_returns_all_frames(tmp_path):
    path, _, frames = _sample_snapshot(tmp_path)
    _, loaded = read_snapshot(path)
    assert loaded == frames


def test_snapshot_rejects_other_schema(tmp_path):
    path, _, _ = _sample_snapshot(tmp_path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] = "capflow-snapshot/2"
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatchError, match="capflow-snapshot/2"):
        read_snapshot(path)
    assert SCHEMA == "capflow-snapshot/1"


def test_snapshot_rejects_truncated_frame(tmp_path):
    path, _, _ = _sample_snapshot(tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) - 40])
    with pytest.raises(CorruptRecordError, match="truncated or unparseable"):
        read_snapshot(path)


def test_snapshot_rejects_header_only(tmp_path):
    path = tmp_path / "empty.snap"
    write_snapshot(path, {"grid": {}}, [])
    with pytest.raises(CorruptRecordError, match="no frames"):
        read_snapshot(path)


def test_snapshot_rejects_empty_file(tmp_path):
    path = tmp_path / "nothing.snap"
    path.write_text("")
    with pytest.raises(CorruptRecordError, match="empty"):
        read_snapshot(path)


def test_snapshot_rejects_missing_frame_field(tmp_path):
    path, _, frames = _sample_snapshot(tmp_path)
    bad = dict(frames[0])
    del bad["volume"]
    lines = path.read_text().splitlines()
    lines[1] = json.dumps(bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecordError, match="volume"):
        read_snapshot(path)


def test_load_snapshot_rejects_size_mismatch(tmp_path):
    path, _, _ = _sample_snapshot(tmp_path, values=np.ones(32))
    with pytest.raises(CorruptRecordError, match="32 values"):
        load_snapshot(path, build_grid(1, 64, "full-sphere"))


@pytest.mark.parametrize("frame_size", [2001, 65], ids=["own-grid", "run-grid"])
def test_snapshot_on_a_larger_grid_is_rejected_before_it_is_built(
    tmp_path, frame_size, monkeypatch
):
    # the restart must reject the snapshot from its manifest, whatever its
    # frame holds, and build nothing: no context (the matrix of the
    # 2001-node grid the manifest names is 32 MB) and no grid, whose arrays
    # are too small for the memory bound to see, so building one fails here
    manifest = {"grid": {"n": 1, "resolution": 2001, "topology": "hemisphere"}}
    path = tmp_path / "large.snap"
    write_snapshot(path, manifest, [frame_record(0.0, np.ones(frame_size), 0.0, 1.0)])
    grid = build_grid(1, 65, "hemisphere")

    def refuse(*args):
        raise AssertionError("the restart built a grid")

    monkeypatch.setattr(geometry, "_build_circle", refuse)
    monkeypatch.setattr(geometry, "_build_sphere2", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"hemisphere grid of {frame_size} nodes"):
            flow.initial_field(grid, f"snapshot:{path}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_csv_layout(tmp_path):
    path = tmp_path / "diag.csv"
    diag = [
        {
            "t": 0.0,
            "volume": 3.14,
            "sup_dev": 0.0,
            "max_bc_residual": 0.0,
            "picard_iters": 0,
            "dt": 1e-3,
        }
    ]
    write_csv(path, {"grid": {}}, diag)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "t,volume,sup_dev,max_bc_residual,picard_iters,dt"
    assert len(lines[2].split(",")) == 6
    assert lines[2].split(",")[1] == repr(3.14)


def test_csv_cells_follow_the_column_list(tmp_path, monkeypatch):
    from capflow import snapshots

    monkeypatch.setattr(snapshots, "CSV_COLUMNS", snapshots.CSV_COLUMNS[::-1])
    diag = {
        "t": 0.5,
        "volume": 3.25,
        "sup_dev": 0.125,
        "max_bc_residual": 1e-7,
        "picard_iters": 3,
        "dt": 1e-3,
    }
    path = tmp_path / "diag.csv"
    write_csv(path, {}, [diag])
    header, row = path.read_text().splitlines()[1:]
    assert header == ",".join(snapshots.CSV_COLUMNS)
    cells = dict(zip(header.split(","), row.split(","), strict=True))
    assert cells == {
        k: str(v) if k == "picard_iters" else repr(float(v)) for k, v in diag.items()
    }


# ----------------------------------------------------------------------
# command entry points
# ----------------------------------------------------------------------


def test_run_command_writes_outputs(tmp_path, capsys):
    path = _write_config(tmp_path, BASE_CONFIG)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert (tmp_path / "run.snap").exists()
    assert (tmp_path / "run.csv").exists()
    manifest, frames = read_snapshot(tmp_path / "run.snap")
    assert manifest["config"]["dt"] == 1e-3
    assert len(frames) == 4  # initial state plus three steps
    assert frames[-1]["time"] == pytest.approx(3e-3)


def test_run_command_is_byte_deterministic(tmp_path):
    first = _write_config(
        tmp_path, BASE_CONFIG + f"output = {tmp_path}/a\n", name="a.cfg"
    )
    second = _write_config(
        tmp_path, BASE_CONFIG + f"output = {tmp_path}/b\n", name="b.cfg"
    )
    assert main(["run", str(first)]) == 0
    assert main(["run", str(second)]) == 0
    assert filecmp.cmp(tmp_path / "a.snap", tmp_path / "b.snap", shallow=False)
    assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)


@pytest.mark.parametrize(
    "dt, extra, code",
    [
        ("4.0", "", 3),
        ("2.5e-3", "initial = constant:0.12\nrefresh_remainders = per-step\n", 4),
        ("1e-3", "initial = constant:0.12\nrefresh_remainders = per-step\n", 5),
    ],
)
def test_run_command_failure_exit_codes(tmp_path, capsys, dt, extra, code):
    text = (
        "s = 0.5\ntheta = 1.5707963267948966\nresolution = 64\n"
        f"topology = full-sphere\nhomotopy_order = 4\ndt = {dt}\n" + extra
    )
    path = _write_config(tmp_path, text)
    assert main(["run", str(path)]) == code
    assert (tmp_path / "run.snap").exists()


def test_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, BASE_CONFIG.replace("s = 0.5", "s = 1.2"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "s must lie in (0,1), got 1.2" in err


HEMI_CONFIG = {
    "s": "0.5",
    "theta": "1.0471975511965976",
    "dt": "1e-3",
    "t_end": "2e-3",
    "resolution": "33",
    "topology": "hemisphere",
    "homotopy_order": "2",
    "refresh_remainders": "per-step",
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_picard", "0"),
        ("picard_tol", "-1"),
        ("picard_tol", "nan"),
        ("bc_tol", "-1"),
        ("t_end", "inf"),
        ("t_end", "nan"),
        ("dt", "inf"),
        ("initial", "constant:nan"),
        ("initial", "height:nan"),
        ("initial", "constant:-1"),
        ("initial", "bogus:1"),
        ("initial", "cosine:x:1"),
        ("initial", "cosine:2"),
        ("initial", "height:0.1:2"),
        ("initial", "height:-1"),
        ("initial", "cosine:2:1.5"),
        ("hs_ref_mode", "half-ball"),
    ],
)
def test_malformed_config_value_exits_2_and_names_key(tmp_path, capsys, key, value):
    settings = {**HEMI_CONFIG, key: value}
    path = _write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert not (tmp_path / "run.snap").exists()


def test_failed_frame_zero_projection_keeps_restart_point(tmp_path, capsys):
    values = 1.0 + np.random.default_rng(9).uniform(-0.05, 0.05, 129)
    manifest = {"grid": {"n": 1, "resolution": 129, "topology": "hemisphere"}}
    write_snapshot(tmp_path / "seed.snap", manifest, [frame_record(0.0, values, 0.0, 1.0)])
    text = (
        "s = 0.5\ntheta = 2.0943951023931953\ndt = 1e-4\nresolution = 129\n"
        f"topology = hemisphere\nhomotopy_order = 2\ninitial = snapshot:{tmp_path}/seed.snap\n"
    )
    path = _write_config(tmp_path, text)
    assert main(["run", str(path)]) == 3
    assert "nonconvergence (contact-angle" in capsys.readouterr().out
    _, frames = read_snapshot(tmp_path / "run.snap")
    assert len(frames) == 1
    assert frames[0]["time"] == 0.0
    assert np.array_equal(frames[0]["values"], values)
    grid = build_grid(1, 129, "hemisphere")
    measured = np.abs(bc_residual(RadialField(grid, values), 2.0943951023931953)).max()
    assert frames[0]["bc_residual"] == measured > 1e-6
    rows = (tmp_path / "run.csv").read_text().splitlines()
    assert len(rows) == 3  # manifest, column names, frame 0


@pytest.mark.parametrize(
    "snap_grid, run_grid",
    [
        # the same node count on a surface of another dimension
        ((1, 161, "hemisphere"), (2, 9, "hemisphere")),
        ((1, 65, "hemisphere"), (1, 33, "hemisphere")),
    ],
)
def test_snapshot_restart_on_other_grid_is_config_error(tmp_path, capsys, snap_grid, run_grid):
    old, new = build_grid(*snap_grid), build_grid(*run_grid)
    manifest = {"grid": dict(zip(("n", "resolution", "topology"), snap_grid))}
    values = 1.0 + 0.01 * old.nodes[:, -1]
    write_snapshot(tmp_path / "seed.snap", manifest, [frame_record(0.0, values, 0.0, 1.0)])
    settings = {
        **HEMI_CONFIG,
        "n": str(run_grid[0]),
        "resolution": str(run_grid[1]),
        "initial": f"snapshot:{tmp_path}/seed.snap",
    }
    path = _write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial: snapshot")
    assert f"n = {snap_grid[0]} hemisphere grid of {old.size} nodes" in err
    assert f"n = {run_grid[0]} hemisphere with {new.size} nodes" in err
    assert not (tmp_path / "run.snap").exists()


def test_validate_unknown_suite_exit_code(capsys):
    assert main(["validate", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite 'nope'" in err
    for name in ("bc", "identities", "m1-identity", "scaling", "shrinking-circle"):
        assert name in err


@pytest.mark.parametrize("resolution", [3, 0, -5])
def test_validate_resolution_below_minimum_is_config_error(capsys, resolution):
    assert main(["validate", "bc", "--resolution", str(resolution)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: resolution must be at least {MIN_RESOLUTION}, "
        f"got {resolution}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("resolution", [8, 15])
def test_validate_identities_below_its_minimum_is_config_error(capsys, resolution):
    # the suite's refinement rows build a grid at half the resolution
    least = SUITES["identities"].min_resolution
    assert least == 2 * MIN_RESOLUTION == 16
    assert main(["validate", "identities", "--resolution", str(resolution)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: resolution must be at least {least}, got {resolution}\n"
    )
    assert captured.out == ""


def _snapshot_with_frame_line(tmp_path, line):
    """A snapshot on the BASE_CONFIG grid whose last frame line is `line`."""
    manifest = {"grid": {"n": 1, "resolution": 64, "topology": "full-sphere"}}
    path = tmp_path / "seed.snap"
    write_snapshot(path, manifest, [frame_record(0.0, np.ones(64), 0.0, 1.0)])
    path.write_text(path.read_text() + line + "\n")
    return path


@pytest.mark.parametrize("line", ["null", "7", "[1, 2]", '"values"'])
def test_inspect_rejects_frame_that_is_not_an_object(tmp_path, capsys, line):
    path = _snapshot_with_frame_line(tmp_path, line)
    assert main(["inspect", str(path)]) == 6
    assert capsys.readouterr().err == (
        f"snapshot error: {path}:3: frame is not a JSON object\n"
    )


def test_inspect_rejects_header_without_manifest_object(tmp_path, capsys):
    path = tmp_path / "seed.snap"
    write_snapshot(path, None, [frame_record(0.0, np.ones(64), 0.0, 1.0)])
    assert main(["inspect", str(path)]) == 6
    assert "header lacks a manifest" in capsys.readouterr().err


def test_restart_from_frame_that_is_not_an_object_exits_6(tmp_path, capsys):
    seed = _snapshot_with_frame_line(tmp_path, "null")
    path = _write_config(tmp_path, BASE_CONFIG + f"initial = snapshot:{seed}\n")
    assert main(["run", str(path)]) == 6
    assert "frame is not a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "run.snap").exists()


def _frame_line(**changes):
    """A JSON frame line on the BASE_CONFIG grid with some fields replaced."""
    frame = frame_record(1e-3, np.ones(64), 0.0, 1.0)
    frame.update(changes)
    return json.dumps(frame)


@pytest.mark.parametrize(
    "changes, fragment",
    [
        ({"min_rho": "x"}, "frame fields ['min_rho'] are not numbers"),
        ({"time": None, "volume": True}, "frame fields ['time', 'volume'] are not numbers"),
        ({"bc_residual": [0.0]}, "frame fields ['bc_residual'] are not numbers"),
        ({"values": ["1.0"] * 64}, "frame values are not a list of numbers"),
        ({"values": 1.0}, "frame values are not a list of numbers"),
        ({"values": {"0": 1.0}}, "frame values are not a list of numbers"),
    ],
)
def test_inspect_rejects_frame_fields_that_are_not_numbers(
    tmp_path, capsys, changes, fragment
):
    path = _snapshot_with_frame_line(tmp_path, _frame_line(**changes))
    assert main(["inspect", str(path)]) == 6
    assert capsys.readouterr().err == f"snapshot error: {path}:3: {fragment}\n"


def test_restart_from_values_written_as_strings_exits_6(tmp_path, capsys):
    line = _frame_line(values=[repr(v) for v in 1.0 + 0.01 * np.arange(64)])
    seed = _snapshot_with_frame_line(tmp_path, line)
    path = _write_config(tmp_path, BASE_CONFIG + f"initial = snapshot:{seed}\n")
    assert main(["run", str(path)]) == 6
    assert "frame values are not a list of numbers" in capsys.readouterr().err
    assert not (tmp_path / "run.snap").exists()


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
@pytest.mark.parametrize(
    "field, fragment",
    [
        ("values", "frame values are not a list of numbers"),
        ("volume", "frame fields ['volume'] are not numbers"),
    ],
    ids=["values", "volume"],
)
def test_inspect_rejects_frame_numbers_that_are_not_finite(
    tmp_path, capsys, bad, field, fragment
):
    value = [1.0] * 63 + [bad] if field == "values" else bad
    path = _snapshot_with_frame_line(tmp_path, _frame_line(**{field: value}))
    assert main(["inspect", str(path)]) == 6
    assert capsys.readouterr().err == f"snapshot error: {path}:3: {fragment}\n"


def test_restart_from_non_finite_values_exits_6(tmp_path, capsys):
    seed = _snapshot_with_frame_line(tmp_path, _frame_line(values=[math.nan] * 64))
    path = _write_config(tmp_path, BASE_CONFIG + f"initial = snapshot:{seed}\n")
    assert main(["run", str(path)]) == 6
    assert "frame values are not a list of numbers" in capsys.readouterr().err
    assert not (tmp_path / "run.snap").exists()


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_restart_from_a_field_that_is_not_positive_is_config_error(
    tmp_path, capsys, bad
):
    values = [1.0] * 63 + [bad]
    seed = _snapshot_with_frame_line(tmp_path, _frame_line(values=values))
    path = _write_config(tmp_path, BASE_CONFIG + f"initial = snapshot:{seed}\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: initial: snapshot {seed} ends in a field")
    assert "not strictly positive" in err
    assert not (tmp_path / "run.snap").exists()


def test_inspect_accepts_integer_frame_fields(tmp_path, capsys):
    path = _snapshot_with_frame_line(
        tmp_path, _frame_line(time=1, values=[1] * 64, min_rho=1, volume=3)
    )
    assert main(["inspect", str(path)]) == 0
    assert "min 1, volume 3" in capsys.readouterr().out


def test_inspect_summarizes_snapshot(tmp_path, capsys):
    path = _write_config(tmp_path, BASE_CONFIG)
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "run.snap")]) == 0
    out = capsys.readouterr().out
    assert "frames: 4" in out
    assert "time span: 0 .. 0.003" in out
    assert "64 nodes" in out


def test_inspect_missing_file_exit_code(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "absent.snap")]) == 6
    assert "snapshot error" in capsys.readouterr().err


def test_restart_from_snapshot_continues_field(tmp_path):
    path = _write_config(tmp_path, BASE_CONFIG)
    assert main(["run", str(path)]) == 0
    restart = _write_config(
        tmp_path,
        BASE_CONFIG + f"initial = snapshot:{tmp_path}/run.snap\n",
        name="restart.cfg",
    )
    assert main(["run", str(restart)]) == 0
    _, first_frames = read_snapshot(tmp_path / "run.snap")
    _, second_frames = read_snapshot(tmp_path / "restart.snap")
    assert second_frames[0]["values"] == first_frames[-1]["values"]


def test_restart_continues_a_run_bitwise(tmp_path):
    # ten steps in one run, and five steps then five more from its snapshot
    base = (
        f"s = 0.5\ntheta = {math.pi / 3!r}\ndt = 2e-4\nresolution = 65\n"
        "topology = hemisphere\ninitial = height:0.05\nhomotopy_order = 4\n"
    )
    whole = _write_config(tmp_path, base + "t_end = 2e-3\n", name="whole.cfg")
    first = _write_config(tmp_path, base + "t_end = 1e-3\n", name="first.cfg")
    second = _write_config(
        tmp_path,
        base.replace("height:0.05", f"snapshot:{tmp_path}/first.snap")
        + "t_end = 1e-3\n",
        name="second.cfg",
    )
    for path in (whole, first, second):
        assert main(["run", str(path)]) == 0
    _, whole_frames = read_snapshot(tmp_path / "whole.snap")
    _, first_frames = read_snapshot(tmp_path / "first.snap")
    _, second_frames = read_snapshot(tmp_path / "second.snap")
    assert len(whole_frames) == 11
    assert len(first_frames) == len(second_frames) == 6
    assert second_frames[-1]["values"] == whole_frames[-1]["values"]


def test_validate_rerun_prints_identical_table(capsys):
    tables = []
    for _ in range(2):
        assert main(["validate", "m1-identity", "--resolution", "64"]) == 0
        tables.append(capsys.readouterr().out)
    assert "checks passed" in tables[0]
    assert tables[0] == tables[1]


def test_validate_prints_each_tolerance_as_its_gate(monkeypatch, capsys):
    gates = [0.75, 1.0 + 1e-12, 1e-6, 0.0]
    rows = [
        CheckResult(f"gate {k}", 0.5 * gate, gate, True, "stub")
        for k, gate in enumerate(gates)
    ]
    monkeypatch.setitem(SUITES, "stub", Suite(lambda: rows))
    assert main(["validate", "stub"]) == 0
    printed = re.findall(r"tolerance +(\S+)", capsys.readouterr().out)
    assert [float(text) for text in printed] == gates


def test_every_run_status_has_an_exit_code():
    statuses = set(flow._STOP_STATUS.values()) | {"completed"}
    assert statuses == set(cli._STATUS_CODES)


def test_main_freezes_the_heap_only_at_exit(tmp_path, monkeypatch, capsys):
    # the shutdown freeze is registered once per process, however often
    # main runs, and never freezes the caller's heap during a call
    # (CPython's own atexit count keeps the slots of removed entries)
    entries = []

    class Registry:
        register = staticmethod(entries.append)

        @staticmethod
        def unregister(func):
            entries[:] = [f for f in entries if f != func]

    monkeypatch.setattr(cli, "atexit", Registry)
    path = _write_config(tmp_path, BASE_CONFIG)
    for _ in range(2):
        assert main(["run", str(path)]) == 0
        assert gc.get_freeze_count() == 0
    assert entries == [gc.freeze]
