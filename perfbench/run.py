"""capflow benchmark: fixed workloads through the command line, one fresh
interpreter per repeat.

    python3 perfbench/run.py --workload capillary-curve --seed 1 --seconds 40 --trace 0

Each repeat starts `perfbench/launch.py`, which runs `capflow run <config>`
or `capflow validate ...` exactly as the console script does.  Repeats
continue until the next one would pass `--seconds` (at least MIN_ROUNDS).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics (medians over repeats).
`--trace 1` alternates untraced and traced repeats and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

The seed does not change the computation: it picks the order of the
config keys, the comment lines and the file names the program is given,
none of which may change its output.  Why each workload exists and which
metric each layer should move are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

MIN_ROUNDS = 3
# A run must end within 180 s; a child still running at this point of the
# run is killed.
RUN_LIMIT_S = 170.0

# The final rho must match the stored reference to this absolute
# tolerance.  Reordering a sum moves it by ~1e-13 (3e-14 measured for a
# fused remainder kernel).  Other homotopy orders move it by at most
# 2e-10, since the remainder quadrature has converged; that is why the
# workload configs below pin the order with every other key.  Changes of
# discretisation move it by far more than the tolerance: per-step instead
# of per-iterate remainders by 4e-6, halving dt by 2.4e-3
# (capillary-curve).
RHO_TOL = 1e-9

# Later repeats whose median set-up takes less than this share of the
# first repeat's mean state survived between processes, which would skip
# import, grid, matrix and LU.  On a shared host one repeat's set-up can
# take twice its neighbours', so a single repeat is not compared.
SETUP_COLLAPSE = 0.25

# Every FlowConfig key is written into the config file, so a change of a
# default cannot change what a workload computes.
CAPILLARY_CURVE = {
    "s": 0.5,
    "n": 1,
    "theta": 1.0471975511965976,
    "dt": 2e-4,
    "t_end": 2e-3,
    "resolution": 129,
    "topology": "hemisphere",
    "hs_ref_mode": "full-sphere",
    "initial": "height:0.05",
    "save_every": 1,
    "homotopy_order": 8,
    "refresh_remainders": "per-iterate",
    "picard_tol": 1e-9,
    "max_picard": 20,
    "bc_tol": 1e-6,
}

CAPILLARY_SURFACE = {
    **CAPILLARY_CURVE,
    "n": 2,
    "resolution": 13,
    "homotopy_order": 4,
    "refresh_remainders": "per-step",
}

FLOW_SPANS = (
    "flow.step",
    "flow.apply_bc",
    "flow.bc_residual",
    "flow.lu_factor",
    "flow.lu_solve",
    "nonlocal_ops.remainder_R1",
    "nonlocal_ops.remainder_R2",
    "nonlocal_ops.injectivity_ratio",
    "nonlocal_ops.frac_laplacian_matrix",
    "nonlocal_ops.hs_reference",
    "geometry.build_grid",
    "geometry.double_grid",
    "geometry.gradient_values",
    "diagnostics.volume",
    "snapshots.write_snapshot",
    "snapshots.write_csv",
)

ORACLE_SPANS = (
    "validation.run_suite",
    "nonlocal_ops.parametrized_Hs",
    "nonlocal_ops.frac_laplacian",
    "nonlocal_ops.homotopy_derivative",
    "nonlocal_ops.remainder_R1",
    "nonlocal_ops.remainder_R2",
    "nonlocal_ops.injectivity_ratio",
    "nonlocal_ops.hs_reference",
    "geometry.build_grid",
    "geometry.gradient_values",
)

# Spans whose call counts must repeat exactly between traced repeats.
COUNTED_SPANS = (
    "flow.step",
    "nonlocal_ops.remainder_R1",
    "nonlocal_ops.remainder_R2",
    "flow.apply_bc",
    "geometry.gradient_values",
    "flow.lu_factor",
    "flow.lu_solve",
    "nonlocal_ops.parametrized_Hs",
    "nonlocal_ops.homotopy_derivative",
)

WORKLOADS = {
    "capillary-curve": {"kind": "run", "config": CAPILLARY_CURVE, "spans": FLOW_SPANS},
    "capillary-surface": {"kind": "run", "config": CAPILLARY_SURFACE, "spans": FLOW_SPANS},
    "m1-identity": {
        "kind": "validate",
        "args": ("m1-identity", "--resolution", "257"),
        "spans": ORACLE_SPANS,
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "step_ms": "ms", "peak_rss_mb": "MB"}

# (span, fields): calls, s (inclusive time) or self_s (minus child spans).
SPAN_METRICS = [
    ("nonlocal_ops.remainder_R1", ("calls", "self_s")),
    ("nonlocal_ops.remainder_R2", ("calls", "self_s")),
    ("flow.apply_bc", ("calls", "self_s")),
    ("geometry.gradient_values", ("calls", "self_s")),
    ("flow.bc_residual", ("self_s",)),
    ("flow.lu_factor", ("calls", "s")),
    ("flow.lu_solve", ("calls", "s")),
    ("nonlocal_ops.frac_laplacian_matrix", ("s",)),
    ("nonlocal_ops.hs_reference", ("s",)),
    ("geometry.build_grid", ("s",)),
    ("geometry.double_grid", ("s",)),
    ("flow.step", ("calls", "self_s")),
    ("nonlocal_ops.injectivity_ratio", ("calls", "s")),
    ("diagnostics.volume", ("s",)),
    ("nonlocal_ops.frac_laplacian", ("calls", "self_s")),
    ("nonlocal_ops.homotopy_derivative", ("calls", "self_s")),
    ("nonlocal_ops.parametrized_Hs", ("calls", "self_s")),
    ("validation.run_suite", ("s",)),
    ("snapshots.write_snapshot", ("s",)),
    ("snapshots.write_csv", ("s",)),
]

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


class CheckFailed(Exception):
    """An output or determinism check failed; the run is not correct."""


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def make_inputs(workload, seed, rundir):
    """The capflow arguments for this seed; writes the config file if any."""
    rng = random.Random(seed)
    spec = WORKLOADS[workload]
    if spec["kind"] == "validate":
        suite, flag, value = spec["args"]
        return ["validate", suite, flag, value] if rng.random() < 0.5 else ["validate", flag, value, suite]
    keys = list(spec["config"])
    rng.shuffle(keys)
    lines = [f"# {workload}, seed {seed}"]
    for key in keys:
        if rng.random() < 0.3:
            lines.append("")
        lines.append(f"{key} = {spec['config'][key]}")
    path = os.path.join(rundir, f"{workload}-{rng.randrange(16**6):06x}.conf")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return ["run", path]


# ----------------------------------------------------------------------
# one repeat
# ----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, log_path, deadline):
    """Run the launcher; return (exit code, wall seconds, max RSS in MB, spawn time).

    os.wait4 gives the child's own resource usage, so the peak RSS is that
    of this one process.  A child still running at `deadline` is killed.
    """
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, LAUNCH, *args], stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, t0


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    manifest = json.loads(lines[0].split(":", 1)[1])
    cols = lines[1].split(",")
    rows = [dict(zip(cols, map(float, line.split(",")))) for line in lines[2:]]
    return manifest, rows


def dt_halvings(cfg, rows):
    """Halvings implied by the CSV dt column, given the configured dt and t_end."""
    total = 0
    for prev, row in zip(rows, rows[1:]):
        planned = min(cfg["dt"], cfg["t_end"] - prev["t"])
        total += round(math.log2(planned / row["dt"]))
    return total


def repeat_once(workload, capflow_args, rundir, index, traced, deadline):
    mode = "trace" if traced else "probe"
    rec_path = os.path.join(rundir, f"rec-{index}.json")
    log_path = os.path.join(rundir, f"log-{index}.txt")
    code, wall, rss, t0 = spawn([mode, rec_path, "--", *capflow_args], log_path, deadline)
    with open(log_path) as fh:
        out = {"code": code, "wall": wall, "rss": rss, "traced": traced, "stdout": fh.read()}
    try:
        _parse_outputs(workload, capflow_args, rec_path, t0, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        if code == 0:
            raise CheckFailed(f"{workload}: unreadable output: {exc!r}") from exc
        return out
    if code != 0 and WORKLOADS[workload]["kind"] == "run":
        out["ops"] += 1  # the step that ended the run
        out["failed"] += 1
    return out


def _parse_outputs(workload, capflow_args, rec_path, t0, out):
    with open(rec_path) as fh:
        rec = json.load(fh)
    if out["traced"]:
        out["spans"] = rec["spans"]
        starts = [s[1] for s in rec["spans"] if s[0] in ("flow.step", "validation.run_suite")]
        setup_end = min(starts) if starts else None
    else:
        setup_end = rec["setup_end"]
    out["setup"] = None if setup_end is None else setup_end - t0
    if WORKLOADS[workload]["kind"] == "run":
        base = os.path.splitext(capflow_args[1])[0]
        snap, csv = base + ".snap", base + ".csv"
        manifest, rows = read_csv(csv)
        cfg = WORKLOADS[workload]["config"]
        steps = rows[1:]
        with open(snap) as fh:
            final = json.loads(fh.read().splitlines()[-1])["values"]
        out.update(
            ops=len(steps),
            failed=sum(r["max_bc_residual"] > cfg["bc_tol"] for r in steps),
            final=final,
            config=manifest["config"],
            hashes=(sha256(snap), sha256(csv)),
            counts={
                "steps": len(steps),
                "picard_iters": int(sum(r["picard_iters"] for r in steps)),
                "dt_halvings": dt_halvings(cfg, rows),
                "bytes": os.path.getsize(snap) + os.path.getsize(csv),
            },
        )
        for p in (snap, csv):
            os.remove(p)
    else:
        table = [ln for ln in out["stdout"].splitlines() if ln.startswith(("PASS", "FAIL"))]
        out.update(
            ops=len(table),
            failed=sum(ln.startswith("FAIL") for ln in table),
            hashes=(hashlib.sha256(out["stdout"].encode()).hexdigest(),),
            counts={"checks": len(table), "failed": sum(ln.startswith("FAIL") for ln in table)},
        )
    if out["traced"]:
        out["counts"].update(
            {f"{name}.calls": sum(s[0] == name for s in out["spans"]) for name in COUNTED_SPANS}
        )


# ----------------------------------------------------------------------
# span aggregation
# ----------------------------------------------------------------------


def aggregate(spans):
    """{name: {"calls", "s", "self_s"}} with self time = duration minus children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = {}
    for i, (name, start, end, parent) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += end - start - child[i]
    return agg


def shares(workload, spans):
    """Remainder and boundary time as shares of the operation spans' time.

    The operation spans are the flow.step calls (run) or the
    validation.run_suite call (validate); a share sums the inclusive time
    of the group's spans that run inside them.
    """
    top = "flow.step" if WORKLOADS[workload]["kind"] == "run" else "validation.run_suite"
    groups = {"remainders": ("nonlocal_ops.remainder_R1", "nonlocal_ops.remainder_R2"), "apply_bc": ("flow.apply_bc",)}
    total = dict.fromkeys(groups, 0.0)
    op_time = 0.0
    inside = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        inside[i] = outer or name == top
        if name == top and not outer:
            op_time += end - start
        for g, names in groups.items():
            if name in names and outer:
                total[g] += end - start
    return {g: (t / op_time if op_time else 0.0) for g, t in total.items()}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)["final_rho"]


def check(workload, reps):
    """Raise CheckFailed unless every repeat's output is correct and identical."""
    spec = WORKLOADS[workload]
    for r in reps:
        if r["code"] != 0:
            raise CheckFailed(f"{workload}: capflow exited with {r['code']}:\n{r['stdout'][-2000:]}")
    first = reps[0]
    counts = {}
    for r in reps:
        if r["setup"] is None:
            raise CheckFailed(f"{workload}: set-up never ended (no flow.step or validation.run_suite entry)")
        if r["hashes"] != first["hashes"]:
            raise CheckFailed(f"{workload}: outputs differ between repeats (sha256)")
        for k, v in r["counts"].items():
            if counts.setdefault(k, v) != v:
                raise CheckFailed(f"{workload}: {k} differs between repeats: {counts[k]} and {v}")
    later = statistics.median(r["setup"] for r in reps[1:])
    if later < SETUP_COLLAPSE * first["setup"]:
        raise CheckFailed(
            f"{workload}: set-up fell from {first['setup']:.3f} s to a median of {later:.3f} s in later fresh processes"
        )
    traced = [r for r in reps if r["traced"]]
    for r in traced:
        names = {s[0] for s in r["spans"]}
        missing = [n for n in spec["spans"] if n not in names]
        if missing:
            raise CheckFailed(f"{workload}: expected spans recorded no calls: {missing}")
    if spec["kind"] == "run":
        if first["config"] != spec["config"]:
            raise CheckFailed(f"{workload}: capflow ran with {first['config']}, not {spec['config']}")
        ref = load_reference(workload)
        final = first["final"]
        if len(final) != len(ref):
            raise CheckFailed(f"{workload}: final rho has {len(final)} nodes, reference {len(ref)}")
        err = max(abs(a - b) for a, b in zip(final, ref))
        if not err <= RHO_TOL:
            raise CheckFailed(f"{workload}: final rho differs from the reference by {err:.3g} > {RHO_TOL:g}")
    elif first["counts"]["failed"]:
        raise CheckFailed(f"{workload}: {first['counts']['failed']} suite rows FAIL:\n{first['stdout']}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(reps):
    plain = [r for r in reps if not r["traced"]]
    values = {
        "wall_s": [r["wall"] for r in plain],
        "setup_s": [r["setup"] for r in plain],
        "step_ms": [1000.0 * (r["wall"] - r["setup"]) / r["ops"] for r in plain],
        "peak_rss_mb": [r["rss"] for r in plain],
    }
    return {k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(workload, reps):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    aggs = [aggregate(r["spans"]) for r in traced]
    metrics = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            vals = [a.get(span, {}).get(f, 0) for a in aggs]
            metrics[f"{span}.{f}"] = {"value": statistics.median(vals), "unit": UNITS[f]}
    counts = traced[0]["counts"]
    iters = counts.get("picard_iters", 0)
    metrics["nonlocal_ops.remainder.refresh_per_iterate"] = {
        "value": counts["nonlocal_ops.remainder_R1.calls"] / iters if iters else 0.0,
        "unit": "ratio",
    }
    metrics["flow.picard_iters"] = {"value": iters, "unit": "count"}
    metrics["flow.dt_halvings"] = {"value": counts.get("dt_halvings", 0), "unit": "count"}
    metrics["validation.checks"] = {"value": counts.get("checks", 0), "unit": "count"}
    metrics["validation.failed"] = {"value": counts.get("failed", 0), "unit": "count"}
    metrics["snapshots.bytes"] = {"value": counts.get("bytes", 0), "unit": "B"}
    share = [shares(workload, r["spans"]) for r in traced]
    metrics["share.remainders"] = {"value": statistics.median(s["remainders"] for s in share), "unit": "ratio"}
    metrics["share.apply_bc"] = {"value": statistics.median(s["apply_bc"] for s in share), "unit": "ratio"}
    # Each round runs an untraced repeat and then a traced one; pairing
    # them keeps slow drift of the machine out of the difference.
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t["wall"] - p["wall"] for p, t in zip(plain, traced)),
        "unit": "s",
    }
    return metrics


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def source_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "capflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(rundir, deadline):
    """Versions and BLAS build from a child interpreter (also warms imports)."""
    path = os.path.join(rundir, "env.json")
    code, _, _, _ = spawn(["env", path], os.path.join(rundir, "env.txt"), deadline)
    if code != 0:
        with open(os.path.join(rundir, "env.txt")) as fh:
            raise CheckFailed("cannot import capflow:\n" + fh.read()[-2000:])
    with open(path) as fh:
        env = json.load(fh)
    env.update(
        git_sha=source_revision(),
        source_sha256=source_digest(),
        nproc=len(os.sched_getaffinity(0)),
        blas_threads=int(child_env()["OPENBLAS_NUM_THREADS"]),
    )
    return env


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def measure(workload, seed, seconds, trace, rundir, reps, deadline):
    """Append repeats to reps until another round would pass `seconds`."""
    capflow_args = make_inputs(workload, seed, rundir)
    modes = (False, True) if trace else (False,)
    start = perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            reps.append(repeat_once(workload, capflow_args, rundir, len(reps), traced, deadline))
            if reps[-1]["code"] != 0:
                return
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv=None):
    deadline = perf_counter() + RUN_LIMIT_S
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "capflow", "cli.py")):
        print(f"capflow sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    rundir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    reps = []
    try:
        print(json.dumps({"env": environment(rundir, deadline)}))
        try:
            measure(args.workload, args.seed, args.seconds, args.trace, rundir, reps, deadline)
            check(args.workload, reps)
            correct = True
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    for i, r in enumerate(reps):
        line = {"repeat": i, "traced": r["traced"], "code": r["code"], "wall_s": r["wall"]}
        line.update({k: r[k] for k in ("setup", "rss", "ops", "failed") if k in r})
        print(json.dumps(line))
    plain = [r for r in reps if not r["traced"]]
    result = {
        "correct": correct,
        "attempted": max(1, sum(r.get("ops", 1) for r in plain)),
        "failed": sum(r.get("failed", 1) for r in plain) if plain else 1,
        "metrics": {},
    }
    if correct:
        result["metrics"] = per_layer(args.workload, reps) if args.trace else end_to_end(reps)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
