"""One benchmark repeat: the capflow command line in a fresh interpreter.

Usage:
    python3 perfbench/launch.py probe <out.json> -- <capflow arguments>
    python3 perfbench/launch.py trace <out.json> -- <capflow arguments>
    python3 perfbench/launch.py env <out.json>

It imports `capflow.cli` from the checkout's `src/` and calls `main` with
the given arguments, as the `capflow` console script does, then exits
with the code `main` returned.

`probe` records only the clock reading at the first entry of
`flow.step` (run) or `validation.run_suite` (validate), which ends the
set-up phase.  `trace` wraps every public function of the capflow
modules, at every place the name is looked up, and keeps one span per
call (name, start, end, parent) in memory.  Both write what they recorded
to <out.json> when `main` returns.  `env` writes the interpreter and
library versions and the BLAS build instead.

Times are `time.perf_counter()` readings.  On Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the parent can subtract its
own reading taken just before it started this process.
"""

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULES = ("cli", "flow", "nonlocal_ops", "geometry", "diagnostics", "snapshots", "validation")

# Names bound from outside capflow that are still layers of their own;
# the span is named after the capflow module that calls them.
FOREIGN = {("flow", "lu_factor"), ("flow", "lu_solve")}

# Where the set-up phase ends: (module that looks the name up, name).
SETUP_END = (("flow", "step"), ("cli", "run_suite"))


def _import_capflow():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return {m: importlib.import_module("capflow." + m) for m in MODULES}


def _span_name(modname, name, obj):
    if not inspect.isfunction(obj) or name.startswith("_"):
        return None
    owner = getattr(obj, "__module__", "") or ""
    if owner.startswith("capflow."):
        return owner.split(".", 1)[1] + "." + obj.__name__
    if (modname, name) in FOREIGN:
        return modname + "." + name
    return None


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrappers = {}

    def wrap(self, fn, name):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        self._wrappers[key] = traced
        return traced

    def install(self, modules):
        """Replace each public function at every module-level lookup site.

        Module globals and module-level dicts (such as the suite table in
        `validation`) are both lookup sites.
        """
        for modname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                span = _span_name(modname, name, obj)
                if span is not None:
                    setattr(mod, name, self.wrap(obj, span))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        span = _span_name(modname, str(key), val)
                        if span is not None:
                            obj[key] = self.wrap(val, span)


def _install_probe(modules, mark):
    for modname, name in SETUP_END:
        mod = modules[modname]
        fn = getattr(mod, name)

        @functools.wraps(fn)
        def first_entry(*args, _fn=fn, **kwargs):
            if not mark:
                mark.append(perf_counter())
            return _fn(*args, **kwargs)

        setattr(mod, name, first_entry)


def _env():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv):
    mode, out_path = argv[0], argv[1]
    if mode == "env":
        _import_capflow()
        with open(out_path, "w") as fh:
            json.dump(_env(), fh)
        return 0
    if argv[2] != "--":
        raise SystemExit("usage: launch.py probe|trace <out.json> -- <capflow args>")
    modules = _import_capflow()
    record = {}
    try:
        if mode == "trace":
            tracer = Tracer()
            tracer.install(modules)
            code = modules["cli"].main(argv[3:])
            record["spans"] = tracer.spans
        else:
            mark = []
            _install_probe(modules, mark)
            code = modules["cli"].main(argv[3:])
            record["setup_end"] = mark[0] if mark else None
    finally:
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
