"""Benchmark of the landau-hf pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_k9n3 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else.
With ``--trace 0`` a run sets up several times and makes timed passes
until ``--seconds`` have passed.  It reports the median set-up time and the
lower quartile of the run times, each scaled by the machine's speed around
it (see calibration.py).
With ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics; the two passes must give bit-identical outputs.
Outputs are checked after the timed region.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import calibration
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-ups per run of a workload that sets up outside its timed passes.
SETUP_REPEATS = 12
# Fewest timed passes per run, also when the passes outlast --seconds.
MIN_PASSES = 8

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"),
              ("peak_rss_mb", "MB"))


class ProgramMissing(Exception):
    pass


def load_program(root: Path = ROOT):
    """Import landau_hf from root/src, refusing a copy found anywhere else."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import landau_hf
    except ImportError as exc:
        raise ProgramMissing(f"cannot import landau_hf from {src}: {exc}") from exc
    found = Path(landau_hf.__file__).resolve()
    if not found.is_relative_to(src):
        raise ProgramMissing(f"landau_hf imported from {found}, not from {src}")
    return landau_hf


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(threads: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_threads": blas_threads(),
            "threads": threads}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(wl, seed: int, threads: int):
    """One pass of a tiny instance: lazy imports and first-call costs."""
    small = wl.small()
    inputs = small.inputs(seed, str(OUT_DIR / "warmup"))
    state = small.setup(inputs, threads)
    small.check(inputs, state, small.collect(inputs, small.run(inputs, state, threads)))
    calibration.calibration_time(wl.calibration)


def one_pass(wl, inputs: dict, threads: int):
    """Set up and run once: (state, raw output)."""
    state = wl.setup(inputs, threads)
    return state, wl.run(inputs, state, threads)


def timed(kinds, fn, *args):
    """Call fn(*args) between two calibrations of the given kinds, under
    boundary timers on the set-up calls.

    Returns the result, the wall time of the call, the part of it spent in
    set-up calls, and the mean calibration time around the call.
    """
    before = calibration.calibration_time(kinds)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.SETUP_TARGETS):
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
    cal = (before + calibration.calibration_time(kinds)) / 2
    return result, wall, tracer.total(tracing.SETUP_LAYERS), cal


def measure(wl, inputs: dict, seconds: float, threads: int):
    """(time, calibration) of each set-up and run, for ``seconds``.

    A workload that sets up on its own sets up SETUP_REPEATS times first.
    ``compare_k9n3`` sets up inside the CLI, so each of its passes sets up,
    and the set-up calls' boundary timers split the pass in two.  Also
    returns the fingerprint of each pass's outputs, the last pass's outputs
    and the last set-up's state.
    """
    setups, runs, prints = [], [], []
    state = None
    begin = perf_counter()
    if not wl.setup_in_run:
        for _ in range(SETUP_REPEATS):
            state = None                    # free the last set-up before the next
            state, wall, _, cal = timed(wl.calibration, wl.setup, inputs, threads)
            setups.append((wall, cal))
    while len(runs) < MIN_PASSES or perf_counter() - begin < seconds:
        raw, wall, setup, cal = timed(wl.calibration, wl.run, inputs, state, threads)
        if wl.setup_in_run:
            setups.append((setup, cal))
        runs.append((wall - setup, cal))
        out = wl.collect(inputs, raw)
        prints.append(wl.fingerprint(out))
    return state, setups, runs, prints, out


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_untraced(wl, inputs: dict, seconds: float, threads: int):
    state, setups, runs, prints, out = measure(wl, inputs, seconds, threads)
    rss = peak_rss_mb()
    checks = wl.check(inputs, state, out)
    same = prints.count(prints[0])
    checks.append(("passes_identical", same == len(prints), [same, len(prints)]))
    setup_s = statistics.median([calibration.scaled(*x, wl.calibration) for x in setups])
    run_s = lower_quartile([calibration.scaled(*x, wl.calibration) for x in runs])
    values = {"wall_s": setup_s + run_s, "setup_s": setup_s, "run_s": run_s,
              "peak_rss_mb": rss}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"setup_s_raw": statistics.median([t for t, _ in setups]),
              "run_s_raw": lower_quartile([t for t, _ in runs]),
              "setup_times_and_calibrations": setups,
              "run_times_and_calibrations": runs}
    return checks, metrics, detail


def run_traced(wl, inputs: dict, threads: int, spans_path: Path, meta: dict):
    """Untraced passes, then a traced one whose outputs must be identical.

    The first full-size pass pays one-off costs, so the tracing overhead is
    taken against the second.
    """
    for _ in range(2):
        state = raw = None
        t0 = perf_counter()
        state, raw = one_pass(wl, inputs, threads)
        untraced_wall = perf_counter() - t0
    untraced = wl.collect(inputs, raw)
    checks = wl.check(inputs, state, untraced)
    state = raw = None

    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.LAYER_TARGETS):
        t0 = perf_counter()
        _, raw = tracer.run(tracing.ROOT_SPAN, one_pass, wl, inputs, threads)
        traced_wall = perf_counter() - t0
    traced = wl.collect(inputs, raw)
    checks.append(("traced_bit_identical",
                   wl.fingerprint(traced) == wl.fingerprint(untraced), None))

    metrics = tracing.layer_metrics(tracer, traced_wall, traced_wall / untraced_wall - 1.0)
    tracer.write(str(spans_path), meta)
    return checks, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    threads = os.cpu_count() or 1
    info = machine(threads)
    print(json.dumps({"machine": info}, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    warm_up(wl, args.seed, threads)
    inputs = wl.inputs(args.seed, str(OUT_DIR))
    if args.trace:
        spans_path = OUT_DIR / f"spans_{wl.name}_seed{args.seed}.json"
        meta = {"workload": wl.name, "seed": args.seed, "machine": info}
        checks, metrics = run_traced(wl, inputs, threads, spans_path, meta)
    else:
        checks, metrics, detail = run_untraced(wl, inputs, args.seconds, threads)
        print(json.dumps(detail))

    failed = [c for c in checks if not c[1]]
    for name, _, value in failed:
        print(f"perfbench: check {name} failed: {value}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result, default=float))     # numpy scalars as plain numbers
    return 0


if __name__ == "__main__":
    sys.exit(main())
