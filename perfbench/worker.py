"""One benchmark run in a fresh interpreter: set up, measure, report.

Started by ``perfbench/run.py``; prints one JSON result line. With
``--trace 1`` it alternates untraced and traced repetitions, so the
tracing overhead is the difference between the two.
"""

import time

# first, so it is timed as the fresh-interpreter import every CLI command pays
_start = time.perf_counter()
import corpusaudit.cli
IMPORT_S = time.perf_counter() - _start

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy
import scipy

from . import layers, workloads
from .tracer import Tracer, self_times

SETUPS = 3  # set-up repetitions; setup_s is their median
MIN_REPS = 3  # so one slow repetition cannot move the median


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({parts[-1] for parts in map(str.split, fh)
                           if len(parts) >= 6 and "openblas" in parts[-1].lower()
                           and ".so" in parts[-1]})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def summary(values):
    """Median and, when at least 11 samples exist, the highest percentile
    that still has 10 samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values), "values": values}
    if len(values) >= 11:
        i = len(values) - 11
        out["tail"] = {"percentile": round(100 * (i + 1) / len(values), 1),
                       "value": sorted(values)[i]}
    return out


def measure(workload, runner, seconds, trace):
    """Repeat the command sequence for about ``seconds``, at least ``MIN_REPS``
    times; another repetition starts while at least half of it fits.

    Returns (untraced stage timings per repetition, per-layer samples,
    the tracer of the last traced repetition or None).
    """
    plain, layer_samples, tracer = [], [], None
    start = time.perf_counter()
    while True:
        # start every repetition from a collected heap, so when the
        # collector runs depends less on what the previous one left
        gc.collect()
        plain.append(workload.rep(runner))
        last = sum(plain[-1].values())
        if trace:
            tracer = Tracer(layers.TARGETS)
            gc.collect()
            tracer.install()
            runner.tracer = tracer
            try:
                traced = sum(workload.rep(runner).values())
            finally:
                tracer.uninstall()
                runner.tracer = None
            layer_samples.append(layers.per_layer_metrics(self_times(tracer.spans),
                                                          traced, last))
            last += traced
        if len(plain) >= MIN_REPS and time.perf_counter() - start + last / 2 > seconds:
            return plain, layer_samples, tracer


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--spans", required=True, help="where a traced run writes its spans")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    work = Path(args.work)
    workload = workloads.make(args.workload, tiny=args.tiny)
    setup_s = []
    for _ in range(1 if args.tiny else SETUPS):
        workloads.reset_dir(work)
        start = time.perf_counter()
        workload.setup(work, args.seed)
        setup_s.append(time.perf_counter() - start)

    runner = workloads.Runner()
    plain, layer_samples, tracer = measure(workload, runner, args.seconds, args.trace)
    walls = [sum(s.values()) for s in plain]
    stages = {k: statistics.median(s[k] for s in plain) for k in plain[0]}
    try:
        outcome = workload.outcome(stages)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        # outputs missing or malformed: already counted as failed commands
        outcome = {}
        runner.problems.append(f"outcome: {exc!r}")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "setup_s": summary(setup_s),
        "wall_s": summary(walls),
        "stages_s": stages,
        "end_to_end": {name: {"value": value, "unit": unit} for name, (value, unit) in {
            "setup_s": (statistics.median(setup_s), "s"),
            "import_s": (IMPORT_S, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "fail_rate": (runner.failed / runner.attempted, "ratio"),
            **outcome}.items()},
        "sizes": workload.sizes(),
        "digests": dict(sorted(runner.digests.items())),
        "env": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "AUDIT_THREADS": os.environ.get("AUDIT_THREADS"),
            "audit_workers": workloads.cli._worker_count()
            if hasattr(workloads.cli, "_worker_count") else None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "openblas_threads": openblas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "timers": "in-process only (time.perf_counter, getrusage); "
                      "no system-wide tracing",
        },
    }
    if args.trace:
        result["per_layer"] = {name: statistics.median(s[name] for s in layer_samples)
                               for name, _, _ in layers.PER_LAYER}
        result["absent_layers"] = tracer.absent
        tracer.write(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
