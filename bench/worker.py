"""One workload process: set up, signal ready, run passes, check, report.

Started by run.py in a fresh interpreter, so the process-global caches of
the package start cold as they do for a CLI user.  Prints `ready <cpu s>`
once the package is imported, the inputs are written and the warm-up is
done, then (unless --setup-only) runs the fixed operation list pass after
pass until --seconds of wall time have elapsed, checks every result and
prints one JSON line.

Every duration is process CPU time (`time.process_time`).  The process is
single-threaded (one BLAS thread, checked at the end), so this is the wall
time the work takes on an idle machine; unlike wall time it leaves out the
time a shared host deschedules the process.  A fixed calibration kernel runs
before and after every pass (and once after set-up); run.py scales each
pass by REFERENCE_S over the kernel's time around it, which removes the slow
and fast phases of a shared host (see NOTES.md).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import degcount  # noqa: E402
from degcount import exactcount  # noqa: E402

import workloads  # noqa: E402

if not Path(degcount.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"degcount imported from {degcount.__file__}, not from {ROOT / 'src'}")


def blas_info() -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


CLOCK = time.process_time
REFERENCE_S = 0.020     # the kernel's time on the 2-core VM in a quiet phase


def calibration() -> float:
    """CPU time of a fixed kernel with the workloads' kinds of work: interpreter
    loops, numpy batches that fit in cache, n x n arrays that do not, a solve."""
    start = CLOCK()
    table: dict[int, int] = {}
    for i in range(30_000):
        k = i * 7919 % 1021
        table[k] = table.get(k, 0) + len(str(i))
    sorted(table.items())
    rng = np.random.default_rng(0)
    z = rng.normal(0.0, 0.3, size=(16_384, 8))
    float(np.abs(np.exp(0.01 * (z * z).sum(axis=1) + 0j)).sum())
    a = rng.uniform(-0.1, 0.1, size=1000)
    outer = np.outer(a, a)
    float((outer * (1.0 - a[:, None]) / (1.0 + outer)).sum())
    m = rng.normal(size=(200, 200))
    np.linalg.solve(m @ m.T + 200.0 * np.eye(200), m[0])
    return CLOCK() - start


def threads_and_children() -> tuple[int, int]:
    """OS threads of this process and live multiprocessing children."""
    task = Path("/proc/self/task")
    threads = len(os.listdir(task)) if task.is_dir() else threading.active_count()
    mp = sys.modules.get("multiprocessing")
    return threads, len(mp.active_children()) if mp else 0


def memo_stats():
    info = getattr(exactcount._count_free, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return {"hits": stats.hits, "misses": stats.misses, "size": stats.currsize}


def run_passes(ops, seconds: float, tracer=None):
    """Run the op list pass after pass until `seconds` of wall time have
    elapsed (at least one pass); latencies and pass times are CPU seconds.

    With a tracer, passes alternate untraced and traced, starting untraced,
    so both kinds see the same machine and the same warm caches.  Returns
    per-pass calibration times (mean of the kernel before and after it).
    """
    latencies = [[] for _ in ops]
    results = [[] for _ in ops]
    passes, traced, calibrations = [], [], []
    begin = time.perf_counter()
    while True:
        tracing = tracer is not None and len(passes) % 2 == 1
        if tracing:
            tracer.install()
        before = calibration()
        start = CLOCK()
        for index, op in enumerate(ops):
            if tracing:
                tracer.op_id = len(passes) * len(ops) + index
            t0 = CLOCK()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises counts as failed
                result = exc
            latencies[index].append(CLOCK() - t0)
            results[index].append(result)
        passes.append(CLOCK() - start)
        calibrations.append((before + calibration()) / 2.0)
        traced.append(tracing)
        if tracing:
            tracer.uninstall()
        if time.perf_counter() - begin >= seconds and (tracer is None or len(passes) >= 2):
            return latencies, results, passes, traced, calibrations


def check_all(ops, results) -> list[int]:
    """Failed executions per op: raised, exited non-zero, or failed its check."""
    failed = []
    for op, outs in zip(ops, results):
        bad = 0
        for result in outs:
            try:
                ok = not isinstance(result, Exception) and op.check(result)
            except Exception:  # a malformed result is a failed check
                ok = False
            bad += not ok
        failed.append(bad)
    return failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="record spans and write them to this file")
    args = parser.parse_args()

    pinned = workloads.load_pinned()
    load = workloads.BUILDERS[args.workload](args.seed, pinned, args.workdir)
    for op in load.warmup:
        op.run()
    setup_s = CLOCK()
    scale = REFERENCE_S / sorted(calibration() for _ in range(3))[1]
    print(f"ready {setup_s * scale!r} {setup_s!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    memo_before = memo_stats()
    latencies, results, passes, traced, calibrations = run_passes(load.ops, args.seconds, tracer)
    memo_after = memo_stats()
    threads, children = threads_and_children()
    if threads > 1 or children:
        # CPU time stands for elapsed time only in a single-threaded process
        print(f"error: {threads} threads and {children} child processes after the run; "
              "CPU-time figures would misstate elapsed time", file=sys.stderr)
        return 1

    bytes_out = sum(len(r[1]) for outs in results for r in outs
                    if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], str))
    doc = {
        "passes": passes,
        "traced": traced,
        "scales": [REFERENCE_S / c for c in calibrations],
        "ops": [{"kind": op.kind, "work": op.work, "latencies": lat}
                for op, lat in zip(load.ops, latencies)],
        "failed": check_all(load.ops, results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_out": bytes_out,
        "provenance": {"numpy": np.__version__, **blas_info()},
    }
    if tracer is not None:
        tracer.write(args.trace)
        doc["trace"] = tracer.summary(doc["scales"], len(load.ops))
        if memo_before is not None:     # over all passes, traced or not
            doc["trace"]["memo"] = {
                "hits": memo_after["hits"] - memo_before["hits"],
                "misses": memo_after["misses"] - memo_before["misses"],
                "size_end": memo_after["size"],
            }
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
