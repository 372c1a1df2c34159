"""degcount benchmark: one workload, end-to-end metrics or a traced run.

    python3 bench/run.py --workload exact-oracle --seed 1 --seconds 30 --trace 0

Workloads: exact-oracle, asymptotic, monte-carlo (see NOTES.md).  Every
workload runs in fresh interpreters started by this script (worker.py), one
at a time: a closed loop with a single caller.

--trace 0 measures set-up several times, then runs the workload untraced for
--seconds and prints the end-to-end metrics.  --trace 1 runs it for --seconds
with passes alternately untraced and traced and prints the per-layer metrics;
the spans go to .bench_work/.  Times are CPU seconds of the single-threaded
workload process (see worker.py).  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-oracle", "asymptotic", "monte-carlo")
SETUP_REPEATS = 5           # set-up time is the median of this many fresh set-ups
CHILD_GRACE_S = 60.0        # a child that outlives --seconds by this much is killed
# One BLAS thread keeps each workload a single-threaded closed loop: with the
# pool at nproc = 2, run-to-run spread on a shared 2-core machine was about
# twice as large, and the second core stays free for the program's own use.
BLAS_THREADS = "1"
LAYERS = ("graphcore", "exactcount", "saddle", "asymptotics", "mcsampler", "mvintegral", "cli")


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, seconds: float, tag: str, *,
              setup_only: bool = False, trace_path: str | None = None) -> tuple[float, dict | None]:
    """Start worker.py; return its scaled set-up time (at `ready`) and its result."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if ready[:1] != ["ready"] or code != 0:
        raise BenchError(f"{workload} worker failed (exit code {code})")
    setup_s = float(ready[1])
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 operations beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def scaled(child: dict) -> tuple[list[float], list[list[float]]]:
    """Pass times and per-op latencies, each scaled by its pass's calibration factor."""
    scales = child["scales"]
    passes = [t * k for t, k in zip(child["passes"], scales)]
    latencies = [[t * k for t, k in zip(op["latencies"], scales)] for op in child["ops"]]
    return passes, latencies


def end_to_end(child: dict, setups: list[float]) -> tuple[dict, list[str]]:
    passes, per_op = scaled(child)
    latencies = [t for lat in per_op for t in lat]
    attempted = len(latencies)
    failed = sum(child["failed"])
    tail, percentile, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "ops_per_s": (len(child["ops"]) / statistics.median(passes), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * tail, "ms"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    notes = [f"latency_tail_ms is p{percentile:.2f} of {attempted} operations "
             f"({beyond} beyond it)",
             f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}",
             f"passes = {len(passes)} of {len(child['ops'])} operations",
             f"unscaled: wall_s = {statistics.median(child['passes']):.6g} s, "
             f"calibration factor median {statistics.median(child['scales']):.4g} "
             f"(range {min(child['scales']):.4g}-{max(child['scales']):.4g})"]
    for kind, unit in (("sample", "switch_steps_per_s"), ("mw3", "box_samples_per_s")):
        ops = [(op, lat) for op, lat in zip(child["ops"], per_op) if op["kind"] == kind]
        if ops:
            work = sum(op["work"] * len(lat) for op, lat in ops)
            busy = sum(sum(lat) for _, lat in ops)
            notes.append(f"{unit} = {work / busy:.6g} 1/s")
    return metrics, notes


def per_layer(child: dict) -> dict:
    """Per-layer figures per traced pass; overhead against the untraced passes."""
    all_passes, _ = scaled(child)
    passes = [t for t, traced in zip(all_passes, child["traced"]) if traced]
    # the first pass is untraced and runs cold, so it stays out of the overhead
    plain = [t for t, traced in zip(all_passes, child["traced"]) if not traced][1:] or all_passes[:1]
    rounds = len(passes)
    wall = sum(passes)
    names = child["trace"]["names"]
    c = child["trace"]["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0) / rounds

    def self_s(*spans):
        return sum(names.get(name, {}).get("self_s", 0.0) for name in spans) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple] = {}
    layer_total = 0.0
    for layer in LAYERS:
        own = [name for name in names if name.split(".")[0] == layer]
        total = self_s(*own)
        layer_total += total
        m[f"{layer}.self_s"] = (total, "s")
        m[f"{layer}.share"] = (ratio(total * rounds, wall), "ratio")
        if layer != "cli":
            m[f"{layer}.calls"] = (sum(calls(name) for name in own), "count")
    m["graphcore.compute_parameters.calls"] = (calls("graphcore.compute_parameters"), "count")
    m["graphcore.compute_parameters.self_s"] = (self_s("graphcore.compute_parameters"), "s")
    m["graphcore.io.self_s"] = (self_s("graphcore.read_degrees", "graphcore.read_edges"), "s")
    m["exactcount.exact_count.calls"] = (calls("exactcount.exact_count"), "count")
    m["exactcount.exact_count.self_s"] = (self_s("exactcount.exact_count"), "s")
    m["exactcount.exact_count.free_self_s"] = (c["exact_free_self"] / rounds, "s")
    m["exactcount.exact_count.forbidden_self_s"] = (c["exact_forbidden_self"] / rounds, "s")
    m["exactcount.exact_probability.self_s"] = (self_s("exactcount.exact_probability"), "s")
    m["exactcount.exact_overlap_distribution.self_s"] = (
        self_s("exactcount.exact_overlap_distribution"), "s")
    memo = child["trace"].get("memo")             # counted over every pass
    m["exactcount.memo.hits"] = (memo and memo["hits"] / len(child["passes"]), "count")
    m["exactcount.memo.misses"] = (memo and memo["misses"] / len(child["passes"]), "count")
    m["exactcount.memo.hit_ratio"] = (
        memo and ratio(memo["hits"], memo["hits"] + memo["misses"]), "ratio")
    m["exactcount.memo.size_end"] = (memo and memo["size_end"], "count")
    m["saddle.solve_saddle.calls"] = (calls("saddle.solve_saddle"), "count")
    m["saddle.solve_saddle.converge_self_s"] = (c["saddle_converge_self"] / rounds, "s")
    m["saddle.solve_saddle.fixed_self_s"] = (c["saddle_fixed_self"] / rounds, "s")
    m["saddle.solve_saddle.iterations"] = (
        ratio(c["converge_iterations"], c["converge_calls"]), "count")
    m["saddle.solve_saddle.converged_ratio"] = (
        ratio(c["converge_converged"], c["converge_calls"]), "ratio")
    m["saddle.solve_saddle.residual_worst"] = (c["residual_worst"], "abs")
    m["saddle.log_prefactor.self_s"] = (self_s("saddle.log_prefactor"), "s")
    m["saddle.integral_quadrature.calls"] = (calls("saddle.integral_quadrature"), "count")
    m["saddle.integral_quadrature.self_s"] = (self_s("saddle.integral_quadrature"), "s")
    m["saddle.fixed_radii_point.calls"] = (calls("saddle.fixed_radii_point"), "count")
    sampler_s = self_s("mcsampler.estimate_probability")
    m["mcsampler.estimate_probability.self_s"] = (sampler_s, "s")
    m["mcsampler.estimate_probability.proposals"] = (c["proposals"] / rounds, "count")
    m["mcsampler.estimate_probability.proposals_per_s"] = (
        ratio(c["proposals"] / rounds, sampler_s), "1/s")
    m["mcsampler.realize.self_s"] = (self_s("mcsampler.realize"), "s")
    box_s = self_s("mvintegral.mc_box_integral")
    m["mvintegral.mc_box_integral.self_s"] = (box_s, "s")
    m["mvintegral.mc_box_integral.samples"] = (c["box_samples"] / rounds, "count")
    m["mvintegral.mc_box_integral.samples_per_s"] = (ratio(c["box_samples"] / rounds, box_s), "1/s")
    acceptance = c["box_acceptance"]
    m["mvintegral.mc_box_integral.acceptance_rate"] = (
        ratio(sum(acceptance), len(acceptance)), "ratio")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.bytes_out"] = (child["bytes_out"] / len(child["passes"]), "bytes")
    m["trace.wall_s"] = (statistics.median(passes), "s")
    m["trace.unaccounted_s"] = (wall / rounds - layer_total, "s")
    m["trace.overhead_s"] = (statistics.median(passes) - statistics.median(plain), "s")
    return m


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "degcount" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)

    try:
        if args.trace:
            spans = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
            _, child = run_child(args.workload, args.seed, args.seconds, "traced",
                                 trace_path=str(spans))
            metrics = per_layer(child)
            notes = [f"spans written to {spans.relative_to(ROOT)}"]
        else:
            # half the extra set-ups before the measured process and half after,
            # so the median spans the run rather than one moment of the host
            def setup(k):
                return run_child(args.workload, args.seed, 0.0, f"setup{k}", setup_only=True)[0]
            extra = SETUP_REPEATS - 1
            setups = [setup(k) for k in range(extra // 2)]
            setup_s, child = run_child(args.workload, args.seed, args.seconds, "measure")
            setups += [setup_s] + [setup(k) for k in range(extra // 2, extra)]
            metrics, notes = end_to_end(child, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(op["latencies"]) for op in child["ops"])
    failed = sum(child["failed"])
    provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "nproc": os.cpu_count(), "python": platform.python_version(),
                  **child["provenance"], "git_commit": git_commit(), "src_lines": src_lines()}
    print(f"# degcount benchmark: {args.workload}, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!s:>24} {unit}")
    for line in notes:
        print(f"# {line}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
