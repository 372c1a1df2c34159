"""Self-test of the benchmark harness at a tiny size (one pass per workload).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
no operation fails on this tree, and that a deliberately wrong reference
value is reported as a failed operation, so the checks are not vacuous.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{workload}: {result['failed']} of {result['attempted']} operations failed"
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                assert got is not None and got["unit"] == metric["unit"], \
                    f"{workload}: {metric['name']} missing or without unit {metric['unit']}"
            print(f"ok   {workload} trace={trace}: {len(spec[group])} metrics, "
                  f"{result['attempted']} operations, none failed")


def tamper(pinned: dict) -> dict[str, tuple[dict, int]]:
    """One wrong reference per workload, and how many operations must fail."""
    exact = copy.deepcopy(pinned)
    entry = exact["exact-oracle"]["count"][0]
    entry["count"] = str(int(entry["count"]) + 1)          # queried twice per pass
    asym = copy.deepcopy(pinned)
    ref = asym["asymptotic"]["ops"][0]["ref"]
    ref["logPrefactor"] *= 1.0 + 1e-6
    mc = copy.deepcopy(pinned)
    mc["monte-carlo"]["n8_miss_edge"] = "3/7"               # the true value is 4/7
    return {"exact-oracle": (exact, 2), "asymptotic": (asym, 1), "monte-carlo": (mc, 2)}


def check_wrong_reference() -> None:
    sys.path.insert(0, str(BENCH))
    import worker  # noqa: F401  (puts the package source on the path)
    import workloads

    workdir = ROOT / ".bench_work" / "selftest"
    try:
        for name, (pinned, expected) in tamper(workloads.load_pinned()).items():
            load = workloads.BUILDERS[name](7, pinned, str(workdir / name))
            results = worker.run_passes(load.ops, 0.0)[1]
            failed = sum(worker.check_all(load.ops, results))
            assert failed == expected, f"{name}: {failed} failed operations, expected {expected}"
            print(f"ok   {name}: a wrong reference fails {failed} operation(s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_metrics(spec)
        check_wrong_reference()
    except (AssertionError, subprocess.CalledProcessError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
