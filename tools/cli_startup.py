"""Process CPU of whole `degcount` subcommand processes from two source trees.

    python3 tools/cli_startup.py BASE CHANGE [--runs 12] [--cache absent|present]

BASE and CHANGE are checkouts (each with src/degcount).  Each tree's package
is copied, without __pycache__, into a temporary directory, and every
subcommand runs there as a fresh `python -c` process, the two trees
alternating which goes first.  A process's CPU time is the growth of
resource.getrusage(RUSAGE_CHILDREN) user plus system time across it, so it
counts the interpreter's start-up and imports as well as the work.  With
--cache absent (the default) the processes run with PYTHONDONTWRITEBYTECODE=1
and compile the package from source each time; with --cache present one
untimed run per subcommand first writes the package's bytecode cache.

Prints a table of the median CPU per subcommand for each tree, and whether
every report was byte-identical between the trees.  The instance is the
3-regular graph on 8 vertices with one forbidden edge.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = {
    "count": ["count", "--degrees", "d.txt", "--forbidden", "x.txt"],
    "estimate --formula dense": ["estimate", "--formula", "dense", "--degrees", "d.txt",
                                 "--forbidden", "x.txt"],
    "saddle": ["saddle", "--degrees", "d.txt", "--forbidden", "x.txt"],
    "sample": ["sample", "--degrees", "d.txt", "--forbidden", "x.txt", "--mode", "miss",
               "--samples", "200"],
}
RUNNER = "import sys; from degcount.cli import main; sys.exit(main())"


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(src: Path, argv: list[str], workdir: str, env: dict) -> tuple[float, str]:
    """CPU seconds of one subcommand process, and its report."""
    before = child_cpu()
    proc = subprocess.run([sys.executable, "-c", RUNNER, *argv], cwd=workdir,
                          env=dict(env, PYTHONPATH=str(src)), capture_output=True, text=True,
                          timeout=300, check=True)
    return child_cpu() - before, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the base tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--runs", type=int, default=12, help="alternating runs per subcommand")
    parser.add_argument("--cache", choices=("absent", "present"), default="absent",
                        help="whether the package's bytecode cache exists")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for label, root in (("base", args.base), ("change", args.change)):
            src = Path(tmp, label)
            shutil.copytree(root / "src" / "degcount", src / "degcount",
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees.append(src)
        workdir = os.path.join(tmp, "work")
        os.mkdir(workdir)
        Path(workdir, "d.txt").write_text("3\n" * 8)
        Path(workdir, "x.txt").write_text("1 2\n")
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if args.cache == "present":
            for src in trees:
                for argv in SUBCOMMANDS.values():
                    run(src, argv, workdir, env)
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"

        print(f"median process CPU of {args.runs} runs, bytecode cache {args.cache}\n")
        print("| subcommand | base ms | change ms | reports identical |")
        print("|---|---|---|---|")
        for name, argv in SUBCOMMANDS.items():
            cpu = ([], [])
            reports = (set(), set())
            for i in range(args.runs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    seconds, report = run(trees[side], argv, workdir, env)
                    cpu[side].append(seconds)
                    reports[side].add(report)
            identical = "yes" if reports[0] == reports[1] and len(reports[0]) == 1 else "NO"
            print(f"| `{name}` | {1e3 * statistics.median(cpu[0]):.0f} | "
                  f"{1e3 * statistics.median(cpu[1]):.0f} | {identical} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
