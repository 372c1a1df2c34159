"""The three benchmark workloads: seeded operation lists and their checks.

A workload is a fixed list of operations (one pass).  Each operation is one
call to a public entry point, `degcount.cli.main(argv, stdout=StringIO())` or
a library function the CLI does not expose, on inputs drawn from the pinned
pools in pinned.json and relabelled with the run's seed.  Every operation
carries a check that runs after timing ends, against the pinned reference or
an independent route, so checking never adds to latency or warms a cache the
timed operations use.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from degcount import cli, exactcount
from degcount.graphcore import DegreeSequence, ForbiddenGraph

WORKLOADS = ("exact-oracle", "asymptotic", "monte-carlo")
PINNED = Path(__file__).resolve().parent / "pinned.json"

EXACT_LIMIT = "12"          # the limit the acceptance matrix uses for n = 11, 12
REL_TOL = 1e-9              # closed-form values against the pinned ones
SE_FACTOR = 5.0             # Monte-Carlo checks: standard errors allowed
COMPLEMENT_SHARE = 0.4      # share of exact queries re-derived by complementation


@dataclass
class Op:
    """One operation: `run` is timed, `check` verifies its result afterwards."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    work: float = 0.0       # switch proposals (sample) or box samples (mw3)


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]        # run before `ready`, on instances no measured op uses


def load_pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# inputs


def relabel(rng: random.Random, degrees, edges, keep: int = 0):
    """Permute vertex labels; labels 1..keep stay within 1..keep (induced support)."""
    n = len(degrees)
    head = list(range(1, keep + 1))
    tail = list(range(keep + 1, n + 1))
    rng.shuffle(head)
    rng.shuffle(tail)
    perm = head + tail                       # perm[j-1] = new label of vertex j
    new_degrees = [0] * n
    for j, dj in enumerate(degrees):
        new_degrees[perm[j] - 1] = dj
    new_edges = [tuple(sorted((perm[j - 1], perm[k - 1]))) for j, k in edges]
    return new_degrees, new_edges


class Files:
    """Writes each operation's input files into the run's work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.serial = 0
        os.makedirs(workdir, exist_ok=True)

    def _path(self, stem: str) -> str:
        self.serial += 1
        return os.path.join(self.workdir, f"{self.serial:04d}-{stem}")

    def instance(self, degrees, edges) -> tuple[str, str | None]:
        dpath = self._path("d.txt")
        with open(dpath, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v}\n" for v in degrees))
        if not edges:
            return dpath, None
        xpath = self._path("x.txt")
        with open(xpath, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{j} {k}\n" for j, k in edges))
        return dpath, xpath

    def coefficients(self, doc: dict) -> str:
        path = self._path("c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def instance_args(dpath: str, xpath: str | None) -> list[str]:
    return ["--degrees", dpath] + (["--forbidden", xpath] if xpath else [])


def cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        code = cli.main(argv, stdout=buf)
        return code, buf.getvalue()
    return run


def report(result) -> dict:
    """The JSON report of a CLI result, or raise if the command failed."""
    code, text = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def graph(degrees, edges) -> tuple[DegreeSequence, ForbiddenGraph]:
    return DegreeSequence(tuple(degrees)), ForbiddenGraph.from_pairs(len(degrees), edges)


def complement(degrees, edges) -> list[int]:
    """d'_j = n - 1 - d_j - x_j, which has the same count as (d, X)."""
    n = len(degrees)
    x = ForbiddenGraph.from_pairs(n, edges).row_sums
    return [n - 1 - dj - xj for dj, xj in zip(degrees, x)]


def once(fn: Callable[[], object]) -> Callable[[], object]:
    """Evaluate an independent route once; every pass reuses its value."""
    cache: list = []

    def wrapper():
        if not cache:
            cache.append(fn())
        return cache[0]
    return wrapper


# ---------------------------------------------------------------------------
# exact-oracle


def _count_op(files, degrees, ref: int, complement_check: bool) -> Op:
    dpath, _ = files.instance(degrees, [])
    independent = once(lambda: exactcount.exact_count(
        DegreeSequence(tuple(complement(degrees, []))), limit=int(EXACT_LIMIT)) == ref)

    def check(result) -> bool:
        ok = report(result)["count"] == ref
        return ok and (independent() if complement_check else True)
    return Op("count", cli_run(["count", "--degrees", dpath, "--limit", EXACT_LIMIT]), check)


def _probability_op(degrees, edges, mode, m, ref: Fraction, complement_check: bool) -> Op:
    d, X = graph(degrees, edges)
    n = len(degrees)

    def run():
        return exactcount.exact_probability(d, X, mode, m=m, limit=int(EXACT_LIMIT))

    def independent() -> bool:
        # miss(d, X) = G(d', X) / G(n-1-d);  hit(d, X) = miss(n-1-d, X)
        limit = int(EXACT_LIMIT)
        flipped = DegreeSequence(tuple(n - 1 - v for v in degrees))
        if mode == "miss":
            num = exactcount.exact_count(DegreeSequence(tuple(complement(degrees, edges))), X,
                                         limit=limit)
            return Fraction(num, exactcount.exact_count(flipped, limit=limit)) == ref
        return Fraction(exactcount.exact_count(flipped, X, limit=limit),
                        exactcount.exact_count(flipped, limit=limit)) == ref

    independent_once = once(independent)
    use_complement = complement_check and mode in ("miss", "hit")
    return Op("probability", run,
              lambda result: result == ref and (independent_once() if use_complement else True))


def _overlap_op(degrees, edges, ref: list[Fraction]) -> Op:
    d, Y = graph(degrees, edges)

    def run():
        return exactcount.exact_overlap_distribution(d, Y, limit=int(EXACT_LIMIT))

    return Op("overlap", run,
              lambda result: sum(result) == 1 and list(result) == ref)


def _verify_start_op(files, degrees, edges) -> Op:
    dpath, xpath = files.instance(degrees, edges)
    d, X = graph(degrees, edges)
    oracle = once(lambda: exactcount.enumerate_count(d, X))

    def check(result) -> bool:
        doc = report(result)
        return doc["passed"] is True and doc["relError"] < 1e-6 and doc["count"] == oracle()
    return Op("verify-start", cli_run(["verify-start"] + instance_args(dpath, xpath)), check)


def exact_oracle(seed: int, pinned: dict, workdir: str) -> Workload:
    rng = random.Random(seed)
    files = Files(workdir)
    pool = pinned["exact-oracle"]
    ops = []
    for entry in pool["count"]:
        for _ in range(2):      # each multiset is queried twice per pass, as a sweep does
            degrees, _ = relabel(rng, entry["degrees"], [])
            ops.append(_count_op(files, degrees, int(entry["count"]),
                                 rng.random() < COMPLEMENT_SHARE))
    for entry in pool["probability"]:
        degrees, edges = relabel(rng, entry["degrees"], entry["edges"], keep=entry["m"] or 0)
        ops.append(_probability_op(degrees, edges, entry["mode"], entry["m"],
                                   Fraction(entry["value"]), rng.random() < COMPLEMENT_SHARE))
    for entry in pool["overlap"]:
        degrees, edges = relabel(rng, entry["degrees"], entry["edges"])
        ops.append(_overlap_op(degrees, edges, [Fraction(q) for q in entry["distribution"]]))
    for entry in pool["verify-start"]:
        degrees, edges = relabel(rng, entry["degrees"], entry["edges"])
        ops.append(_verify_start_op(files, degrees, edges))
    rng.shuffle(ops)

    # warm-up at n = 7 and n = 3, sizes no measured operation uses
    warm = [(3, 3, 3, 3, 2, 2, 2), [(1, 2)]]
    warmup = [
        _count_op(files, list(warm[0]), 0, False),
        _probability_op(list(warm[0]), warm[1], "miss", None, Fraction(0), False),
        _overlap_op(list(warm[0]), [(1, 2), (2, 3)], []),
        _verify_start_op(files, [2, 1, 1], [(2, 3)]),
    ]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# asymptotic


def _saddle_op(files, degrees, edges, mode, ref) -> Op:
    dpath, xpath = files.instance(degrees, edges)
    n = len(degrees)
    argv = ["saddle"] + instance_args(dpath, xpath) + (["--mode", "fixed"] if mode == "fixed" else [])

    def check(result) -> bool:
        doc = report(result)
        if mode == "fixed":
            ok = doc["residualMax"] < 10.0 * n ** -1.5
        else:
            ok = doc["converged"] is True and doc["residualMax"] < 1e-10
        return ok and (ref is None or close(doc["logPrefactor"], ref["logPrefactor"]))
    return Op("saddle", cli_run(argv), check)


def _estimate_op(files, degrees, edges, formula, m, ref) -> Op:
    dpath, xpath = files.instance(degrees, edges)
    argv = ["estimate", "--formula", formula] + instance_args(dpath, xpath)
    if m is not None:
        argv += ["--m", str(m)]

    def check(result) -> bool:
        doc = report(result)
        if ref is None:
            return True
        if formula == "flat":
            return all(close(doc[key]["logValue"], ref[key]["logValue"]) for key in ref)
        return close(doc["logValue"], ref["logValue"])
    return Op("estimate", cli_run(argv), check)


def _asymptotic_op(files, degrees, edges, sub, what, m, ref) -> Op:
    if sub == "saddle":
        return _saddle_op(files, degrees, edges, what, ref)
    return _estimate_op(files, degrees, edges, what, m, ref)


def asymptotic(seed: int, pinned: dict, workdir: str) -> Workload:
    rng = random.Random(seed)
    files = Files(workdir)
    pool = pinned["asymptotic"]
    ops = []
    for entry in pool["ops"]:
        inst = pool["instances"][entry["instance"]]
        degrees, edges = relabel(rng, inst["degrees"], inst["edges"], keep=entry["m"] or 0)
        ops.append(_asymptotic_op(files, degrees, edges, entry["subcommand"], entry["what"],
                                  entry["m"], entry["ref"]))
    rng.shuffle(ops)

    # warm-up at n = 30, a size no measured operation uses
    near = [15] * 10 + [14] * 10 + [16] * 10
    regular = [15] * 30
    warmup = [_asymptotic_op(files, near, [(1, 2)], sub, what, None, None)
              for sub, what in (("saddle", "converge"), ("saddle", "fixed"),
                                ("estimate", "naive"), ("estimate", "dense"),
                                ("estimate", "miss"), ("estimate", "hit"))]
    warmup.append(_estimate_op(files, regular, [(1, 2)], "flat", None, None))
    warmup.append(_estimate_op(files, near, [(1, 2), (2, 3)], "induced", 3, None))
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# monte-carlo

# (n, degree, forbidden edges, mode, samples, burn-in, thinning, copies per pass)
SAMPLE_CASES = (
    (8, 3, [(1, 2)], "miss", 4000, 300, 12, 2),
    (60, 30, [(1, 2), (2, 3), (1, 3)], "hit", 3000, 60000, 60, 2),
)
# N, samples, copies per pass: the a-only boxes are the middle of the pass's
# latency order, so they set latency_p50_ms and the n = 60 chains the tail
MW3_A_ONLY = (8, 100_000, 3)
MW3_TABLES = (6, 20_000, 1)


def _sample_op(files, rng, n, dv, edges, mode, samples, burn_in, thinning, target) -> Op:
    degrees, edges = relabel(rng, [dv] * n, edges)
    dpath, xpath = files.instance(degrees, edges)
    argv = (["sample"] + instance_args(dpath, xpath)
            + ["--mode", mode, "--samples", str(samples), "--burn-in", str(burn_in),
               "--thinning", str(thinning), "--seed", str(rng.randrange(1 << 30))])

    def check(result) -> bool:
        doc = report(result)
        echoed = (doc["samples"], doc["burnIn"], doc["thinning"]) == (samples, burn_in, thinning)
        return echoed and abs(doc["mean"] - target) <= SE_FACTOR * doc["stderr"]
    return Op("sample", cli_run(argv), check, work=float(burn_in + samples * thinning))


def _mw3_op(files, rng, N, samples, tables: bool) -> Op:
    A = 1.0
    doc: dict = {"N": N, "A": A}
    if tables:
        gen = np.random.default_rng(rng.randrange(1 << 30))
        for name, rank in (("D", 3), ("H", 3), ("I", 4)):
            doc[name] = (0.05 * gen.standard_normal((N,) * rank)).tolist()
        theta = 0.0                 # D, H and I enter the exponent only at higher order
    else:
        a = [rng.uniform(0.03, 0.07) for _ in range(N)]
        doc["a"] = a
        theta = sum(a) / (2.0 * A * math.sqrt(N)) + sum(v * v for v in a) / (4.0 * A * A * N)
    path = files.coefficients(doc)
    gaussian = (math.pi / (A * N)) ** (N / 2.0)
    argv = ["mw3", "--coefficients", path, "--samples", str(samples),
            "--seed", str(rng.randrange(1 << 30))]

    def check(result) -> bool:
        out = report(result)
        mean = out["mc"]["mean"][0]
        rel_se = out["mc"]["stderr"] / mean
        return (close(out["theta1"][0], theta) and out["mc"]["samples"] == samples
                and abs(math.log(mean / gaussian) - theta) <= SE_FACTOR * rel_se + 0.02)
    return Op("mw3", cli_run(argv), check, work=float(samples))


def monte_carlo(seed: int, pinned: dict, workdir: str) -> Workload:
    rng = random.Random(seed)
    files = Files(workdir)
    refs = pinned["monte-carlo"]
    targets = (float(Fraction(refs["n8_miss_edge"])), refs["n60_hit_triangle"])
    ops = []
    for case, target in zip(SAMPLE_CASES, targets):
        *shape, copies = case
        ops += [_sample_op(files, rng, *shape, target) for _ in range(copies)]
    for (N, samples, copies), tables in ((MW3_A_ONLY, False), (MW3_TABLES, True)):
        ops += [_mw3_op(files, rng, N, samples, tables) for _ in range(copies)]
    rng.shuffle(ops)

    # warm-up on a 4-regular n = 10 chain and N = 4 boxes
    warmup = [
        _sample_op(files, rng, 10, 4, [(1, 2)], "miss", 200, 100, 5, 0.0),
        _mw3_op(files, rng, 4, 2000, False),
        _mw3_op(files, rng, 4, 2000, True),
    ]
    return Workload(ops, warmup)


BUILDERS = {"exact-oracle": exact_oracle, "asymptotic": asymptotic, "monte-carlo": monte_carlo}
