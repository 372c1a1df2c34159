"""Regenerate bench/pinned.json: the instance pools and their reference values.

The pools are fixed (generated from POOL_SEED); a benchmark run draws its
operations from them and relabels every instance with its own --seed.  Every
pinned quantity is invariant under vertex relabelling, so one reference per
pool entry checks every seed's inputs.  The references are the values this
package computed when the benchmark was defined; regenerate them only when a
change is meant to alter results, and say so.

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from degcount import (  # noqa: E402
    DegreeSequence,
    ForbiddenGraph,
    dense_count_estimate,
    exact_count,
    exact_overlap_distribution,
    exact_probability,
    induced_estimate,
    is_graphical,
    log_prefactor,
    miss_hit_estimate,
    naive_estimate,
    compute_parameters,
    solve_saddle,
    specialized_estimates,
)

POOL_SEED = 1002_3018
LIMIT = 12

SHAPES = {
    "edge": ((1, 2),),
    "path2": ((1, 2), (2, 3)),
    "triangle": ((1, 2), (2, 3), (1, 3)),
    "two-edges": ((1, 2), (3, 4)),
    "star3": ((1, 2), (1, 3), (1, 4)),
    "path3": ((1, 2), (2, 3), (3, 4)),
    "cycle4": ((1, 2), (2, 3), (3, 4), (1, 4)),
}

# (n, number of multisets); each multiset is counted twice per pass.
COUNT_SIZES = ((8, 2), (9, 2), (10, 3), (11, 2), (12, 3))

# (n, shape, mode, m): backtracking queries on the multisets above.  Shapes
# touching four vertices stay at n = 10, where one query takes 0.05-0.2 s.
PROBABILITY_QUERIES = (
    (9, "path2", "miss", None),
    (9, "triangle", "hit", None),
    (10, "two-edges", "miss", None),
    (10, "path2", "induced", 3),
    (11, "path2", "hit", None),
    (11, "triangle", "miss", None),
    (12, "edge", "hit", None),
    (12, "path2", "miss", None),
    (10, "star3", "miss", None),
    (10, "path3", "hit", None),
    (10, "cycle4", "miss", None),
    (10, "cycle4", "hit", None),
)

OVERLAP_QUERIES = ((9, "triangle"), (10, "path2"))

VERIFY_START = (((2, 2, 1, 1), ((1, 2),)), ((2, 2, 2, 2, 2), ((1, 3),)))

# asymptotic pool: (name, n, kind) with kind near-regular or regular
ASYMPTOTIC_INSTANCES = (
    ("n50", 50, "near"), ("n100", 100, "near"), ("n200", 200, "near"),
    ("n400", 400, "near"), ("n1000a", 1000, "near"), ("n1000b", 1000, "near"),
    ("reg1000", 1000, "regular"), ("ind500", 500, "induced"),
)

# (instance, subcommand, mode or formula, m), in three latency groups of
# 4, 13 and 4 operations, so that the median falls in the middle of the
# estimates at n = 500-1000 and the n = 1000 solves set the tail
ASYMPTOTIC_OPS = (
    ("n50", "saddle", "converge", None), ("n100", "saddle", "converge", None),
    ("n200", "saddle", "converge", None), ("n200", "saddle", "fixed", None),
    ("n1000a", "estimate", "naive", None), ("n1000a", "estimate", "dense", None),
    ("n1000a", "estimate", "miss", None), ("n1000a", "estimate", "hit", None),
    ("n1000b", "estimate", "naive", None), ("n1000b", "estimate", "dense", None),
    ("n1000b", "estimate", "miss", None), ("n1000b", "estimate", "hit", None),
    ("reg1000", "estimate", "flat", None), ("reg1000", "estimate", "naive", None),
    ("reg1000", "estimate", "dense", None), ("ind500", "estimate", "induced", 4),
    ("n400", "saddle", "converge", None),
    ("n1000a", "saddle", "converge", None), ("n1000b", "saddle", "converge", None),
    ("n1000a", "saddle", "fixed", None), ("n1000b", "saddle", "fixed", None),
)


def near_regular(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        d0 = n // 2 if rng.random() < 0.5 else (n - 1) // 2
        deg = [d0 + rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        if sum(deg) % 2 == 0 and is_graphical(deg):
            return tuple(deg)


def saddle_instance(rng: random.Random, n: int) -> tuple[tuple[int, ...], list]:
    """The check_saddle_residual generator: near-regular degrees, 0-3 forbidden edges."""
    frac = rng.uniform(0.35, 0.65)
    d0 = min(max(int(round(frac * (n - 1))), 3), n - 4)
    edges = set()
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(1, n - 1)
        edges.add((j, rng.randint(j + 1, n)))
    x = ForbiddenGraph.from_pairs(n, edges).row_sums
    deg = [min(max(d0 + rng.choice((-1, 0, 1)), 2), n - 2 - x[j]) for j in range(n)]
    if sum(deg) % 2:
        deg[next(j for j in range(n) if deg[j] + 1 <= n - 2 - x[j])] += 1
    return tuple(deg), sorted(edges)


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def pin_exact(rng: random.Random) -> dict:
    multisets = {n: [near_regular(rng, n) for _ in range(k)] for n, k in COUNT_SIZES}
    counts = [{"degrees": list(d), "count": str(exact_count(DegreeSequence(d), limit=LIMIT))}
              for n, _ in COUNT_SIZES for d in multisets[n]]
    probabilities = []
    for n, shape, mode, m in PROBABILITY_QUERIES:
        d = rng.choice(multisets[n])
        X = ForbiddenGraph.from_pairs(n, SHAPES[shape])
        p = exact_probability(DegreeSequence(d), X, mode, m=m, limit=LIMIT)
        probabilities.append({"degrees": list(d), "edges": [list(e) for e in SHAPES[shape]],
                              "shape": shape, "mode": mode, "m": m, "value": frac_str(p)})
    overlaps = []
    for n, shape in OVERLAP_QUERIES:
        d = rng.choice(multisets[n])
        Y = ForbiddenGraph.from_pairs(n, SHAPES[shape])
        dist = exact_overlap_distribution(DegreeSequence(d), Y, limit=LIMIT)
        overlaps.append({"degrees": list(d), "edges": [list(e) for e in SHAPES[shape]],
                         "shape": shape, "distribution": [frac_str(q) for q in dist]})
    verify = [{"degrees": list(d), "edges": [list(e) for e in edges]} for d, edges in VERIFY_START]
    return {"count": counts, "probability": probabilities, "overlap": overlaps,
            "verify-start": verify}


def pin_asymptotic(rng: random.Random) -> dict:
    instances = {}
    for name, n, kind in ASYMPTOTIC_INSTANCES:
        if kind == "near":
            degrees, edges = saddle_instance(rng, n)
        elif kind == "regular":
            degrees, edges = (n // 2,) * n, [[1, 2], [2, 3], [1, 3]]
        else:  # induced: a path on vertices 1..4
            degrees = near_regular(rng, n)
            edges = [[1, 2], [2, 3], [3, 4]]
        instances[name] = {"degrees": list(degrees), "edges": [list(e) for e in edges]}
    ops = []
    for name, sub, what, m in ASYMPTOTIC_OPS:
        inst = instances[name]
        n = len(inst["degrees"])
        d = DegreeSequence(inst["degrees"])
        X = ForbiddenGraph.from_pairs(n, inst["edges"])
        if sub == "saddle":
            sp = solve_saddle(d, X, mode=what)
            ref = {"logPrefactor": log_prefactor(sp, d, X)}
        elif what == "naive":
            ref = {"logValue": naive_estimate(compute_parameters(d, X), d, X).log_value}
        elif what == "dense":
            ref = {"logValue": dense_count_estimate(d, X)[0].log_value}
        elif what in ("miss", "hit"):
            ref = {"logValue": miss_hit_estimate(d, X)[what].log_value}
        elif what == "flat":
            ref = {key: {"logValue": est.log_value}
                   for key, est in specialized_estimates(d, X, "flat").items()}
        else:
            ref = {"logValue": induced_estimate(d, X, m).log_value}
        ops.append({"instance": name, "subcommand": sub, "what": what, "m": m, "ref": ref})
    return {"instances": instances, "ops": ops}


def pin_monte_carlo() -> dict:
    d8 = DegreeSequence((3,) * 8)
    X8 = ForbiddenGraph.from_pairs(8, [(1, 2)])
    d60 = DegreeSequence((30,) * 60)
    X60 = ForbiddenGraph.from_pairs(60, [(1, 2), (2, 3), (1, 3)])
    flat_hit = specialized_estimates(d60, X60, "flat")["hit"].log_value
    return {
        "n8_miss_edge": frac_str(exact_probability(d8, X8, "miss")),
        "n60_hit_triangle": math.exp(3 * math.log(30 / 59) + flat_hit),
    }


def main() -> None:
    rng = random.Random(POOL_SEED)
    doc = {
        "pool_seed": POOL_SEED,
        "exact-oracle": pin_exact(rng),
        "asymptotic": pin_asymptotic(rng),
        "monte-carlo": pin_monte_carlo(),
    }
    path = Path(__file__).resolve().parent / "pinned.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
