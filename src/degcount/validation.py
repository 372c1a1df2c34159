"""Cross-module validation harness: one callable per acceptance check,
shared by the CLI `validate` subcommand and the acceptance test module.
The exact oracle and the saddle are imported here; each check imports the
other routes it compares against, so `verify-start` loads neither the
closed-form estimates nor the samplers.

Every check is deterministic, returns a CheckResult with measured
magnitudes, and never mutates global state.  Seeds, sizes and bounds are
module constants, so no caller can loosen a bound.  Trend thresholds marked
"oracle-confirmed" were fixed by running the exact-count oracle, not taken
from any asymptotic statement.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

import numpy as np

from .graphcore import DegreeSequence, ForbiddenGraph, is_graphical
from .exactcount import (
    complement_degrees,
    enumerate_count,
    exact_count,
    exact_probability,
)
from .saddle import contour_point, integral_quadrature, log_prefactor, solve_saddle

ORACLE_SEED = 101
COMPLEMENT_SEED = 202
CONTOUR_REL_TOL = 1e-6
CONTOUR_IMAG_TOL = 1e-8
SADDLE_INSTANCES = 100
SADDLE_SEED = 303
SADDLE_N_MAX = 200
DENSE_FINAL_BOUND = 0.05
SUBGRAPH_CASE_BOUND = 0.1
BOX_SAMPLES = 10 ** 6
BOX_SEED = 707
SAMPLER_SEED = 808


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    detail: str = ""


def _random_forbidden(rng: random.Random, n: int, p: float) -> ForbiddenGraph:
    pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return ForbiddenGraph.from_pairs(n, pairs)


def _random_degrees(rng: random.Random, n: int, caps=None) -> DegreeSequence:
    caps = caps or [n - 1] * n
    while True:
        deg = [rng.randint(0, caps[j]) for j in range(n)]
        if sum(deg) % 2 == 0:
            return DegreeSequence(tuple(deg))
        for j in rng.sample(range(n), n):
            if deg[j] < caps[j]:
                deg[j] += 1
                break
            if deg[j] > 0:
                deg[j] -= 1
                break
        if sum(deg) % 2 == 0:
            return DegreeSequence(tuple(deg))


def check_oracle_consistency(instances: int = 200) -> CheckResult:
    """Backtracking exact_count equals full 2^C(n,2) enumeration, n <= 6."""
    rng = random.Random(ORACLE_SEED)
    mismatches = 0
    positive = 0
    for _ in range(instances):
        n = rng.randint(2, 6)
        X = _random_forbidden(rng, n, 0.25)
        if rng.random() < 0.5:
            # degrees drawn from an actual random graph, guaranteeing
            # plenty of positive counts
            deg = [0] * n
            for j, k in combinations(range(n), 2):
                if rng.random() < 0.5:
                    deg[j] += 1
                    deg[k] += 1
            d = DegreeSequence(tuple(deg))
        else:
            d = _random_degrees(rng, n)
        a = exact_count(d, X)
        b = enumerate_count(d, X)
        if a != b:
            mismatches += 1
        if a > 0:
            positive += 1
    return CheckResult(
        "oracle-consistency", mismatches == 0,
        {"instances": instances, "mismatches": mismatches, "positive": positive},
        f"{instances} random (d, X) with n<=6, {positive} nonzero counts, "
        f"{mismatches} mismatches vs full enumeration")


def check_complementation(instances: int = 100) -> CheckResult:
    """exact_count(d, X) = exact_count(d', X) with d'_j = n-1-d_j-x_j, n <= 8."""
    rng = random.Random(COMPLEMENT_SEED)
    mismatches = 0
    positive = 0
    for _ in range(instances):
        n = rng.randint(3, 8)
        X = _random_forbidden(rng, n, 0.2)
        caps = [n - 1 - xj for xj in X.row_sums]
        d = _random_degrees(rng, n, caps)
        a = exact_count(d, X)
        b = exact_count(DegreeSequence(complement_degrees(d, X)), X)
        if a != b:
            mismatches += 1
        if a > 0:
            positive += 1
    return CheckResult(
        "complementation", mismatches == 0,
        {"instances": instances, "mismatches": mismatches, "positive": positive},
        f"{instances} random instances n<=8, {positive} nonzero, "
        f"{mismatches} complement mismatches")


def _graphical_sorted_sequences(n: int):
    for combo in combinations_with_replacement(range(n - 1, -1, -1), n):
        if sum(combo) % 2 == 0 and is_graphical(combo):
            yield combo


def contour_factorization(d: DegreeSequence, X: ForbiddenGraph
                          ) -> tuple[int, float, complex, float, bool]:
    """Check P * Re I = G on one instance: (G, P * Re I, I, err, passed).

    err is |P Re I - G| / G, or |P Re I| when G = 0 (no relative scale);
    a positive count must also have |Im I| < CONTOUR_IMAG_TOL * |I|.
    """
    sp = contour_point(d, X)
    I = integral_quadrature(sp, d, X)
    value = math.exp(log_prefactor(sp, d, X)) * I.real
    G = exact_count(d, X)
    if G:
        err = abs(value - G) / G
        passed = err < CONTOUR_REL_TOL and abs(I.imag) < CONTOUR_IMAG_TOL * abs(I)
    else:
        err = abs(value)
        passed = err < CONTOUR_REL_TOL
    return G, value, I, err, passed


def check_contour_factorization(ns=(3, 4, 5)) -> CheckResult:
    """P * I equals the exact count for all graphical d, X empty or one edge.

    Degenerate densities (lambda in {0,1}) use a fixed-radii contour, which
    the factorization permits; zero-count instances are checked against an
    absolute tolerance since no relative scale exists.
    """
    worst_rel = 0.0
    worst_abs = 0.0
    worst_imag = 0.0
    tested = 0
    failures = 0
    for n in ns:
        edge_options = [None] + list(combinations(range(1, n + 1), 2))
        for degs in _graphical_sorted_sequences(n):
            d = DegreeSequence(degs)
            for edge in edge_options:
                X = ForbiddenGraph.from_pairs(n, [edge] if edge else [])
                G, _, I, err, passed = contour_factorization(d, X)
                tested += 1
                failures += not passed
                if G > 0:
                    worst_rel = max(worst_rel, err)
                    worst_imag = max(worst_imag, abs(I.imag) / abs(I))
                else:
                    worst_abs = max(worst_abs, err)
    return CheckResult(
        "contour-factorization", failures == 0,
        {"tested": tested, "worst_rel": worst_rel, "worst_abs_zero": worst_abs,
         "worst_imag_ratio": worst_imag},
        f"{tested} instances over n={list(ns)}; worst rel err {worst_rel:.2e}, "
        f"worst |P*I| on zero counts {worst_abs:.2e}, worst |Im I|/|I| {worst_imag:.2e}")


def _near_regular_instance(rng: random.Random, n: int):
    frac = rng.uniform(0.35, 0.65)
    d0 = min(max(int(round(frac * (n - 1))), 3), n - 4)
    edges = set()
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(1, n - 1)
        k = rng.randint(j + 1, n)
        edges.add((j, k))
    X = ForbiddenGraph.from_pairs(n, edges)
    caps = [n - 2 - xj for xj in X.row_sums]
    deg = [min(max(d0 + rng.choice((-1, 0, 1)), 2), caps[j]) for j in range(n)]
    if sum(deg) % 2:
        for j in range(n):
            if deg[j] + 1 <= caps[j]:
                deg[j] += 1
                break
    return DegreeSequence(tuple(deg)), X


def check_saddle_residual() -> CheckResult:
    """Convergence mode reaches 1e-10; four fixed sweeps stay under 10 n^(-3/2)."""
    rng = random.Random(SADDLE_SEED)
    worst_conv = 0.0
    worst_fixed_ratio = 0.0
    failures = 0
    for _ in range(SADDLE_INSTANCES):
        n = rng.randint(20, SADDLE_N_MAX)
        d, X = _near_regular_instance(rng, n)
        sp = solve_saddle(d, X)
        worst_conv = max(worst_conv, sp.max_residual)
        if sp.max_residual >= 1e-10:
            failures += 1
        sp4 = solve_saddle(d, X, mode="fixed")
        bound = 10.0 * n ** -1.5
        worst_fixed_ratio = max(worst_fixed_ratio, sp4.max_residual / bound)
        if sp4.max_residual >= bound:
            failures += 1
    return CheckResult(
        "saddle-residual", failures == 0,
        {"instances": SADDLE_INSTANCES, "worst_converged_residual": worst_conv,
         "worst_fixed_over_bound": worst_fixed_ratio},
        f"{SADDLE_INSTANCES} near-regular instances n<={SADDLE_N_MAX}; worst converged "
        f"residual {worst_conv:.2e} (tol 1e-10), worst 4-sweep residual/bound "
        f"{worst_fixed_ratio:.3f}")


def check_dense_count_trend(ns=(8, 10, 12, 14, 16, 18)) -> CheckResult:
    """|ln G_exact - estimate| non-increasing on regular d = n/2, final < 0.05."""
    from .asymptotics import dense_count_estimate

    errors = []
    for n in ns:
        d = DegreeSequence((n // 2,) * n)
        G = exact_count(d, limit=n)
        est, _ = dense_count_estimate(d)
        errors.append(abs(math.log(G) - est.log_value))
    monotone = all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))
    passed = monotone and errors[-1] < DENSE_FINAL_BOUND
    return CheckResult(
        "dense-count-trend", passed,
        {"ns": list(ns), "errors": errors},
        "log-errors " + ", ".join(f"n={n}: {e:.4f}" for n, e in zip(ns, errors))
        + f"; monotone={monotone}, final<{DENSE_FINAL_BOUND}")


SUBGRAPH_SHAPES = {
    "edge": ((1, 2),),
    "path2": ((1, 2), (2, 3)),
    "triangle": ((1, 2), (2, 3), (1, 3)),
}


def check_subgraph_probability() -> CheckResult:
    """miss/hit expansions vs exact probabilities on d-regular graphs at
    (n, d) = (8, 3), (10, 5), (12, 6) and (14, 7).

    Every individual |delta ln| must stay under 0.1, and both the mean and the
    max error must shrink at every step in n.  (A single term, miss of one
    edge, grows slightly from n=8 to n=10 because the density moves from 3/7
    to 5/9; the aggregate is the oracle-confirmed trend.)
    """
    from .asymptotics import miss_hit_estimate

    tables = {}
    aggregates = []
    worst = 0.0
    for n, d0 in ((8, 3), (10, 5), (12, 6), (14, 7)):
        d = DegreeSequence((d0,) * n)
        lam = float(d.density)
        errs = {}
        for name, pairs in SUBGRAPH_SHAPES.items():
            X = ForbiddenGraph.from_pairs(n, pairs)
            mh = miss_hit_estimate(d, X)
            Xc = X.edge_count
            miss_exact = float(exact_probability(d, X, "miss", limit=n)) / (1 - lam) ** Xc
            hit_exact = float(exact_probability(d, X, "hit", limit=n)) / lam ** Xc
            errs[name] = (
                abs(mh["miss"].log_value - math.log(miss_exact)),
                abs(mh["hit"].log_value - math.log(hit_exact)),
            )
        flat = [e for pair in errs.values() for e in pair]
        aggregates.append((sum(flat) / len(flat), max(flat)))
        worst = max(worst, max(flat))
        tables[n] = {k: list(v) for k, v in errs.items()}
    shrinking = all(b[0] < a[0] and b[1] < a[1] for a, b in zip(aggregates, aggregates[1:]))
    passed = worst < SUBGRAPH_CASE_BOUND and shrinking
    return CheckResult(
        "subgraph-probability", passed,
        {"errors": tables, "mean_errors": [a[0] for a in aggregates],
         "max_errors": [a[1] for a in aggregates]},
        f"worst |dln| {worst:.4f} (<{SUBGRAPH_CASE_BOUND}); mean err "
        + " -> ".join(f"{a[0]:.4f}" for a in aggregates) + ", max "
        + " -> ".join(f"{a[1]:.4f}" for a in aggregates) + f" (shrinking={shrinking})")


def check_box_integral() -> CheckResult:
    """Gaussian box-integral cases: zero coefficients, a-only, and the
    linear-term coefficient decision at N=4."""
    from .mvintegral import CoefficientSet, gaussian_reference, mc_box_integral, theta1

    details = []
    ok = True

    c0 = CoefficientSet(N=6, A=1.0)
    res0 = mc_box_integral(c0, samples=BOX_SAMPLES, seed=BOX_SEED)
    ref0 = gaussian_reference(c0)
    # zero perturbation has zero variance; the 1e-9 slack covers the box-mass
    # deficit at the default box exponent
    e0 = abs(res0.mean.real - ref0)
    ok0 = e0 <= 3 * res0.stderr + 1e-9 * ref0
    ok &= ok0
    details.append(f"zero-coef |err|={e0:.3e} (3se={3 * res0.stderr:.3e})")

    ca = CoefficientSet(N=8, A=1.0, a=np.full(8, 0.05))
    resa = mc_box_integral(ca, samples=BOX_SAMPLES, seed=BOX_SEED + 1)
    refa = gaussian_reference(ca)
    log_ratio = math.log(resa.mean.real / refa)
    t1 = theta1(ca).real
    rel_se = resa.stderr / resa.mean.real
    oka = abs(log_ratio - t1) <= 3 * rel_se + 0.02
    ok &= oka
    details.append(f"a-only |dln|={abs(log_ratio - t1):.4f} (3se+0.02={3 * rel_se + 0.02:.4f})")

    cj = CoefficientSet(N=4, A=1.0, J=np.ones(4))
    resj = mc_box_integral(cj, samples=BOX_SAMPLES, seed=BOX_SEED + 2)
    refj = gaussian_reference(cj)
    ratio = resj.mean.real / refj
    se = resj.stderr / refj
    sig_low = abs(ratio - math.exp(0.25)) / se
    sig_high = abs(ratio - math.exp(4.0)) / se
    okj = sig_low <= 4.0 and sig_high > 100.0
    ok &= okj
    details.append(f"J-only: {sig_low:.1f} sigma from exp(1/4), {sig_high:.0f} sigma from exp(4)")

    return CheckResult(
        "box-integral-gaussian", ok,
        {"zero_err": e0, "a_log_err": abs(log_ratio - t1),
         "j_sigma_accept": sig_low, "j_sigma_reject": sig_high},
        "; ".join(details))


def check_sampler() -> CheckResult:
    """Switch-chain estimates vs exact (n=8) and the flat containment value (n=60)."""
    from .asymptotics import specialized_estimates
    from .mcsampler import estimate_probability

    d8 = DegreeSequence((3,) * 8)
    X8 = ForbiddenGraph.from_pairs(8, [(1, 2)])
    est8 = estimate_probability(d8, X8, "miss", samples=20_000, thinning=12, seed=SAMPLER_SEED)
    exact8 = float(exact_probability(d8, X8, "miss"))
    err8 = abs(est8.mean - exact8)
    ok8 = err8 <= 3 * est8.stderr

    n = 60
    d60 = DegreeSequence((30,) * n)
    X60 = ForbiddenGraph.from_pairs(n, [(1, 2), (2, 3), (1, 3)])
    est60 = estimate_probability(d60, X60, "hit", samples=100_000, thinning=60,
                                 seed=SAMPLER_SEED + 1)
    flat = specialized_estimates(d60, X60, "flat")
    target = math.exp(3 * math.log(float(d60.density)) + flat["hit"].log_value)
    err60 = abs(est60.mean - target)
    ok60 = err60 <= 3 * est60.stderr
    return CheckResult(
        "sampler-agreement", ok8 and ok60,
        {"n8_err": err8, "n8_stderr": est8.stderr,
         "n60_err": err60, "n60_stderr": est60.stderr, "n60_target": target},
        f"n=8 edge |err|={err8:.4f} (3se={3 * est8.stderr:.4f}); "
        f"n=60 triangle |err|={err60:.5f} (3se={3 * est60.stderr:.5f})")


def check_regular_expectations() -> CheckResult:
    """Expected matchings/triangles/4-cycles vs exact expectations, shrinking in n.

    Matchings use a 0.15 bound (measured 0.113 at n=6) and must shrink up to
    n=14 (0.0350), whose orbit-keyed states the oracle counts in 1.5 s.  The cycle
    bound is the oracle-confirmed 0.25: at n=10 the q-cycle formula's own
    discarded O(q/n^2) terms contribute |dln| ~ 0.19 for triangles and 0.21
    for 4-cycles, so a tighter bound is unattainable there; the decreasing
    trend is what the oracle confirms.
    """
    from .asymptotics import regular_graph_expectations

    def error(n: int, Y: ForbiddenGraph, copies: int, target: str, q: int | None = None) -> float:
        # copies of Y in K_n, each present with the exact hit probability of Y
        d = DegreeSequence((n // 2,) * n)
        exact = copies * float(exact_probability(d, Y, "hit", limit=n))
        est = regular_graph_expectations(n, n // 2, target, q=q)
        return abs(est.log_value - math.log(exact))

    def matching_error(n: int) -> float:
        M = ForbiddenGraph.from_pairs(n, [(2 * i + 1, 2 * i + 2) for i in range(n // 2)])
        return error(n, M, math.factorial(n) // (2 ** (n // 2) * math.factorial(n // 2)),
                     "matchings")

    def cycle_error(q: int, n: int) -> float:
        C = ForbiddenGraph.from_pairs(n, [(v, v % q + 1) for v in range(1, q + 1)])
        # C(n, q) vertex sets, each carrying (q-1)!/2 distinct q-cycles
        return error(n, C, math.comb(n, q) * math.factorial(q - 1) // 2, "cycles", q=q)

    errors = {"matchings": [matching_error(n) for n in (6, 8, 10, 12, 14)],
              "triangles": [cycle_error(3, n) for n in (10, 12, 14, 16)],
              "4-cycles": [cycle_error(4, n) for n in (10, 12, 14, 16)]}
    ok = (errors["matchings"][0] < 0.15 and errors["triangles"][0] < 0.25
          and errors["4-cycles"][0] < 0.25
          and all(b < a for e in errors.values() for a, b in zip(e, e[1:])))
    trend = {name: " -> ".join(f"{e:.4f}" for e in values) for name, values in errors.items()}
    return CheckResult(
        "regular-expectations", ok, errors,
        f"matchings |dln| {trend['matchings']} (<0.15); triangles {trend['triangles']} "
        f"and 4-cycles {trend['4-cycles']} (<0.25, oracle-confirmed)")


def check_determinism() -> CheckResult:
    """Seeded CLI reports are byte-identical across two executions."""
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        dpath = os.path.join(tmp, "d.txt")
        xpath = os.path.join(tmp, "x.txt")
        cpath = os.path.join(tmp, "mw3.json")
        with open(dpath, "w") as fh:
            fh.write("3\n" * 8)
        with open(xpath, "w") as fh:
            fh.write("1 2\n")
        with open(cpath, "w") as fh:
            json.dump({"N": 4, "A": 1.0, "J": [[1.0, 0.0]] * 4}, fh)
        commands = [
            ["count", "--degrees", dpath, "--forbidden", xpath],
            ["estimate", "--formula", "miss", "--degrees", dpath, "--forbidden", xpath],
            ["mw3", "--coefficients", cpath, "--samples", "5000", "--seed", "99"],
            ["sample", "--degrees", dpath, "--forbidden", xpath, "--mode", "miss",
             "--samples", "500", "--thinning", "3", "--seed", "99"],
            ["saddle", "--degrees", dpath, "--forbidden", xpath, "--mode", "converge"],
            ["saddle", "--degrees", dpath, "--forbidden", xpath, "--mode", "fixed"],
        ]
        mismatched = []
        for argv in commands:
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                code = cli.main(argv, stdout=buf)
                outs.append((code, buf.getvalue()))
            if outs[0] != outs[1]:
                mismatched.append(argv[0])
    return CheckResult(
        "determinism", not mismatched,
        {"mismatched": mismatched},
        "count/estimate/mw3/sample/saddle (both modes) reports byte-identical across two runs"
        if not mismatched else f"non-deterministic: {mismatched}")


FULL_SUITE = (
    check_oracle_consistency,
    check_complementation,
    check_contour_factorization,
    check_saddle_residual,
    check_dense_count_trend,
    check_subgraph_probability,
    check_box_integral,
    check_sampler,
    check_regular_expectations,
    check_determinism,
)


def run_suite(suite: str = "full") -> list[CheckResult]:
    """Run a validation suite; 'small' is a fast subset, 'full' the whole matrix."""
    if suite == "small":
        return [
            check_oracle_consistency(instances=60),
            check_complementation(instances=40),
            check_contour_factorization(ns=(3, 4)),
            check_dense_count_trend(ns=(8, 10)),
        ]
    if suite == "full":
        return [check() for check in FULL_SUITE]
    raise ValueError(f"unknown suite {suite!r}")
