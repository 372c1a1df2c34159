"""Closed-form dense-regime estimates: counts, subgraph probabilities,
induced-subgraph probabilities, overlap distribution, sparse-regime counts
and regular-graph expectations.

Every estimate is returned in log space as a LogEstimate carrying the factor
outside the exponential (base_log), the exponent (correction) broken into
named terms, and an error-order annotation.  Each hit expansion is its miss
expansion at the complement degrees n-1-d (complement_fields), "flat" is
the general tables at constant degrees, the one induced expansion carries
its leading display as its first term, and a side no graph realizes is -inf.
Exponentiation is caller-side: the linear values overflow doubles around
n = 40.  Hypothesis checking is advisory only; desk-scale instances always
violate asymptotic hypotheses, so validity is reported, never enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import comb, lgamma, log, log1p

from .graphcore import (DegreeSequence, ForbiddenGraph, Parameters, compute_parameters,
                        event_edges, forbidden_for, free_classes, impossible, induced_spec,
                        interior_density)

NEG_INF = float("-inf")
HYPOTHESIS_A = 0.3           # the constant a of the density window n/(3a log n)
ERROR_ORDER = "O(n^-0.1)"    # error annotation of the dense-regime expansions


@dataclass(frozen=True)
class LogEstimate:
    """A log-scale value split as base factor plus exponential correction."""

    log_value: float
    base_log: float
    correction: float
    error_order: str
    terms: tuple[tuple[str, float], ...] = ()

    @classmethod
    def build(cls, base_log: float, terms: tuple[tuple[str, float], ...],
              error_order: str) -> "LogEstimate":
        correction = math.fsum(v for _, v in terms)
        return cls(log_value=base_log + correction, base_log=base_log,
                   correction=correction, error_order=error_order, terms=terms)


ZERO_PROBABILITY = LogEstimate(NEG_INF, NEG_INF, 0.0, "probability is zero", ())


@dataclass(frozen=True)
class HypothesisFlag:
    hypothesis: str
    measured: float
    bound: float


def _xlogx(t: float) -> float:
    # continuous extension 0*log(0) = 0 at the lambda in {0,1} boundary
    return 0.0 if t == 0.0 else t * log(t)


def _log_binom(n: int, k: int) -> float:
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def check_hypotheses(d: DegreeSequence, X: ForbiddenGraph) -> tuple[HypothesisFlag, ...]:
    """Advisory check of the dense-regime hypotheses with a = HYPOTHESIS_A;
    returns the violated ones, so an empty tuple means all hold.

    No explicit epsilon(a, b) accompanies the hypotheses, so degree
    deviations and forbidden-degree budgets are measured against n^(1/2)
    and the forbidden edge total against n (the epsilon -> 0 reading).
    """
    X = forbidden_for(d, X)
    n = d.n
    d_avg = float(d.density * (n - 1))
    x_max = max((X.row_sums[j - 1] for j in X.support), default=0)
    flags: list[HypothesisFlag] = []
    dev = max(abs(dj - d_avg) for dj in d.histogram)
    if dev > math.sqrt(n):
        flags.append(HypothesisFlag("max|d_j - d| <= n^(1/2)", dev, math.sqrt(n)))
    if x_max > math.sqrt(n):
        flags.append(HypothesisFlag("max x_j <= n^(1/2)", float(x_max), math.sqrt(n)))
    if X.edge_count > n:
        flags.append(HypothesisFlag("X <= n", float(X.edge_count), float(n)))
    if n > 2:
        window = n / (3.0 * HYPOTHESIS_A * math.log(n))
        measured = min(d_avg, n - d_avg - 1.0)
        if measured < window:
            flags.append(HypothesisFlag("min{d, n-d-1} >= n/(3a log n)", measured, window))
    return tuple(flags)


def naive_estimate(p: Parameters, d: DegreeSequence, X: ForbiddenGraph) -> LogEstimate:
    """Independence-heuristic count guess, in log space.

    ln of (1-lambda)^(-X) (lambda^lambda (1-lambda)^(1-lambda))^C(n,2)
    prod_j C(n-1-x_j, d_j).  Infeasible degrees signal a zero count with a
    log value of -inf.  Only p.lam is read; p must be the record of d.  The
    vertices outside supp(X) give one binomial per free degree class
    (graphcore.free_classes), repeated under fsum, so the sum is the
    per-vertex one bit for bit.
    """
    X = forbidden_for(d, X)
    if p.n != d.n or p.lam != d.density:
        raise ValueError(f"parameters of another instance: n={p.n}, lambda={p.lam}")
    if impossible(d, X):
        return LogEstimate(NEG_INF, NEG_INF, 0.0, "count is zero", ())
    n = d.n
    lam = float(p.lam)
    Xc = X.edge_count
    t_forbidden = 0.0 if Xc == 0 else -Xc * log1p(-lam)
    t_entropy = comb(n, 2) * (_xlogx(lam) + _xlogx(1.0 - lam))
    deg, x = d.degrees, X.row_sums
    t_binom = math.fsum(chain(
        chain.from_iterable(repeat(_log_binom(n - 1, dj), c)
                            for dj, c in free_classes(d, X).items()),
        (_log_binom(n - 1 - x[j - 1], deg[j - 1]) for j in X.support)))
    total = t_forbidden + t_entropy + t_binom
    return LogEstimate(log_value=total, base_log=total, correction=0.0,
                       error_order="heuristic (independent-degree guess)",
                       terms=(("forbidden", t_forbidden), ("entropy", t_entropy),
                              ("binomials", t_binom)))


def dense_count_estimate(d: DegreeSequence, X: ForbiddenGraph | None = None
                         ) -> tuple[LogEstimate, tuple[HypothesisFlag, ...]]:
    """Dense-regime count estimate sqrt(2) * guess * exp(correction).

    correction = 1/4 - R^2/(16 A^2 n^4) + lambda X^2/((1-lambda) n^2)
    - D/(2 A n^2).  The violated hypotheses (check_hypotheses) come second;
    they never stop the evaluation.
    """
    X = forbidden_for(d, X)
    p = compute_parameters(d, X)
    flags = check_hypotheses(d, X)
    interior_density(p.lam)
    ghat = naive_estimate(p, d, X)
    if ghat.log_value == NEG_INF:
        return ghat, flags
    base = 0.5 * log(2.0) + ghat.log_value
    return LogEstimate.build(base, _count_terms(p, X.edge_count), ERROR_ORDER), flags


def _count_terms(p: Parameters, Xc: int) -> tuple[tuple[str, float], ...]:
    """Exponential correction of the dense count estimate, shared by "num"."""
    lam = float(p.lam)
    n = p.n
    A = float(p.A)
    return (
        ("quarter", 0.25),
        ("degree_spread", -float(p.R) ** 2 / (16.0 * A * A * n ** 4)),
        ("forbidden_sq", lam * Xc * Xc / ((1.0 - lam) * n * n)),
        ("forbidden_dd", -float(p.D) / (2.0 * A * n * n)),
    )


def complement_fields(p: Parameters) -> dict[str, Fraction]:
    """The scalar fields of compute_parameters(n-1-d, X), derived exactly from p.

    A graph contains X exactly when its complement, whose degrees are n-1-d,
    avoids X.  Complementing the degrees sends delta_j to x_j - delta_j and
    dev_j to -dev_j, so lambda' = 1 - lambda, D' = L, L' = D,
    C11' = X2 - C11, C12' = X3 - C12 and C21' = X3 - 2 C12 + C21, while R, K,
    A, X2 and X3 are unchanged.  Hence P_d(X in G)/lambda^X equals
    P_{n-1-d}(X misses G)/(1-lambda')^X, and each hit expansion is its miss
    expansion evaluated at these fields.
    """
    return {"lam": 1 - p.lam, "D": p.L, "L": p.D, "C11": p.X2 - p.C11,
            "C12": p.X3 - p.C12, "C21": p.X3 - 2 * p.C12 + p.C21}


def _miss_and_hit(p: Parameters, d: DegreeSequence, X: ForbiddenGraph,
                  miss_terms) -> dict[str, LogEstimate]:
    """miss_terms(fields) at p's own fields (miss) and at the complement's (hit);
    a side is zero if its event is impossible."""
    fields = vars(p)
    return {side: ZERO_PROBABILITY if impossible(d, *event_edges(X, side))
            else LogEstimate.build(0.0, miss_terms(f), ERROR_ORDER)
            for side, f in (("miss", fields), ("hit", {**fields, **complement_fields(p)}))}


def miss_hit_estimate(d: DegreeSequence, X: ForbiddenGraph) -> dict[str, LogEstimate]:
    """Normalized avoidance/containment probabilities and the count exponential.

    miss and hit carry the full term-by-term expansions (base_log = 0), hit
    being miss at the complement degrees; num is the exponential factor of
    the dense count estimate.
    """
    p = compute_parameters(d, X)
    interior_density(p.lam)
    n, Xc = d.n, X.edge_count

    def miss_terms(f):
        lam = float(f["lam"])
        om = 1.0 - lam
        X2, X3, D, C11, C12, C21 = (float(f[k]) for k in ("X2", "X3", "D", "C11", "C12", "C21"))
        return (
            ("X", lam * Xc / (om * n)),
            ("X2", lam * X2 / (2.0 * om * n)),
            ("X3", lam * (1.0 - 2.0 * lam) * X3 / (6.0 * om * om * n * n)),
            ("Xsq", lam * Xc * Xc / (om * n * n)),
            ("D", -D / (lam * om * n * n)),
            ("C11", -C11 / (om * n)),
            ("C12", -(1.0 - 2.0 * lam) * C12 / (2.0 * om * om * n * n)),
            ("C21", -C21 / (2.0 * om * om * n * n)),
        )

    return {**_miss_and_hit(p, d, X, miss_terms),
            "num": LogEstimate.build(0.0, _count_terms(p, Xc), ERROR_ORDER)}


def specialized_estimates(d: DegreeSequence, X: ForbiddenGraph, case: str) -> dict[str, LogEstimate]:
    """Specialized displays: case "flat" for constant degrees, "reg" for
    constant forbidden degrees x_j.  At constant degrees delta_j = lambda x_j,
    so the general tables are the paper's constant-degree display term for
    term, and "flat" is miss_hit_estimate.  "reg" drops O(x^3/n) terms; its hit
    is its miss at 1 - lambda, the one field it reads that complementing moves."""
    X = forbidden_for(d, X)
    if case == "flat":
        if not d.is_regular():
            raise ValueError("flat case requires constant degrees")
        return miss_hit_estimate(d, X)
    if case != "reg":
        raise ValueError(f"unknown case {case!r}")
    p = compute_parameters(d, X)
    lam = interior_density(p.lam)
    xs = set(X.row_sums)
    if len(xs) != 1:
        raise ValueError("reg case requires constant x_j")
    n, om, xv = d.n, 1.0 - lam, float(xs.pop())
    A, K, R = float(p.A), float(p.K), float(p.R)
    num = (
        ("quarter", 0.25),
        ("xsq", lam * xv * xv / (4.0 * om)),
        ("K", -K / (2.0 * A * n * n)),
        ("degree_spread", -R * R / (16.0 * A * A * n ** 4)),
    )

    def miss_terms(f):
        lam = float(f["lam"])
        om = 1.0 - lam
        return (
            ("x(x-2)", -lam * xv * (xv - 2.0) / (4.0 * om)),
            ("xR", -xv * R / (2.0 * om * om * n * n)),
            ("K", -K / (2.0 * A * n * n)),
        )

    return {"num": LogEstimate.build(0.0, num, ERROR_ORDER), **_miss_and_hit(p, d, X, miss_terms)}


def induced_estimate(d: DegreeSequence, X: ForbiddenGraph, m: int) -> LogEstimate:
    """Probability that the restriction to vertices 1..m equals X exactly.

    The base is the independent-edge product lambda^X (1-lambda)^(C(m,2)-X);
    the correction is the omega expansion, whose first term w11_w02 alone is
    the leading display (error o(1)).  ZERO_PROBABILITY when the event is
    impossible: a support vertex j has d_j < x_j or d_j > n - m + x_j (it
    must miss the other m - 1 - x_j support vertices).
    """
    p = compute_parameters(d, X)
    omega = induced_spec(d, X, m)
    if m == 0:
        return LogEstimate.build(0.0, (), "exact")
    lam = interior_density(p.lam)
    n = d.n
    if impossible(d, *event_edges(X, "induced", m)):
        return ZERO_PROBABILITY
    A = float(p.A)
    Xc = X.edge_count
    w = {key: float(val) for key, val in omega.items()}
    base = 0.0 + Xc * log(lam) + (comb(m, 2) - Xc) * log1p(-lam)
    terms = (
        ("w11_w02", (2.0 * w[(1, 1)] - w[(0, 2)]) / (4.0 * A * n)),
        ("m2", m * m / (2.0 * n)),
        ("w01", (1.0 - 2.0 * lam) * w[(0, 1)] / (4.0 * A * n)),
        ("w10_w01", (4.0 * w[(1, 0)] * w[(0, 1)] - w[(0, 1)] ** 2 - 2.0 * w[(1, 0)] ** 2)
            / (8.0 * A * n * n)),
        ("mixed_m", (2.0 * w[(1, 1)] - w[(2, 0)] - w[(0, 2)]) * m / (4.0 * A * n * n)),
        ("third", -(1.0 - 2.0 * lam) * (w[(0, 3)] + 3.0 * w[(2, 1)] - 3.0 * w[(1, 2)])
            / (24.0 * A * A * n * n)),
    )
    return LogEstimate.build(base, terms, ERROR_ORDER)


def overlap_distribution_estimate(d: DegreeSequence, Y: ForbiddenGraph, k: int) -> float:
    """Binomial reference law C(Y,k) lambda^k (1-lambda)^(Y-k) for the edge overlap.

    Normalization over k = 0..Y forces the exponent Y-k; no other exponent
    sums to one.
    """
    Yc = forbidden_for(d, Y).edge_count
    if not 0 <= k <= Yc:
        raise ValueError(f"k={k} outside 0..{Yc}")
    if d.n < 2:
        raise ValueError("need n >= 2")
    lam = float(d.density)
    return comb(Yc, k) * lam ** k * (1.0 - lam) ** (Yc - k)


def sparse_estimates(d: DegreeSequence, X: ForbiddenGraph, which: str) -> LogEstimate:
    """Sparse-regime formulas: which = "perth" for the count of graphs with
    degrees d avoiding X, "mckay81" for the containment probability ratio."""
    X = forbidden_for(d, X)
    E = d.edge_count
    x = X.row_sums
    if which == "perth":
        if E < 1:
            raise ValueError("need E >= 1")
        if impossible(d, X):
            return LogEstimate(NEG_INF, NEG_INF, 0.0, "count is zero", ())
        classes = d.histogram.items()
        base = (lgamma(2 * E + 1) - lgamma(E + 1) - E * log(2.0)
                - math.fsum(chain.from_iterable(repeat(lgamma(dj + 1), c) for dj, c in classes)))
        s = sum(c * dj * (dj - 1) for dj, c in classes)
        forb = sum(d.degrees[j - 1] * d.degrees[k - 1] for j, k in X.edges)
        terms = (
            ("degree_pairs", -s / (4.0 * E)),
            ("degree_pairs_sq", -(s * s) / (16.0 * E * E)),
            ("forbidden_dd", -forb / (2.0 * E)),
        )
        return LogEstimate.build(base, terms, "O(Delta^2/E)")
    if which == "mckay81":
        Xc = X.edge_count
        if Xc > E:
            raise ValueError("need X <= E")
        if impossible(d, *event_edges(X, "hit")):
            return LogEstimate(NEG_INF, NEG_INF, 0.0, "ratio is zero", ())
        # a vertex outside supp(X) adds lgamma(d_j + 1) - lgamma(d_j + 1) = 0.0
        base = math.fsum(lgamma(d.degrees[j - 1] + 1) - lgamma(d.degrees[j - 1] - x[j - 1] + 1)
                         for j in X.support)
        base -= Xc * log(2.0)
        base -= lgamma(E + 1) - lgamma(E - Xc + 1)
        return LogEstimate(base, base, 0.0, "O(Delta*X/E)", ())
    raise ValueError(f"unknown sparse formula {which!r}")


def regular_graph_expectations(n: int, d_const: int, target: str,
                               q: int | None = None) -> LogEstimate:
    """Expected substructure counts in a random regular graph, in log space.

    target "matchings" (n even), "cycles" (length q, 3 <= q <= n) or
    "sptrees" (spanning trees).  The base factor is the expectation for an ordinary
    random graph at the same density.  Raises when no d-regular graph on n
    vertices exists.
    """
    if not 1 <= d_const <= n - 1:
        raise ValueError("need 1 <= d <= n-1")
    if n * d_const % 2:
        raise ValueError(f"no {d_const}-regular graph on {n} vertices: n*d is odd")
    lam = Fraction(d_const, n - 1)
    lamf = float(lam)
    if target == "matchings":
        if n % 2:
            raise ValueError("perfect matchings need even n")
        base = (n / 2.0) * log(lamf) + lgamma(n + 1) - (n / 2.0) * log(2.0) - lgamma(n / 2 + 1)
        terms = (("degree_ratio", (1.0 - lamf) / (4.0 * lamf)),)
        return LogEstimate.build(base, terms, ERROR_ORDER)
    if target == "cycles":
        if q is None or not 3 <= q <= n:
            raise ValueError("cycles need 3 <= q <= n")
        base = q * log(lamf) + lgamma(n + 1) - log(2.0 * q) - lgamma(n - q + 1)
        terms = (("length_split", -(1.0 - lamf) * q * (n - q) / (lamf * n * n)),)
        return LogEstimate.build(base, terms, ERROR_ORDER)
    if target == "sptrees":
        base = (n - 2) * log(float(n)) + (n - 1) * log(lamf)
        terms = (("degree_ratio", 7.0 * (1.0 - lamf) / (2.0 * lamf)),)
        return LogEstimate.build(base, terms, ERROR_ORDER)
    raise ValueError(f"unknown target {target!r}")
