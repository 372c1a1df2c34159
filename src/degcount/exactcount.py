"""Exact arbitrary-precision counts of simple graphs with prescribed degrees
that avoid a forbidden graph, plus exact subgraph/overlap probabilities.

The counter assigns whole vertex neighbourhoods one vertex at a time with
residual-degree feasibility pruning.  Vertices touched by a still-active
forbidden edge are processed first; once no forbidden edge constrains the
remaining vertices, the tail collapses to a memoized recursion on the
multiset of residual degrees, which is what makes regular instances up to
n = 12 affordable.  An independent brute-force enumeration over all
2^C(n,2) graphs is provided as a checker for n <= 6.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .graphcore import DegreeSequence, ForbiddenGraph, check_support

DEFAULT_LIMIT_EMPTY = 12
DEFAULT_LIMIT_FORBIDDEN = 10
ENUMERATION_LIMIT = 6
OVERLAP_LIMIT_EDGES = 8   # an overlap distribution sums over all 2^|Y| edge subsets of Y


class CountLimitError(ValueError):
    """Instance exceeds the configured exact-counting size limit."""


class UndefinedProbabilityError(ValueError):
    """Conditional probability requested while G(d) = 0."""


def _class_compositions(caps: tuple[int, ...], r: int):
    """Yield (k_1, ..., k_c) with 0 <= k_i <= caps[i] and sum k_i = r."""
    if not caps:
        if r == 0:
            yield ()
        return
    rest = sum(caps[1:])
    lo = max(0, r - rest)
    hi = min(caps[0], r)
    for k in range(lo, hi + 1):
        for tail in _class_compositions(caps[1:], r - k):
            yield (k,) + tail


@lru_cache(maxsize=None)
def _count_free(classes: tuple[tuple[int, int], ...]) -> int:
    """Count simple graphs on interchangeable vertices grouped by residual degree.

    classes is a tuple of (degree, multiplicity) pairs, degrees > 0, sorted
    descending.  Vertices within a class are exchangeable, which is what the
    memoization keys on.
    """
    if not classes:
        return 1
    total = sum(v * c for v, c in classes)
    if total % 2:
        return 0
    nverts = sum(c for _, c in classes)
    if classes[0][0] > nverts - 1:
        return 0
    # peel one vertex of the highest residual degree
    r = classes[0][0]
    rest: list[tuple[int, int]] = []
    if classes[0][1] > 1:
        rest.append((classes[0][0], classes[0][1] - 1))
    rest.extend(classes[1:])
    caps = tuple(c for _, c in rest)
    total_count = 0
    for ks in _class_compositions(caps, r):
        ways = 1
        merged: dict[int, int] = {}
        for (v, c), k in zip(rest, ks):
            ways *= comb(c, k)
            if c - k:
                merged[v] = merged.get(v, 0) + (c - k)
            if k and v - 1:
                merged[v - 1] = merged.get(v - 1, 0) + k
        new_classes = tuple(sorted(merged.items(), reverse=True))
        total_count += ways * _count_free(new_classes)
    return total_count


def _collapse(residuals) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for r in residuals:
        if r:
            counts[r] = counts.get(r, 0) + 1
    return tuple(sorted(counts.items(), reverse=True))


def exact_count(d: DegreeSequence, X: ForbiddenGraph | None = None,
                limit: int | None = None) -> int:
    """Exact number of simple graphs with degrees d and no edge of X.

    Infeasible instances return 0; exceeding the size limit raises
    CountLimitError (default limit 12 for empty X, 10 otherwise).
    """
    n = d.n
    if X is None:
        X = ForbiddenGraph.empty(n)
    if X.n != n:
        raise ValueError("dimension mismatch")
    if limit is None:
        limit = DEFAULT_LIMIT_EMPTY if X.edge_count == 0 else DEFAULT_LIMIT_FORBIDDEN
    if n > limit:
        raise CountLimitError(f"n={n} exceeds exact-count limit {limit}")
    x = X.row_sums
    if any(dj > n - 1 - xj for dj, xj in zip(d.degrees, x)):
        return 0

    res = list(d.degrees)
    xadj = [frozenset(v - 1 for v in X.neighbors(j)) for j in range(1, n + 1)]

    def rec(active: tuple[int, ...]) -> int:
        live = [v for v in active if res[v] > 0]
        live_set = set(live)
        pivots = [v for v in live if xadj[v] & live_set]
        if not pivots:
            return _count_free(_collapse(res[v] for v in live))
        pivot = max(pivots, key=lambda v: (res[v], -v))
        need = res[pivot]
        eligible = [u for u in live if u != pivot and u not in xadj[pivot]]
        if need > len(eligible):
            return 0
        remaining = tuple(v for v in live if v != pivot)
        res[pivot] = 0
        total = 0
        for chosen in combinations(eligible, need):
            for u in chosen:
                res[u] -= 1
            total += rec(remaining)
            for u in chosen:
                res[u] += 1
        res[pivot] = need
        return total

    return rec(tuple(range(n)))


def enumerate_count(d: DegreeSequence, X: ForbiddenGraph | None = None) -> int:
    """Brute-force count over all 2^C(n,2) graphs; independent checker, n <= 6."""
    n = d.n
    if n > ENUMERATION_LIMIT:
        raise CountLimitError(f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    if X is None:
        X = ForbiddenGraph.empty(n)
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(np.int8)
    inc = np.zeros((m, n), dtype=np.int8)
    for e, (j, k) in enumerate(pairs):
        inc[e, j] = 1
        inc[e, k] = 1
    degs = bits.astype(np.int64) @ inc.astype(np.int64)
    ok = (degs == np.asarray(d.degrees, dtype=np.int64)).all(axis=1)
    if X.edge_count:
        xmask = 0
        for j, k in X.edges:
            xmask |= 1 << pairs.index((j - 1, k - 1))
        ok &= (masks & xmask) == 0
    return int(ok.sum())


def complement_degrees(d: DegreeSequence, X: ForbiddenGraph) -> tuple[int, ...]:
    """Degrees d' with d'_j = n-1-d_j-x_j; exact_count(d', X) = exact_count(d, X)."""
    x = X.row_sums
    return tuple(d.n - 1 - dj - xj for dj, xj in zip(d.degrees, x))


def _shifted(d: DegreeSequence, x: tuple[int, ...]) -> DegreeSequence | None:
    shifted = tuple(dj - xj for dj, xj in zip(d.degrees, x))
    if any(v < 0 for v in shifted):
        return None
    return DegreeSequence(shifted)


def exact_probability(d: DegreeSequence, X: ForbiddenGraph, mode: str,
                      m: int | None = None, limit: int | None = None) -> Fraction:
    """Exact probability, as a Fraction, for a uniform graph with degrees d.

    mode "miss": no edge in common with X; "hit": X appears as a subgraph;
    "induced": the restriction to vertices 1..m equals X exactly (requires
    x_j = 0 for j > m).
    """
    if d.n != X.n:
        raise ValueError("dimension mismatch")
    gd = exact_count(d, None, limit=limit)
    if gd == 0:
        raise UndefinedProbabilityError("G(d) = 0: no graph has these degrees")
    if mode == "miss":
        return Fraction(exact_count(d, X, limit=limit), gd)
    if mode == "hit":
        dm = _shifted(d, X.row_sums)
        if dm is None:
            return Fraction(0)
        return Fraction(exact_count(dm, X, limit=limit), gd)
    if mode == "induced":
        if m is None:
            raise ValueError("induced mode requires m")
        check_support(X, m)
        dm = _shifted(d, X.row_sums)
        if dm is None:
            return Fraction(0)
        Y = ForbiddenGraph.clique(d.n, m)
        return Fraction(exact_count(dm, Y, limit=limit), gd)
    raise ValueError(f"unknown mode {mode!r}")


def exact_overlap_distribution(d: DegreeSequence, Y: ForbiddenGraph,
                               limit: int | None = None) -> tuple[Fraction, ...]:
    """Exact distribution of the number of edges shared with Y, indexed 0..|Y|.

    Sums the exact containment-style counts over all edge subsets of Y;
    the probabilities add to 1 exactly.
    """
    if d.n != Y.n:
        raise ValueError("dimension mismatch")
    Yc = Y.edge_count
    if Yc > OVERLAP_LIMIT_EDGES:
        raise CountLimitError(f"|Y|={Yc} exceeds overlap limit {OVERLAP_LIMIT_EDGES}")
    gd = exact_count(d, None, limit=limit)
    if gd == 0:
        raise UndefinedProbabilityError("G(d) = 0")
    edges = Y.sorted_edges()
    probs = [Fraction(0) for _ in range(Yc + 1)]
    for r in range(Yc + 1):
        for subset in combinations(edges, r):
            xvec = [0] * d.n
            for j, k in subset:
                xvec[j - 1] += 1
                xvec[k - 1] += 1
            dm = _shifted(d, tuple(xvec))
            if dm is None:
                continue
            probs[r] += Fraction(exact_count(dm, Y, limit=limit), gd)
    return tuple(probs)
