"""Domain types for degree-constrained graph counting.

Holds the target degree sequence, the forbidden graph, and every derived
scalar parameter the estimate evaluators consume.  Averages, densities and
the moment-style parameters are kept as exact rationals so that algebraic
identities between them (for example sum(dev) = 0) survive into
the test suite bit-for-bit; they are summed as integers over a common
denominator and turned into Fractions once.  Evaluators convert to float at
the point of use.

Vertices are 1-indexed throughout the public API, including edge lists and
the file formats parsed here.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence


class InputFormatError(ValueError):
    """Malformed input; carries the source path and 1-based line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


def integer_degrees(values: Iterable) -> tuple[int, ...]:
    """The degrees as ints; ValueError names the first one that is not an integer.

    operator.index takes ints and numpy integers; int() would truncate 1.9
    and parse "1".
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for j, v in enumerate(values, start=1):
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"degree d_{j}={v!r} is not an integer") from None
        raise


@dataclass(frozen=True)
class DegreeSequence:
    """Target degrees d = (d_1, ..., d_n) with even sum, 0 <= d_j <= n-1."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", integer_degrees(self.degrees))
        n = len(self.degrees)
        if n < 1:
            raise ValueError("degree sequence must be non-empty")
        for j, dj in enumerate(self.degrees, start=1):
            if dj < 0 or dj > n - 1:
                raise ValueError(f"degree d_{j}={dj} outside [0, {n - 1}]")
        if sum(self.degrees) % 2 != 0:
            raise ValueError("degree sum must be even")

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def edge_count(self) -> int:
        """Number of edges E of any realization."""
        return sum(self.degrees) // 2

    def is_regular(self) -> bool:
        return len(set(self.degrees)) == 1


_NO_NEIGHBORS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class ForbiddenGraph:
    """Simple graph X whose edges the counted graphs must avoid.

    Edges are stored once each as (j, k) pairs with 1 <= j < k <= n; no
    self-loops.  Endpoints are integers, read with operator.index as
    DegreeSequence reads degrees.  row_sums gives x_j, the X-degree of each vertex.  Neighbour
    sets are kept only for the vertices of supp(X); every other vertex shares
    one empty frozenset, so a few edges on n vertices hold O(|X|) objects.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        norm = set()
        for e in self.edges:
            try:
                j, k = map(operator.index, e)
            except TypeError:
                raise ValueError(f"edge {e!r} has an endpoint that is not an integer") from None
            if j == k:
                raise ValueError(f"self-loop ({j},{k}) not allowed")
            if not (1 <= j <= self.n and 1 <= k <= self.n):
                raise ValueError(f"edge ({j},{k}) outside vertex range 1..{self.n}")
            norm.add((j, k) if j < k else (k, j))
        object.__setattr__(self, "edges", frozenset(norm))
        rs = [0] * self.n
        nbrs: dict[int, set[int]] = {}
        for j, k in self.edges:
            rs[j - 1] += 1
            rs[k - 1] += 1
            nbrs.setdefault(j, set()).add(k)
            nbrs.setdefault(k, set()).add(j)
        object.__setattr__(self, "_row_sums", tuple(rs))
        object.__setattr__(self, "_neighbors", {v: frozenset(s) for v, s in nbrs.items()})

    @classmethod
    def empty(cls, n: int) -> "ForbiddenGraph":
        return cls(n, frozenset())

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> "ForbiddenGraph":
        return cls(n, frozenset((j, k) for j, k in pairs))

    @classmethod
    def clique(cls, n: int, m: int) -> "ForbiddenGraph":
        """Complete graph on vertices 1..m, isolated vertices m+1..n."""
        if not 0 <= m <= n:
            raise ValueError("clique order must be within 0..n")
        return cls(n, frozenset((j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)))

    @property
    def row_sums(self) -> tuple[int, ...]:
        return self._row_sums  # type: ignore[attr-defined]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, j: int) -> frozenset[int]:
        return self._neighbors.get(j, _NO_NEIGHBORS)  # type: ignore[attr-defined]

    def has_edge(self, j: int, k: int) -> bool:
        return ((j, k) if j < k else (k, j)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Parameters:
    """Every scalar/sequence parameter the evaluators read, derived from (d, X).

    All rational quantities are exact Fractions (ints where integral).
    """

    n: int
    lam: Fraction
    A: Fraction
    dev: tuple[Fraction, ...]
    R: Fraction
    X2: int
    X3: int
    D: Fraction
    L: Fraction
    K: Fraction
    C11: Fraction
    C12: Fraction
    C21: Fraction


def forbidden_for(d: DegreeSequence, X: ForbiddenGraph | None) -> ForbiddenGraph:
    """X, or the empty graph on d's n vertices if X is None; raises unless X.n == d.n."""
    if X is None:
        return ForbiddenGraph.empty(d.n)
    if X.n != d.n:
        raise ValueError(f"dimension mismatch: degrees n={d.n}, forbidden n={X.n}")
    return X


def compute_parameters(d: DegreeSequence, X: ForbiddenGraph) -> Parameters:
    """Populate a Parameters record from a degree sequence and forbidden graph.

    Every sum is taken over integers scaled by a common denominator:
    delta_j * n(n-1) and dev_j * n = n d_j - 2E are integers.  Each field then
    becomes one exact Fraction (the per-vertex fields one per distinct value).
    Pure and deterministic; raises on dimension mismatch or n < 2.
    """
    X = forbidden_for(d, X)
    n = d.n
    if n < 2:
        raise ValueError("need n >= 2")
    S = 2 * d.edge_count
    N = n * (n - 1)                     # denominator of lam and of every delta_j
    lam = Fraction(S, N)

    x = X.row_sums
    # scaled integers: delta_j = dl[j] / N, dev_j = dv[j] / n
    dl = [dj * N - S * (n - 1) + S * xj for dj, xj in zip(d.degrees, x)]
    dv = [n * dj - S for dj in d.degrees]
    fr_dv = {v: Fraction(v, n) for v in set(dv)}

    D = L = K = 0
    for j, k in X.edges:
        dj, dk, xj, xk = dl[j - 1], dl[k - 1], x[j - 1], x[k - 1]
        D += dj * dk
        L += (dj - xj * N) * (dk - xk * N)
        K += dv[j - 1] * dv[k - 1]

    return Parameters(
        n=n, lam=lam, A=lam * (1 - lam) / 2,
        dev=tuple(fr_dv[v] for v in dv),
        R=Fraction(sum(v * v for v in dv), n * n),
        X2=sum(xj * xj for xj in x), X3=sum(xj ** 3 for xj in x),
        D=Fraction(D, N * N), L=Fraction(L, N * N), K=Fraction(K, n * n),
        C11=Fraction(sum(v * xj for v, xj in zip(dl, x)), N),
        C12=Fraction(sum(v * xj * xj for v, xj in zip(dl, x)), N),
        C21=Fraction(sum(v * v * xj for v, xj in zip(dl, x)), N * N),
    )


def interior_density(lam: Fraction | float) -> float:
    """lambda as a float; raises for the degenerate densities lambda in {0, 1}."""
    lam = float(lam)
    if lam <= 0.0 or lam >= 1.0:
        raise ValueError(f"degenerate density lambda={lam}")
    return lam


def check_support(X: ForbiddenGraph, m: int) -> None:
    """Raise unless 0 <= m <= n and X is supported on vertices 1..m, i.e.
    x_j = 0 for j > m."""
    if not 0 <= m <= X.n:
        raise ValueError(f"m={m} outside 0..{X.n}")
    x = X.row_sums
    for j in range(m, X.n):
        if x[j] != 0:
            raise ValueError(f"support violation: x_{j + 1}={x[j]} but m={m}")


MODES = ("miss", "hit", "induced")


def event_edges(X: ForbiddenGraph, mode: str,
                m: int | None = None) -> tuple[ForbiddenGraph, frozenset[tuple[int, int]]]:
    """(Y, S) of a probability event: the graph's edges inside Y are exactly S.

    mode "miss": no edge in common with X, (X, {}); "hit": X appears as a
    subgraph, (X, X); "induced": the restriction to vertices 1..m equals X
    exactly, (K_m, X), which requires x_j = 0 for j > m.
    """
    if mode == "miss":
        return X, frozenset()
    if mode == "hit":
        return X, X.edges
    if mode == "induced":
        if m is None:
            raise ValueError("induced mode requires m")
        check_support(X, m)
        return ForbiddenGraph.clique(X.n, m), X.edges
    raise ValueError(f"unknown mode {mode!r}")


def is_graphical(degrees) -> bool:
    """Erdos-Gallai test, including the even-sum requirement.

    With d sorted non-increasing and p the number of degrees >= k, the tail
    sum_{i>k} min(d_i, k) is k (p - k) plus the degrees past p when p > k,
    and the degrees past k otherwise.  p only falls as k grows, so after the
    sort the test is one linear sweep.  A degree that is not an integer
    raises ValueError, as in DegreeSequence.
    """
    ds = sorted(integer_degrees(degrees), reverse=True)
    n = len(ds)
    if n and (ds[-1] < 0 or ds[0] > n - 1):
        return False
    if sum(ds) % 2:
        return False
    suffix = list(accumulate(reversed(ds), initial=0))[::-1]   # suffix[i] = sum(ds[i:])
    p = n
    prefix = 0
    for k in range(1, n + 1):
        prefix += ds[k - 1]
        while p and ds[p - 1] < k:
            p -= 1
        tail = k * (p - k) + suffix[p] if p > k else suffix[k]
        if prefix > k * (k - 1) + tail:
            return False
    return True


def impossible(d: DegreeSequence, Y: ForbiddenGraph,
               S: frozenset[tuple[int, int]] = frozenset()) -> bool:
    """Whether no graph with degrees d has exactly the edges S inside Y (S a
    subset of Y's edges), as for each (Y, S) of event_edges.

    Vertex j takes its s_j edges of S and its other d_j - s_j edges outside Y,
    so the event is impossible when some d_j < s_j or d_j > n-1-y_j+s_j.
    Only the endpoints of Y's edges are tested: a vertex with y_j = 0 has
    s_j = 0, and DegreeSequence already enforces 0 <= d_j <= n-1.
    """
    y, s = Y.row_sums, Counter(j for edge in S for j in edge)
    return any(not s[j] <= d.degrees[j - 1] <= d.n - 1 - y[j - 1] + s[j]
               for edge in Y.edges for j in edge)


def induced_spec(d: DegreeSequence, X: ForbiddenGraph, m: int) -> dict[tuple[int, int], Fraction]:
    """Mixed moments over the support vertices 1..m of the forbidden graph:
    omega[(k, l)] = sum_{j<=m} (d_j - d_avg)^k (x_j - lambda*(m-1))^l,
    tabulated for all 0 <= k + l <= 3, with d_avg = 2E/n and
    lambda = 2E/(n(n-1)).

    Raises if some x_j != 0 for j > m (the support condition).
    """
    X = forbidden_for(d, X)
    check_support(X, m)
    n, S = d.n, 2 * d.edge_count
    d_avg = Fraction(S, n)
    shift = Fraction(S * (m - 1), n * (n - 1)) if m > 1 else Fraction(0)
    x = X.row_sums
    omega: dict[tuple[int, int], Fraction] = {}
    for k in range(0, 4):
        for l in range(0, 4 - k):
            omega[(k, l)] = sum(
                ((d.degrees[j] - d_avg) ** k * (x[j] - shift) ** l for j in range(m)),
                start=Fraction(0),
            )
    return omega


def relabel(d: DegreeSequence, X: ForbiddenGraph, perm: Sequence[int]) -> tuple[DegreeSequence, ForbiddenGraph]:
    """Apply a vertex permutation to both d and X.

    perm[j-1] is the new label of vertex j (1-indexed bijection).
    """
    X = forbidden_for(d, X)
    n = d.n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a bijection of 1..n")
    deg2 = [0] * n
    for j in range(1, n + 1):
        deg2[perm[j - 1] - 1] = d.degrees[j - 1]
    edges2 = [(perm[j - 1], perm[k - 1]) for j, k in X.edges]
    return DegreeSequence(tuple(deg2)), ForbiddenGraph.from_pairs(n, edges2)


# ---------------------------------------------------------------------------
# File formats.
#
# Degree sequence: one integer per line, or a JSON array.  Forbidden graph:
# one "j k" pair per line, 1-indexed.  Blank lines are ignored.  Both formats
# round-trip through the writers below.


def parse_degrees(text: str, path: str | None = None) -> DegreeSequence:
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            values = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON degree array: {exc}", path) from exc
        if not isinstance(values, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise InputFormatError("JSON degree input must be an array of integers", path)
        degrees = values
    else:
        degrees = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            token = line.strip()
            if not token:
                continue
            try:
                degrees.append(int(token))
            except ValueError as exc:
                raise InputFormatError(f"expected one integer, got {token!r}", path, lineno) from exc
        if not degrees:
            raise InputFormatError("no degrees found", path)
    try:
        return DegreeSequence(tuple(degrees))
    except ValueError as exc:
        raise InputFormatError(str(exc), path) from exc


def read_degrees(path: str) -> DegreeSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_degrees(fh.read(), path)


def write_degrees(path: str, d: DegreeSequence) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for dj in d.degrees:
            fh.write(f"{dj}\n")


def parse_edges(text: str, n: int, path: str | None = None) -> ForbiddenGraph:
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        parts = token.split()
        if len(parts) != 2:
            raise InputFormatError(f"expected 'j k', got {token!r}", path, lineno)
        try:
            j, k = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputFormatError(f"non-integer endpoint in {token!r}", path, lineno) from exc
        if j == k:
            raise InputFormatError(f"self-loop {j} {k}", path, lineno)
        if not (1 <= j <= n and 1 <= k <= n):
            raise InputFormatError(f"endpoint outside 1..{n} in {token!r}", path, lineno)
        key = (j, k) if j < k else (k, j)
        if key in seen:
            raise InputFormatError(f"duplicate edge {j} {k}", path, lineno)
        seen.add(key)
        pairs.append(key)
    return ForbiddenGraph.from_pairs(n, pairs)


def read_edges(path: str, n: int) -> ForbiddenGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edges(fh.read(), n, path)


def write_edges(path: str, X: ForbiddenGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j, k in X.sorted_edges():
            fh.write(f"{j} {k}\n")
