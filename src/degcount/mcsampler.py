"""Near-uniform sampling of graphs with a given degree sequence via the
double-edge-switch chain, for empirical validation of the probability
formulas beyond exact-count reach.

A switch picks two edges uniformly, proposes rewiring them across, and
rejects proposals that would create a loop or multi-edge; degrees are
invariant along the chain.  realize(d) gives the start graph as its sorted
edge list, and the chain runs on one row of n+1 cells per vertex built from
it, so every adjacency test and edit is a single index into a list, which
CPython indexes with a specialised instruction.  The rows cost (n+1)^2 list
slots of 8 bytes each, about 128 MB at n = 4000.  The chain keeps each edge
as two oriented ends (x, y, rows[x], rows[y]), the sorted orientation first,
so a proposal reads two ends and tests two cells with no branch on the
pairing and no arithmetic on the index: the cell index is a vertex label,
which CPython caches as a small int for n <= 256.  Proposals come from a
numpy Generator in bulk: each chunk of at most CHUNK proposals is three
arrays (edge i, edge j, pairing flip), and one Python loop applies them as
the end slots (2i, 2j + flip).  The slots run up to 2E - 1, past the
small-int cache once E > 128, so each stream keeps one object table of the
ints 0..2E-1 and a chunk reads its slots from it: the kernel gets ints that
already exist, and no proposal allocates one.  Slot 2j + 1 is edge j
reversed, which is the pairing the flip selects, so the draws and the chain
of a seed are those of a kernel on sorted edge pairs.  Estimates pool
thinned samples and report a batch-means standard error so autocorrelation
is priced in honestly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .graphcore import DEFAULT_SEED, DegreeSequence, ForbiddenGraph, event_edges, forbidden_for

BATCHES = 20   # batch count for the batch-means standard error
CHUNK = 1 << 14   # most switch proposals drawn in one set of arrays


class NonGraphicalError(ValueError):
    """The degree sequence admits no simple graph."""


def realize(d: DegreeSequence) -> list[tuple[int, int]]:
    """The sorted edges (j, k), j < k, of one simple graph with degrees
    exactly d (largest-first greedy build, Havel-Hakimi).

    The greedy fails, reaching a residual 0, exactly when no simple graph
    has degrees d (graphcore.is_graphical is the reference), and then raises
    NonGraphicalError; a wrong built graph would raise RuntimeError.
    """
    edges = []
    residual = [(dj, v) for v, dj in enumerate(d.degrees, start=1)]
    while True:
        residual.sort(reverse=True)
        r, v = residual[0]
        if r == 0:
            break
        targets = residual[1:r + 1]
        if targets[-1][0] == 0:
            raise NonGraphicalError(f"degrees are not graphical (n={d.n})")
        residual[0] = (0, v)
        for idx, (ru, u) in enumerate(targets, start=1):
            edges.append((v, u) if v < u else (u, v))
            residual[idx] = (ru - 1, u)
    edges.sort()
    count = Counter(chain.from_iterable(edges))
    if len(set(edges)) < len(edges) or tuple(count[v] for v in range(1, d.n + 1)) != d.degrees:
        raise RuntimeError("internal realization failure")
    return edges


def _rows(n: int, edges) -> list[list[int]]:
    """The adjacency rows of the graph on 1..n with these edges.

    Cell rows[j][k] is 1 when {j, k} is an edge and 0 otherwise, and the
    diagonal cell of each vertex holds the marker 2, so a switch that would
    make a loop fails the same nonzero test as one that would double an edge.
    Row and column 0 stay 0, so vertex labels index the lists directly.
    """
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        rows[v][v] = 2
    for j, k in edges:
        rows[j][k] = rows[k][j] = 1
    return rows


def _proposals(rng: np.random.Generator, m: int, steps: int):
    """The next `steps` proposals (2i, 2j + flip) on m >= 2 edges, lazily drawn.

    A chunk of k <= CHUNK proposals is drawn as k edges i, then k edges j
    from the other m - 1 (shifted past i), then k pairing flips, and yields
    them as the end slots the kernel reads: 2i, and 2j + 1 when flipped.
    The slots are read from one object table of the ints 0..2m-1, so every
    proposal hands the kernel ints that already exist."""
    slots = np.array(range(2 * m), dtype=object)

    def chunk(k: int):
        i = rng.integers(m, size=k)
        j = rng.integers(m - 1, size=k)
        j += j >= i
        j <<= 1
        j += rng.random(k) < 0.5
        i <<= 1
        return zip(slots[i].tolist(), slots[j].tolist())
    return chain.from_iterable(chunk(min(CHUNK, steps - lo)) for lo in range(0, steps, CHUNK))


def _ends(edges: list[tuple[int, int]], rows: list[list[int]]) -> list[tuple]:
    """The 2E oriented ends of the sorted edges: slot 2e holds edge e = (x, y)
    as (x, y, rows[x], rows[y]), slot 2e + 1 as (y, x, rows[y], rows[x])."""
    ends = []
    for x, y in edges:
        Rx, Ry = rows[x], rows[y]
        ends += (x, y, Rx, Ry), (y, x, Ry, Rx)
    return ends


def _switch(ends: list[tuple], proposals) -> None:
    """Apply each proposal (p, q) that keeps the graph simple, in place.

    Ends p and q are (a, b) and (c, d) with their rows, so the proposal
    rewires {a, b}, {c, d} to {a, c}, {b, d}.  The diagonal marker makes the
    two adjacency tests reject the shared endpoints too: a == c and b == d
    hit a diagonal cell, a == d and b == c the edge {a, b} itself.  An
    accepted switch writes both cells of each edge through the rows and
    both ends of each new edge, the sorted orientation at the even slot."""
    for p, q in proposals:
        a, b, Ra, Rb = ends[p]
        c, d_, Rc, Rd = ends[q]
        if Ra[c] or Rb[d_]:
            continue
        Ra[b] = Rb[a] = Rc[d_] = Rd[c] = 0
        Ra[c] = Rc[a] = Rb[d_] = Rd[b] = 1
        if a < c:
            ends[p] = a, c, Ra, Rc
            ends[p + 1] = c, a, Rc, Ra
        else:
            ends[p] = c, a, Rc, Ra
            ends[p + 1] = a, c, Ra, Rc
        q &= -2
        if b < d_:
            ends[q] = b, d_, Rb, Rd
            ends[q + 1] = d_, b, Rd, Rb
        else:
            ends[q] = d_, b, Rd, Rb
            ends[q + 1] = b, d_, Rb, Rd


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    burn_in: int
    thinning: int
    seed: int


def _event_checker(X: ForbiddenGraph, mode: str, m: int | None):
    """The event graphcore.event_edges(X, mode, m) as a binder: given the
    adjacency rows, it returns a test of them that takes no argument.

    event_edges runs now, so a bad mode or m fails before any realization.
    The test reads each cell (j, k) of Y as rows[j][k] against 1 on S and 0
    on the rest of Y, several cells as one list comparison; the rows change
    in place, so a bound test stays valid along the chain."""
    Y, S = event_edges(X, mode, m)
    cells = [(j, k, int((j, k) in S)) for j, k in Y.sorted_edges()]

    def bind(rows: list[list[int]]):
        if len(cells) == 1:
            (j, k, w), = cells
            R = rows[j]
            return lambda: R[k] == w
        at = [(rows[j], k) for j, k, _ in cells]
        wanted = [w for _, _, w in cells]
        return lambda: [R[k] for R, k in at] == wanted
    return bind


def estimate_probability(d: DegreeSequence, X: ForbiddenGraph, mode: str,
                         m: int | None = None, *, samples: int = 10_000,
                         burn_in: int | None = None, thinning: int | None = None,
                         seed: int = DEFAULT_SEED) -> MCEstimate:
    """Empirical frequency of the miss/hit/induced event over the switch chain.

    burn_in defaults to 10 E ln(E) switch steps and thinning to E steps
    between samples.  One stream of proposals from np.random.default_rng(seed)
    runs through burn-in and every sample, so the estimate is deterministic
    for fixed arguments (including seed) under a given numpy.
    The standard error comes from batch means over the thinned sample stream;
    it is NaN when the event indicator never changed, since such a chain
    shows no spread at all.
    """
    X = forbidden_for(d, X)
    if samples < 1:
        raise ValueError("need samples >= 1")
    bind = _event_checker(X, mode, m)
    edges = realize(d)
    E = len(edges)
    if burn_in is None:
        burn_in = int(10 * E * math.log(E)) if E > 1 else 0
    if thinning is None:
        thinning = max(E, 1)
    if burn_in < 0 or thinning < 1:
        raise ValueError(f"need burn_in >= 0 and thinning >= 1, got {burn_in} and {thinning}")
    rng = np.random.default_rng(seed)
    rows = _rows(d.n, edges)
    check = bind(rows)
    ends = _ends(edges, rows)
    # one proposal stream across burn-in and every thinned sample, empty when
    # fewer than two edges leave no switch to propose
    stream = _proposals(rng, E, burn_in + samples * thinning if E > 1 else 0)
    _switch(ends, islice(stream, burn_in))
    mixed = []
    for _ in range(samples):
        _switch(ends, islice(stream, thinning))
        mixed.append(check())

    values = np.asarray(mixed, dtype=float)
    mean = float(values.mean())
    nb = min(BATCHES, samples)
    batch_means = np.array([chunk.mean() for chunk in np.array_split(values, nb)])
    if nb > 1 and values.min() < values.max():
        stderr = float(batch_means.std(ddof=1) / math.sqrt(nb))
    else:
        # one batch, or an event indicator that never changed: no error bar
        stderr = float("nan")
    return MCEstimate(mean=mean, stderr=stderr, samples=samples,
                      burn_in=burn_in, thinning=thinning, seed=seed)
