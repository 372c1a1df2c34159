import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from degcount.graphcore import MODES, DegreeSequence, ForbiddenGraph, is_graphical
from degcount.asymptotics import induced_estimate
from degcount.exactcount import exact_probability
from degcount.mcsampler import (
    BATCHES,
    CHUNK,
    MCEstimate,
    NonGraphicalError,
    _ends,
    _event_checker,
    _proposals,
    _rows,
    _switch,
    estimate_probability,
    realize,
)


def fg(n, pairs):
    return ForbiddenGraph.from_pairs(n, pairs)


def degrees_of(rows, n):
    """Degrees read off the adjacency rows: the 1s of each vertex's row."""
    return tuple(rows[v].count(1) for v in range(1, n + 1))


def edges_of(rows, n):
    """Sorted edges read off the adjacency rows."""
    return [(v, u) for v in range(1, n + 1) for u in range(v + 1, n + 1) if rows[v][u] == 1]


def switch(ends, rng, steps=1):
    """`steps` proposals drawn and applied in place, as one stretch of the
    chain; returns the sorted edge pairs of the even end slots.  Fewer than
    two edges admit no switch, and then nothing is drawn."""
    if len(ends) >= 4:
        _switch(ends, _proposals(rng, len(ends) // 2, steps))
    return [end[:2] for end in ends[::2]]


# -------------------------------------------------------------- realization

def test_erdos_gallai():
    assert is_graphical((3, 3, 3, 3))
    assert is_graphical((0,))
    assert not is_graphical((1, 1, 1))        # odd sum
    assert not is_graphical((3, 3, 0, 0))     # fails the inequality
    assert not is_graphical((5, 1, 1, 1))     # above n-1


@pytest.mark.parametrize("degrees,bad", [((1.9, 1.2), "d_1=1.9"), (("1", "1"), "d_1='1'"),
                                         ((2, 2, 2.0), "d_3=2.0")])
def test_erdos_gallai_takes_integers_only(degrees, bad):
    # the rule of DegreeSequence: int() would truncate 1.9 and parse "1"
    with pytest.raises(ValueError, match=f"^degree {re.escape(bad)} is not an integer$"):
        is_graphical(degrees)
    assert is_graphical(np.array([2, 2, 2], dtype=np.int32))


def is_graphical_reference(degrees):
    """The quadratic Erdos-Gallai loop: every tail sum taken afresh."""
    ds = sorted((int(v) for v in degrees), reverse=True)
    n = len(ds)
    if any(v < 0 or v > n - 1 for v in ds):
        return False
    if sum(ds) % 2:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += ds[k - 1]
        tail = sum(min(v, k) for v in ds[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def test_erdos_gallai_sweep_is_the_quadratic_loop():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=400, deadline=None)
    @hyp.given(st.integers(0, 12).flatmap(
        lambda n: st.lists(st.integers(-1, n), min_size=n, max_size=n)))
    def check(degrees):
        assert is_graphical(degrees) == is_graphical_reference(degrees)

    check()
    # every multiset of n degrees in [0, n-1] at n <= 8, graphical or not
    for n in range(1, 9):
        for degrees in itertools.combinations_with_replacement(range(n), n):
            assert is_graphical(degrees) == is_graphical_reference(degrees)


def test_realize_triangle_unique():
    assert realize(DegreeSequence((2, 2, 2))) == [(1, 2), (1, 3), (2, 3)]


def test_realize_k4():
    assert len(realize(DegreeSequence((3, 3, 3, 3)))) == 6


def test_realize_non_graphical_raises_distinct_error():
    with pytest.raises(NonGraphicalError):
        realize(DegreeSequence((3, 3, 0, 0)))
    # odd-sum sequences are rejected by the degree type itself
    with pytest.raises(ValueError):
        DegreeSequence((1, 1, 1))


@pytest.mark.parametrize("degrees", [
    (3, 2, 2, 2, 1), (4, 4, 4, 4, 4), (5, 3, 3, 3, 2, 2, 2, 2), (0, 0, 2, 1, 1),
])
def test_realize_hits_exact_degrees(degrees):
    n = len(degrees)
    assert degrees_of(_rows(n, realize(DegreeSequence(degrees))), n) == degrees


def test_realize_gives_sorted_distinct_pairs_property():
    # any simple graph on n <= 12: realize of its degrees is a list of sorted,
    # distinct pairs, itself sorted, whose endpoints count exactly those degrees
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 12))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        degrees = tuple(sum(v in e for e in chosen) for v in range(1, n + 1))
        edges = realize(DegreeSequence(degrees))
        assert edges == sorted(edges)
        assert all(j < k for j, k in edges) and len(set(edges)) == len(edges)
        assert tuple(sum(v in e for e in edges) for v in range(1, n + 1)) == degrees

    check()


def assert_realize_decides(degrees):
    """realize raises NonGraphicalError, with its one message, exactly when
    the Erdos-Gallai reference says no graph exists, and otherwise returns
    sorted distinct pairs with degrees exactly d."""
    d = DegreeSequence(degrees)
    if not is_graphical(degrees):
        with pytest.raises(NonGraphicalError, match=rf"^degrees are not graphical \(n={d.n}\)$"):
            realize(d)
        return
    edges = realize(d)
    assert all(j < k for j, k in edges) and edges == sorted(set(edges))
    assert tuple(sum(v in e for e in edges) for v in range(1, d.n + 1)) == d.degrees


def test_realize_decides_graphicality_exhaustive():
    # every even-sum sequence with n <= 6 and 0 <= d_j <= n-1, in every label
    # order; 1 + 2 + 8 + 54 + 533 + 6944 of them are graphical (OEIS A005155)
    seen = {True: 0, False: 0}
    for n in range(1, 7):
        for degrees in itertools.product(range(n), repeat=n):
            if sum(degrees) % 2 == 0:
                assert_realize_decides(degrees)
                seen[is_graphical(degrees)] += 1
    assert seen == {True: 7542, False: 17494}


def test_realize_decides_graphicality_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 12))
        if data.draw(st.booleans()):
            # the degrees of a simple graph: graphical
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                               else st.just([]))
            degrees = [sum(v in e for e in chosen) for v in range(1, n + 1)]
        else:
            # any degrees in range, one moved to make the sum even: mostly not graphical
            degrees = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            if sum(degrees) % 2:
                degrees[0] += 1 if degrees[0] < n - 1 else -1
        assert_realize_decides(tuple(degrees))

    check()


@pytest.mark.parametrize("n", [10, 2000, 10 ** 5])
def test_non_graphical_message_does_not_grow_with_n(n):
    # two vertices joined to all others, the rest isolated: even sum, not graphical
    d = DegreeSequence((n - 1, n - 1) + (0,) * (n - 2))
    with pytest.raises(NonGraphicalError) as err:
        realize(d)
    assert str(err.value) == f"degrees are not graphical (n={n})"
    assert len(str(err.value)) < 40


# -------------------------------------------------------------- switch steps

def test_triangle_rejects_every_swap():
    rng = np.random.default_rng(0)
    edges = realize(DegreeSequence((2, 2, 2)))
    rows = _rows(3, edges)
    ends = _ends(edges, rows)
    for _ in range(300):
        switch(ends, rng)
    assert edges_of(rows, 3) == [(1, 2), (1, 3), (2, 3)]


def test_four_cycle_swaps_between_cycle_structures():
    # from any 4-cycle, an accepted swap yields another 4-cycle; all three
    # structures (keyed by the vertex opposite 1) are visited
    rng = np.random.default_rng(1)
    edges = [(1, 2), (1, 4), (2, 3), (3, 4)]
    rows = _rows(4, edges)
    ends = _ends(edges, rows)
    seen = set()
    for _ in range(500):
        switch(ends, rng)
        degs = degrees_of(rows, 4)
        assert degs == (2, 2, 2, 2)
        opposite = next(v for v in (2, 3, 4) if rows[1][v] != 1)
        seen.add(opposite)
    assert seen == {2, 3, 4}


def test_degrees_invariant_along_long_run():
    rng = np.random.default_rng(2)
    edges = realize(DegreeSequence((4, 3, 3, 2, 2, 2, 2, 2)))
    rows = _rows(8, edges)
    ends = _ends(edges, rows)
    ref = degrees_of(rows, 8)
    for _ in range(10):
        edges = switch(ends, rng, 10 ** 4)
    assert degrees_of(rows, 8) == ref
    assert sorted(edges_of(rows, 8)) == sorted(edges)


def test_switches_preserve_degrees_property():
    # random simple graphs on n <= 12 with their own degrees, a random seed and
    # mixed call sizes, one of them past a chunk boundary: after every call the
    # degrees, the diagonal markers, the cell total and the sorted edge list hold
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 12))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        edges = sorted(chosen)
        rows = _rows(n, edges)
        ends = _ends(edges, rows)
        d = degrees_of(rows, n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        for steps in data.draw(st.lists(st.one_of(st.integers(0, 64), st.just(CHUNK + 1)),
                                        min_size=1, max_size=5)):
            edges = switch(ends, rng, steps)
            assert degrees_of(rows, n) == d
            assert all(rows[j][j] == 2 for j in range(1, n + 1))
            assert sum(map(sum, rows)) == 2 * len(chosen) + 2 * n
            assert sorted(edges) == edges_of(rows, n)
            assert all(j < k for j, k in edges)

    check()


def test_diagonal_marker_is_invisible():
    d = DegreeSequence((4, 3, 3, 2, 2, 2, 2, 2))
    edges = realize(d)
    rows = _rows(d.n, edges)
    assert all(rows[j][j] == 2 for j in range(1, d.n + 1))
    assert not any(rows[j][j] == 1 for j in range(d.n + 1))
    assert degrees_of(rows, d.n) == d.degrees
    assert edges_of(rows, d.n) == edges
    assert len(edges) == sum(d.degrees) // 2 and all(j < k for j, k in edges)
    assert sum(map(sum, rows)) == 2 * len(edges) + 2 * d.n
    # row and column 0 stay unused, so vertex labels index the rows directly
    assert not any(rows[0]) and not any(R[0] for R in rows)


def _reference_proposals(rng, m, steps):
    # one call's proposals, drawn as the flat kernel draws them: per chunk of
    # at most CHUNK, the edges i, then the edges j of the other m - 1, then
    # the uniforms whose values below 1/2 flip the pairing
    for lo in range(0, steps, CHUNK):
        k = min(CHUNK, steps - lo)
        edge_i = rng.integers(0, m, size=k).tolist()
        edge_j = rng.integers(0, m - 1, size=k).tolist()
        flips = rng.random(k).tolist()
        for i, j, u in zip(edge_i, edge_j, flips):
            yield i, j + 1 if j >= i else j, u < 0.5


def _set_switch(adj, edges, proposal):
    # the set-adjacency kernel, with the loop and multi-edge tests spelled out
    i, j, flip = proposal
    a, b = edges[i]
    c, d_ = edges[j]
    if flip:
        c, d_ = d_, c
    if len({a, b, c, d_}) < 4 or c in adj[a] or d_ in adj[b]:
        return
    adj[a].remove(b)
    adj[b].remove(a)
    adj[c].remove(d_)
    adj[d_].remove(c)
    adj[a].add(c)
    adj[c].add(a)
    adj[b].add(d_)
    adj[d_].add(b)
    edges[i] = (a, c) if a < c else (c, a)
    edges[j] = (b, d_) if b < d_ else (d_, b)


def _set_adjacency(n, edges):
    adj = [set() for _ in range(n + 1)]
    for j, k in edges:
        adj[j].add(k)
        adj[k].add(j)
    return adj


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("degrees", [(3,) * 8, (30,) * 60, (4, 3, 3, 2, 2, 2, 2, 2), (3,) * 300],
                         ids=["3-regular-8", "30-regular-60", "irregular-8", "3-regular-300"])
def test_kernel_draws_the_set_kernel_stream(degrees, seed):
    # n = 300 takes vertex labels past CPython's small-int cache (256)
    n = len(degrees)
    edges = realize(DegreeSequence(degrees))
    ref_edges = list(edges)
    ref_adj = _set_adjacency(n, ref_edges)
    rows = _rows(n, edges)
    ends = _ends(edges, rows)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    done, total = 0, 10 ** 5
    # mixed call sizes, one of them past a chunk boundary
    for steps in itertools.cycle((1, 7, 60, CHUNK + 1)):
        steps = min(steps, total - done)
        edges = switch(ends, rng, steps)
        for proposal in _reference_proposals(ref_rng, len(ref_edges), steps):
            _set_switch(ref_adj, ref_edges, proposal)
        done += steps
        if done == total:
            break
    assert edges == ref_edges
    assert edges_of(rows, n) == sorted((j, k) for j in range(1, n + 1)
                                      for k in ref_adj[j] if j < k)
    assert rng.bit_generator.state == ref_rng.bit_generator.state



def _tolist_proposals(rng, m, steps):
    # the proposal stream as first written, fresh ints from two tolist() calls
    # a chunk; the slot table must yield the same pairs for the same seed
    def chunk(k):
        i = rng.integers(m, size=k)
        j = rng.integers(m - 1, size=k)
        j += j >= i
        j <<= 1
        j += rng.random(k) < 0.5
        i <<= 1
        return zip(i.tolist(), j.tolist())
    return itertools.chain.from_iterable(
        chunk(min(CHUNK, steps - lo)) for lo in range(0, steps, CHUNK))


def test_slot_table_keeps_the_draw_order_property():
    # m = 2..2000 edges, read in islice cuts as the estimate reads them, some
    # cuts crossing a chunk boundary: pair for pair the tolist() stream, every
    # slot a Python int, and the Generator left in the same state
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(m=st.integers(2, 2000), seed=st.integers(0, 2 ** 32 - 1),
               cuts=st.lists(st.one_of(st.integers(1, 70), st.integers(CHUNK - 3, CHUNK + 3)),
                             min_size=1, max_size=4))
    @hyp.example(m=2, seed=0, cuts=[CHUNK, 1])
    @hyp.example(m=2000, seed=1, cuts=[CHUNK - 1, 2, CHUNK])
    def check(m, seed, cuts):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        steps = sum(cuts)
        stream, ref = _proposals(rng, m, steps), _tolist_proposals(ref_rng, m, steps)
        for cut in cuts:
            got = list(itertools.islice(stream, cut))
            assert got == list(itertools.islice(ref, cut))
            assert all(type(p) is int and type(q) is int for p, q in got)
        assert next(stream, None) is None and next(ref, None) is None
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    check()

# ---------------------------------------------------------------- estimates

def test_empty_forbidden_miss_is_exactly_one():
    d = DegreeSequence((3,) * 8)
    est = estimate_probability(d, ForbiddenGraph.empty(8), "miss",
                               samples=200, thinning=2, seed=1)
    assert est.mean == 1.0


def test_uniformity_over_the_three_realizations():
    # empirical distribution over the three 2-regular graphs on 4 vertices,
    # identified by the induced pattern on {1, 2}
    d = DegreeSequence((2, 2, 2, 2))
    X12 = fg(4, [(1, 2)])
    cfg = dict(samples=10_000, burn_in=1000, thinning=5, seed=3)
    est = estimate_probability(d, X12, "hit", **cfg)
    # vertex 1 is adjacent to 2 in exactly 2 of the 3 cycles
    sigma = math.sqrt((2 / 3) * (1 / 3) / cfg["samples"])
    assert abs(est.mean - 2 / 3) < 3 * sigma + 0.02


def test_estimate_matches_exact_small_instance():
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2)])
    cfg = dict(samples=20_000, thinning=12, seed=5)
    for mode in ("miss", "hit"):
        est = estimate_probability(d, X, mode, **cfg)
        exact = float(exact_probability(d, X, mode))
        assert abs(est.mean - exact) <= 3 * est.stderr, (mode, est, exact)


def test_induced_estimate_matches_exact():
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2)])
    cfg = dict(samples=20_000, thinning=12, seed=6)
    est = estimate_probability(d, X, "induced", m=2, **cfg)
    exact = float(exact_probability(d, X, "induced", m=2))
    assert abs(est.mean - exact) <= 3 * est.stderr + 0.01


def test_same_seed_same_path():
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2)])
    cfg = dict(samples=5000, thinning=6, seed=7)
    assert estimate_probability(d, X, "miss", **cfg) == \
        estimate_probability(d, X, "miss", **cfg)
    other = dict(samples=5000, thinning=6, seed=8)
    assert estimate_probability(d, X, "miss", **other).mean != \
        estimate_probability(d, X, "miss", **cfg).mean


def test_estimate_reads_one_stream():
    # burn-in and every thinned sample come from one stream of proposals,
    # chunked over the whole run: replay it on the set-adjacency kernel and
    # read the event off the edge set after each thinning interval
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2)])
    samples, burn_in, thinning, seed = 2000, 300, 12, 31
    est = estimate_probability(d, X, "hit", samples=samples, burn_in=burn_in,
                               thinning=thinning, seed=seed)
    assert burn_in + samples * thinning > CHUNK
    edges = realize(d)
    adj = _set_adjacency(8, edges)
    stream = _reference_proposals(np.random.default_rng(seed), len(edges),
                                  burn_in + samples * thinning)
    values = []
    for step, proposal in enumerate(stream, start=1):
        _set_switch(adj, edges, proposal)
        if step > burn_in and (step - burn_in) % thinning == 0:
            values.append(float(2 in adj[1]))
    values = np.array(values)
    batch_means = [chunk.mean() for chunk in np.array_split(values, BATCHES)]
    assert est.mean == values.mean()
    assert est.stderr == np.std(batch_means, ddof=1) / math.sqrt(BATCHES)


def test_pinned_seeded_estimate():
    # the pinned values fix the Generator draw order of the switch kernel
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2)])
    cfg = dict(samples=500, thinning=3, seed=99)
    est = estimate_probability(d, X, "miss", **cfg)
    assert est == MCEstimate(mean=0.592, stderr=0.040168067967111955, samples=500,
                             burn_in=298, thinning=3, seed=99)


def test_pinned_seeded_estimate_dense_triangle():
    # hit of a triangle in 30-regular graphs on 60 vertices; the values fix
    # the chunked Generator stream and must not move
    d = DegreeSequence((30,) * 60)
    X = fg(60, [(1, 2), (2, 3), (1, 3)])
    cfg = dict(samples=300, burn_in=6000, thinning=60, seed=6)
    assert estimate_probability(d, X, "hit", **cfg) == MCEstimate(
        mean=0.07333333333333333, stderr=0.04014593262626674, samples=300,
        burn_in=6000, thinning=60, seed=6)


def test_constant_indicator_has_no_error_bar():
    # K4 is the only graph with degrees (3, 3, 3, 3), so every sample holds
    # the edge 12 whatever the seed; 1 +- 0 would claim a certainty the chain
    # cannot show
    d = DegreeSequence((3, 3, 3, 3))
    for seed in (0, 5, 1729):
        est = estimate_probability(d, fg(4, [(1, 2)]), "hit", samples=300, seed=seed)
        assert est.mean == 1.0 and math.isnan(est.stderr)


@pytest.mark.parametrize("degrees,pairs,mode,indicator", [
    ((0, 0, 0), [(1, 2)], "miss", 1.0),
    ((0, 0, 0), [(1, 2)], "hit", 0.0),
    ((1, 1, 0, 0), [(1, 2)], "hit", 1.0),
    ((1, 1, 0, 0), [(1, 2)], "miss", 0.0),
    ((1, 1, 0, 0), [(3, 4)], "miss", 1.0),
])
def test_fewer_than_two_edges_read_the_start_graph(degrees, pairs, mode, indicator):
    # no switch moves a graph with fewer than two edges: the chain is its
    # start graph, with no burn-in, unit thinning and no error bar
    d = DegreeSequence(degrees)
    est = estimate_probability(d, fg(d.n, pairs), mode, samples=7, seed=3)
    assert (est.mean, est.burn_in, est.thinning, est.samples) == (indicator, 0, 1, 7)
    assert math.isnan(est.stderr)


def test_estimate_errors():
    with pytest.raises(NonGraphicalError):
        estimate_probability(DegreeSequence((3, 3, 0, 0)),
                             ForbiddenGraph.empty(4), "miss")
    d = DegreeSequence((2, 2, 2, 2))
    with pytest.raises(ValueError):
        estimate_probability(d, fg(4, [(1, 2)]), "induced")   # missing m
    with pytest.raises(ValueError):
        estimate_probability(d, fg(4, [(3, 4)]), "induced", m=2)  # support
    with pytest.raises(ValueError, match="burn_in >= 0"):
        estimate_probability(d, fg(4, [(1, 2)]), "miss", burn_in=-5)
    with pytest.raises(ValueError, match="thinning >= 1"):
        estimate_probability(d, fg(4, [(1, 2)]), "miss", thinning=0)


@pytest.mark.parametrize("mode, m, message", [
    ("induced", None, "induced mode requires m"),
    ("induced", 5, "m=5 outside 0..4"),
    ("inside", 2, "unknown mode 'inside'"),
], ids=["missing-m", "m-out-of-range", "unknown-mode"])
def test_event_errors_come_before_non_graphical_error(mode, m, message):
    # the event is checked before the start graph is realized: on degrees no
    # graph has, a bad mode or m still names the event, not the degrees
    d = DegreeSequence((3, 3, 0, 0))
    X = fg(4, [(1, 2)])
    with pytest.raises(ValueError, match=message) as err:
        estimate_probability(d, X, mode, m, samples=10)
    assert not isinstance(err.value, NonGraphicalError)
    with pytest.raises(NonGraphicalError):
        estimate_probability(d, X, "induced", 2, samples=10)

@functools.cache
def all_graphs(n):
    """(edge set, adjacency rows, degrees) of every labelled simple graph on 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(e for b, e in enumerate(pairs) if mask >> b & 1)
        rows = _rows(n, edges)
        out.append((edges, rows, degrees_of(rows, n)))
    return out


def test_event_matches_enumeration_property():
    # every graph on n <= 5 vertices: the sampler's event test and the exact
    # probability against the events read straight off the edge set
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 5))
        mode = data.draw(st.sampled_from(MODES))
        m = data.draw(st.integers(0, n)) if mode == "induced" else None
        pairs = list(itertools.combinations(range(1, (n if m is None else m) + 1), 2))
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        X = fg(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
        graphs = all_graphs(n)

        def happens(edges):
            if mode == "miss":
                return not edges & X.edges
            if mode == "hit":
                return X.edges <= edges
            return {(j, k) for j, k in edges if k <= m} == X.edges

        bind = _event_checker(X, mode, m)
        assert all(bind(rows)() == happens(edges) for edges, rows, _ in graphs)
        d = graphs[data.draw(st.integers(0, len(graphs) - 1))][2]
        same_d = [edges for edges, _, degrees in graphs if degrees == d]
        share = Fraction(sum(map(happens, same_d)), len(same_d))
        assert exact_probability(DegreeSequence(d), X, mode, m) == share

    check()



def test_bound_event_test_reads_every_cell_property():
    # random simple graphs on n <= 12 and events of 1 to 6 cells: the bound
    # test is the per-cell comparison rows[j][k] == w, before and after the
    # rows are edited in place
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        mode = data.draw(st.sampled_from(MODES))
        if mode == "induced":
            m = data.draw(st.sampled_from((2, 3, 4)))        # 1, 3 or 6 cells
            n = data.draw(st.integers(m, 12))
            support = list(itertools.combinations(range(1, m + 1), 2))
            X = fg(n, data.draw(st.lists(st.sampled_from(support), unique=True)))
            cells = [(j, k, int((j, k) in X.edges)) for j, k in support]
        else:
            m = None
            n = data.draw(st.integers(2, 12))
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            X = fg(n, data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                         max_size=min(6, len(pairs)), unique=True)))
            cells = [(j, k, int(mode == "hit")) for j, k in sorted(X.edges)]
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rows = _rows(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        test = _event_checker(X, mode, m)(rows)
        assert 1 <= len(cells) <= 6
        for _ in range(4):
            assert test() == all(rows[j][k] == w for j, k, w in cells)
            # edit the rows in place: toggle some cells, mostly the event's own
            for j, k in data.draw(st.lists(st.one_of(st.sampled_from(pairs),
                                                     st.sampled_from([c[:2] for c in cells])),
                                           max_size=4)):
                rows[j][k] = rows[k][j] = 1 - rows[j][k]

    check()

@pytest.mark.parametrize("mode, m, message", [
    ("induced", -1, "m=-1 outside 0..8"),
    ("induced", 9, "m=9 outside 0..8"),
    ("induced", 100, "m=100 outside 0..8"),
    ("induced", None, "induced mode requires m"),
    ("inside", 2, "unknown mode 'inside'"),
], ids=["-1", "9", "100", "missing-m", "unknown-mode"])
def test_induced_order_out_of_range_same_message_on_every_route(mode, m, message):
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2)])
    with pytest.raises(ValueError, match=message):
        exact_probability(d, X, mode, m=m)
    if mode == "induced" and m is not None:
        with pytest.raises(ValueError, match=message):
            induced_estimate(d, X, m)
    with pytest.raises(ValueError, match=message):
        estimate_probability(d, X, mode, m, samples=10)
