import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import comb

import pytest

from degcount import exactcount
from degcount.graphcore import MODES, DegreeSequence, ForbiddenGraph, event_edges, impossible, relabel
from degcount.exactcount import (
    CountLimitError,
    UndefinedProbabilityError,
    _class_steps,
    _collapse,
    _count_free,
    _scopes,
    complement_degrees,
    enumerate_count,
    exact_count,
    exact_overlap_distribution,
    exact_probability,
)


def fg(n, pairs):
    return ForbiddenGraph.from_pairs(n, pairs)


def pivot_count(d, X):
    """Reference: assign the pivot's neighbourhood one vertex subset at a time.

    This is the vertex-by-vertex recursion exact_count ran before it grouped
    the vertices free of live forbidden edges into residual-degree classes.
    """
    n = d.n
    if any(dj > n - 1 - xj for dj, xj in zip(d.degrees, X.row_sums)):
        return 0
    res = list(d.degrees)
    xadj = [frozenset(v - 1 for v in X.neighbors(j)) for j in range(1, n + 1)]

    def rec(active):
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


def draw_instance(st, data, n_max, x_max):
    """(d, X): X has at most x_max edges on n <= n_max vertices, and d is the
    degree sequence of a random graph of random density.  Half the draws
    make that graph avoid X; the others may give a count of 0."""
    n = data.draw(st.integers(1, n_max))
    pairs = list(combinations(range(1, n + 1), 2))
    xs = data.draw(st.lists(st.sampled_from(pairs), max_size=x_max, unique=True)) if pairs else []
    return draw_degrees(st, data, n, xs), fg(n, xs)


def draw_degrees(st, data, n, xs):
    """d of draw_instance for the edges xs of X on n vertices."""
    pairs = combinations(range(1, n + 1), 2)
    avoid_x = data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.random()
    deg = [0] * n
    for j, k in pairs:
        if not (avoid_x and (j, k) in xs) and rng.random() < p:
            deg[j - 1] += 1
            deg[k - 1] += 1
    return DegreeSequence(tuple(deg))


# ----------------------------------------------------------- frozen examples
# Values computed with the brute-force enumeration oracle below (asserted in
# the same breath so the oracle stays live).

@pytest.mark.parametrize("degrees,pairs,expected", [
    ((1, 1), [], 1),
    ((1, 1), [(1, 2)], 0),
    ((2, 2, 2, 2), [], 3),
    ((1, 1, 1, 1), [], 3),
    ((2, 2, 2), [], 1),
    ((3, 3, 3, 3), [], 1),
    ((2, 2, 2, 2), [(1, 2)], 1),
    ((1, 1, 2, 2), [(1, 2)], 2),
    ((2, 2, 2, 2, 2, 2), [], 70),
])
def test_small_counts_match_enumeration(degrees, pairs, expected):
    d = DegreeSequence(degrees)
    X = fg(len(degrees), pairs)
    assert enumerate_count(d, X) == expected
    assert exact_count(d, X) == expected


def test_known_regular_counts():
    assert exact_count(DegreeSequence((3,) * 6)) == 70
    assert exact_count(DegreeSequence((3,) * 8)) == 19355
    assert exact_count(DegreeSequence((3,) * 10)) == 11180820


def test_infeasible_degrees_give_zero():
    d = DegreeSequence((3, 1, 1, 1))
    assert exact_count(d, fg(4, [(1, 2)])) == 0


@pytest.mark.parametrize("degrees", [(3, 3, 0, 0), (4, 4, 1, 1, 0)])
def test_free_classes_past_their_room_count_zero(degrees):
    # a vertex whose residual exceeds the other live vertices has no class
    # step to take, so the free recursion sums to 0 with no early exit
    d = DegreeSequence(degrees)
    _count_free.cache_clear()
    assert exact_count(d) == enumerate_count(d) == 0


def test_limits():
    # one default limit, 12, with or without a forbidden graph
    with pytest.raises(CountLimitError):
        exact_count(DegreeSequence((0,) * 13))
    with pytest.raises(CountLimitError):
        exact_count(DegreeSequence((0,) * 13), fg(13, [(1, 2)]))
    # override allows larger instances
    assert exact_count(DegreeSequence((0,) * 13), fg(13, [(1, 2)]), limit=13) == 1
    with pytest.raises(CountLimitError):
        enumerate_count(DegreeSequence((0,) * 7))


@pytest.mark.parametrize("degrees", [(3,) * 14, (3, 3, 1, 1)], ids=["over-limit", "no-graph"])
def test_bad_mode_fails_before_the_count(degrees):
    # the event is decoded before G(d) is counted, so neither the count
    # limit nor G(d) = 0 masks an unknown mode
    d = DegreeSequence(degrees)
    with pytest.raises(ValueError, match="^unknown mode 'inside'$"):
        exact_probability(d, ForbiddenGraph.empty(d.n), "inside")


BOUND_CASE = (DegreeSequence((8,) * 7 + (6,) * 7),
              fg(14, [(1, 2), (2, 3), (3, 4)]))   # a path keeps the class-step table busy


def cold_count(monkeypatch, free_bound, step_bound, state_bound):
    """Count BOUND_CASE from empty tables under the given bounds."""
    monkeypatch.setattr(exactcount, "FREE_MEMO_SIZE", free_bound)
    monkeypatch.setattr(exactcount, "STEP_MEMO_SIZE", step_bound)
    monkeypatch.setattr(exactcount, "STATE_MEMO_SIZE", state_bound)
    _count_free.cache_clear()
    _class_steps.cache_clear()
    clear_state_table()
    return exact_count(*BOUND_CASE, limit=14)


def clear_state_table():
    _scopes.clear()


def stored_states():
    """The states stored over every scope's own table."""
    return sum(len(states) for _, _, _, states in _scopes.values())


def state_tables():
    """A copy of every scope's state table, by (Y, weight)."""
    return {key: dict(states) for key, (_, _, _, states) in _scopes.items()}


FULL_BOUNDS = (exactcount.FREE_MEMO_SIZE, exactcount.STEP_MEMO_SIZE, exactcount.STATE_MEMO_SIZE)


def test_count_keeps_its_own_memo_entries(monkeypatch):
    # however small the bounds, a count computes each state once: the shared
    # tables are trimmed only when the next count starts
    full = cold_count(monkeypatch, *FULL_BOUNDS)
    states = stored_states()
    assert cold_count(monkeypatch, 16, 16, 16) == full
    free, steps = _count_free.cache_info(), _class_steps.cache_info()
    assert free.misses == free.currsize > 16
    assert steps.misses == steps.currsize > 16
    assert stored_states() == states > 16


def test_free_memo_is_bounded(monkeypatch):
    # a free table past its bound is emptied when the next count starts, so
    # that count runs it cold again; the step table, within bound, is kept
    assert 0 < exactcount.FREE_MEMO_SIZE < float("inf")
    full = cold_count(monkeypatch, 16, *FULL_BOUNDS[1:])
    free, steps = _count_free.cache_info(), _class_steps.cache_info()
    assert free.currsize > 16
    clear_state_table()     # else the state table answers the next count at its root
    assert exact_count(*BOUND_CASE, limit=14) == full
    assert _count_free.cache_info() == free
    assert _class_steps.cache_info().misses == steps.misses
    assert _class_steps.cache_info().hits > steps.hits


def test_class_step_table_is_bounded(monkeypatch):
    # a step table past its bound is emptied when the next count starts, so
    # that count runs it cold again; the free table, within bound, is kept
    assert 0 < exactcount.STEP_MEMO_SIZE < float("inf")
    full = cold_count(monkeypatch, FULL_BOUNDS[0], 16, FULL_BOUNDS[2])
    free, steps = _count_free.cache_info(), _class_steps.cache_info()
    assert steps.currsize > 16
    clear_state_table()     # else the state table answers the next count at its root
    assert exact_count(*BOUND_CASE, limit=14) == full
    assert _class_steps.cache_info() == steps
    assert _count_free.cache_info().misses == free.misses
    assert _count_free.cache_info().hits > free.hits


def test_state_memo_is_bounded(monkeypatch):
    # a state table past its bound is emptied when the next count starts, so
    # that count runs its states cold again; the free and step tables, within
    # bound, are kept
    assert 0 < exactcount.STATE_MEMO_SIZE < float("inf")
    full = cold_count(monkeypatch, *FULL_BOUNDS[:2], 16)
    free, steps = _count_free.cache_info(), _class_steps.cache_info()
    states = stored_states()
    assert states > 16
    assert exact_count(*BOUND_CASE, limit=14) == full
    assert stored_states() == states
    for table, before in ((_count_free, free), (_class_steps, steps)):
        assert table.cache_info().misses == before.misses
        assert table.cache_info().hits > before.hits


def test_state_table_is_shared_between_counts(monkeypatch):
    # a state's count depends on Y and the weight, not on d: a second d under
    # the same Y reads states the first one stored and counts what it counts
    # cold; a count with an empty Y never touches the table, even past its bound
    X = fg(10, [(1, 2), (2, 3), (3, 4), (4, 5)])
    d1, d2 = DegreeSequence((4,) * 10), DegreeSequence((5,) * 8 + (4,) * 2)
    clear_state_table()
    cold = exact_count(d2, X)
    cold_states = stored_states()
    clear_state_table()
    exact_count(d1, X)
    warm_states = stored_states()
    assert exact_count(d2, X) == cold
    assert warm_states < stored_states() < warm_states + cold_states
    monkeypatch.setattr(exactcount, "STATE_MEMO_SIZE", 16)
    table = state_tables()
    assert exact_count(DegreeSequence((3,) * 10)) == 11180820
    assert exact_count(DegreeSequence((3,) * 10), fg(10, [])) == 11180820
    assert state_tables() == table


def test_scope_built_inside_another_owns_its_states(monkeypatch):
    # a scope made while another is being built, here by a count that the
    # path's symmetry search starts, keeps a table of its own: neither Y
    # reads the other's states, though their root states share a key
    d = DegreeSequence((3,) * 8)
    triangle, path = fg(8, [(1, 2), (2, 3), (1, 3)]), fg(8, [(1, 2), (2, 3)])
    symmetries, inner = exactcount._symmetries, []

    def reentrant(xadj):
        monkeypatch.setattr(exactcount, "_symmetries", symmetries)     # only once
        inner.append(exact_count(d, triangle))
        return symmetries(xadj)

    clear_state_table()
    monkeypatch.setattr(exactcount, "_symmetries", reentrant)
    assert exact_count(d, path) == 5530
    assert inner == [2160]
    assert exact_count(d, triangle) == 2160


def test_scopes_built_at_once_by_two_threads_own_their_states(monkeypatch):
    # two threads build their scopes at the same time, and the triangle's
    # count starts only once the path's has filled the path's table: each
    # thread still reads only its own Y's states
    import threading
    d = DegreeSequence((3,) * 8)
    triangle, path = fg(8, [(1, 2), (2, 3), (1, 3)]), fg(8, [(1, 2), (2, 3)])
    symmetries = exactcount._symmetries
    building, path_done = threading.Barrier(2, timeout=30), threading.Event()
    counts = {}

    def held(xadj):
        building.wait()
        if len(xadj[0]) == 2:       # the triangle's vertex 1
            path_done.wait(30)
        return symmetries(xadj)

    def count(name, Y):
        counts[name] = exact_count(d, Y)
        path_done.set()

    clear_state_table()
    monkeypatch.setattr(exactcount, "_symmetries", held)
    threads = [threading.Thread(target=count, args=case)
               for case in (("path", path), ("triangle", triangle))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counts == {"path": 5530, "triangle": 2160}


def product_steps(classes, r, extra):
    """Reference: every (k_1, ..., k_c) in the box 0..c_i summing to r, with
    the lowered, kept and extra residuals merged by a Counter."""
    steps = []
    for ks in product(*(range(c + 1) for _, c in classes)):
        if sum(ks) != r:
            continue
        ways, counts = 1, Counter(extra)
        for (v, c), k in zip(classes, ks):
            ways *= comb(c, k)
            counts[v] += c - k
            counts[v - 1] += k
        del counts[0]
        steps.append((ways, tuple(sorted((+counts).items(), reverse=True))))
    return tuple(steps)


def test_class_steps_match_product_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(residuals=st.sets(st.integers(1, 8), max_size=5),
               counts=st.lists(st.integers(1, 4), min_size=5, max_size=5),
               r=st.integers(0, 14),
               extra=st.lists(st.integers(1, 8), max_size=4))
    def check(residuals, counts, r, extra):
        classes = tuple(zip(sorted(residuals, reverse=True), counts))
        extra = tuple(sorted(extra))
        assert _class_steps(classes, r, extra) == product_steps(classes, r, extra)

    check()


@pytest.mark.parametrize("n,pairs", [
    (12, [(1, 2), (2, 3), (1, 3)]),
    (10, [(1, 2), (3, 4), (5, 6)]),
    (10, [(1, 2), (1, 3), (1, 4), (1, 5)]),
    (9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]),
])
def test_class_oracle_matches_pivot_reference_on_regular(n, pairs):
    for dv in range(n):
        if n * dv % 2 == 0:
            d, X = DegreeSequence((dv,) * n), fg(n, pairs)
            assert exact_count(d, X, limit=n) == pivot_count(d, X)


# ------------------------------------------------------- randomized oracles

def test_class_oracle_matches_enumeration_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        d, X = draw_instance(st, data, 6, 15)
        assert exact_count(d, X) == enumerate_count(d, X)

    check()


def test_class_oracle_matches_pivot_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        d, X = draw_instance(st, data, 10, 6)
        assert exact_count(d, X, limit=10) == pivot_count(d, X)

    check()


def test_complementation_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        d, X = draw_instance(st, data, 10, 6)
        hyp.assume(all(dj <= d.n - 1 - xj for dj, xj in zip(d.degrees, X.row_sums)))
        dc = DegreeSequence(complement_degrees(d, X))
        assert exact_count(d, X, limit=10) == exact_count(dc, X, limit=10)

    check()


def random_instance(rng, n, edge_p=0.25):
    pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < edge_p]
    X = ForbiddenGraph.from_pairs(n, pairs)
    if rng.random() < 0.5:
        deg = [0] * n
        for j, k in combinations(range(n), 2):
            if rng.random() < 0.5:
                deg[j] += 1
                deg[k] += 1
    else:
        deg = [rng.randint(0, n - 1) for _ in range(n)]
        if sum(deg) % 2:
            j = rng.randrange(n)
            deg[j] += 1 if deg[j] < n - 1 else -1
    return DegreeSequence(tuple(deg)), X


@pytest.mark.parametrize("seed", range(8))
def test_backtracking_vs_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(2, 6)
        d, X = random_instance(rng, n)
        assert exact_count(d, X) == enumerate_count(d, X)


@pytest.mark.parametrize("seed", range(6))
def test_complementation_identity(seed):
    rng = random.Random(1000 + seed)
    for _ in range(10):
        n = rng.randint(3, 8)
        X = ForbiddenGraph.from_pairs(
            n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.2])
        caps = [n - 1 - xj for xj in X.row_sums]
        deg = [rng.randint(0, caps[j]) for j in range(n)]
        if sum(deg) % 2:
            j = next(i for i in range(n) if deg[i] < caps[i] or deg[i] > 0)
            deg[j] += 1 if deg[j] < caps[j] else -1
        if sum(deg) % 2:
            continue
        d = DegreeSequence(tuple(deg))
        dc = DegreeSequence(complement_degrees(d, X))
        assert exact_count(d, X) == exact_count(dc, X)


def test_count_permutation_invariance():
    rng = random.Random(7)
    d, X = random_instance(rng, 6)
    perm = list(range(1, 7))
    rng.shuffle(perm)
    d2, X2 = relabel(d, X, perm)
    assert exact_count(d, X) == exact_count(d2, X2)


def test_forbidding_more_never_increases():
    rng = random.Random(11)
    d = DegreeSequence((2, 2, 2, 2, 2, 2))
    pairs = list(combinations(range(1, 7), 2))
    rng.shuffle(pairs)
    prev = exact_count(d)
    chosen = []
    for e in pairs[:5]:
        chosen.append(e)
        cur = exact_count(d, fg(6, chosen))
        assert cur <= prev
        prev = cur


# ------------------------------------------------------------ probabilities

def test_probability_trivial_empty_x():
    d = DegreeSequence((2, 2, 2, 2))
    X = ForbiddenGraph.empty(4)
    assert exact_probability(d, X, "miss") == 1
    assert exact_probability(d, X, "hit") == 1


def test_probability_hit_example():
    d = DegreeSequence((2, 2, 2, 2))
    X = fg(4, [(1, 2)])
    assert exact_probability(d, X, "hit") == Fraction(2, 3)
    assert exact_probability(d, X, "miss") == Fraction(1, 3)


def test_probability_induced_example():
    d = DegreeSequence((2, 2, 2, 2))
    X = fg(4, [(1, 2)])
    # equals G((1,1,2,2), clique on {1,2}) / 3
    want = Fraction(exact_count(DegreeSequence((1, 1, 2, 2)),
                                ForbiddenGraph.clique(4, 2)), 3)
    assert exact_probability(d, X, "induced", m=2) == want


def test_probability_undefined():
    d = DegreeSequence((3, 1, 1, 1))   # star is graphical; (3,3,0,0) is not
    bad = DegreeSequence((3, 3, 0, 0))
    with pytest.raises(UndefinedProbabilityError):
        exact_probability(bad, ForbiddenGraph.empty(4), "miss")
    assert exact_probability(d, fg(4, [(1, 2)]), "miss") == 0


def test_hit_with_infeasible_shift_is_zero():
    d = DegreeSequence((1, 1, 0, 0))
    X = fg(4, [(1, 2), (2, 3)])   # x_2 = 2 > d_2
    assert exact_probability(d, X, "hit") == 0


@pytest.mark.parametrize("n", [13, 50])
def test_impossible_instance_counts_zero_at_any_n(n):
    # d_1 = n-1 cannot avoid the edge 12, so the count is 0 before the
    # n-limit is checked
    d = DegreeSequence((n - 1,) + (n // 2,) * (n - 1))
    assert exact_count(d, fg(n, [(1, 2)])) == 0
    with pytest.raises(CountLimitError, match=f"^n={n} exceeds exact-count limit 12$"):
        exact_count(d, fg(n, [(2, 3)]))


def test_impossible_event_is_zero_under_the_one_limit():
    # G(d) and the event count read one limit: once G(d) is counted, an
    # impossible event is 0 with no count of its own
    d11 = DegreeSequence((10,) + (5,) * 10)
    assert exact_probability(d11, fg(11, [(1, 2)]), "miss") == 0        # d_1 = 10 > 11-1-1
    assert exact_probability(DegreeSequence((0,) + (6,) * 10),
                             fg(11, [(1, 2)]), "hit") == 0              # d_1 = 0 < s_1 = 1
    assert exact_probability(DegreeSequence((11,) + (5,) * 11),
                             fg(12, []), "induced", m=2) == 0           # d_1 = 11 > 12-1-1+0
    # a possible event is counted under the same default limit
    assert (exact_probability(d11, fg(11, [(1, 2)]), "hit")
            == exact_probability(d11, fg(11, [(1, 2)]), "hit", limit=12) > 0)
    # past the limit G(d) refuses first, even for an event the rule marks
    with pytest.raises(CountLimitError, match="^n=13 exceeds exact-count limit 12$"):
        exact_probability(DegreeSequence((12,) + (6,) * 12), fg(13, [(1, 2)]), "miss")


TRIANGLE = [(1, 2), (2, 3), (1, 3)]


def memo_tables():
    """What every exact-count table holds, with its lookup counts."""
    return _count_free.cache_info(), _class_steps.cache_info(), state_tables()


def test_one_limit_refuses_before_any_count():
    # with no limit, G(d) and every event or overlap count read the one limit
    # 12: at n = 13 each query raises before any table gains an entry
    d = DegreeSequence((6,) * 13)
    T = fg(13, TRIANGLE)
    before = memo_tables()
    for query in (lambda: exact_count(d, T), lambda: exact_probability(d, T, "hit"),
                  lambda: exact_overlap_distribution(d, T)):
        with pytest.raises(CountLimitError, match="^n=13 exceeds exact-count limit 12$"):
            query()
    assert memo_tables() == before


@pytest.mark.parametrize("n", [11, 12])
def test_forbidden_queries_run_to_the_one_limit(n):
    # a forbidden graph runs to the same default limit as none
    d, T = DegreeSequence((6,) * n), fg(n, TRIANGLE)
    assert exact_count(d, T) == exact_count(d, T, limit=12) > 0
    assert exact_probability(d, T, "hit") == exact_probability(d, T, "hit", limit=12) > 0
    assert exact_overlap_distribution(d, T) == exact_overlap_distribution(d, T, limit=12)


def test_zero_rule_is_sound_against_the_oracle_property(monkeypatch):
    # graphcore.impossible only skips counts that come to 0: with the rule
    # switched off in exactcount, the recursion alone finds no graph for an
    # event or a count the rule marks
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def event_count(d, Y, S):
        """Graphs with degrees d with exactly the edges S inside Y."""
        shifted = [dj - sj for dj, sj in zip(d.degrees, ForbiddenGraph(d.n, S).row_sums)]
        # no vertex can take more edges of S than its degree
        return min(shifted) >= 0 and exact_count(DegreeSequence(tuple(shifted)), Y)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        # d is the degree sequence of a graph, so G(d) > 0
        n = data.draw(st.integers(2, 8))
        pairs = list(combinations(range(1, n + 1), 2))
        ys = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
        d, Y = draw_degrees(st, data, n, ys), fg(n, ys)
        mode = data.draw(st.sampled_from(MODES))
        m = data.draw(st.integers(max(j for e in ys for j in e), n))
        event = event_edges(Y, mode, m)
        marked, counted = impossible(d, *event), impossible(d, Y)
        if marked:
            assert exact_probability(d, Y, mode, m=m) == 0
        if counted:
            assert exact_count(d, Y) == 0
        with monkeypatch.context() as rule_off:
            rule_off.setattr(exactcount, "impossible", lambda *args: False)
            if marked:
                assert event_count(d, *event) == 0
            if counted:
                assert exact_count(d, Y) == 0

    check()


@pytest.mark.parametrize("degrees,pairs", [
    ((3, 2, 2, 4, 1), [(1, 5), (2, 4)]),    # d_4 = n-1 joins 4 to 5, so d_5 = 1 has no room for 1-5
    ((4, 4, 2, 4, 2, 2), [(2, 4), (5, 6)]),
])
def test_zero_rule_misses_hit_events_the_oracle_counts_zero(degrees, pairs):
    # graphcore.impossible bounds each vertex on its own, so it misses a 0
    # that only several degrees together force; a stronger rule flips this
    d, X = DegreeSequence(degrees), fg(len(degrees), pairs)
    assert not impossible(d, *event_edges(X, "hit", None))
    assert exact_probability(d, X, "hit") == 0


def test_zero_rule_misses_a_path_the_oracle_counts_zero():
    # 7^5 3^5 has 2,040 graphs, none avoiding the path 1-2-10-9, though no
    # vertex alone rules it out; a stronger rule flips this
    d = DegreeSequence((7,) * 5 + (3,) * 5)
    X = fg(10, [(1, 2), (2, 10), (10, 9)])
    assert not impossible(d, X)
    assert exact_count(d, X) == 0
    assert exact_count(d) == 2040


def test_impossible_matches_every_vertex_reference_property():
    # graphcore.impossible reads only the endpoints of Y's edges; the
    # reference bounds every vertex by mode (soundness against the oracle is
    # test_zero_rule_is_sound_against_the_oracle_property)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        # d is the degree sequence of a graph, so G(d) > 0
        d, X = draw_instance(st, data, 7, 6)
        n, x = d.n, X.row_sums
        mode = data.draw(st.sampled_from(MODES))
        m = data.draw(st.integers(max((j for e in X.edges for j in e), default=0), n))
        want = False
        for j, dj in enumerate(d.degrees):
            if mode == "miss":
                want |= dj > n - 1 - x[j]
            elif mode == "hit":
                want |= dj < x[j]
            elif j < m:
                want |= not x[j] <= dj <= n - m + x[j]
        assert impossible(d, *event_edges(X, mode, m)) == want

    check()


def test_exact_queries_leave_no_cyclic_garbage():
    # the per-call memo must go when the count returns, not wait for the collector
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2), (2, 3), (3, 4)])
    _class_steps.cache_clear()   # new table entries run the class walk too
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for mode, m in (("miss", None), ("hit", None), ("induced", 4)):
            exact_probability(d, X, mode, m)
        exact_overlap_distribution(d, X)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------ overlap distribution

def test_overlap_empty_point_mass():
    d = DegreeSequence((2, 2, 2, 2))
    dist = exact_overlap_distribution(d, ForbiddenGraph.empty(4))
    assert dist == (Fraction(1),)


def test_overlap_single_edge():
    d = DegreeSequence((2, 2, 2, 2))
    dist = exact_overlap_distribution(d, fg(4, [(1, 2)]))
    assert dist == (Fraction(1, 3), Fraction(2, 3))


def test_overlap_two_disjoint_edges():
    d = DegreeSequence((1, 1, 1, 1))
    dist = exact_overlap_distribution(d, fg(4, [(1, 2), (3, 4)]))
    assert dist[2] == Fraction(1, 3)
    assert sum(dist) == 1


@pytest.mark.parametrize("seed", range(4))
def test_overlap_sums_to_one_exactly(seed):
    rng = random.Random(300 + seed)
    while True:
        d, _ = random_instance(rng, 6, edge_p=0.0)
        try:
            exact_probability(d, ForbiddenGraph.empty(6), "miss")
            break
        except UndefinedProbabilityError:
            continue
    Y = ForbiddenGraph.from_pairs(
        6, [e for e in combinations(range(1, 7), 2) if rng.random() < 0.2])
    dist = exact_overlap_distribution(d, Y)
    assert sum(dist) == 1


def subset_overlap(d, Y):
    """Reference: the overlap law summed over every edge subset S of Y, as the
    share exact_count(d - x(S), Y) / G(d) of graphs whose edges in Y are S."""
    gd = exact_count(d, limit=d.n)
    probs = [Fraction(0)] * (Y.edge_count + 1)
    for r in range(Y.edge_count + 1):
        for S in combinations(Y.sorted_edges(), r):
            shifted = list(d.degrees)
            for j, k in S:
                shifted[j - 1] -= 1
                shifted[k - 1] -= 1
            if min(shifted) >= 0:
                probs[r] += Fraction(exact_count(DegreeSequence(tuple(shifted)), Y, limit=d.n), gd)
    return tuple(probs)


def test_overlap_matches_subset_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        # d is the degree sequence of a graph, so G(d) > 0
        d, Y = draw_instance(st, data, 8, 6)
        assert exact_overlap_distribution(d, Y) == subset_overlap(d, Y)

    check()


def test_overlap_limits():
    # no cap on |Y|: K5 has 10 edges, which the subset route counts 2^10 times
    d = DegreeSequence((2, 2, 2, 2, 2))
    Y = ForbiddenGraph.clique(5, 5)
    assert exact_overlap_distribution(d, Y) == subset_overlap(d, Y)
    # the pass runs under G(d)'s n-limit: 12 by default, Y or no Y
    d = DegreeSequence((2,) * 13)
    with pytest.raises(CountLimitError):
        exact_overlap_distribution(d, fg(13, [(1, 2)]))
    with pytest.raises(CountLimitError):
        exact_overlap_distribution(d, fg(13, [(1, 2)]), limit=12)
    assert sum(exact_overlap_distribution(d, fg(13, [(1, 2)]), limit=13)) == 1


def test_shared_tables_carry_no_state_between_instances():
    # the class-step table and the free memo are keyed without vertex labels
    # and shared by every call, the state table by every call under one Y and
    # weight: a warm table must give what a cold one gives
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def results(d, X, mode):
        return (exact_count(d, X), exact_probability(d, X, mode),
                exact_overlap_distribution(d, X))

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        d, X = draw_instance(st, data, 10, 6)
        mode = data.draw(st.sampled_from(["miss", "hit"]))
        _count_free.cache_clear()
        _class_steps.cache_clear()
        clear_state_table()
        cold = results(d, X, mode)
        # fill the tables from other instances: a relabelled copy, whose
        # states share every label-free key, another d under the same X,
        # whose states share X's scope, and an unrelated draw
        perm = data.draw(st.permutations(range(1, d.n + 1)))
        for other in (relabel(d, X, perm), (draw_degrees(st, data, d.n, X.edges), X),
                      draw_instance(st, data, 10, 6)):
            results(*other, mode)
        assert results(d, X, mode) == cold

    check()


# ------------------------------------------------------------ orbit keys

TWIN_BLOCKS = {   # components whose automorphisms are all twin swaps
    "K2": [(0, 1)], "P3": [(0, 1), (1, 2)], "K3": [(0, 1), (1, 2), (0, 2)],
    "K13": [(0, 1), (0, 2), (0, 3)], "K4": list(combinations(range(4), 2)),
    "K23": [(a, b) for a in (0, 1) for b in (2, 3, 4)]}
OTHER_BLOCKS = {  # components with automorphisms that are not
    "P4": [(0, 1), (1, 2), (2, 3)], "C4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "C5": [(j, (j + 1) % 5) for j in range(5)]}


def state_key(types, residuals):
    """The table key exactcount gives the constrained residuals."""
    cons = tuple((v, r) for v, r in enumerate(residuals) if r)
    return cons if types is None else exactcount._orbit(types, cons)


def test_orbit_key_is_one_key_per_orbit_property():
    # twin swaps and permutations of isomorphic components give every state
    # of one orbit one key; and two states share a key only when an
    # automorphism of Y (found by networkx) maps one onto the other
    hyp = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    st = hyp.strategies
    blocks = {**TWIN_BLOCKS, **OTHER_BLOCKS}

    def residual_graph(edges, n, residuals):
        G = nx.Graph(edges)
        G.add_nodes_from(range(n))
        nx.set_node_attributes(G, dict(enumerate(residuals)), "r")
        return G

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        names = data.draw(st.lists(st.sampled_from(sorted(blocks)), min_size=1, max_size=4))
        pairs, n = [], 0
        for name in names:
            pairs += [(n + a, n + b) for a, b in blocks[name]]
            n += 1 + max(chain.from_iterable(blocks[name]))
        hyp.assume(n <= 10)
        n += data.draw(st.integers(0, 2))           # vertices outside supp(Y)
        perm = data.draw(st.permutations(range(n)))
        edges = [(perm[a], perm[b]) for a, b in pairs]
        xadj = [frozenset(chain.from_iterable(set(e) - {v} for e in edges if v in e))
                for v in range(n)]
        types = exactcount._symmetries(xadj)
        support = [v for v in range(n) if xadj[v]]
        r1 = [0] * n
        for v in support:
            r1[v] = data.draw(st.integers(0, 2))
        G1 = residual_graph(edges, n, r1)

        autos = list(islice(GraphMatcher(G1, G1).isomorphisms_iter(), 64))
        sigma = autos[data.draw(st.integers(0, len(autos) - 1))]
        r2 = [0] * n
        for v, w in sigma.items():
            r2[w] = r1[v]
        if all(name in TWIN_BLOCKS for name in names):
            assert state_key(types, r1) == state_key(types, r2)

        shuffled = data.draw(st.permutations([r1[v] for v in support]))
        r3 = [0] * n
        for v, r in zip(support, shuffled):
            r3[v] = r
        if state_key(types, r1) == state_key(types, r3):
            G3 = residual_graph(edges, n, r3)
            assert GraphMatcher(G1, G3, node_match=lambda a, b: a["r"] == b["r"]).is_isomorphic()

    check()


def pooled_types(xadj):
    """Mutant: the components of every type sorted as one type."""
    types = SYMMETRIES(xadj)
    return types and (types[0], (tuple(chain.from_iterable(types[1])),))


def merged_classes(xadj):
    """Mutant: the matching twin classes of a type's components merged."""
    types = SYMMETRIES(xadj)
    return types and (types[0], tuple(
        (tuple(tuple(chain.from_iterable(comp[i] for comp in members))
               for i in range(len(members[0]))),) for members in types[1]))


SYMMETRIES = exactcount._symmetries
SMALL_DEGREES = [DegreeSequence(d) for d in product(range(3), repeat=6) if sum(d) % 2 == 0]


@pytest.mark.parametrize("mutant,pairs", [
    (pooled_types, [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),    # a path and a triangle
    (merged_classes, [(1, 2), (2, 3), (4, 5), (5, 6)]),          # two paths
])
def test_mutant_orbit_keys_miscount(monkeypatch, mutant, pairs):
    # the orbit key counts every d under one Y as the labelled key does; a
    # key that forgets which type a component has, or treats twins in two
    # components as twins, merges states of different orbits and miscounts
    Y = fg(6, pairs)
    counts = []
    for symmetries in (lambda xadj: None, SYMMETRIES, mutant):
        monkeypatch.setattr(exactcount, "_symmetries", symmetries)
        clear_state_table()
        counts.append([exact_count(d, Y) for d in SMALL_DEGREES])
    labelled, orbit, wrong = counts
    assert orbit == labelled != wrong


def test_orbit_keys_shrink_the_matching_states(monkeypatch):
    # the 46,080 automorphisms of a perfect matching on 12 vertices are twin
    # swaps and permutations of its edges: the orbit keys store at least 5x
    # fewer states than labelled keys, for the same count
    n = 12
    d, M = DegreeSequence((6,) * n), fg(n, [(2 * i + 1, 2 * i + 2) for i in range(n // 2)])
    counts, states = [], []
    for symmetries in (SYMMETRIES, lambda xadj: None):
        monkeypatch.setattr(exactcount, "_symmetries", symmetries)
        clear_state_table()
        counts.append(exact_count(d, M, limit=n))
        states.append(stored_states())
    assert counts[0] == counts[1] == 37780629210
    assert states[1] >= 5 * states[0]
