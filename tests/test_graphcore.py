import gc
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from degcount.graphcore import (
    DegreeSequence,
    ForbiddenGraph,
    InputFormatError,
    Parameters,
    compute_parameters,
    delta_numerators,
    free_classes,
    induced_spec,
    is_graphical,
    parse_degrees,
    parse_edges,
    read_degrees,
    read_edges,
    relabel,
    write_degrees,
    write_edges,
)


def fg(n, pairs):
    return ForbiddenGraph.from_pairs(n, pairs)


# ---------------------------------------------------------------- type checks

def test_degree_sequence_validation():
    with pytest.raises(ValueError):
        DegreeSequence((1, 1, 1))          # odd sum
    with pytest.raises(ValueError):
        DegreeSequence((4, 0, 0, 0))       # above n-1
    with pytest.raises(ValueError):
        DegreeSequence((-1, 1))
    d = DegreeSequence((2, 2, 2, 2))
    assert d.n == 4 and d.edge_count == 4 and d.is_regular()


def test_degree_sequence_takes_integers_only():
    d = DegreeSequence((np.int64(2), np.uint8(2), 2, 2))
    assert d.degrees == (2, 2, 2, 2) and all(type(v) is int for v in d.degrees)
    # int() once truncated (1.9, 1.2) to the degrees (1, 1)
    for degrees, bad in [((1.9, 1.2), "d_1=1.9"), (("1", "1"), "d_1='1'"),
                         ((2, 2, 2, np.float64(2.0)), f"d_4={np.float64(2.0)!r}"),
                         ((1, 1, 2.0), "d_3=2.0")]:
        with pytest.raises(ValueError, match=f"degree {re.escape(bad)} is not an integer"):
            DegreeSequence(degrees)


def test_degree_histogram_is_not_a_field():
    # counted once from the degrees, and kept out of ==, hash and repr
    d = DegreeSequence((0, 2, 1, 2, 1, 0))
    assert d.histogram == {0: 2, 2: 2, 1: 2}
    assert d.edge_count == 3 and not d.is_regular()
    e = DegreeSequence((0, 2, 1, 2, 1, 0))
    assert d == e and hash(d) == hash(e) and d != DegreeSequence((2, 2, 1, 1, 0, 0))
    assert repr(d) == "DegreeSequence(degrees=(0, 2, 1, 2, 1, 0))"
    with pytest.raises(ValueError, match=r"^degree d_4=6 outside \[0, 5\]$"):
        DegreeSequence((1, 1, 1, 6, -1, 0))


def test_graphicality_has_one_home():
    # validation's sequence generator and the package export read the one
    # Erdos-Gallai test of graphcore; realize's greedy decides graphicality
    # itself, with no pre-pass, and is tested against it (test_mcsampler)
    import degcount
    from degcount import mcsampler, validation
    assert is_graphical.__module__ == "degcount.graphcore"
    assert degcount.is_graphical is validation.is_graphical is is_graphical
    assert not hasattr(mcsampler, "is_graphical")


def test_forbidden_graph_validation():
    with pytest.raises(ValueError):
        ForbiddenGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        ForbiddenGraph(3, frozenset({(1, 4)}))
    X = fg(4, [(2, 1), (3, 4)])
    assert X.edges == frozenset({(1, 2), (3, 4)})
    assert X.row_sums == (1, 1, 1, 1)
    assert X.edge_count == 2
    assert X.has_edge(2, 1) and not X.has_edge(1, 3)
    assert X.neighbors(1) == frozenset({2})
    assert sum(X.row_sums) == 2 * X.edge_count


def test_forbidden_graph_takes_integer_endpoints_only():
    X = ForbiddenGraph.from_pairs(5, [(np.int64(2), np.uint8(1)), (3, np.int32(4))])
    assert X.edges == frozenset({(1, 2), (3, 4)})
    assert all(type(v) is int for edge in X.edges for v in edge)
    assert X.neighbors(4) == frozenset({3})
    # int() once built (1.9, 2) as the edge (1, 2) and ("3", 4) as (3, 4), and
    # the constructor failed on a float with a TypeError from the row sums
    for build, bad in [(lambda: ForbiddenGraph.from_pairs(5, [(1.9, 2)]), (1.9, 2)),
                       (lambda: ForbiddenGraph.from_pairs(5, [("3", 4)]), ("3", 4)),
                       (lambda: ForbiddenGraph(5, frozenset({(1.5, 2)})), (1.5, 2)),
                       (lambda: fg(5, [(1, 2), (2, np.float64(3.0))]), (2, np.float64(3.0)))]:
        with pytest.raises(ValueError,
                           match=f"^edge {re.escape(repr(bad))} has an endpoint that is not an integer$"):
            build()


def test_forbidden_graph_holds_objects_only_for_its_support():
    # a few edges on many vertices: neighbour sets for supp(X) only, so the
    # young generation gains O(|X|) tracked objects instead of O(n)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects(0))
        X = fg(10_000, [(1, 2), (2, 3)])
        added = len(gc.get_objects(0)) - before
    finally:
        if enabled:
            gc.enable()
    assert added < 50
    assert X.neighbors(2) == frozenset({1, 3}) and X.neighbors(1) == frozenset({2})
    assert X.neighbors(4) == X.neighbors(10_000) == frozenset()
    assert X.row_sums == (1, 2, 1) + (0,) * 9_997
    assert X.edges == frozenset({(1, 2), (2, 3)})
    Y = fg(10_000, [(3, 2), (2, 1)])
    assert X == Y and hash(X) == hash(Y)
    assert X != fg(10_001, [(1, 2), (2, 3)]) and X != fg(10_000, [(1, 2)])


def test_clique_builder():
    Y = ForbiddenGraph.clique(5, 3)
    assert Y.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    assert ForbiddenGraph.clique(5, 0).edge_count == 0


# ---------------------------------------------------------- parameter values

def test_parameters_regular_empty():
    d = DegreeSequence((2, 2, 2, 2))
    p = compute_parameters(d, ForbiddenGraph.empty(4))
    assert p.lam == Fraction(2, 3)
    assert p.A == Fraction(1, 9)
    assert p.R == p.D == p.L == p.K == 0


def test_parameters_one_edge():
    d = DegreeSequence((2, 2, 2, 2))
    p = compute_parameters(d, fg(4, [(1, 2)]))
    # delta = (2/3, 2/3, 0, 0) and x = (1, 1, 0, 0)
    assert (p.C11, p.C12, p.C21) == (Fraction(4, 3), Fraction(4, 3), Fraction(8, 9))
    assert p.D == Fraction(4, 9)
    assert p.K == 0


def test_parameters_irregular():
    d = DegreeSequence((3, 2, 2, 2, 1))
    p = compute_parameters(d, fg(5, [(1, 5)]))
    assert p.lam == Fraction(1, 2)
    # delta = (3/2, 0, 0, 0, -1/2) and x = (1, 0, 0, 0, 1)
    assert (p.C11, p.C21, p.D) == (1, Fraction(5, 2), Fraction(-3, 4))
    assert p.R == 2
    assert p.K == -1


def test_parameters_errors():
    d = DegreeSequence((1, 1))
    with pytest.raises(ValueError):
        compute_parameters(d, ForbiddenGraph.empty(3))
    with pytest.raises(ValueError):
        compute_parameters(DegreeSequence((0,)), ForbiddenGraph.empty(1))


def random_instance(rng, n):
    pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3]
    X = ForbiddenGraph.from_pairs(n, pairs)
    deg = [rng.randint(0, n - 1) for _ in range(n)]
    if sum(deg) % 2:
        j = next(i for i in range(n) if 0 < deg[i] or deg[i] < n - 1)
        deg[j] += 1 if deg[j] < n - 1 else -1
    return DegreeSequence(tuple(deg)), X


@pytest.mark.parametrize("seed", range(5))
def test_identity_sum_delta(seed):
    # with delta_j = (d_j N - S(n-1) + S x_j)/N, S = 2E and N = n(n-1), taken
    # from integers: sum(delta) = 2 lambda X, and C11 = sum delta_j x_j exactly
    rng = random.Random(seed)
    d, X = random_instance(rng, rng.randint(3, 12))
    p = compute_parameters(d, X)
    n, S = d.n, 2 * d.edge_count
    N = n * (n - 1)
    delta = [Fraction(dj * N - S * (n - 1) + S * xj, N) for dj, xj in zip(d.degrees, X.row_sums)]
    assert sum(delta) == 2 * p.lam * X.edge_count
    assert p.C11 == sum(dj * xj for dj, xj in zip(delta, X.row_sums))


@pytest.mark.parametrize("seed", range(4))
def test_density_deltas_and_free_classes_match_their_definitions(seed):
    # the instance arithmetic graphcore owns, against per-vertex Fractions:
    # lambda = 2E/(n(n-1)) with lambda(n-1) the mean degree (0 at n = 1),
    # N delta_j = N (d_j - lambda(n-1-x_j)), and the degrees with x_j = 0
    rng = random.Random(700 + seed)
    for _ in range(25):
        n = rng.randint(1, 40)
        d, X = random_instance(rng, n)
        lam = Fraction(2 * d.edge_count, n * (n - 1)) if n > 1 else Fraction(0)
        assert d.density == lam and d.density * (n - 1) == Fraction(2 * d.edge_count, n)
        free = free_classes(d, X)
        assert dict(free) == Counter(dj for dj, xj in zip(d.degrees, X.row_sums) if xj == 0)
        assert all(c > 0 for c in free.values())
        if n > 1:
            numerators, N = delta_numerators(d, X, range(n, 0, -1))
            assert N == n * (n - 1)
            assert numerators == [N * (d.degrees[j - 1] - lam * (n - 1 - X.row_sums[j - 1]))
                                  for j in range(n, 0, -1)]


@pytest.mark.parametrize("seed", range(5))
def test_permutation_invariance(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(3, 9)
    d, X = random_instance(rng, n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    d2, X2 = relabel(d, X, perm)
    p, p2 = compute_parameters(d, X), compute_parameters(d2, X2)
    for name in ("lam", "R", "X2", "X3",
                 "D", "L", "K", "C11", "C12", "C21"):
        assert getattr(p, name) == getattr(p2, name), name


def test_regular_degenerations():
    # regular d: D = lam^2 H, L = (1-lam)^2 H with H = sum_{jk in X} x_j x_k, K = 0, exactly
    d = DegreeSequence((3,) * 8)
    X = fg(8, [(1, 2), (2, 3), (4, 5)])
    p = compute_parameters(d, X)
    x = X.row_sums
    H = sum(x[j - 1] * x[k - 1] for j, k in X.edges)
    assert H == 5
    assert p.D == p.lam ** 2 * H
    assert p.L == (1 - p.lam) ** 2 * H
    assert p.K == 0


def fraction_parameters(d, X):
    """Reference: every field accumulated term by term in Fraction arithmetic."""
    n = d.n
    d_avg = Fraction(2 * d.edge_count, n)
    lam = d_avg / (n - 1)
    x = X.row_sums
    delta = tuple(dj - d_avg + lam * xj for dj, xj in zip(d.degrees, x))
    dev = tuple(dj - d_avg for dj in d.degrees)
    D, L, K = Fraction(0), Fraction(0), Fraction(0)
    for j, k in X.edges:
        dj, dk = delta[j - 1], delta[k - 1]
        D += dj * dk
        L += (dj - x[j - 1]) * (dk - x[k - 1])
        K += dev[j - 1] * dev[k - 1]
    return Parameters(
        n=n, lam=lam, A=lam * (1 - lam) / 2,
        R=sum((t * t for t in dev), start=Fraction(0)),
        X2=sum(xj * xj for xj in x), X3=sum(xj ** 3 for xj in x),
        D=D, L=L, K=K,
        C11=sum((delta[j] * x[j] for j in range(n)), start=Fraction(0)),
        C12=sum((delta[j] * x[j] ** 2 for j in range(n)), start=Fraction(0)),
        C21=sum((delta[j] ** 2 * x[j] for j in range(n)), start=Fraction(0)),
    )


@pytest.mark.parametrize("forbidden", [False, True], ids=["empty", "forbidden"])
@pytest.mark.parametrize("seed", range(4))
def test_integer_parameters_match_fraction_reference(seed, forbidden):
    rng = random.Random(500 + seed)
    for _ in range(25):
        n = rng.randint(2, 40)
        d, X = random_instance(rng, n)
        if not forbidden:
            X = ForbiddenGraph.empty(n)
        assert compute_parameters(d, X) == fraction_parameters(d, X)


def test_class_sums_match_per_vertex_references():
    # compute_parameters and the naive and sparse displays sum over degree
    # classes and supp(X); on instances of up to 2,000 vertices in 1-3
    # classes, with support vertices that share a degree with free ones and
    # degree-0 vertices, they equal the per-vertex references exactly
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from math import fsum, lgamma, log, log1p

    from degcount.asymptotics import (_log_binom, _xlogx, naive_estimate, sparse_estimates)

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(2, 2000))
        values = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, n - 1)),
                                    min_size=1, max_size=3, unique=True))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        degrees = values + [rng.choice(values) for _ in range(n - len(values))]
        rng.shuffle(degrees)
        hyp.assume(sum(degrees) % 2 == 0)
        pairs = {tuple(rng.sample(range(1, n + 1), 2))
                 for _ in range(data.draw(st.integers(0, min(8, n * (n - 1) // 2))))}
        d, X = DegreeSequence(degrees), fg(n, pairs)
        assert d.histogram == {v: degrees.count(v) for v in set(degrees)}
        p = compute_parameters(d, X)
        assert p == fraction_parameters(d, X)

        est = naive_estimate(p, d, X)
        if est.log_value != float("-inf"):
            lam = float(p.lam)
            per_vertex = fsum(_log_binom(n - 1 - xj, dj) for dj, xj in zip(degrees, X.row_sums))
            forbidden = 0.0 if not X.edge_count else -X.edge_count * log1p(-lam)
            entropy = n * (n - 1) // 2 * (_xlogx(lam) + _xlogx(1.0 - lam))
            assert est.log_value == forbidden + entropy + per_vertex
        if d.edge_count:
            E = d.edge_count
            base = (lgamma(2 * E + 1) - lgamma(E + 1) - E * log(2.0)
                    - fsum(lgamma(dj + 1) for dj in degrees))
            assert sparse_estimates(d, X, "perth").base_log == base
            if X.edge_count <= E:
                mk = sparse_estimates(d, X, "mckay81")
                if mk.log_value != float("-inf"):
                    ref = fsum(lgamma(dj + 1) - lgamma(dj - xj + 1)
                               for dj, xj in zip(degrees, X.row_sums))
                    ref -= X.edge_count * log(2.0)
                    ref -= lgamma(E + 1) - lgamma(E - X.edge_count + 1)
                    assert mk.log_value == ref

    check()


# ------------------------------------------------------------- induced spec

def test_induced_spec_trivial():
    d = DegreeSequence((3,) * 6)
    omega = induced_spec(d, ForbiddenGraph.empty(6), 1)
    assert omega[(0, 0)] == 1
    for l in range(1, 3):
        assert omega[(1, l)] == 0


def test_induced_spec_values():
    d = DegreeSequence((3, 2, 2, 2, 1))
    omega = induced_spec(d, fg(5, [(1, 2)]), 2)
    # lam = 1/2: omega_{1,1} = (3-2)(1 - 1/2) + (2-2)(1 - 1/2)
    assert omega[(1, 1)] == Fraction(1, 2)
    assert omega[(0, 0)] == 2


def test_induced_spec_regular_pair():
    # regular d with one edge on {1,2}: omega_{0,1} = 2(1-lam), omega_{0,2} = 2(1-lam)^2
    d = DegreeSequence((2, 2, 2, 2))
    omega = induced_spec(d, fg(4, [(1, 2)]), 2)
    lam = Fraction(2, 3)
    assert omega[(0, 1)] == 2 * (1 - lam)
    assert omega[(0, 2)] == 2 * (1 - lam) ** 2


def test_induced_spec_half_density_pair():
    # at lam = 1/2 exactly: omega_{0,1} = 1 and omega_{0,2} = 1/2
    d = DegreeSequence((2, 2, 2, 2, 2))
    omega = induced_spec(d, fg(5, [(1, 2)]), 2)
    assert omega[(0, 1)] == 1
    assert omega[(0, 2)] == Fraction(1, 2)


def test_induced_spec_support_violation():
    d = DegreeSequence((2, 2, 2, 2))
    with pytest.raises(ValueError):
        induced_spec(d, fg(4, [(3, 4)]), 2)


# ------------------------------------------------------------- file formats

def test_degree_file_round_trip(tmp_path):
    path = tmp_path / "d.txt"
    d = DegreeSequence((3, 1, 2, 2))
    write_degrees(str(path), d)
    assert read_degrees(str(path)) == d


def test_degree_json_array():
    assert parse_degrees("[2, 2, 2, 2]") == DegreeSequence((2, 2, 2, 2))
    with pytest.raises(InputFormatError):
        parse_degrees('["a", 2]')


def test_degree_json_array_rejects_booleans():
    # isinstance(True, int) holds, so [true, true] once read as degrees (1, 1)
    for text in ("[true, true]", "[1, false, 1]"):
        with pytest.raises(InputFormatError, match="array of integers"):
            parse_degrees(text)


def test_degree_parse_error_carries_line():
    with pytest.raises(InputFormatError) as err:
        parse_degrees("2\noops\n2\n", path="d.txt")
    assert err.value.line == 2
    assert "d.txt" in str(err.value)


def test_edge_file_round_trip(tmp_path):
    path = tmp_path / "x.txt"
    X = fg(5, [(4, 2), (1, 5)])
    write_edges(str(path), X)
    assert read_edges(str(path), 5) == X


def test_file_round_trip_property(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    dpath, xpath = str(tmp_path / "d.txt"), str(tmp_path / "x.txt")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 30))
        pairs = list(combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        X = fg(n, [(k, j) if data.draw(st.booleans()) else (j, k) for j, k in edges])
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        deg = [0] * n                   # degrees of a graph are graphical
        for j, k in pairs:
            if rng.random() < 0.5:
                deg[j - 1] += 1
                deg[k - 1] += 1
        d = DegreeSequence(tuple(deg))
        write_degrees(dpath, d)
        write_edges(xpath, X)
        assert read_degrees(dpath) == d
        assert read_edges(xpath, n) == X

    check()


@pytest.mark.parametrize("text,message", [
    ("1 1\n", "self-loop"),
    ("1 9\n", "outside"),
    ("1 2\n2 1\n", "duplicate"),
    ("1 2 3\n", "expected"),
    ("1 x\n", "non-integer"),
])
def test_edge_parse_errors(text, message):
    with pytest.raises(InputFormatError) as err:
        parse_edges(text, 5, path="x.txt")
    assert message in str(err.value)
