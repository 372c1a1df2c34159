import itertools
import math
import random
from fractions import Fraction

import pytest

from degcount.graphcore import DegreeSequence, ForbiddenGraph, compute_parameters, relabel
from degcount.exactcount import exact_count, exact_probability
from degcount.asymptotics import (
    NEG_INF,
    LogEstimate,
    check_hypotheses,
    complement_fields,
    dense_count_estimate,
    induced_estimate,
    miss_hit_estimate,
    naive_estimate,
    overlap_distribution_estimate,
    regular_graph_expectations,
    sparse_estimates,
    specialized_estimates,
)


def fg(n, pairs):
    return ForbiddenGraph.from_pairs(n, pairs)


def params(degrees, pairs=()):
    d = DegreeSequence(degrees)
    X = fg(len(degrees), pairs)
    return d, X, compute_parameters(d, X)


# ------------------------------------------------------------ naive estimate

def test_naive_empty_graph_limit_convention():
    d, X, p = params((0, 0))
    assert naive_estimate(p, d, X).log_value == 0.0


def test_naive_regular_value():
    d, X, p = params((2, 2, 2, 2))
    lam = 2 / 3
    want = 6 * (lam * math.log(lam) + (1 - lam) * math.log(1 - lam)) + 4 * math.log(3)
    assert naive_estimate(p, d, X).log_value == pytest.approx(want, abs=1e-13)


def test_naive_with_forbidden_edge():
    d, X, p = params((2, 2, 2, 2), [(1, 2)])
    lam = 2 / 3
    want = (-math.log(1 - lam)
            + 6 * (lam * math.log(lam) + (1 - lam) * math.log(1 - lam))
            + 2 * math.log(1) + 2 * math.log(3))
    assert naive_estimate(p, d, X).log_value == pytest.approx(want, abs=1e-13)


def test_naive_infeasible_signals_zero():
    d, X, p = params((3, 1, 1, 1), [(1, 2)])
    assert naive_estimate(p, d, X).log_value == NEG_INF


# ------------------------------------------------------- dense count estimate

def test_dense_regular_correction_is_quarter():
    d = DegreeSequence((2, 2, 2, 2))
    est, _ = dense_count_estimate(d)
    assert est.correction == 0.25
    assert est.log_value == est.base_log + est.correction


def test_dense_finite_n_discrepancy_reported_not_asserted():
    d = DegreeSequence((2, 2, 2, 2))
    est, _ = dense_count_estimate(d)
    gap = abs(est.log_value - math.log(3))
    assert 0 < gap < 0.2   # reported magnitude, desk-scale n


def test_dense_trend_with_and_without_edge():
    for pairs in ([], [(1, 2)]):
        errs = []
        for n in (8, 10, 12):
            d = DegreeSequence((n // 2,) * n)
            X = fg(n, pairs)
            G = exact_count(d, X, limit=12)
            est, _ = dense_count_estimate(d, X)
            errs.append(abs(math.log(G) - est.log_value))
        assert errs[0] >= errs[1] >= errs[2]


def test_validity_flags_on_desk_scale():
    d = DegreeSequence((2, 2, 2, 2))
    flags = check_hypotheses(d, ForbiddenGraph.empty(4))
    assert flags   # density window fails at n=4
    names = [f.hypothesis for f in flags]
    assert any("3a log" in h for h in names)
    # a large balanced instance passes every hypothesis
    d2 = DegreeSequence((50,) * 101)
    assert check_hypotheses(d2, ForbiddenGraph.empty(101)) == ()


def cycle_powers(n, steps):
    """The edges {j, j+s} mod n for each step s: a 2*len(steps)-regular X."""
    return ForbiddenGraph.from_pairs(n, [(j + 1, (j + s) % n + 1) for j in range(n)
                                         for s in steps])


@pytest.mark.parametrize("d,X,hypothesis,measured,bound", [
    (DegreeSequence((30,) * 50 + (70,) * 51), ForbiddenGraph.empty(101),
     "max|d_j - d| <= n^(1/2)", 5070 / 101 - 30, math.sqrt(101)),
    (DegreeSequence((50,) * 101), ForbiddenGraph.from_pairs(101, [(1, k) for k in range(2, 13)]),
     "max x_j <= n^(1/2)", 11.0, math.sqrt(101)),
    (DegreeSequence((50,) * 101), cycle_powers(101, (1, 2)), "X <= n", 202.0, 101.0),
], ids=["degree-spread", "forbidden-degree", "forbidden-edges"])
def test_each_hypothesis_flag_reports_its_measure(d, X, hypothesis, measured, bound):
    # one hypothesis broken at a time: only its flag, with what was measured
    # against which bound
    (flag,) = check_hypotheses(d, X)
    assert flag.hypothesis == hypothesis
    assert flag.measured == pytest.approx(measured, rel=1e-12)
    assert flag.bound == pytest.approx(bound, rel=1e-12)


# ------------------------------------------------------------------ miss/hit

def test_miss_hit_empty_forbidden_exactly_one():
    d = DegreeSequence((3, 2, 2, 2, 2, 1))
    mh = miss_hit_estimate(d, ForbiddenGraph.empty(6))
    assert mh["miss"].log_value == 0.0
    assert mh["hit"].log_value == 0.0


def test_miss_terms_against_independent_arithmetic():
    # regular d, one forbidden edge; every displayed term recomputed from
    # scratch with rational arithmetic
    n, dv = 100, 50
    d = DegreeSequence((dv,) * n)
    X = fg(n, [(1, 2)])
    mh = miss_hit_estimate(d, X)
    lam = Fraction(dv, n - 1)
    om = 1 - lam
    delta = lam  # delta_j = lam * x_j, x_j = 1 on the edge
    expected = {
        "X": lam / (om * n),
        "X2": lam * 2 / (2 * om * n),
        "X3": lam * (1 - 2 * lam) * 2 / (6 * om ** 2 * n ** 2),
        "Xsq": lam / (om * n ** 2),
        "D": -(delta * delta) / (lam * om * n ** 2),
        "C11": -(2 * delta) / (om * n),
        "C12": -(1 - 2 * lam) * (2 * delta) / (2 * om ** 2 * n ** 2),
        "C21": -(2 * delta ** 2) / (2 * om ** 2 * n ** 2),
    }
    for name, value in mh["miss"].terms:
        assert value == pytest.approx(float(expected[name]), abs=1e-15), name


def test_num_terms_are_the_dense_count_terms():
    d = DegreeSequence((5, 4, 4, 4, 4, 5, 4, 4, 4, 4))
    X = fg(10, [(1, 2), (2, 3), (4, 9)])
    assert miss_hit_estimate(d, X)["num"].terms == dense_count_estimate(d, X)[0].terms


def test_hit_is_miss_at_the_complement_degrees():
    # G contains X exactly when its complement, with degrees n-1-d, avoids X:
    # hit(n-1-d, X) == miss(d, X) bit for bit in every display, and the
    # exact substitution equals the complement's own parameter record
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(4, 24))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        case = data.draw(st.sampled_from(["general", "flat", "reg"]))
        if case == "flat":
            dv = rng.choice([v for v in range(1, n - 1) if n * v % 2 == 0])
            degrees = [dv] * n
        else:
            degrees = [rng.randint(1, n - 2) for _ in range(n)]
            degrees[0] += sum(degrees) % 2
        if case == "reg":   # a Hamilton cycle: x_j = 2 for every j
            order = rng.sample(range(1, n + 1), n)
            pairs = list(zip(order, order[1:] + order[:1]))
        else:
            pairs = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.2]
        d, X = DegreeSequence(degrees), fg(n, pairs)
        dc = DegreeSequence([n - 1 - v for v in degrees])
        if case == "general":
            a, b = miss_hit_estimate(d, X), miss_hit_estimate(dc, X)
        else:
            a, b = specialized_estimates(d, X, case), specialized_estimates(dc, X, case)
        assert b["hit"] == a["miss"] and b["miss"] == a["hit"]

        p, pc = compute_parameters(d, X), compute_parameters(dc, X)
        assert complement_fields(p) == {k: getattr(pc, k) for k in complement_fields(p)}
        for name in ("R", "K", "A", "X2", "X3"):
            assert getattr(pc, name) == getattr(p, name), name

    check()


def test_log_values_are_relabelling_invariant():
    # a vertex permutation of (d, X) keeps every log value to the bit: each
    # sum is exact (integers, Fractions) or a correctly rounded fsum, so no
    # value depends on the order in which the labels list the vertices
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def log_values(d, X):
        mh = miss_hit_estimate(d, X)
        return [repr(est.log_value) for est in (
            naive_estimate(compute_parameters(d, X), d, X), dense_count_estimate(d, X)[0],
            mh["miss"], mh["hit"], mh["num"],
            sparse_estimates(d, X, "perth"), sparse_estimates(d, X, "mckay81"))]

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(6, 60))
        base = data.draw(st.integers(1, n - 2))
        spread = st.integers(-3, 3).map(lambda s: min(max(base + s, 1), n - 2))
        degrees = data.draw(st.lists(spread, min_size=n, max_size=n))
        degrees[0] += sum(degrees) % 2
        pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                                   .filter(lambda e: e[0] < e[1]), max_size=3, unique=True))
        perm = data.draw(st.permutations(range(1, n + 1)))
        d, X = DegreeSequence(degrees), fg(n, pairs)
        assert log_values(*relabel(d, X, perm)) == log_values(d, X)

    check()


TRIANGLE = [(1, 2), (2, 3), (1, 3)]
CYCLE6 = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]


@pytest.mark.parametrize("degrees,pairs,case,side", [
    ((3, 1, 1, 1), [(1, 2)], "general", "miss"),           # d_1 = 3 > n-1-x_1 = 2
    ((1, 1, 0, 0), [(1, 2), (2, 3)], "general", "hit"),    # d_2 = 1 < x_2 = 2
    ((4,) * 6, TRIANGLE, "flat", "miss"),
    ((1,) * 6, TRIANGLE, "flat", "hit"),
    ((4,) * 6, CYCLE6, "reg", "miss"),
    ((1,) * 6, CYCLE6, "reg", "hit"),
])
def test_over_capacity_side_is_zero(degrees, pairs, case, side):
    d, X = DegreeSequence(degrees), fg(len(degrees), pairs)
    est = miss_hit_estimate(d, X) if case == "general" else specialized_estimates(d, X, case)
    assert exact_probability(d, X, side) == 0
    assert est[side] == LogEstimate(NEG_INF, NEG_INF, 0.0, "probability is zero", ())
    assert est["hit" if side == "miss" else "miss"].log_value > NEG_INF


def test_degenerate_density_rejected():
    d = DegreeSequence((2, 2, 2))
    with pytest.raises(ValueError):
        miss_hit_estimate(d, ForbiddenGraph.empty(3))


# ------------------------------------------------------ specialized evaluators

def test_flat_is_the_paper_constant_degree_display():
    # at d_j = d, delta_j = lambda x_j: the general tables are the paper's
    # five-term display, written out here in exact arithmetic as the reference.
    # Each logValue is compared relative to the size of its terms, since the
    # display can cancel to 0 exactly where the float tables leave ~1e-16.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(4, 40))
        dv = data.draw(st.sampled_from([v for v in range(1, n - 1) if n * v % 2 == 0]))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        room = [min(dv, n - 1 - dv)] * (n + 1)         # so that neither side is zero
        pairs = []
        for j, k in rng.sample(list(itertools.combinations(range(1, n + 1), 2)),
                               data.draw(st.integers(0, min(8, n * (n - 1) // 2)))):
            if room[j] and room[k]:
                room[j] -= 1
                room[k] -= 1
                pairs.append((j, k))
        d, X = DegreeSequence((dv,) * n), fg(n, pairs)
        x = X.row_sums
        Xc, X2, X3 = X.edge_count, sum(v ** 2 for v in x), sum(v ** 3 for v in x)
        H = sum(x[j - 1] * x[k - 1] for j, k in X.edges)

        def miss(lam):
            om = 1 - lam
            return (lam * Xc / (om * n), -lam * X2 / (2 * om * n),
                    -lam * (2 - lam) * X3 / (6 * om * om * n * n),
                    lam * Xc * Xc / (om * n * n), -lam * H / (om * n * n))

        lam = Fraction(dv, n - 1)
        display = {"miss": miss(lam), "hit": miss(1 - lam),
                   "num": (Fraction(1, 4), lam * (Xc * Xc - H) / ((1 - lam) * n * n))}
        flat = specialized_estimates(d, X, "flat")
        assert flat == miss_hit_estimate(d, X)
        for key, terms in display.items():
            err = abs(Fraction(flat[key].log_value) - sum(terms))
            assert err <= Fraction(1, 10 ** 13) * sum(abs(t) for t in terms), key

    check()


def test_flat_empty_num_is_quarter():
    d = DegreeSequence((3,) * 8)
    flat = specialized_estimates(d, ForbiddenGraph.empty(8), "flat")
    assert flat["num"].correction == 0.25


def test_reg_cycle_cover_miss_is_one():
    # x = 2 everywhere (disjoint cycles) on regular d: R = K = 0 and x(x-2) = 0
    d = DegreeSequence((3,) * 6)
    X = fg(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    reg = specialized_estimates(d, X, "reg")
    assert reg["miss"].correction == 0.0
    assert reg["hit"].correction == 0.0


def test_reg_discards_exactly_the_higher_order_terms():
    # difference general - reg equals the four discarded contributions,
    # reconstructed from the same parameter record
    degrees = (5, 4, 4, 4, 4, 4, 4, 4, 4, 5)
    pairs = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]   # x_j = 1 constant
    d = DegreeSequence(degrees)
    X = fg(10, pairs)
    p = compute_parameters(d, X)
    gen = miss_hit_estimate(d, X)
    reg = specialized_estimates(d, X, "reg")
    n = 10
    lam, om = float(p.lam), 1 - float(p.lam)
    x = 1.0
    discarded_miss = (
        lam * (1 - 2 * lam) * float(p.X3) / (6 * om * om * n * n)
        - (1 - 2 * lam) * float(p.C12) / (2 * om * om * n * n)
        - (float(p.C21) - x * float(p.R)) / (2 * om * om * n * n)
        - (float(p.D) - float(p.K)) / (lam * om * n * n)
    )
    got = gen["miss"].correction - reg["miss"].correction
    assert got == pytest.approx(discarded_miss, abs=1e-14)
    discarded_num = -(float(p.D) - float(p.K)) / (2 * float(p.A) * n * n)
    assert gen["num"].correction - reg["num"].correction == pytest.approx(
        discarded_num, abs=1e-14)
    discarded_hit = (
        -(1 + lam) * (1 + 2 * lam) * float(p.X3) / (6 * lam * lam * n * n)
        + (1 + 2 * lam) * float(p.C12) / (2 * lam * lam * n * n)
        - (float(p.C21) - x * float(p.R)) / (2 * lam * lam * n * n)
        - (float(p.L) - float(p.K)) / (lam * om * n * n)
    )
    assert gen["hit"].correction - reg["hit"].correction == pytest.approx(
        discarded_hit, abs=1e-14)


def test_case_preconditions():
    d = DegreeSequence((3, 2, 2, 2, 2, 1))
    with pytest.raises(ValueError):
        specialized_estimates(d, ForbiddenGraph.empty(6), "flat")
    dr = DegreeSequence((3,) * 6)
    with pytest.raises(ValueError):
        specialized_estimates(dr, fg(6, [(1, 2)]), "reg")


# ------------------------------------------------------------- induced forms

def test_induced_m_zero_is_exactly_one():
    d = DegreeSequence((3,) * 8)
    est = induced_estimate(d, ForbiddenGraph.empty(8), 0)
    assert est.log_value == 0.0
    # m = 0 needs no density at all, even for a complete graph
    assert induced_estimate(DegreeSequence((3, 3, 3, 3)),
                            ForbiddenGraph.empty(4), 0).log_value == 0.0


def test_induced_m_one_reports_order_correction():
    d = DegreeSequence((3,) * 8)
    est = induced_estimate(d, ForbiddenGraph.empty(8), 1)
    assert dict(est.terms)["m2"] == 1 / 16   # m^2/(2n)
    with pytest.raises(ValueError):
        induced_estimate(DegreeSequence((3, 3, 3, 3)),
                         ForbiddenGraph.empty(4), 1)   # lambda = 1


def test_induced_vs_exact_oracle():
    d = DegreeSequence((5,) * 10)
    X = fg(10, [(1, 2), (2, 3), (1, 3)])
    est = induced_estimate(d, X, 3)
    exact = float(exact_probability(d, X, "induced", m=3))
    assert abs(est.log_value - math.log(exact)) < 0.2   # measured 0.09 at n=10


def test_induced_leading_is_the_first_full_term():
    # the leading display is the independent-edge base plus w11_w02 alone
    d = DegreeSequence((6, 5, 5, 4, 5, 5, 5, 5, 5, 5))
    X = fg(10, [(1, 2), (2, 3)])
    full = induced_estimate(d, X, 3)
    lam = float(d.density)
    assert full.base_log == pytest.approx(2 * math.log(lam) + math.log1p(-lam), abs=1e-15)
    assert [name for name, _ in full.terms] == ["w11_w02", "m2", "w01", "w10_w01",
                                                 "mixed_m", "third"]


def test_induced_full_vs_leading_sweep():
    # what the terms after the leading one add shrinks with n
    diffs = []
    for n in (100, 200, 400):
        d = DegreeSequence((n // 2,) * n)
        X = fg(n, [(1, 2), (2, 3), (3, 4)])
        full = induced_estimate(d, X, 4)
        diffs.append(abs(full.log_value - (full.base_log + full.terms[0][1])))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 0.75 * diffs[1] < 0.6 * diffs[0]


@pytest.mark.parametrize("degrees,pairs,m", [
    ((3, 1, 1, 1), [], 2),                  # d_1 = 3 > n-m+x_1 = 2: edge 12 is absent
    ((1, 1, 0, 0), [(1, 2), (2, 3)], 3),    # d_2 = 1 < x_2 = 2
])
def test_impossible_induced_event_is_zero(degrees, pairs, m):
    d, X = DegreeSequence(degrees), fg(len(degrees), pairs)
    assert exact_probability(d, X, "induced", m=m) == 0
    zero = LogEstimate(NEG_INF, NEG_INF, 0.0, "probability is zero", ())
    assert induced_estimate(d, X, m) == zero


def test_zero_induced_estimate_is_exactly_zero_property():
    # the zero test is a degree bound on the support vertices, so it must
    # never fire on an event that some graph realizes
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(3, 7))
        m = data.draw(st.integers(1, n))
        graph = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
        deg = [sum(v in e for e in graph) for v in range(n)]
        hyp.assume(0 < sum(deg) < n * (n - 1))
        pairs = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(1, m + 1), 2))))
                          if m > 1 else st.just(set()))
        d, X = DegreeSequence(tuple(deg)), fg(n, pairs)
        est = induced_estimate(d, X, m)
        exact = exact_probability(d, X, "induced", m=m)
        assert (est.log_value == NEG_INF) <= (exact == 0)

    check()


def test_induced_support_violation():
    d = DegreeSequence((3,) * 8)
    with pytest.raises(ValueError):
        induced_estimate(d, fg(8, [(5, 6)]), 3)


# ------------------------------------------------------ overlap distribution

def test_overlap_single_edge_law():
    d = DegreeSequence((2, 2, 2, 2))
    Y = fg(4, [(1, 2)])
    assert overlap_distribution_estimate(d, Y, 0) == pytest.approx(1 / 3)
    assert overlap_distribution_estimate(d, Y, 1) == pytest.approx(2 / 3)


def test_overlap_matches_exact_at_density_two_thirds():
    from degcount.exactcount import exact_overlap_distribution
    d = DegreeSequence((2, 2, 2, 2))
    Y = fg(4, [(1, 2)])
    exact = exact_overlap_distribution(d, Y)
    for k in (0, 1):
        assert overlap_distribution_estimate(d, Y, k) == pytest.approx(float(exact[k]))


def test_overlap_normalization_exact():
    d = DegreeSequence((5,) * 12)
    Y = fg(12, [(1, 2), (2, 3), (4, 5), (6, 7)])
    total = math.fsum(overlap_distribution_estimate(d, Y, k) for k in range(5))
    assert total == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        overlap_distribution_estimate(d, Y, 5)


# ------------------------------------------------------------ sparse regime

def test_perth_matches_tiny_exact_counts():
    assert sparse_estimates(DegreeSequence((1, 1)), ForbiddenGraph.empty(2),
                            "perth").log_value == pytest.approx(0.0, abs=1e-12)
    est = sparse_estimates(DegreeSequence((1, 1, 1, 1)), ForbiddenGraph.empty(4), "perth")
    assert est.log_value == pytest.approx(math.log(3), abs=1e-12)


def test_perth_zero_when_the_count_is_zero():
    # d_1 = n - 1 needs the edge 12, so no graph avoids X: the one zero rule
    # of naive and dense, not a finite count
    d = DegreeSequence((5, 3, 3, 3, 3, 3))
    X = fg(6, [(1, 2)])
    assert exact_count(d) == 12 and exact_count(d, X) == 0
    est = sparse_estimates(d, X, "perth")
    assert est.log_value == est.base_log == NEG_INF and est.terms == ()
    assert naive_estimate(compute_parameters(d, X), d, X).log_value == NEG_INF


def test_mckay81_ratio_vs_exact_discrepancy_reported():
    d = DegreeSequence((2, 2, 2, 2))
    X = fg(4, [(1, 2)])
    est = sparse_estimates(d, X, "mckay81")
    assert math.exp(est.log_value) == pytest.approx(0.5, abs=1e-12)
    exact = float(exact_probability(d, X, "hit"))
    assert abs(math.exp(est.log_value) - exact) < 0.25   # reported, finite-n gap


def test_mckay81_zero_when_x_exceeds_d():
    d = DegreeSequence((1, 1, 1, 1))
    X = fg(4, [(1, 2), (1, 3)])   # x_1 = 2 > d_1, X = E = 2
    assert sparse_estimates(d, X, "mckay81").log_value == NEG_INF
    with pytest.raises(ValueError):
        sparse_estimates(DegreeSequence((1, 1, 0, 0)), fg(4, [(1, 2), (2, 3)]),
                         "mckay81")   # X > E violates the precondition


# ----------------------------------------------- regular-graph expectations

def test_hamilton_cycle_correction_vanishes():
    est = regular_graph_expectations(10, 5, "cycles", q=10)
    assert dict(est.terms)["length_split"] == 0.0


def test_matchings_against_exact_expectation():
    n, dv = 6, 3
    d = DegreeSequence((dv,) * n)
    M = fg(n, [(1, 2), (3, 4), (5, 6)])
    count = math.factorial(n) // (2 ** (n // 2) * math.factorial(n // 2))
    exact = count * float(exact_probability(d, M, "hit"))
    est = regular_graph_expectations(n, dv, "matchings")
    assert abs(est.log_value - math.log(exact)) < 0.15


def test_triangles_against_exact_expectation():
    n, dv = 10, 5
    d = DegreeSequence((dv,) * n)
    T = fg(n, [(1, 2), (2, 3), (1, 3)])
    exact = math.comb(n, 3) * float(exact_probability(d, T, "hit", limit=12))
    est = regular_graph_expectations(n, dv, "cycles", q=3)
    assert abs(est.log_value - math.log(exact)) < 0.25


def test_expectation_preconditions():
    # no 3-regular graph has an odd number of vertices
    for n in (5, 7):
        with pytest.raises(ValueError, match="odd"):
            regular_graph_expectations(n, 3, "cycles", q=3)
    with pytest.raises(ValueError):
        regular_graph_expectations(7, 3, "matchings")
    with pytest.raises(ValueError):
        regular_graph_expectations(10, 5, "cycles", q=2)
    with pytest.raises(ValueError):
        regular_graph_expectations(10, 5, "cycles", q=11)
