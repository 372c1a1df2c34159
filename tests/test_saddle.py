import itertools
import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from degcount import saddle
from degcount.graphcore import (DegreeSequence, ForbiddenGraph, compute_parameters,
                                impossible, interior_density, is_graphical, relabel)
from degcount.exactcount import exact_count
from degcount.saddle import (
    QuadratureError,
    contour_point,
    fixed_radii_point,
    integral_quadrature,
    log_prefactor,
    solve_saddle,
)


def fg(n, pairs):
    return ForbiddenGraph.from_pairs(n, pairs)


def newton_radii_oracle(d, X, tol=1e-13, iters=200):
    """Independent damped Newton on the radius equations in the r-variables.

    Solves sum_{k non-forbidden} r_j r_k/(1+r_j r_k) = d_j directly, with no
    shared code with the package solver (different parametrization).
    """
    n = d.n
    adj = np.zeros((n, n))
    for j, k in X.edges:
        adj[j - 1, k - 1] = adj[k - 1, j - 1] = 1.0
    xbar = 1.0 - adj - np.eye(n)
    degs = np.asarray(d.degrees, float)
    lam = 2 * d.edge_count / (n * (n - 1))
    r = np.full(n, math.sqrt(lam / (1 - lam)))

    def residual(r):
        rr = np.outer(r, r)
        L = rr / (1 + rr)
        return (L * xbar).sum(axis=1) - degs

    for _ in range(iters):
        F = residual(r)
        if np.abs(F).max() < tol:
            break
        rr = np.outer(r, r)
        W = xbar / (1 + rr) ** 2
        Jd = (W * r[None, :]).sum(axis=1)   # diagonal: sum_k r_k/(1+r_j r_k)^2
        Joff = W * r[:, None]               # off-diagonal (j,m): r_j/(1+r_j r_m)^2
        Jm = Joff + np.diag(Jd)             # Joff has zero diagonal (xbar mask)
        step = np.linalg.solve(Jm, -F)
        alpha = 1.0
        base = np.abs(F).max()
        while alpha > 1e-12:
            trial = r + alpha * step
            if np.all(trial > 0) and np.abs(residual(trial)).max() < base:
                r = trial
                break
            alpha /= 2
        else:
            break
    return r


# ------------------------------------------------------------- saddle solves

def test_regular_empty_is_exact_fixed_point():
    sp = solve_saddle(DegreeSequence((3,) * 6))
    assert np.all(sp.class_a == 0.0)
    assert sp.max_residual == 0.0
    assert sp.converged and sp.iterations == 0


def test_convergence_mode_reaches_tol_like_newton_oracle():
    # (2,2,1,1) has no finite exact saddle (radii run to a degenerate limit),
    # but both the package solver and the independent r-space Newton oracle
    # drive the row-sum residual below tolerance, which is what is asserted.
    d = DegreeSequence((2, 2, 1, 1))
    X = ForbiddenGraph.empty(4)
    sp = solve_saddle(d, X)
    assert sp.converged and sp.max_residual < 1e-12
    r_oracle = newton_radii_oracle(d, X)
    adj = np.zeros((4, 4))
    xbar = 1.0 - adj - np.eye(4)
    rr = np.outer(r_oracle, r_oracle)
    resid = ((rr / (1 + rr)) * xbar).sum(axis=1) - np.asarray(d.degrees, float)
    # the raw r-parametrization cancels catastrophically at the extreme radii
    # of this degenerate instance, so the oracle bottoms out near 1e-9
    assert np.abs(resid).max() < 1e-8


@pytest.mark.parametrize("degrees,pairs", [
    ((3, 3, 2, 2, 2, 2), []),
    ((26, 26) + (25,) * 46 + (24, 24), [(1, 2), (3, 50)]),
], ids=["n6", "n50-two-forbidden"])
def test_well_posed_instance_matches_newton_oracle(degrees, pairs):
    d = DegreeSequence(degrees)
    X = fg(d.n, pairs)
    sp = solve_saddle(d, X)
    assert sp.converged
    r_oracle = newton_radii_oracle(d, X)
    assert np.abs(sp.class_radii[sp.cls] - r_oracle).max() < 1e-8


def test_one_edge_symmetry_pattern():
    d = DegreeSequence((3,) * 6)
    X = fg(6, [(1, 2)])
    sp = solve_saddle(d, X)
    assert sp.max_residual < 1e-10
    a = sp.class_a[sp.cls]
    assert a[0] == pytest.approx(a[1], abs=1e-13)
    assert a[0] > 0
    assert np.allclose(a[2:], a[2])
    r_oracle = newton_radii_oracle(d, X)
    assert np.abs(sp.class_radii[sp.cls] - r_oracle).max() < 1e-8


def test_solver_error_conditions():
    with pytest.raises(ValueError):
        solve_saddle(DegreeSequence((1, 1)))                     # n < 3
    with pytest.raises(ValueError):
        solve_saddle(DegreeSequence((2, 2, 2)))                  # lambda = 1
    with pytest.raises(ValueError):
        solve_saddle(DegreeSequence((3, 1, 1, 1)), fg(4, [(1, 2)]))  # infeasible


def test_pole_error_on_extreme_spread_fixed_mode():
    # (4,4,4,0,0) passes the local feasibility precheck but is globally
    # infeasible (G = 0), and the fixed sweeps run into the radius-map pole
    from degcount.saddle import SaddlePoleError
    d = DegreeSequence((4, 4, 4, 0, 0))
    with pytest.raises(SaddlePoleError):
        solve_saddle(d, mode="fixed")
    assert issubclass(SaddlePoleError, ValueError)


@pytest.mark.parametrize("degrees", [(4, 4, 4, 0, 0), (3, 3, 0, 0)], ids=["44400", "3300"])
def test_infeasible_system_reports_nonconvergence_and_zero_count(degrees):
    # no saddle exists when the row-sum system is infeasible; the solver
    # returns its last iterate unconverged, and the factorization still gives G = 0
    d = DegreeSequence(degrees)
    sp = solve_saddle(d)
    assert not sp.converged and sp.max_residual > 0.1
    I = integral_quadrature(sp, d)
    P = math.exp(log_prefactor(sp, d))
    assert exact_count(d) == 0
    assert abs(P * I.real) < 1e-9


def test_fixed_mode_runs_exactly_four_sweeps():
    d = DegreeSequence((4,) * 8)
    X = fg(8, [(1, 2)])
    sp = solve_saddle(d, X, mode="fixed")
    assert sp.iterations == 4 and sp.mode == "fixed"


def test_no_finite_saddle_instance_is_solved_alike_in_every_labelling():
    # Newton crawls here, so any change of summation order shows in the
    # step count; classes are ordered without reference to vertex labels
    d, X = DegreeSequence((1, 3, 1, 2, 1)), fg(5, [(1, 5), (4, 5)])
    outcomes = set()
    for perm in itertools.permutations(range(1, 6)):
        sp = solve_saddle(*relabel(d, X, list(perm)))
        outcomes.add((sp.converged, sp.iterations, sp.max_residual))
    assert len(outcomes) == 1


@pytest.mark.parametrize("degrees,pairs", [
    ((4, 4, 4, 0, 0), []),
    ((2,) * 5, [(1, 2), (2, 3), (1, 3)]),
], ids=["44400", "forbidden-triangle"])
def test_stalled_solve_ends_early(degrees, pairs):
    # no saddle: full Newton steps remove under 1% of the residual from the
    # third (fifth) step on, so the solve stops instead of using MAX_STEPS
    sp = solve_saddle(DegreeSequence(degrees), fg(len(degrees), pairs))
    assert not sp.converged and sp.iterations < 10


def dense_residual(sp, d, X):
    """Row sums of r_j r_k/(1+r_j r_k) over non-forbidden partners, minus d_j."""
    n = d.n
    xbar = 1.0 - np.eye(n)
    for j, k in X.edges:
        xbar[j - 1, k - 1] = xbar[k - 1, j - 1] = 0.0
    radii = sp.class_radii[sp.cls]
    rr = np.outer(radii, radii)
    return (rr / (1 + rr) * xbar).sum(axis=1) - np.asarray(d.degrees, float)


def near_regular(rng, n, forbidden):
    X = fg(n, [sorted(rng.sample(range(1, n + 1), 2)) for _ in range(forbidden)])
    deg = [n // 2 + rng.choice((-1, 0, 1)) - xj for xj in X.row_sums]
    deg[-1] += sum(deg) % 2
    return DegreeSequence(tuple(deg)), X


def spread_degrees(rng, n, matching):
    # degrees drawn over [n/4, 3n/4] and a forbidden matching on 2*matching
    # vertices: most vertices are a class of their own
    verts = rng.sample(range(1, n + 1), 2 * matching)
    X = fg(n, [verts[i:i + 2] for i in range(0, len(verts), 2)])
    deg = [rng.randint(n // 4, 3 * n // 4) for _ in range(n)]
    deg[-1] += sum(deg) % 2
    return DegreeSequence(tuple(deg)), X


@pytest.mark.parametrize("seed", range(6))
def test_class_solve_residual_matches_dense_recompute(seed):
    rng = random.Random(seed)
    cases = [near_regular(rng, rng.randint(20, 200), rng.randint(1, 3)),
             spread_degrees(rng, rng.randint(20, 200), 0)]
    n = rng.randint(60, 200)
    cases.append(spread_degrees(rng, n, n // 3))
    for d, X in cases:
        sp = solve_saddle(d, X)
        assert sp.converged
        dense = dense_residual(sp, d, X)
        assert np.abs(dense).max() < 1e-10
        assert np.abs(dense - sp.class_residual[sp.cls]).max() < 1e-12
    # in the last instance most vertices have a radius of their own
    assert np.unique(sp.class_radii).size > 0.6 * n


def per_vertex_classes(d, X):
    """_classes as it was first written, with a key built for every vertex."""
    dx = list(zip(d.degrees, X.row_sums))
    keys = [key + (tuple(sorted(dx[k - 1] for k in X.neighbors(j + 1))), j) if key[1] else key
            for j, key in enumerate(dx)]
    index = {key: c for c, key in enumerate(sorted(set(keys)))}
    cls = np.array([index[key] for key in keys], dtype=np.intp)
    first, m = np.unique(cls, return_index=True, return_counts=True)[1:]
    F = np.zeros((len(m), len(m)))
    for j, k in X.edges:
        F[cls[j - 1], cls[k - 1]] = F[cls[k - 1], cls[j - 1]] = 1.0
    return cls, first, m.astype(float), F


def test_classes_match_the_per_vertex_keys():
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        n = rng.randint(3, 30)
        deg = [rng.randint(0, n - 1) for _ in range(n)]
        if sum(deg) % 2:
            deg[0] += 1 if deg[0] < n - 1 else -1
        p = rng.choice([0.0, 0.05, 0.3, 1.0])
        pairs = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
        cases.append((DegreeSequence(deg), fg(n, pairs)))
    # every vertex in supp(X): a Hamilton cycle and a perfect matching
    cases.append((DegreeSequence((4,) * 9), fg(9, [(j, j % 9 + 1) for j in range(1, 10)])))
    cases.append((DegreeSequence((5, 5, 3, 3, 4, 4, 2, 2)), fg(8, [(1, 2), (3, 4), (5, 6), (7, 8)])))
    cases += [relabel(d, X, rng.sample(range(1, d.n + 1), d.n)) for d, X in cases]
    for d, X in cases:
        got, want = saddle._classes(d, X), per_vertex_classes(d, X)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def test_class_solve_at_ten_thousand_vertices():
    n = 10_000
    d, X = near_regular(random.Random(1), n, 2)
    sp = solve_saddle(d, X)
    assert sp.converged and sp.iterations <= 3
    assert sp.cls.shape == (n,)
    assert sp.class_radii.shape == sp.class_a.shape == sp.class_residual.shape == (sp.cls.max() + 1,)


def test_fixed_radii_residual_is_closed_form():
    d = DegreeSequence((3, 2, 2, 2, 1))
    X = fg(5, [(1, 2), (2, 3)])
    sp = fixed_radii_point(d, X, radius=0.7)
    assert np.abs(sp.class_residual[sp.cls] - dense_residual(sp, d, X)).max() < 1e-14


def test_relabelling_permutes_radii_and_keeps_log_prefactor():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(seed=st.integers(0, 10 ** 6), data=st.data())
    def check(seed, data):
        rng = random.Random(seed)
        n = rng.randint(8, 40)
        d, X = (near_regular if seed % 2 else spread_degrees)(rng, n, 2)
        perm = data.draw(st.permutations(range(1, n + 1)))
        d2, X2 = relabel(d, X, perm)
        try:
            sp = solve_saddle(d, X)
        except ValueError as exc:
            # the parity fix-up can push the last degree past n-1-x_j
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                solve_saddle(d2, X2)
            return
        sp2 = solve_saddle(d2, X2)
        assert sp.converged == sp2.converged
        idx = np.asarray(perm) - 1
        assert np.allclose(sp2.class_radii[sp2.cls][idx], sp.class_radii[sp.cls],
                           rtol=1e-12, atol=0.0)
        lp, lp2 = log_prefactor(sp, d, X), log_prefactor(sp2, d2, X2)
        assert abs(lp2 - lp) <= 1e-12 * abs(lp)

    check()


def per_vertex_log_prefactor(sp, d, X):
    """log_prefactor as it was written per vertex: np.unique over the n radii
    and one fsum term d_j ln r_j per vertex."""
    radii = sp.class_radii[sp.cls]
    r, m = np.unique(radii, return_counts=True)
    pairs = 0.5 * (np.outer(m, m) - np.diag(m))
    edges = np.array(list(X.edges), dtype=np.intp).reshape(-1, 2) - 1
    forbidden = np.log1p(radii[edges[:, 0]] * radii[edges[:, 1]])
    acc = math.fsum((pairs * np.log1p(np.outer(r, r))).ravel().tolist() + (-forbidden).tolist())
    acc -= d.n * math.log(2.0 * math.pi)
    acc -= math.fsum(map(operator.mul, d.degrees, map(math.log, radii.tolist())))
    return acc


def regular_with_forbidden(rng, n):
    """Constant degrees and a forbidden edge or triangle: its ends are one-vertex
    classes with equal keys but for the label, so they share a radius."""
    dv = n // 2 - (n * (n // 2)) % 2
    pairs = [(1, 2), (2, 3), (1, 3)][:rng.choice((1, 3))]
    return DegreeSequence((dv,) * n), fg(n, pairs)


def test_log_prefactor_is_the_per_vertex_sum_bit_for_bit():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    families = (regular_with_forbidden, lambda rng, n: near_regular(rng, n, rng.randint(0, 3)),
                lambda rng, n: spread_degrees(rng, n, rng.randint(0, 3)))

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(seed=st.integers(0, 10 ** 6), family=st.sampled_from(range(3)),
               source=st.sampled_from(("converge", "fixed", "fixed-radii")),
               radius=st.floats(0.2, 5.0), relabelled=st.booleans())
    @hyp.example(seed=1, family=0, source="converge", radius=1.0, relabelled=False)
    @hyp.example(seed=2, family=0, source="fixed", radius=1.0, relabelled=True)
    @hyp.example(seed=3, family=0, source="fixed-radii", radius=0.7, relabelled=True)
    def check(seed, family, source, radius, relabelled):
        rng = random.Random(seed)
        n = rng.randint(3, 40)
        try:
            d, X = families[family](rng, n)
            if relabelled:
                d, X = relabel(d, X, rng.sample(range(1, n + 1), n))
            sp = (fixed_radii_point(d, X, radius) if source == "fixed-radii"
                  else solve_saddle(d, X, mode=source))
        except ValueError:
            return   # degrees out of range or infeasible, or a fixed sweep hit a pole
        assert repr(log_prefactor(sp, d, X)) == repr(per_vertex_log_prefactor(sp, d, X))
        if sp.converged or source != "converge":
            # a stalled solve's extreme radii leave the dense recompute to cancellation
            assert np.abs(sp.class_residual[sp.cls] - dense_residual(sp, d, X)).max() < 1e-12

    check()


# ------------------------------------------------------ large-n instance setup

def draw_instance(data, st):
    """A random (d, X) with n <= 12 or 1000 <= n <= 2000 and up to three X-edges.

    Degrees are near one value, or set at a support vertex's capacity
    n-1-x_j give or take one, or all 0 or all n-1 (a degenerate density).
    """
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(1000, 2000)), label="n")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    X = fg(n, [rng.sample(range(1, n + 1), 2) for _ in range(rng.randint(0, 3))] if n > 1 else [])
    style = data.draw(st.sampled_from(("near", "capacity", "degenerate")), label="style")
    if style == "degenerate":
        return DegreeSequence((rng.choice((0, n - 1)),) * n), X
    base = rng.randint(0, n - 1)
    deg = [min(n - 1, max(0, base + rng.choice((-1, 0, 1)))) for _ in range(n)]
    if style == "capacity":
        for j, xj in enumerate(X.row_sums):
            if xj:
                deg[j] = min(n - 1, max(0, n - 1 - xj + rng.choice((-1, 0, 1))))
    if sum(deg) % 2:
        deg[-1] += 1 if deg[-1] < n - 1 else -1
    return DegreeSequence(tuple(deg)), X


def test_support_only_impossible_matches_every_vertex():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        d, X = draw_instance(data, st)
        n = d.n
        assert impossible(d, X) == any(dj > n - 1 - xj for dj, xj in zip(d.degrees, X.row_sums))

    check()


def exact_density(d):
    """lambda = 2E/(n(n-1)) as a Fraction, apart from DegreeSequence.density."""
    return Fraction(2 * d.edge_count, d.n * (d.n - 1))


def exact_deltas(d, X):
    """delta_j = d_j - lambda (n-1) + lambda x_j in Fraction arithmetic."""
    lam = exact_density(d)
    return [dj - lam * (d.n - 1) + lam * xj for dj, xj in zip(d.degrees, X.row_sums)]


def parameters_solve(d, X, mode):
    """solve_saddle with lambda and the class deltas from Fraction arithmetic,
    in place of graphcore's density and integer delta numerators."""
    def fraction_deltas(d, X, vertices):
        deltas = exact_deltas(d, X)
        return [float(deltas[j - 1]) for j in vertices], 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saddle, "interior_density", lambda lam: interior_density(exact_density(d)))
        mp.setattr(saddle, "delta_numerators", fraction_deltas)
        return solve_saddle(d, X, mode=mode)


def test_integer_densities_match_parameters_solve():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(data=st.data(), mode=st.sampled_from(("converge", "fixed")))
    def check(data, mode):
        d, X = draw_instance(data, st)
        try:
            sp = solve_saddle(d, X, mode=mode)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                parameters_solve(d, X, mode)
            return
        ref = parameters_solve(d, X, mode)
        for name in ("cls", "class_a", "class_radii", "class_residual"):
            assert np.array_equal(getattr(sp, name), getattr(ref, name)), name
        assert (sp.iterations, sp.converged) == (ref.iterations, ref.converged)

    check()


def test_solver_errors_keep_their_order():
    # n < 3 first, then a degenerate density, then infeasible degrees
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(data=st.data())
    def check(data):
        d, X = draw_instance(data, st)
        n, S = d.n, 2 * d.edge_count
        if n < 3:
            expected = "need n >= 3"
        elif S in (0, n * (n - 1)):
            expected = f"degenerate density lambda={S / (n * (n - 1))}"
        elif any(dj > n - 1 - xj for dj, xj in zip(d.degrees, X.row_sums)):
            expected = "infeasible degrees"
        else:
            assert solve_saddle(d, X).cls.shape == (n,)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}"):
            solve_saddle(d, X)

    check()


# --------------------------------------------------------------- invariants

def test_lambda_reconstruction_from_a_and_z():
    # weight matrix from (a_j, a_k, Z_jk) agrees with r_j r_k/(1+r_j r_k)
    d = DegreeSequence((3, 3, 2, 2, 2, 2))
    X = fg(6, [(1, 4)])
    sp = solve_saddle(d, X)
    a, lam = sp.class_a[sp.cls], density(d)
    r2 = lam / (1 - lam)
    outer = np.outer(a, a)
    Z = outer * (1 - r2 - r2 * a[:, None] - r2 * a[None, :]) / (1 + r2 * outer)
    np.fill_diagonal(Z, 0.0)
    L_from_a = lam * (1 + a[:, None] + a[None, :] + Z)
    np.fill_diagonal(L_from_a, 0.0)
    assert np.abs(L_from_a - sp.lambda_jk).max() < 1e-12


@pytest.mark.parametrize("mode", ["fixed", "converge"])
def test_summed_saddle_identity(mode):
    # X = sum_j((n-1) a_j - a_j x_j) + Z-total, up to the summed residual
    d = DegreeSequence((4, 4, 3, 3, 3, 3, 2, 2))
    X = fg(8, [(1, 2), (3, 7)])
    sp = solve_saddle(d, X, mode=mode)
    n = d.n
    a, lam = sp.class_a[sp.cls], density(d)
    r2 = lam / (1 - lam)
    x = np.asarray(X.row_sums, float)
    adj = np.zeros((n, n))
    for j, k in X.edges:
        adj[j - 1, k - 1] = adj[k - 1, j - 1] = 1.0
    xbar = 1.0 - adj - np.eye(n)
    outer = np.outer(a, a)
    Z = outer * (1 - r2 - r2 * a[:, None] - r2 * a[None, :]) / (1 + r2 * outer)
    np.fill_diagonal(Z, 0.0)
    z_cc = (Z * xbar).sum() / 2
    expr = ((n - 1) * a - a * x).sum() + z_cc
    slack = np.abs(sp.class_residual[sp.cls]).sum() / (2 * lam) + 1e-9
    assert abs(X.edge_count - expr) <= slack


def test_four_sweep_point_tracks_leading_term():
    # max_j |a_j - delta_j/(lam n)| decreases with n on regular-plus-one-edge
    gaps = []
    for n in (20, 40, 80):
        d = DegreeSequence((n // 2,) * n)
        X = fg(n, [(1, 2)])
        sp = solve_saddle(d, X, mode="fixed")
        p = compute_parameters(d, X)
        lead = np.array([float(v) for v in exact_deltas(d, X)]) / (float(p.lam) * n)
        gaps.append(np.abs(sp.class_a[sp.cls] - lead).max())
    assert gaps[0] > gaps[1] > gaps[2]


# ------------------------------------------------------------- coefficients

@dataclass(frozen=True)
class AbgCoefficients:
    """Pairwise quadratic/cubic/quartic weight deviations from their density values."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def density(d) -> float:
    """lambda = 2E/(n(n-1)) of the degree sequence d, as a float."""
    return 2 * d.edge_count / (d.n * (d.n - 1))


def abg_coefficients(sp, d) -> AbgCoefficients:
    """Deviation matrices of the pairwise weight polynomials from their density values."""
    L = sp.lambda_jk
    lam = density(d)
    A = lam * (1 - lam) / 2.0
    A3 = lam * (1 - lam) * (1 - 2 * lam) / 6.0
    A4 = lam * (1 - lam) * (1 - 6 * lam + 6 * lam * lam) / 24.0
    alpha = 0.5 * L * (1 - L) - A
    beta = L * (1 - L) * (1 - 2 * L) / 6.0 - A3
    gamma = L * (1 - L) * (1 - 6 * L + 6 * L * L) / 24.0 - A4
    for mat in (alpha, beta, gamma):
        np.fill_diagonal(mat, 0.0)
    return AbgCoefficients(alpha=alpha, beta=beta, gamma=gamma)


def test_abg_zero_for_regular_empty():
    d = DegreeSequence((3,) * 6)
    sp = solve_saddle(d)
    ab = abg_coefficients(sp, d)
    off = ~np.eye(6, dtype=bool)
    assert np.abs(ab.alpha[off]).max() < 1e-15
    assert np.abs(ab.beta[off]).max() < 1e-15
    assert np.abs(ab.gamma[off]).max() < 1e-15


def test_abg_defining_identity():
    d = DegreeSequence((2, 2, 1, 1))
    sp = solve_saddle(d)
    ab = abg_coefficients(sp, d)
    L = sp.lambda_jk
    A = density(d) * (1 - density(d)) / 2
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(ab.alpha[off], (0.5 * L * (1 - L) - A)[off], atol=1e-16)


def test_abg_extended_precision_recompute():
    mpmath = pytest.importorskip("mpmath")
    d = DegreeSequence((2, 2, 1, 1))
    sp = solve_saddle(d)
    mpmath.mp.dps = 40
    lam = mpmath.mpf(density(d))
    A = lam * (1 - lam) / 2
    for j in range(4):
        for k in range(4):
            if j == k:
                continue
            ljk = mpmath.mpf(sp.lambda_jk[j, k])
            want = ljk * (1 - ljk) / 2 - A
            got = abg_coefficients(sp, d).alpha[j, k]
            assert abs(got - float(want)) < 1e-12


def test_log_prefactor_extended_precision():
    mpmath = pytest.importorskip("mpmath")
    d = DegreeSequence((3,) * 6)
    sp = solve_saddle(d)
    radii = sp.class_radii[sp.cls]
    mpmath.mp.dps = 50
    total = mpmath.mpf(0)
    for j in range(6):
        for k in range(j + 1, 6):
            total += mpmath.log(1 + mpmath.mpf(radii[j]) * mpmath.mpf(radii[k]))
    total -= 6 * mpmath.log(2 * mpmath.pi)
    for j in range(6):
        total -= 3 * mpmath.log(mpmath.mpf(radii[j]))
    assert abs(log_prefactor(sp, d) - float(total)) < 1e-12


# --------------------------------------------------------- integrand modulus

def integrand_modulus(sp, theta, X=None) -> tuple[float, float]:
    """Modulus of the angular integrand at theta, and its pairwise exponential bound.

    Returns (value, bound) with value = prod over non-forbidden pairs of
    sqrt(1 - 4 q_jk (1 - cos(theta_j + theta_k))), q_jk = lambda_jk(1-lambda_jk)/2,
    and bound = exp(sum of -q z^2 + q z^4 / 12) over the same pairs.
    """
    th = np.asarray(theta, dtype=float)
    n = th.size
    if X is None:
        X = ForbiddenGraph.empty(n)
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    for j, k in X.edges:
        mask[j - 1, k - 1] = False
    L = sp.lambda_jk
    q = 0.5 * L * (1 - L)
    z = th[:, None] + th[None, :]
    inside = 1.0 - 4.0 * q * (1.0 - np.cos(z))
    value = float(np.sqrt(np.clip(inside[mask], 0.0, None)).prod())
    bound = float(np.exp(np.sum(-q[mask] * z[mask] ** 2 + q[mask] * z[mask] ** 4 / 12.0)))
    return value, bound


def test_modulus_at_origin_and_pi_shift():
    sp = solve_saddle(DegreeSequence((2, 2, 1, 1)))
    v0, _ = integrand_modulus(sp, np.zeros(4))
    vpi, _ = integrand_modulus(sp, np.full(4, math.pi))
    assert v0 == pytest.approx(1.0, abs=1e-14)
    assert vpi == pytest.approx(1.0, abs=1e-12)


def test_modulus_bounded_by_exponential_bound():
    sp = solve_saddle(DegreeSequence((3, 3, 2, 2, 2, 2)))
    rng = np.random.default_rng(5)
    strict = 0
    for _ in range(50):
        theta = rng.uniform(-math.pi, math.pi, 6)
        value, bound = integrand_modulus(sp, theta)
        assert value <= bound + 1e-12
        if value < bound - 1e-9:
            strict += 1
    assert strict > 40   # strict inequality away from the symmetry points


# ----------------------------------------------------- quadrature identities

@pytest.mark.parametrize("degrees,pairs", [
    ((2, 2, 2), []),
    ((2, 2, 2, 2), []),
    ((2, 2, 2, 2), [(1, 2)]),
    ((1, 1, 2, 2), [(1, 2)]),
    ((3, 2, 2, 2, 1), []),
    ((2, 2, 2, 2, 2), [(2, 3)]),
])
def test_factorization_matches_exact_count(degrees, pairs):
    d = DegreeSequence(degrees)
    X = fg(len(degrees), pairs)
    sp = contour_point(d, X)
    I = integral_quadrature(sp, d, X)
    P = math.exp(log_prefactor(sp, d, X))
    G = exact_count(d, X)
    assert P * I.real == pytest.approx(G, rel=1e-6, abs=1e-6)
    if G:
        assert abs(I.imag) <= 1e-8 * abs(I)


def test_factorization_random_multi_edge_forbidden():
    # the identity is unconditional in X; sweep random multi-edge instances
    import random
    from itertools import combinations
    rng = random.Random(9)
    tested = 0
    while tested < 25:
        n = rng.randint(3, 5)
        pairs = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.35]
        X = fg(n, pairs)
        caps = [n - 1 - xj for xj in X.row_sums]
        deg = [rng.randint(0, caps[j]) for j in range(n)]
        if sum(deg) % 2:
            j = next((i for i in range(n) if deg[i] < caps[i]), None)
            if j is None:
                continue
            deg[j] += 1
        d = DegreeSequence(tuple(deg))
        sp = contour_point(d, X)
        I = integral_quadrature(sp, d, X)
        P = math.exp(log_prefactor(sp, d, X))
        G = exact_count(d, X)
        assert abs(P * I.real - G) <= 1e-9 * max(G, 1)
        tested += 1


def test_contour_point_prefers_fixed_saddle():
    d = DegreeSequence((3, 2, 2, 2, 1))
    X = fg(5, [(1, 5)])
    got, want = contour_point(d, X), solve_saddle(d, X, mode="fixed")
    assert got.mode == "fixed"
    for name in ("cls", "class_radii", "class_residual"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("degrees", [(0, 0, 0, 0), (3, 3, 3, 3)])
def test_contour_point_falls_back_at_degenerate_density(degrees):
    d = DegreeSequence(degrees)
    got, want = contour_point(d), fixed_radii_point(d)
    assert got.mode == "fixed-radii"
    for name in ("cls", "class_radii", "class_residual"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_factorization_for_any_radii():
    # the identity holds for arbitrary positive radii, saddle or not
    d = DegreeSequence((2, 2, 2, 2))
    sp = fixed_radii_point(d, radius=0.7)
    I = integral_quadrature(sp, d)
    P = math.exp(log_prefactor(sp, d))
    assert P * I.real == pytest.approx(3.0, rel=1e-9)


def test_factorization_at_random_radii_property():
    # count = P * I at any radius, on graphical d with n <= 4 and X empty or one edge
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(data=st.data(), radius=st.floats(0.3, 3.0))
    def check(data, radius):
        n = data.draw(st.integers(1, 4))
        degrees = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
                            .filter(is_graphical))
        edges = list(itertools.combinations(range(1, n + 1), 2))
        edge = data.draw(st.sampled_from([None] + edges))
        d, X = DegreeSequence(tuple(degrees)), fg(n, [edge] if edge else [])
        sp = fixed_radii_point(d, X, radius)
        P = math.exp(log_prefactor(sp, d, X))
        I = integral_quadrature(sp, d, X)
        G = exact_count(d, X)
        assert P * I.real == pytest.approx(G, rel=1e-9, abs=1e-9)

    check()


def test_quadrature_size_limit():
    d = DegreeSequence((1,) * 6)
    sp = solve_saddle(d, mode="fixed")
    with pytest.raises(QuadratureError):
        integral_quadrature(sp, d)
