"""Saddle-point location for the contour-integral factorization count = P * I.

The count of degree-constrained graphs avoiding a forbidden graph equals a
prefactor P times an n-dimensional angular integral I, for *any* choice of
positive contour radii; the saddle choice makes the integrand's log expansion
lose its linear term, i.e. the weight matrix lambda_jk = r_j r_k/(1+r_j r_k)
row-sums (over non-forbidden partners) to the degrees.  This module locates
that point by damped Newton in the shifted variables a_j (or takes a fixed
number of contraction sweeps), and verifies the factorization by direct
tensor quadrature at tiny n.

Vertices outside the support of the forbidden graph that share a degree
share a radius, so the solver works on vertex classes, at O(k^2 + n) for k
classes: graphcore's free degree classes and one per vertex of supp(X).
graphcore also owns the density and the deltas the equations read.  The
SaddlePoint keeps the classes: the vertex -> class map and one value per
class, with no per-vertex float array.  The log prefactor sums one term per
class; a reader that needs an n-vector takes values[sp.cls].  The n x n
weight matrix is built only on demand, for the tiny-n consumers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .graphcore import (DegreeSequence, ForbiddenGraph, delta_numerators, forbidden_for,
                        free_classes, impossible, interior_density)


class SaddlePoleError(ValueError):
    """An iterate crossed a pole of the radius change of variables."""


class QuadratureError(ValueError):
    """Instance exceeds the tensor-quadrature size limit."""


@dataclass(frozen=True)
class SaddlePoint:
    """Solution state of the radius equations on the vertex classes.

    Vertex j (0-indexed) is in class cls[j] (see _classes), whose values are
    class_a[cls[j]], class_radii[cls[j]] and class_residual[cls[j]].  The
    residual is the row sum of lambda_jk over non-forbidden partners minus
    d_j; a vanishing residual means an exact saddle.  lambda_jk is not
    stored: the property builds it from the radii.
    """

    cls: np.ndarray
    class_a: np.ndarray
    class_radii: np.ndarray
    class_residual: np.ndarray
    iterations: int
    mode: str
    converged: bool

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.class_residual).max())

    @property
    def lambda_jk(self) -> np.ndarray:
        """Pair weights r_j r_k/(1+r_j r_k) with a zero diagonal."""
        radii = self.class_radii[self.cls]
        rr = np.outer(radii, radii)
        lam_jk = rr / (1.0 + rr)
        np.fill_diagonal(lam_jk, 0.0)
        return lam_jk


def _classes(d: DegreeSequence, X: ForbiddenGraph):
    """Vertex classes of the radius equations.

    Each vertex touching X is a class of its own; the other vertices are
    grouped by degree, since their equations depend on nothing else.  Classes
    are sorted by a label-free key, (d_j, x_j) and the sorted (d, x) of the
    X-neighbours, so a relabelled instance is solved in the same order.
    Returns (cls, first, m, F): cls[j] is the class of vertex j (0-indexed),
    first[c] the first vertex of class c, m[c] its size, and F[c, c'] = 1
    where an X-edge joins c and c' (both ends are one-vertex classes).

    Keys are built only for the vertices of supp(X) and the free degree
    classes (graphcore.free_classes); the free vertices take their class from
    a degree -> class array, so the O(n) part is numpy.
    """
    degrees, x = d.degrees, X.row_sums
    supp = sorted(j - 1 for j in X.support)
    supp_keys = [(degrees[j], x[j],
                  tuple(sorted((degrees[k - 1], x[k - 1]) for k in X.neighbors(j + 1))), j)
                 for j in supp]
    free_keys = [(dj, 0) for dj in free_classes(d, X)]
    index = {key: c for c, key in enumerate(sorted(supp_keys + free_keys))}
    by_degree = np.zeros(d.n, dtype=np.intp)
    by_degree[[dj for dj, _ in free_keys]] = [index[key] for key in free_keys]
    cls = by_degree[np.fromiter(degrees, dtype=np.intp, count=d.n)]
    cls[supp] = [index[key] for key in supp_keys]
    first, m = np.unique(cls, return_index=True, return_counts=True)[1:]
    F = np.zeros((len(m), len(m)))
    for j, k in X.edges:
        F[cls[j - 1], cls[k - 1]] = F[cls[k - 1], cls[j - 1]] = 1.0
    return cls, first, m.astype(float), F


def _state_valid(a: np.ndarray, r2: float) -> bool:
    if not np.all(np.isfinite(a)):
        return False
    if np.any(1.0 + a <= 1e-14) or np.any(r2 * a >= 1.0 - 1e-14):
        return False
    return bool(np.min(1.0 + r2 * np.outer(a, a)) > 1e-14)


FIXED_SWEEPS = 4
MIN_DECREASE = 0.01   # fraction of the max-residual a Newton step must remove
RESIDUAL_TOL = 1e-12  # converge mode stops once the max-residual is below this
MAX_STEPS = 100       # Newton step budget of converge mode


def solve_saddle(d: DegreeSequence, X: ForbiddenGraph | None = None, *,
                 mode: str = "converge") -> SaddlePoint:
    """Locate the saddle point of the contour factorization.

    mode "converge" (default) takes damped Newton steps from a = 0 until the
    residual max |lambda-row-sum - d_j| drops below RESIDUAL_TOL or MAX_STEPS
    steps are taken.  A step is taken only if it cuts that residual by at
    least the fraction MIN_DECREASE; when none does, or the Jacobian is
    singular, the current iterate is returned with converged=False.  mode
    "fixed" runs exactly FIXED_SWEEPS contraction sweeps from a = 0 with no
    convergence requirement, and raises SaddlePoleError if an iterate crosses
    a pole of the radius map.

    Both modes solve for one a per vertex class (see _classes), so a Newton
    step or sweep costs O(k^2) for k classes: the distinct degrees outside
    supp(X) plus one per vertex of supp(X).  The record keeps the class
    values and the vertex -> class map; nothing is expanded to n vertices.

    d.density and delta_numerators over N, one correctly rounded division per
    class, keep the setup at O(k^2 + |supp X|) live objects beyond d.

    Intended for interior instances 0 < d_j < n-1-x_j.  Boundary instances
    are accepted (the factorization holds for any positive radii) but cannot
    converge; degenerate densities lambda in {0, 1} are rejected.
    """
    X = forbidden_for(d, X)
    n = d.n
    if n < 3:
        raise ValueError("need n >= 3")
    lam = interior_density(d.density)
    if impossible(d, X):
        raise ValueError("infeasible degrees: some d_j > n-1-x_j")

    r2 = lam / (1.0 - lam)
    r = math.sqrt(r2)
    cls, first, mult, F = _classes(d, X)
    W = mult[None, :] - np.eye(mult.size) - F   # non-forbidden partners per class
    numerators, N = delta_numerators(d, X, (first + 1).tolist())
    delta = np.array([v / N for v in numerators])
    xs = np.asarray(X.row_sums, dtype=float)[first]
    Xc = float(X.edge_count)

    def z_rows(a: np.ndarray) -> np.ndarray:
        outer = np.outer(a, a)
        Z = outer * (1.0 - r2 - r2 * a[:, None] - r2 * a[None, :]) / (1.0 + r2 * outer)
        return (Z * W).sum(axis=1)

    def sweep(a: np.ndarray) -> np.ndarray:
        z_row = z_rows(a)
        z_cc = (mult @ z_row) / 2.0
        return (delta / (lam * n) + (2.0 * a + a * xs) / n - Xc / n ** 2
                - (mult @ (a + a * xs)) / n ** 2 + (F @ a) / n
                - z_row / n + z_cc / n ** 2)

    def residual_of(a: np.ndarray) -> np.ndarray:
        # lambda-row-sum minus d_j, with the constant part cancelled exactly:
        # residual = lam * ((n-1-x_j) a_j + sum_{non-forbidden k} a_k + Z-row) - delta_j
        return lam * ((n - 1.0 - xs) * a + W @ a + z_rows(a)) - delta

    def jacobian(a: np.ndarray) -> np.ndarray:
        # d lambda_jk / d a_k = lam * (1+a_j)(1-r2 a_j) / (1 + r2 a_j a_k)^2, times
        # the W partners in each class; the diagonal adds d/d a_j of the whole row
        numer = (1.0 + a) * (1.0 - r2 * a)
        w = lam * W / (1.0 + r2 * np.outer(a, a)) ** 2
        J = w * numer[:, None]
        J[np.diag_indices_from(J)] += w @ numer
        return J

    a = np.zeros(mult.size)
    iters = 0
    if mode == "fixed":
        for _ in range(FIXED_SWEEPS):
            a = sweep(a)
            iters += 1
            if not _state_valid(a, r2):
                raise SaddlePoleError("iterate crossed a pole of the radius map")
    elif mode != "converge":
        raise ValueError(f"unknown mode {mode!r}")
    res = residual_of(a)
    m = float(np.abs(res).max())
    while mode == "converge" and iters < MAX_STEPS and m >= RESIDUAL_TOL:
        try:
            step = np.linalg.solve(jacobian(a), -res)
        except np.linalg.LinAlgError:
            break  # singular Jacobian
        alpha = 1.0
        while alpha > 1e-14:
            trial = a + alpha * step
            if _state_valid(trial, r2):
                trial_res = residual_of(trial)
                trial_m = float(np.abs(trial_res).max())
                if trial_m <= (1.0 - MIN_DECREASE) * m:
                    break
            alpha /= 2.0
        else:
            break  # no step along the Newton direction cuts the residual enough
        a, res, m = trial, trial_res, trial_m
        iters += 1

    radii = r * (1.0 + a) / (1.0 - r2 * a)
    return SaddlePoint(cls=cls, class_a=a, class_radii=radii, class_residual=res,
                       iterations=iters, mode=mode, converged=bool(m < RESIDUAL_TOL))


def fixed_radii_point(d: DegreeSequence, X: ForbiddenGraph | None = None,
                      radius: float = 1.0) -> SaddlePoint:
    """Contour record with every radius equal to `radius`, on solve_saddle's classes.

    Not a saddle: the factorization count = P * I holds for any positive
    radii, so this serves degenerate densities (lambda in {0, 1}) where the
    saddle change of variables is undefined.  The residual is the closed form
    lam * (n-1-x_j) - d_j with the uniform pair weight lam = radius^2/(1+radius^2).
    """
    X = forbidden_for(d, X)
    n = d.n
    if radius <= 0:
        raise ValueError("radius must be positive")
    lam = radius * radius / (1.0 + radius * radius)
    cls, first = _classes(d, X)[:2]
    residual = (lam * (n - 1.0 - np.asarray(X.row_sums, dtype=float)[first])
                - np.asarray(d.degrees, dtype=float)[first])
    return SaddlePoint(cls=cls, class_a=np.zeros(first.size),
                       class_radii=np.full(first.size, float(radius)),
                       class_residual=residual, iterations=0,
                       mode="fixed-radii", converged=False)


def contour_point(d: DegreeSequence, X: ForbiddenGraph | None = None) -> SaddlePoint:
    """Contour for checking count = P * I: the four-sweep saddle iterate where
    it exists, else unit radii (lambda in {0, 1}, infeasible degrees, n < 3, or
    an iterate that crossed a pole)."""
    try:
        return solve_saddle(d, X, mode="fixed")
    except ValueError:
        return fixed_radii_point(d, X)


def _contour_for(sp: SaddlePoint, d: DegreeSequence, X: ForbiddenGraph | None) -> ForbiddenGraph:
    """forbidden_for(d, X), after checking that sp has one radius per vertex of d."""
    if sp.cls.size != d.n:
        raise ValueError(f"dimension mismatch: degrees n={d.n}, radii n={sp.cls.size}")
    return forbidden_for(d, X)


def log_prefactor(sp: SaddlePoint, d: DegreeSequence, X: ForbiddenGraph | None = None) -> float:
    """ln P = sum over non-forbidden pairs of ln(1 + r_j r_k) - n ln 2pi - sum d_j ln r_j.

    The pair sum runs over groups of equal radius (the classes merged by
    radius), with m_g vertices of radius r_g: 1/2 [sum m_g m_g' L_gg' - sum
    m_g L_gg] with L = ln(1 + r r'), minus one term per X-edge.  sum d_j ln r_j
    repeats one term per class over its members, who share a degree.  Both
    are correctly rounded fsums, so they keep the bits of per-vertex sums.
    """
    X = _contour_for(sp, d, X)
    n = d.n
    cls, radii = sp.cls, sp.class_radii
    sizes = np.bincount(cls)
    r, group = np.unique(radii, return_inverse=True)
    m = np.bincount(group, weights=sizes).astype(np.intp)
    pairs = 0.5 * (np.outer(m, m) - np.diag(m))
    edges = np.array(list(X.edges), dtype=np.intp).reshape(-1, 2) - 1
    forbidden = np.log1p(radii[cls[edges]].prod(axis=1))
    acc = math.fsum((pairs * np.log1p(np.outer(r, r))).ravel().tolist() + (-forbidden).tolist())
    acc -= n * math.log(2.0 * math.pi)
    member = np.empty(radii.size, dtype=np.intp)
    member[cls] = np.arange(n)     # some vertex of each class
    terms = map(operator.mul, map(d.degrees.__getitem__, member.tolist()),
                map(math.log, radii.tolist()))
    acc -= math.fsum(chain.from_iterable(map(repeat, terms, sizes.tolist())))
    return acc


QUADRATURE_LIMIT = 5


def integral_quadrature(sp: SaddlePoint, d: DegreeSequence,
                        X: ForbiddenGraph | None = None) -> complex:
    """Tensor-product trapezoidal quadrature of the full angular integral, n <= 5.

    The integrand prod_j z_j^(-d_j) prod_{non-forbidden jk} (1 - lambda_jk +
    lambda_jk z_j z_k) is a trigonometric polynomial whose theta_j-frequencies
    lie in [-d_j, n-1-x_j-d_j], strictly inside (-n, n).  The n-point periodic
    trapezoid rule on each axis integrates every such frequency but 0 to zero,
    so one pass over the n^n-point grid is exact up to rounding.  The imaginary
    part of the returned value vanishes up to that rounding.
    """
    X = _contour_for(sp, d, X)
    n = d.n
    if n > QUADRATURE_LIMIT:
        raise QuadratureError(f"n={n} exceeds quadrature limit {QUADRATURE_LIMIT}")
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)
             if not X.has_edge(j + 1, k + 1)]
    lam_jk = sp.lambda_jk
    theta = -math.pi + 2.0 * math.pi * np.arange(n) / n
    z = np.exp(1j * theta)

    def axis(values: np.ndarray, j: int) -> np.ndarray:
        """values laid along axis j of the n-dimensional grid."""
        return values.reshape([n if i == j else 1 for i in range(n)])

    F = np.ones((n,) * n, dtype=complex)
    for j, dj in enumerate(d.degrees):
        F = F * axis(z ** (-dj), j)
    for j, k in pairs:
        F = F * ((1.0 - lam_jk[j, k]) + lam_jk[j, k] * axis(z, j) * axis(z, k))
    return complex(F.mean() * (2.0 * math.pi) ** n)
