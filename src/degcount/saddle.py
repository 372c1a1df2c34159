"""Saddle-point location for the contour-integral factorization count = P * I.

The count of degree-constrained graphs avoiding a forbidden graph equals a
prefactor P times an n-dimensional angular integral I, for *any* choice of
positive contour radii; the saddle choice makes the integrand's log expansion
lose its linear term, i.e. the weight matrix lambda_jk = r_j r_k/(1+r_j r_k)
row-sums (over non-forbidden partners) to the degrees.  This module locates
that point by damped Newton in the shifted variables a_j (or takes a fixed
number of contraction sweeps), and verifies the factorization by direct
tensor quadrature at tiny n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import DegreeSequence, ForbiddenGraph, compute_parameters, interior_density


class SaddlePoleError(RuntimeError):
    """An iterate crossed a pole of the radius change of variables."""


class QuadratureError(RuntimeError):
    """Grid refinement failed to stabilize the integral."""


@dataclass(frozen=True)
class SaddlePoint:
    """Solution state of the radius equations.

    residual[j] is the row sum of lambda_jk over non-forbidden partners minus
    d_j; a vanishing residual means an exact saddle.
    """

    lam: float
    a: np.ndarray
    radii: np.ndarray
    lambda_jk: np.ndarray
    residual: np.ndarray
    iterations: int
    mode: str
    converged: bool

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.residual).max()) if self.residual.size else 0.0


@dataclass(frozen=True)
class AbgCoefficients:
    """Pairwise quadratic/cubic/quartic weight deviations from their density values."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def _masks(n: int, X: ForbiddenGraph):
    adj = np.zeros((n, n))
    for j, k in X.edges:
        adj[j - 1, k - 1] = adj[k - 1, j - 1] = 1.0
    xbar = 1.0 - adj - np.eye(n)
    return adj, xbar


def _lambda_matrix(radii: np.ndarray) -> np.ndarray:
    rr = np.outer(radii, radii)
    lam_jk = rr / (1.0 + rr)
    np.fill_diagonal(lam_jk, 0.0)
    return lam_jk


def _state_valid(a: np.ndarray, r2: float) -> bool:
    if not np.all(np.isfinite(a)):
        return False
    if np.any(1.0 + a <= 1e-14) or np.any(r2 * a >= 1.0 - 1e-14):
        return False
    return bool(np.min(1.0 + r2 * np.outer(a, a)) > 1e-14)


FIXED_SWEEPS = 4


def solve_saddle(d: DegreeSequence, X: ForbiddenGraph | None = None, *,
                 mode: str = "converge", tol: float = 1e-12,
                 max_iter: int = 100) -> SaddlePoint:
    """Locate the saddle point of the contour factorization.

    mode "converge" (default) takes damped Newton steps from a = 0 until the
    residual max |lambda-row-sum - d_j| drops below tol or max_iter steps are
    taken.  A step is taken only if it lowers that residual; when none does,
    or the Jacobian is singular, the current iterate is returned with
    converged=False.  mode "fixed" runs exactly FIXED_SWEEPS contraction
    sweeps from a = 0 with no convergence requirement, and raises
    SaddlePoleError if an iterate crosses a pole of the radius map.

    Intended for interior instances 0 < d_j < n-1-x_j.  Boundary instances
    are accepted (the factorization holds for any positive radii) but cannot
    converge; degenerate densities lambda in {0, 1} are rejected.
    """
    n = d.n
    if X is None:
        X = ForbiddenGraph.empty(n)
    if X.n != n:
        raise ValueError("dimension mismatch")
    if n < 3:
        raise ValueError("need n >= 3")
    p = compute_parameters(d, X)
    lam = interior_density(p)
    x = X.row_sums
    if any(dj > n - 1 - xj for dj, xj in zip(d.degrees, x)):
        raise ValueError("infeasible degrees: some d_j > n-1-x_j")

    r2 = lam / (1.0 - lam)
    r = math.sqrt(r2)
    delta = np.array([float(v) for v in p.delta])
    xs = np.asarray(x, dtype=float)
    adj, xbar = _masks(n, X)
    Xc = float(X.edge_count)

    def z_rows(a: np.ndarray) -> np.ndarray:
        outer = np.outer(a, a)
        Z = outer * (1.0 - r2 - r2 * a[:, None] - r2 * a[None, :]) / (1.0 + r2 * outer)
        np.fill_diagonal(Z, 0.0)
        return (Z * xbar).sum(axis=1)

    def sweep(a: np.ndarray) -> np.ndarray:
        z_row = z_rows(a)
        z_cc = z_row.sum() / 2.0
        return (delta / (lam * n) + (2.0 * a + a * xs) / n - Xc / n ** 2
                - (a + a * xs).sum() / n ** 2 + (adj @ a) / n
                - z_row / n + z_cc / n ** 2)

    def radii_of(a: np.ndarray) -> np.ndarray:
        return r * (1.0 + a) / (1.0 - r2 * a)

    def residual_of(a: np.ndarray) -> np.ndarray:
        # lambda-row-sum minus d_j, with the constant part cancelled exactly:
        # residual = lam * ((n-1-x_j) a_j + sum_{non-forbidden k} a_k + Z-row) - delta_j
        return lam * ((n - 1.0 - xs) * a + xbar @ a + z_rows(a)) - delta

    def jacobian(a: np.ndarray) -> np.ndarray:
        # d lambda_jk / d a_k = lam * (1+a_j)(1-r2 a_j) / (1 + r2 a_j a_k)^2
        # (the diagonal of xbar is zero, so the off-diagonal part leaves it free)
        numer = (1.0 + a) * (1.0 - r2 * a)
        w = lam * xbar / (1.0 + r2 * np.outer(a, a)) ** 2
        J = w * numer[:, None]
        np.fill_diagonal(J, w @ numer)
        return J

    a = np.zeros(n)
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
    while mode == "converge" and iters < max_iter and m >= tol:
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
                if trial_m < m:
                    break
            alpha /= 2.0
        else:
            break  # no step along the Newton direction lowers the residual
        a, res, m = trial, trial_res, trial_m
        iters += 1

    radii = radii_of(a)
    return SaddlePoint(lam=lam, a=a, radii=radii, lambda_jk=_lambda_matrix(radii),
                       residual=res, iterations=iters, mode=mode, converged=bool(m < tol))


def fixed_radii_point(d: DegreeSequence, X: ForbiddenGraph | None = None,
                      radius: float = 1.0) -> SaddlePoint:
    """Contour record with every radius equal to `radius`.

    Not a saddle: the factorization count = P * I holds for any positive
    radii, so this serves degenerate densities (lambda in {0, 1}) where the
    saddle change of variables is undefined.  The recorded lam is the uniform
    pair weight radius^2/(1+radius^2) and the residual is taken directly from
    the row sums.
    """
    n = d.n
    if X is None:
        X = ForbiddenGraph.empty(n)
    if radius <= 0:
        raise ValueError("radius must be positive")
    _, xbar = _masks(n, X)
    radii = np.full(n, float(radius))
    lam_jk = _lambda_matrix(radii)
    residual = (lam_jk * xbar).sum(axis=1) - np.asarray(d.degrees, dtype=float)
    lam = radius * radius / (1.0 + radius * radius)
    return SaddlePoint(lam=lam, a=np.zeros(n), radii=radii,
                       lambda_jk=lam_jk, residual=residual, iterations=0,
                       mode="fixed-radii", converged=False)


def contour_point(d: DegreeSequence, X: ForbiddenGraph | None = None) -> SaddlePoint:
    """Contour for checking count = P * I: the four-sweep saddle iterate where
    it exists, else unit radii (lambda in {0, 1}, infeasible degrees, n < 3, or
    an iterate that crossed a pole)."""
    try:
        return solve_saddle(d, X, mode="fixed")
    except (SaddlePoleError, ValueError):
        return fixed_radii_point(d, X)


def abg_coefficients(sp: SaddlePoint) -> AbgCoefficients:
    """Deviation matrices of the pairwise weight polynomials from their density values."""
    L = sp.lambda_jk
    lam = sp.lam
    A = lam * (1 - lam) / 2.0
    A3 = lam * (1 - lam) * (1 - 2 * lam) / 6.0
    A4 = lam * (1 - lam) * (1 - 6 * lam + 6 * lam * lam) / 24.0
    alpha = 0.5 * L * (1 - L) - A
    beta = L * (1 - L) * (1 - 2 * L) / 6.0 - A3
    gamma = L * (1 - L) * (1 - 6 * L + 6 * L * L) / 24.0 - A4
    for mat in (alpha, beta, gamma):
        np.fill_diagonal(mat, 0.0)
    return AbgCoefficients(alpha=alpha, beta=beta, gamma=gamma)


def log_prefactor(sp: SaddlePoint, d: DegreeSequence, X: ForbiddenGraph | None = None) -> float:
    """ln P = sum over non-forbidden pairs of ln(1 + r_j r_k) - n ln 2pi - sum d_j ln r_j.

    Accumulated with compensated summation in log space.
    """
    n = d.n
    if X is None:
        X = ForbiddenGraph.empty(n)
    _, xbar = _masks(n, X)
    rr = np.outer(sp.radii, sp.radii)
    terms = np.log1p(rr[np.triu(xbar, 1) > 0])
    acc = math.fsum(terms.tolist())
    acc -= n * math.log(2.0 * math.pi)
    acc -= math.fsum(dj * math.log(rj) for dj, rj in zip(d.degrees, sp.radii))
    return acc


def integrand_modulus(sp: SaddlePoint, theta, X: ForbiddenGraph | None = None) -> tuple[float, float]:
    """Modulus of the angular integrand at theta, and its pairwise exponential bound.

    Returns (value, bound) with value = prod over non-forbidden pairs of
    sqrt(1 - 4 q_jk (1 - cos(theta_j + theta_k))), q_jk = lambda_jk(1-lambda_jk)/2,
    and bound = exp(sum of -q z^2 + q z^4 / 12) over the same pairs.
    """
    th = np.asarray(theta, dtype=float)
    n = th.size
    if X is None:
        X = ForbiddenGraph.empty(n)
    _, xbar = _masks(n, X)
    mask = np.triu(xbar, 1) > 0
    L = sp.lambda_jk
    q = 0.5 * L * (1 - L)
    z = th[:, None] + th[None, :]
    inside = 1.0 - 4.0 * q * (1.0 - np.cos(z))
    value = float(np.sqrt(np.clip(inside[mask], 0.0, None)).prod())
    bound = float(np.exp(np.sum(-q[mask] * z[mask] ** 2 + q[mask] * z[mask] ** 4 / 12.0)))
    return value, bound


QUADRATURE_LIMIT = 5


def integral_quadrature(sp: SaddlePoint, d: DegreeSequence, X: ForbiddenGraph | None = None,
                        grid_size: int | None = None, rel_tol: float = 1e-8,
                        max_grid: int = 512) -> complex:
    """Tensor-product trapezoidal quadrature of the full angular integral, n <= 5.

    The integrand is a trigonometric polynomial, so the periodic trapezoid rule
    is exact once the per-axis grid exceeds the polynomial degree; the grid is
    doubled until the value stabilizes to rel_tol.  The imaginary part of the
    returned value must vanish up to quadrature tolerance.
    """
    n = d.n
    if n > QUADRATURE_LIMIT:
        raise QuadratureError(f"n={n} exceeds quadrature limit {QUADRATURE_LIMIT}")
    if X is None:
        X = ForbiddenGraph.empty(n)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)
             if not X.has_edge(j + 1, k + 1)]
    m = grid_size if grid_size else n
    m = max(m, 2)
    scale = (2.0 * math.pi) ** n
    prev = None
    while m <= max_grid:
        val = _tensor_value(sp.lambda_jk, d.degrees, pairs, m)
        if prev is not None and abs(val - prev) <= max(rel_tol * abs(val), 1e-12 * scale):
            return val
        prev = val
        m *= 2
    raise QuadratureError(f"no convergence up to grid {max_grid}")


def _tensor_value(lam_jk: np.ndarray, degrees, pairs, m: int) -> complex:
    n = len(degrees)
    theta = -math.pi + 2.0 * math.pi * np.arange(m) / m
    z = np.exp(1j * theta)
    F = np.ones((m,) * n, dtype=complex)
    for j, dj in enumerate(degrees):
        shape = [1] * n
        shape[j] = m
        F = F * (z ** (-dj)).reshape(shape)
    for j, k in pairs:
        sj = [1] * n
        sj[j] = m
        sk = [1] * n
        sk[k] = m
        F = F * ((1.0 - lam_jk[j, k]) + lam_jk[j, k] * z.reshape(sj) * z.reshape(sk))
    return complex(F.mean() * (2.0 * math.pi) ** n)
