"""Gaussian-perturbation box integral: leading correction exponent, imaginary
control factor, and an importance-sampled Monte-Carlo evaluator.

The integrand is exp of a dominant Gaussian -A N sum z_j^2 plus perturbation
monomials up to quartic order with coefficient tables of rank 1 to 4 (RANKS;
3- and 4-index tables are optional; sums run over distinct indices), integrated
over the box |z_j| <= N^(-1/2+eps).  theta1 gives the closed-form correction
exponent relative to the pure Gaussian value (pi/(A N))^(N/2); the MC path
uses the Gaussian restricted to the box as the proposal, so the weight is
exactly exp of the perturbation.

Two coefficient conventions are pinned here by independent checks: the
quadratic-in-J exponent coefficient is 1/(4 A N), forced by Gaussian
completion of squares and confirmed by the MC path against the alternative
4/(A N) at overwhelming significance, and the final imaginary-part cross
term pairs the two-index cubic table with the linear coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np


class DegenerateProposalError(ValueError):
    """The box captures too little Gaussian mass for importance sampling."""


RANKS = {"J": 1, "a": 1, "B": 1, "E": 1, "C": 2, "F": 2, "G": 2, "D": 3, "H": 3, "I": 4}
BATCH_SIZE = 1 << 16   # Monte-Carlo proposals per batch
MASS_FLOOR = 0.99      # least Gaussian mass the box must keep for the proposal


def _table(value, N: int, name: str) -> np.ndarray | None:
    """Complex table of shape (N,)*rank with every coincident-index entry zeroed;
    absent tables are zero, except absent 3- and 4-index tables stay None."""
    rank = RANKS[name]
    if value is None:
        return np.zeros((N,) * rank, dtype=complex) if rank < 3 else None
    arr = np.array(value, dtype=complex)
    if arr.shape != (N,) * rank:
        raise ValueError(f"{name} must have shape {(N,) * rank}")
    idx = np.indices(arr.shape)
    for i, j in combinations(range(rank), 2):
        arr[idx[i] == idx[j]] = 0.0
    return arr


@dataclass
class CoefficientSet:
    """Coefficient tables of the perturbed Gaussian integrand.

    J: linear; a: quadratic (scaled N^(1/2)); B: cubic diagonal (scaled N);
    C: cubic cross z_j z_k^2; D: cubic triple (scaled 1/N); E: quartic
    diagonal (scaled N); F: quartic cross z_j^2 z_k^2; G: quartic z_j z_k^3
    (scaled N^(1/2)); H: quartic z_j z_k z_l^2 (scaled N^(-1/2)); I: quartic
    four-index (scaled N^(-3/2)).  eps_hat sets the box half-width
    N^(-1/2+eps_hat).
    """

    N: int
    A: float
    eps_hat: float = 0.9
    J: np.ndarray | None = None
    a: np.ndarray | None = None
    B: np.ndarray | None = None
    E: np.ndarray | None = None
    C: np.ndarray | None = None
    F: np.ndarray | None = None
    G: np.ndarray | None = None
    D: np.ndarray | None = None
    H: np.ndarray | None = None
    I: np.ndarray | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if not self.A > 0:
            raise ValueError("A must be positive")
        for name in RANKS:
            setattr(self, name, _table(getattr(self, name), self.N, name))

    @property
    def box_halfwidth(self) -> float:
        return self.N ** (-0.5 + self.eps_hat)

    @classmethod
    def from_dict(cls, doc: dict) -> "CoefficientSet":
        """A table is all numbers, or all [re, im] pairs (a last axis of length 2)."""
        N = int(doc["N"])
        tables = {}
        for name, rank in RANKS.items():
            if doc.get(name) is None:
                continue
            arr = np.asarray(doc[name])
            if arr.dtype.kind not in "iuf":
                raise ValueError(f"{name} must hold only numbers or only [re, im] pairs")
            if arr.shape == (N,) * rank + (2,):
                arr = arr.astype(float).view(complex)[..., 0]
            tables[name] = arr
        return cls(N=N, A=float(doc["A"]), eps_hat=float(doc.get("epsHat", 0.9)), **tables)

    def to_dict(self) -> dict:
        doc = {"N": self.N, "A": self.A, "epsHat": self.eps_hat}
        for name in RANKS:
            arr = getattr(self, name)
            if arr is not None and np.any(arr):
                doc[name] = np.stack([arr.real, arr.imag], axis=-1).tolist()
        return doc


def _quadratic_terms(A: float, N: int, a, B, C, J) -> dict:
    """The terms of the correction exponent that are quadratic in the tables."""
    c_row = C.sum(axis=1)
    c_col = C.sum(axis=0)
    return {
        "a_square": (a * a).sum() / (4.0 * A * A * N),
        "B_square": 15.0 * (B * B).sum() / (16.0 * A ** 3 * N),
        "B_C": 3.0 * (B * c_row).sum() / (8.0 * A ** 3 * N * N),
        "C_C": ((c_row * c_row).sum() - (C * C).sum()) / (16.0 * A ** 3 * N ** 3),
        "J_square": (J * J).sum() / (4.0 * A * N),
        "B_J": 3.0 * (B * J).sum() / (4.0 * A * A * N),
        "C_J": (c_col * J).sum() / (4.0 * A * A * N * N),
    }


def theta1_terms(c: CoefficientSet) -> dict[str, complex]:
    """Named terms of the correction exponent; theta1 is their sum."""
    A, N = c.A, c.N
    quad = _quadratic_terms(A, N, c.a, c.B, c.C, c.J)
    # theta1 sums the terms in this order, which fixes its last bit
    terms = {
        "a_linear": c.a.sum() / (2.0 * A * math.sqrt(N)),
        **{name: quad.pop(name) for name in ("a_square", "B_square", "B_C", "C_C")},
        "E_quartic": 3.0 * c.E.sum() / (4.0 * A * A * N),
        "F_cross": c.F.sum() / (4.0 * A * A * N * N),
        **quad,
    }
    return {k: complex(v) for k, v in terms.items()}


def theta1(c: CoefficientSet) -> complex:
    """Correction exponent of the box integral relative to the Gaussian value."""
    return complex(sum(theta1_terms(c).values()))


def z_factor_terms(c: CoefficientSet) -> dict[str, float]:
    """The quadratic terms of theta1, evaluated on the imaginary parts."""
    quad = _quadratic_terms(c.A, c.N, c.a.imag, c.B.imag, c.C.imag, c.J.imag)
    return {k: float(v) for k, v in quad.items()}


def z_factor(c: CoefficientSet) -> float:
    """Imaginary-part control factor exp(sum of Im-part quadratics)."""
    return math.exp(math.fsum(z_factor_terms(c).values()))


def _strict(T: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """sum of T[j,k,...] u_j v_k ... per sample row; T is masked by _table."""
    out = np.zeros(factors[0].shape[0], dtype=complex)
    for index in np.argwhere(T):
        term = T[tuple(index)]
        for u, j in zip(factors, index):
            term = term * u[:, j]
        out += term
    return out


def perturbation_exponent(c: CoefficientSet, z: np.ndarray) -> np.ndarray:
    """Non-Gaussian part of the log integrand, vectorized over sample rows z (S, N)."""
    N = c.N
    sqN = math.sqrt(N)
    z2 = z * z
    z3 = z2 * z
    w = z @ c.J
    w = w + sqN * (z2 @ c.a)
    w = w + N * (z3 @ c.B)
    w = w + np.einsum("jk,sj,sk->s", c.C, z.astype(complex), z2.astype(complex))
    w = w + N * (z2 * z2) @ c.E
    w = w + np.einsum("jk,sj,sk->s", c.F, z2.astype(complex), z2.astype(complex))
    w = w + sqN * np.einsum("jk,sj,sk->s", c.G, z.astype(complex), z3.astype(complex))
    if c.D is not None:
        w = w + _strict(c.D, z, z, z) / N
    if c.H is not None:
        w = w + _strict(c.H, z, z, z2) / sqN
    if c.I is not None:
        w = w + _strict(c.I, z, z, z, z) / N ** 1.5
    return w


@dataclass(frozen=True)
class MCBoxResult:
    mean: complex
    stderr: float
    samples: int
    seed: int
    acceptance_rate: float
    box_mass: float


def mc_box_integral(c: CoefficientSet, samples: int, seed: int) -> MCBoxResult:
    """Importance-sampled Monte-Carlo estimate of the box integral.

    Proposal: the dominant Gaussian restricted to the box by rejection.  The
    weight of each accepted point is exp of the perturbation exponent, so the
    estimate is (pi/(A N))^(N/2) * box_mass * mean(weight).  Bit-reproducible
    for a fixed seed: batch k draws from the k-th spawn of the master seed
    sequence and batches are reduced in order.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    A, N = c.A, c.N
    sigma = 1.0 / math.sqrt(2.0 * A * N)
    bound = c.box_halfwidth
    # per-axis retained mass: erf(sqrt(A) * N^eps_hat)
    axis_mass = math.erf(math.sqrt(A) * c.N ** c.eps_hat)
    box_mass = axis_mass ** N
    if box_mass < MASS_FLOOR:
        raise DegenerateProposalError(
            f"box retains only {box_mass:.3g} of the Gaussian mass "
            f"(A*N^(2 eps_hat) too small); increase eps_hat or A")
    prefactor = (math.pi / (A * N)) ** (N / 2.0) * box_mass

    master = np.random.SeedSequence(seed)
    collected = 0
    proposed = 0
    accepted = 0
    s1 = 0.0 + 0.0j
    s2 = 0.0
    while collected < samples:
        child = master.spawn(1)[0]
        rng = np.random.default_rng(child)
        zb = rng.normal(0.0, sigma, size=(BATCH_SIZE, N))
        inside = (np.abs(zb) <= bound).all(axis=1)
        proposed += BATCH_SIZE
        accepted += int(inside.sum())
        zin = zb[inside]
        if zin.shape[0] == 0:
            continue
        take = min(zin.shape[0], samples - collected)
        zin = zin[:take]
        w = np.exp(perturbation_exponent(c, zin))
        s1 += w.sum()
        s2 += float((w.real * w.real + w.imag * w.imag).sum())
        collected += take
    mean_w = s1 / samples
    var_w = max(0.0, (s2 - samples * abs(mean_w) ** 2) / max(samples - 1, 1))
    return MCBoxResult(
        mean=complex(prefactor * mean_w),
        stderr=float(prefactor * math.sqrt(var_w / samples)),
        samples=samples,
        seed=seed,
        acceptance_rate=accepted / proposed,
        box_mass=box_mass,
    )


def gaussian_reference(c: CoefficientSet) -> float:
    """Pure-Gaussian value (pi/(A N))^(N/2) of the unperturbed integral."""
    return (math.pi / (c.A * c.N)) ** (c.N / 2.0)
