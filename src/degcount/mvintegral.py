"""Gaussian-perturbation box integral: leading correction exponent, imaginary
control factor, and an importance-sampled Monte-Carlo evaluator.

The integrand is exp of a dominant Gaussian -A N sum z_j^2 plus perturbation
monomials up to quartic order with optional coefficient tables of rank 1 to 4
(MONOMIALS; sums run over distinct indices), integrated over the box
|z_j| <= N^(-1/2+eps).  theta1 gives the closed-form correction exponent
relative to the pure Gaussian value (pi/(A N))^(N/2); the MC path uses the
Gaussian restricted to the box as the proposal, so the weight is exactly exp
of the perturbation.  The weights are real, and taken in real arithmetic, when
every present table is real, and a box batch is bounded by cells: at most
BATCH_SIZE rows and BATCH_CELLS normals.  An absent table is never built; a
term that reads one is 0.

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


# table: (power of N scaling its monomial, power of z at each index), so
# "H": (-0.5, (1, 1, 2)) is the sum' of N^(-1/2) H_jkl z_j z_k z_l^2
MONOMIALS = {"J": (0.0, (1,)), "a": (0.5, (2,)), "B": (1.0, (3,)), "E": (1.0, (4,)),
             "C": (0.0, (1, 2)), "F": (0.0, (2, 2)), "G": (0.5, (1, 3)), "D": (-1.0, (1, 1, 1)),
             "H": (-0.5, (1, 1, 2)), "I": (-1.5, (1, 1, 1, 1))}
# (k, l) of every scale A^k N^l the correction exponent divides by
SCALES = ((1, 0.5), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
BATCH_SIZE = 1 << 16   # Monte-Carlo proposals per batch
BATCH_CELLS = BATCH_SIZE * 8  # most normals one batch draws at a time
CHUNK_CELLS = 1 << 16  # most doubles one intermediate of perturbation_exponent holds
MASS_FLOOR = 0.99      # least Gaussian mass the box must keep for the proposal


def _table(value, N: int, name: str) -> np.ndarray | None:
    """Complex table of shape (N,)*rank with every coincident-index entry
    zeroed; an absent table stays None."""
    if value is None:
        return None
    rank = len(MONOMIALS[name][1])
    arr = np.array(value, dtype=complex)
    if arr.shape != (N,) * rank:
        raise ValueError(f"{name} must have shape {(N,) * rank}")
    idx = np.indices(arr.shape)
    for i, j in combinations(range(rank), 2):
        arr[idx[i] == idx[j]] = 0.0
    return arr


def _number(doc: dict, key: str, default: float | None = None) -> float:
    """doc[key] (or the default when absent) as a float; a JSON number only."""
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


@dataclass
class CoefficientSet:
    """Coefficient tables of the perturbed Gaussian integrand.

    J: linear; a: quadratic; B: cubic diagonal; C: cubic cross z_j z_k^2;
    D: cubic triple; E: quartic diagonal; F: quartic cross z_j^2 z_k^2;
    G: quartic z_j z_k^3; H: quartic z_j z_k z_l^2; I: quartic four-index.
    MONOMIALS gives each table's scale and powers.  An absent table is None.
    eps_hat sets the box half-width N^(-1/2+eps_hat).
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
        try:
            in_range = all(0.0 < self.A ** k * self.N ** l < math.inf for k, l in SCALES)
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(f"A={self.A!r} must be positive, with every scale A^k N^l "
                             f"of the correction exponent a finite double at N={self.N}")
        if not math.isfinite(self.eps_hat):
            raise ValueError(f"eps_hat must be finite, got {self.eps_hat}")
        for name in MONOMIALS:
            setattr(self, name, _table(getattr(self, name), self.N, name))

    @property
    def box_halfwidth(self) -> float:
        return self.N ** (-0.5 + self.eps_hat)

    @classmethod
    def from_dict(cls, doc: dict) -> "CoefficientSet":
        """A table is all numbers, or all [re, im] pairs (a last axis of length 2)."""
        N = doc["N"]
        if not isinstance(N, int) or isinstance(N, bool):
            raise ValueError(f"N must be an integer, got {N!r}")
        tables = {}
        for name in MONOMIALS:
            if doc.get(name) is None:
                continue
            arr = np.asarray(doc[name])
            if arr.dtype.kind not in "iuf":
                raise ValueError(f"{name} must hold only numbers or only [re, im] pairs")
            if arr.shape == (N,) * len(MONOMIALS[name][1]) + (2,):
                arr = arr.astype(float).view(complex)[..., 0]
            tables[name] = arr
        return cls(N=N, A=_number(doc, "A"), eps_hat=_number(doc, "epsHat", 0.9), **tables)

    def to_dict(self) -> dict:
        doc = {"N": self.N, "A": self.A, "epsHat": self.eps_hat}
        for name in MONOMIALS:
            arr = getattr(self, name)
            if arr is not None:
                doc[name] = np.stack([arr.real, arr.imag], axis=-1).tolist()
        return doc


def _total(x) -> complex:
    """sum(x) over all entries; 0 for an absent table."""
    return 0 if x is None else x.sum()


def _dot(x, y) -> complex:
    """sum(x * y) over all entries; 0 where either table is absent."""
    return 0 if x is None or y is None else (x * y).sum()


def _quadratic_terms(A: float, N: int, a, B, C, J) -> dict:
    """The terms of the correction exponent that are quadratic in the tables;
    an absent table is None, and a term that reads one is 0."""
    c_row = None if C is None else C.sum(axis=1)
    c_col = None if C is None else C.sum(axis=0)
    return {
        "a_square": _dot(a, a) / (4.0 * A * A * N),
        "B_square": 15.0 * _dot(B, B) / (16.0 * A ** 3 * N),
        "B_C": 3.0 * _dot(B, c_row) / (8.0 * A ** 3 * N * N),
        "C_C": (_dot(c_row, c_row) - _dot(C, C)) / (16.0 * A ** 3 * N ** 3),
        "J_square": _dot(J, J) / (4.0 * A * N),
        "B_J": 3.0 * _dot(B, J) / (4.0 * A * A * N),
        "C_J": _dot(c_col, J) / (4.0 * A * A * N * N),
    }


def theta1_terms(c: CoefficientSet) -> dict[str, complex]:
    """Named terms of the correction exponent; theta1 is their sum."""
    A, N = c.A, c.N
    quad = _quadratic_terms(A, N, c.a, c.B, c.C, c.J)
    # theta1 sums the terms in this order, which fixes its last bit
    terms = {
        "a_linear": _total(c.a) / (2.0 * A * math.sqrt(N)),
        **{name: quad.pop(name) for name in ("a_square", "B_square", "B_C", "C_C")},
        "E_quartic": 3.0 * _total(c.E) / (4.0 * A * A * N),
        "F_cross": _total(c.F) / (4.0 * A * A * N * N),
        **quad,
    }
    return {k: complex(v) for k, v in terms.items()}


def theta1(c: CoefficientSet) -> complex:
    """Correction exponent of the box integral relative to the Gaussian value."""
    return complex(sum(theta1_terms(c).values()))


def z_factor_terms(c: CoefficientSet) -> dict[str, float]:
    """The quadratic terms of theta1, evaluated on the imaginary parts."""
    quad = _quadratic_terms(c.A, c.N, *(None if T is None else T.imag
                                        for T in (c.a, c.B, c.C, c.J)))
    return {k: float(v) for k, v in quad.items()}


def z_factor(c: CoefficientSet) -> float:
    """Imaginary-part control factor exp(sum of Im-part quadratics); inf where
    it overflows a double."""
    try:
        return math.exp(math.fsum(z_factor_terms(c).values()))
    except OverflowError:
        return math.inf


def _row_kron(powers: list, exponents: tuple) -> np.ndarray:
    """Row-wise Kronecker product of the z powers, shape (rows, N^len(exponents))."""
    out = powers[exponents[0]]
    for p in exponents[1:]:
        out = np.einsum("ij,ik->ijk", out, powers[p]).reshape(len(out), -1)
    return out


def perturbation_exponent(c: CoefficientSet, z: np.ndarray) -> np.ndarray:
    """Non-Gaussian part of the log integrand, vectorized over sample rows z (S, N).

    A table of rank r is a matrix (N^h, N^(r-h)) with h = r // 2.  The z powers
    of its last r - h axes meet that matrix in one real matmul, and the z powers
    of its first h axes in a row-wise dot.  When every present table is real
    the exponent is float64 and the matmul takes the real parts alone;
    otherwise it is complex and takes the real and imaginary parts side by
    side.  Rows go in chunks, so no intermediate holds more than CHUNK_CELLS
    doubles."""
    present = [(T, *MONOMIALS[name]) for name in MONOMIALS if (T := getattr(c, name)) is not None]
    real = not any(T.imag.any() for T, _, _ in present)
    parts = 1 if real else 2
    tables = []
    for T, scale, exponents in present:
        h = len(exponents) // 2
        T = T.reshape(c.N ** h, -1).T
        tables.append((exponents[:h], exponents[h:],
                       np.ascontiguousarray(T.real) if real else np.hstack([T.real, T.imag]),
                       c.N ** -scale))
    w = np.zeros(z.shape[0], dtype=float if real else complex)
    if not tables:
        return w
    top = max(max(left + right) for left, right, _, _ in tables)
    step = max(1, CHUNK_CELLS // max(max(T.shape) for _, _, T, _ in tables))
    for lo in range(0, z.shape[0], step):
        powers = [None, z[lo:lo + step]]
        for p in range(2, top + 1):
            powers.append(powers[p // 2] * powers[p - p // 2])
        rows = len(powers[1])
        for left, right, T, divisor in tables:
            M = (_row_kron(powers, right) @ T).reshape(rows, parts, -1)
            if left:
                M = np.einsum("ikj,ij->ik", M, _row_kron(powers, left))
            out = M.reshape(rows, parts).view(w.dtype)[:, 0]
            out /= divisor   # divide, not multiply: as the per-entry loop did
            w[lo:lo + step] += out
    return w


def _box_batch(c: CoefficientSet, rng: np.random.Generator, sigma: float, bound: float,
               batch: int, need: int) -> tuple[np.number, float, int, int]:
    """One batch of box draws: (sum of w, sum of |w - batch mean|^2, points
    taken, rows drawn).  Only scalars come back, so the batch's arrays are
    freed before the next batch draws."""
    # draw only the rows still needed, topping up the misses, and at most
    # batch rows: the draws are sequential, so these are the first accepted
    # rows of a full batch.  Standard normals scaled in place are bit for bit
    # rng.normal(0.0, sigma), from numpy's bulk normal fill
    parts, drawn, take = [], 0, 0
    while take < need and drawn < batch:
        rows = min(need - take, batch - drawn)
        zb = rng.standard_normal((rows, c.N))
        zb *= sigma
        # one max/min pass over the batch; the per-row mask only when a
        # row leaves the box (a NaN fails both tests, as it fails the mask)
        if not (zb.max() <= bound and zb.min() >= -bound):
            zb = zb[(np.abs(zb) <= bound).all(axis=1)]
        parts.append(zb)
        drawn += rows
        take += zb.shape[0]
    zin = parts[0] if len(parts) == 1 else np.concatenate(parts)
    w = np.exp(perturbation_exponent(c, zin))
    sb = w.sum()
    dev = w - sb / take
    # numpy's pairwise sum, not a BLAS dot, whose bits vary with the thread count
    sq = dev.real * dev.real
    if np.iscomplexobj(dev):
        sq += dev.imag * dev.imag
    return sb, float(sq.sum()), take, drawn


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
    sequence and batches are reduced in order.  A batch draws only the rows
    it uses, and no more than min(BATCH_SIZE, BATCH_CELLS // N) rows (one row
    where N exceeds BATCH_CELLS), so acceptance_rate is the share of the rows
    drawn that fell inside the box.
    The weights and their moments are real when every present table is real
    (perturbation_exponent's dtype), and complex otherwise.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    A, N = c.A, c.N
    sigma = 1.0 / math.sqrt(2.0 * A * N)
    try:
        bound = c.box_halfwidth
        # per-axis retained mass: erf(sqrt(A) * N^eps_hat)
        axis_mass = math.erf(math.sqrt(A) * c.N ** c.eps_hat)
        box_mass = axis_mass ** N
        if box_mass < MASS_FLOOR:
            raise DegenerateProposalError(
                f"box retains only {box_mass:.3g} of the Gaussian mass "
                f"(A*N^(2 eps_hat) too small); increase eps_hat or A")
        prefactor = (math.pi / (A * N)) ** (N / 2.0) * box_mass
    except OverflowError:
        raise ValueError(f"box-integral scale overflows a double at N={N}, A={A:g}, "
                         f"eps_hat={c.eps_hat:g}") from None

    master = np.random.SeedSequence(seed)
    collected = proposed = 0
    s1 = 0.0 + 0.0j
    # sum of |w - mean|^2, merged over batches (Chan et al.); box_mass >=
    # MASS_FLOOR, so every batch accepts points and take > 0
    m2 = 0.0
    batch = min(BATCH_SIZE, max(1, BATCH_CELLS // N))
    while collected < samples:
        rng = np.random.default_rng(master.spawn(1)[0])
        sb, sq, take, drawn = _box_batch(c, rng, sigma, bound, batch, samples - collected)
        proposed += drawn
        m2 += sq
        if collected:
            shift = abs(sb / take - s1 / collected)
            m2 += shift * shift * collected * take / (collected + take)
        s1 += sb
        collected += take
    mean_w = s1 / samples
    # a spread past the double range stays inf or NaN: no error bar is not a zero one
    var_w = m2 / max(samples - 1, 1)
    return MCBoxResult(
        mean=complex(prefactor * mean_w),
        stderr=float(prefactor * math.sqrt(var_w / samples)),
        samples=samples,
        seed=seed,
        acceptance_rate=samples / proposed,
        box_mass=box_mass,
    )


def gaussian_reference(c: CoefficientSet) -> float:
    """Pure-Gaussian value (pi/(A N))^(N/2) of the unperturbed integral."""
    return (math.pi / (c.A * c.N)) ** (c.N / 2.0)
