import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from degcount import mvintegral
from degcount.mvintegral import (
    BATCH_CELLS,
    BATCH_SIZE,
    CHUNK_CELLS,
    MONOMIALS,
    CoefficientSet,
    DegenerateProposalError,
    gaussian_reference,
    mc_box_integral,
    perturbation_exponent,
    theta1,
    theta1_terms,
    z_factor,
    z_factor_terms,
)


# ------------------------------------------------------------------- theta1

def test_theta1_zero_coefficients():
    assert theta1(CoefficientSet(N=6, A=1.0)) == 0


def test_theta1_a_only_matches_gaussian_closed_form():
    # exact 1-D Gaussian value: prod (1 - a_j/(A sqrt(N)))^(-1/2); the two
    # displayed a-terms are its expansion through second order
    N, A = 8, 1.0
    a = np.full(N, 0.02)
    c = CoefficientSet(N=N, A=A, a=a)
    t = complex(theta1(c))
    two_terms = a.sum() / (2 * A * math.sqrt(N)) + (a * a).sum() / (4 * A * A * N)
    assert t.real == pytest.approx(two_terms, abs=1e-16)
    exact = -0.5 * np.log(1 - a / (A * math.sqrt(N))).sum()
    assert t.real == pytest.approx(exact, abs=5e-6)   # truncation O(a^3/ (A sqrt N)^3)


def test_theta1_j_coefficient_quarter():
    c = CoefficientSet(N=4, A=1.0, J=np.ones(4))
    assert complex(theta1(c)).real == pytest.approx(0.25, abs=1e-15)


def test_theta1_term_scaling_structure():
    # linear terms double, quadratic terms quadruple
    N, A = 6, 1.0
    base = dict(
        a=np.full(N, 0.05), B=np.full(N, 0.04), E=np.full(N, 0.03),
        J=np.full(N, 0.02),
        C=np.full((N, N), 0.01), F=np.full((N, N), 0.02),
    )
    c1 = CoefficientSet(N=N, A=A, **{k: v.copy() for k, v in base.items()})
    c2 = CoefficientSet(N=N, A=A, **{k: 2 * v for k, v in base.items()})
    t1, t2 = theta1_terms(c1), theta1_terms(c2)
    for name in ("a_linear", "E_quartic", "F_cross"):
        assert t2[name] == pytest.approx(2 * t1[name], rel=1e-14)
    for name in ("a_square", "B_square", "C_C", "J_square", "B_C", "B_J", "C_J"):
        assert t2[name] == pytest.approx(4 * t1[name], rel=1e-14)


def test_theta1_strict_sums_exclude_coincident_indices():
    # C_C term: sum' over j,k,l distinct of C_jk C_jl
    N = 4
    rng = np.random.default_rng(3)
    C = rng.normal(size=(N, N))
    np.fill_diagonal(C, 0.0)
    c = CoefficientSet(N=N, A=1.0, C=C)
    brute = 0.0
    for j in range(N):
        for k in range(N):
            for l in range(N):
                if j != k and j != l and k != l:
                    brute += C[j, k] * C[j, l]
    assert theta1_terms(c)["C_C"].real == pytest.approx(brute / (16 * N ** 3), rel=1e-12)


def test_theta1_terms_of_an_a_only_set():
    # the two a terms as the all-zero dense tables gave them, and 0 for every
    # term that reads an absent table
    c = CoefficientSet(N=8, A=1.0, a=[0.031, 0.038, 0.045, 0.052, 0.059, 0.066, 0.041, 0.063])
    terms = theta1_terms(c)
    assert terms == {"a_linear": 0.06982679464217156 + 0j, "a_square": 0.00064440625 + 0j,
                     **{name: 0j for name in ("B_square", "B_C", "C_C", "E_quartic",
                                              "F_cross", "J_square", "B_J", "C_J")}}
    assert repr(theta1(c)) == "(0.07047120089217157+0j)"


@pytest.mark.parametrize("present", ["".join(p) for k in range(7)
                                     for p in itertools.combinations("aBCEFJ", k)])
def test_absent_table_reads_as_an_all_zero_table(present):
    # theta1, its terms and the z factor, with each absent table present as zeros
    N = 5
    rng = np.random.default_rng(len(present))
    shapes = {"a": N, "B": N, "E": N, "J": N, "C": (N, N), "F": (N, N)}
    tables = {name: rng.normal(size=shapes[name]) + 1j * rng.normal(size=shapes[name])
              for name in present}
    sparse = CoefficientSet(N=N, A=0.7, **tables)
    dense = CoefficientSet(N=N, A=0.7, **{name: tables.get(name, np.zeros(shape))
                                          for name, shape in shapes.items()})
    assert theta1_terms(sparse) == theta1_terms(dense)
    assert repr(theta1(sparse)) == repr(theta1(dense))
    assert z_factor_terms(sparse) == z_factor_terms(dense)
    assert z_factor(sparse) == z_factor(dense)


# ------------------------------------------------------------------ z factor

def test_z_factor_all_real_is_one():
    rng = np.random.default_rng(1)
    c = CoefficientSet(N=5, A=0.8, a=rng.normal(size=5), B=rng.normal(size=5),
                       C=rng.normal(size=(5, 5)))
    assert z_factor(c) == 1.0


def test_z_factor_imaginary_b():
    t = 0.3
    c = CoefficientSet(N=5, A=1.0, B=np.full(5, t * 1j))
    assert z_factor(c) == pytest.approx(math.exp(15 * 5 * t * t / (16 * 5)), rel=1e-14)


def test_z_factor_terms_are_quadratic_theta1_terms_of_imaginary_parts():
    N, A = 5, 0.7
    rng = np.random.default_rng(31)
    tables = {name: rng.normal(size=shape) + 1j * rng.normal(size=shape)
              for name, shape in (("a", N), ("B", N), ("J", N), ("E", N),
                                  ("C", (N, N)), ("F", (N, N)))}
    z = z_factor_terms(CoefficientSet(N=N, A=A, **tables))
    t = theta1_terms(CoefficientSet(N=N, A=A, **{k: v.imag for k, v in tables.items()}))
    assert set(z) == {"a_square", "B_square", "B_C", "C_C", "J_square", "B_J", "C_J"}
    for name, value in z.items():
        assert value == pytest.approx(t[name].real, rel=1e-14) and t[name].imag == 0


def test_z_factor_mixed_b_c_against_term_arithmetic():
    # independent recomputation of every displayed quadratic in the
    # imaginary parts
    N, A = 4, 0.9
    rng = np.random.default_rng(9)
    B = rng.normal(size=N) + 1j * rng.normal(size=N)
    C = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    np.fill_diagonal(C, 0.0)
    J = rng.normal(size=N) + 1j * rng.normal(size=N)
    c = CoefficientSet(N=N, A=A, B=B, C=C, J=J)
    iB, iC, iJ = B.imag, C.imag, J.imag
    want = 0.0
    want += (iB ** 2).sum() * 15 / (16 * A ** 3 * N)
    want += sum(3 * iB[j] * iC[j, k] for j in range(N) for k in range(N)
                if j != k) / (8 * A ** 3 * N * N)
    want += sum(iC[j, k] * iC[j, l] for j in range(N) for k in range(N)
                for l in range(N) if j != k and j != l and k != l) / (16 * A ** 3 * N ** 3)
    want += (iJ ** 2).sum() / (4 * A * N)
    want += (3 * iB * iJ).sum() / (4 * A * A * N)
    want += sum(iC[j, k] * iJ[k] for j in range(N) for k in range(N)
                if j != k) / (4 * A * A * N * N)
    assert z_factor(c) == pytest.approx(math.exp(want), rel=1e-12)


# -------------------------------------------------------------- monte carlo

def test_mc_zero_coefficients_pure_gaussian():
    c = CoefficientSet(N=6, A=1.0)
    res = mc_box_integral(c, samples=50_000, seed=4)
    ref = gaussian_reference(c)
    assert res.stderr == 0.0
    assert abs(res.mean.real - ref) <= 1e-9 * ref   # box-mass deficit only


def test_mc_reproducible_for_fixed_seed():
    c = CoefficientSet(N=5, A=1.0, a=np.full(5, 0.1))
    r1 = mc_box_integral(c, samples=30_000, seed=42)
    r2 = mc_box_integral(c, samples=30_000, seed=42)
    assert r1 == r2
    r3 = mc_box_integral(c, samples=30_000, seed=43)
    assert r3.mean != r1.mean


def box_batches(c, samples, seed):
    """Each batch's accepted rows, cut from full BATCH_SIZE-row draws of its
    spawned generator, with the rows up to its last used one."""
    sigma = 1.0 / math.sqrt(2.0 * c.A * c.N)
    master = np.random.SeedSequence(seed)
    out, have = [], 0
    while have < samples:
        zb = np.random.default_rng(master.spawn(1)[0]).normal(0.0, sigma, size=(BATCH_SIZE, c.N))
        inside = np.flatnonzero((np.abs(zb) <= c.box_halfwidth).all(axis=1))[:samples - have]
        used = BATCH_SIZE if inside.size < samples - have else int(inside[-1]) + 1
        out.append((zb[inside], used))
        have += inside.size
    return out


def box_weights(c, samples, seed):
    """The importance weights mc_box_integral averages, drawn batch by batch as it does."""
    return np.concatenate([np.exp(perturbation_exponent(c, rows))
                           for rows, _ in box_batches(c, samples, seed)])


@pytest.mark.parametrize("coeffs, samples, seed, pinned", [
    # about 0.93% of the rows fall outside the box (box mass 0.9907)
    (dict(N=2, A=1.0, eps_hat=1.0, a=[0.1, 0.2]), 30_000, 7,
     (1.7319424419696878, 0.0011090782600388879)),
    # a second batch: the first runs out of its BATCH_SIZE rows
    (dict(N=2, A=1.0, eps_hat=1.0, a=[0.1, 0.2]), 70_000, 7,
     (1.7317553134087234, 0.0007275472948638123)),
    (dict(N=3, A=0.9, eps_hat=0.75, J=[0.3, 0.1, 0.2]), 150_000, 7,
     (1.2629108171759054, 0.0005220440086991265)),
    # every row inside
    (dict(N=8, A=1.0, a=[0.05] * 8), 100_000, 7,
     (0.025535172283525608, 2.8896360678271128e-06)),
], ids=["outside-rows", "outside-rows-two-batches", "three-batches", "all-inside"])
def test_trimmed_draws_are_the_full_batch_rows(monkeypatch, coeffs, samples, seed, pinned):
    # the rows a batch draws are the first accepted rows of a full batch, bit
    # for bit, and the acceptance rate is the share of the rows drawn
    c = CoefficientSet(**coeffs)
    seen = []

    def recording(c, z):
        seen.append(z.copy())
        return perturbation_exponent(c, z)
    monkeypatch.setattr(mvintegral, "perturbation_exponent", recording)
    res = mc_box_integral(c, samples=samples, seed=seed)
    want = box_batches(c, samples, seed)
    assert len(seen) == len(want)
    assert all(np.array_equal(z, rows) for z, (rows, _) in zip(seen, want))
    drawn = sum(used for _, used in want)
    assert res.acceptance_rate == samples / drawn
    if coeffs["N"] == 8:
        assert res.acceptance_rate == 1.0
    else:
        assert res.acceptance_rate < 1.0
    # mean and stderr as the full-batch draws gave them
    assert (res.mean.real, res.stderr) == pinned and res.mean.imag == 0.0


def test_mc_result_does_not_depend_on_the_blas_thread_count():
    # the merged-batch variance is numpy's pairwise sum; a BLAS dot product
    # reduced in another order at 2 threads and moved the stderr's last bits
    code = ("from degcount.mvintegral import CoefficientSet, mc_box_integral\n"
            "r = mc_box_integral(CoefficientSet(N=8, A=1.0, a=[0.05] * 8), samples=100_000, seed=7)\n"
            "print(repr(r.mean), repr(r.stderr))")
    src = str(Path(mvintegral.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, check=True, timeout=120).stdout)
    assert outs[0] == outs[1] == "(0.025535172283525608+0j) 2.8896360678271128e-06\n"


@pytest.mark.parametrize("amplitude", [1e-8, 1e-10])
def test_mc_stderr_matches_two_pass_variance(amplitude):
    # nearly equal weights, where a one-pass variance cancels to 0 or to noise
    c = CoefficientSet(N=8, A=1.0, a=np.full(8, amplitude))
    res = mc_box_integral(c, samples=100_000, seed=3)
    w = box_weights(c, 100_000, 3)
    want = gaussian_reference(c) * res.box_mass * math.sqrt(np.var(w, ddof=1) / w.size)
    assert abs(res.stderr - want) < 1e-6 * want


def test_mc_a_only_matches_theta1():
    c = CoefficientSet(N=8, A=1.0, a=np.full(8, 0.05))
    res = mc_box_integral(c, samples=200_000, seed=11)
    ratio = res.mean.real / gaussian_reference(c)
    rel_se = res.stderr / res.mean.real
    assert abs(math.log(ratio) - complex(theta1(c)).real) <= 3 * rel_se + 0.02


def test_mc_decides_j_coefficient():
    c = CoefficientSet(N=4, A=1.0, J=np.ones(4))
    res = mc_box_integral(c, samples=400_000, seed=13)
    ratio = res.mean.real / gaussian_reference(c)
    se = res.stderr / gaussian_reference(c)
    assert abs(ratio - math.exp(0.25)) <= 5 * se
    assert abs(ratio - math.exp(4.0)) / se > 100


def test_mc_factorizing_case_matches_1d_quadrature_product():
    # diagonal-only coefficients factorize; compare with a per-axis
    # trapezoid integral over the box
    N, A = 5, 1.2
    c = CoefficientSet(N=N, A=A, a=np.full(N, 0.08), B=np.full(N, 0.05),
                       E=np.full(N, -0.04), J=np.full(N, 0.3))
    res = mc_box_integral(c, samples=400_000, seed=21)
    b = c.box_halfwidth
    z = np.linspace(-b, b, 20_001)
    total = 1.0
    for _ in range(N):
        f = np.exp(-A * N * z ** 2 + 0.3 * z + math.sqrt(N) * 0.08 * z ** 2
                   + N * 0.05 * z ** 3 - N * 0.04 * z ** 4)
        total *= np.trapezoid(f, z) if hasattr(np, "trapezoid") else np.trapz(f, z)
    assert abs(res.mean.real - total) <= 3 * res.stderr


def test_box_batch_is_bounded_by_cells(monkeypatch):
    # each batch evaluates at most BATCH_CELLS // N rows, and one at least; at
    # N = 1000 a batch of BATCH_SIZE rows would hold 2^16 * 1000 doubles
    # (524 MB), and 524 rows hold 4.2 MB.  The peak allows four batches of
    # doubles: a batch's draws, and the z powers the exponent takes of them
    rows = []

    def recording(c, z):
        rows.append(len(z))
        return perturbation_exponent(c, z)
    monkeypatch.setattr(mvintegral, "perturbation_exponent", recording)
    for N, samples, batch in ((9, 60_000, BATCH_CELLS // 9), (1000, 5000, 524),
                              (BATCH_CELLS + 1, 2, 1)):
        rows.clear()
        c = CoefficientSet(N=N, A=1.0, a=np.full(N, 0.01))
        tracemalloc.start()
        try:
            res = mc_box_integral(c, samples=samples, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rows) == samples and max(rows) == batch and res.acceptance_rate == 1.0
        assert peak <= 4 * 8 * BATCH_CELLS


def test_one_box_batch_is_alive_at_a_time():
    # a batch's arrays are freed before the next batch draws: at N = 1000 a
    # batch is 524 rows of 1000 doubles, so two batches alive at once hold
    # twice that, while one batch and its per-row weights stay below it
    N = 1000
    batch = BATCH_CELLS // N
    c = CoefficientSet(N=N, A=1.0, a=np.full(N, 0.01))
    tracemalloc.start()
    try:
        res = mc_box_integral(c, samples=5000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.acceptance_rate == 1.0
    assert peak < 2 * 8 * batch * N


def test_mc_degenerate_proposal_rejected():
    with pytest.raises(DegenerateProposalError):
        mc_box_integral(CoefficientSet(N=6, A=1.0, eps_hat=0.05),
                        samples=1000, seed=1)


def test_perturbation_exponent_against_brute_force():
    # all ten tables at once, random complex entries, summed over distinct
    # indices; scales and powers are written out here, apart from MONOMIALS
    N = 4
    rt = math.sqrt(N)
    monomials = {"J": (1.0, (1,)), "a": (rt, (2,)), "B": (N, (3,)), "E": (N, (4,)),
                 "C": (1.0, (1, 2)), "F": (1.0, (2, 2)), "G": (rt, (1, 3)),
                 "D": (1 / N, (1, 1, 1)), "H": (1 / rt, (1, 1, 2)),
                 "I": (1 / N / rt, (1, 1, 1, 1))}
    rng = np.random.default_rng(17)
    tables = {name: rng.normal(size=(N,) * len(powers)) + 1j * rng.normal(size=(N,) * len(powers))
              for name, (_, powers) in monomials.items()}
    z = rng.normal(scale=0.1, size=(3, N))
    got = perturbation_exponent(CoefficientSet(N=N, A=1.0, **tables), z)
    for s in range(3):
        want = 0j
        for name, (scale, powers) in monomials.items():
            for index in itertools.product(range(N), repeat=len(powers)):
                if len(set(index)) == len(index):
                    term = scale * tables[name][index]
                    for j, p in zip(index, powers):
                        term *= z[s, j] ** p
                    want += term
        assert got[s] == pytest.approx(want, rel=1e-10)


def per_entry_exponent(c, z):
    # the reference: one vectorized product of z powers per non-zero entry of
    # each present table, summed entry by entry
    zt = np.ascontiguousarray(z.T)
    z2 = zt * zt
    powers = (None, zt, z2, z2 * zt, z2 * z2)
    w = np.zeros(z.shape[0], dtype=complex)
    for name, (scale, exponents) in MONOMIALS.items():
        T = getattr(c, name)
        if T is None:
            continue
        out = np.zeros(z.shape[0], dtype=complex)
        for index in np.argwhere(T):
            term = T[tuple(index)]
            for p, j in zip(exponents, index):
                term = term * powers[p][j]
            out += term
        w += out / c.N ** -scale
    return w


def assert_exponent_matches_reference(c, z):
    # the error is measured against the sum of |terms|, since the two orders of
    # summation may cancel differently; the exponent is complex exactly when
    # some present table has a nonzero imaginary entry, and float64 otherwise
    present = {name: getattr(c, name) for name in MONOMIALS if getattr(c, name) is not None}
    got = perturbation_exponent(c, z)
    want = per_entry_exponent(c, z)
    size = per_entry_exponent(
        CoefficientSet(N=c.N, A=1.0, **{k: np.abs(v) for k, v in present.items()}), np.abs(z))
    imaginary = any(np.any(T.imag) for T in present.values())
    assert got.shape == (len(z),) and got.dtype == (complex if imaginary else np.float64)
    assert np.all(np.abs(got - want) <= 1e-12 * size.real)


def assert_matches_per_entry_reference(N, seed, present, rows, complex_):
    rng = np.random.default_rng(seed)
    tables = {}
    for name in present:
        shape = (N,) * len(MONOMIALS[name][1])
        tables[name] = rng.normal(size=shape) + 1j * complex_ * rng.normal(size=shape)
    c = CoefficientSet(N=N, A=1.0, **tables)
    assert_exponent_matches_reference(c, rng.normal(scale=0.3, size=(rows, N)))


@pytest.mark.parametrize("name", sorted(MONOMIALS))
def test_each_table_matches_per_entry_reference(name):
    for N in range(1, 7):
        for rows in (0, 1, 7):
            assert_matches_per_entry_reference(N, N, {name}, rows, complex_=True)


def test_table_mixes_match_per_entry_reference():
    # random mixes, N = 1..6, complex or real entries; CHUNK_CELLS // 2 + 1
    # rows exceed one chunk for every table set
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(N=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
               present=st.sets(st.sampled_from(sorted(MONOMIALS)), min_size=1),
               rows=st.sampled_from((0, 1, 7, CHUNK_CELLS // 2 + 1)), complex_=st.booleans())
    @hyp.example(N=6, seed=1, present=set(MONOMIALS), rows=CHUNK_CELLS // 2 + 1, complex_=True)
    @hyp.example(N=1, seed=2, present={"a"}, rows=CHUNK_CELLS // 2 + 1, complex_=False)
    def check(N, seed, present, rows, complex_):
        assert_matches_per_entry_reference(N, seed, present, rows, complex_)

    check()


@pytest.mark.parametrize("name", sorted(MONOMIALS))
def test_one_imaginary_entry_takes_the_complex_path(name):
    # real J and a tables, with one off-diagonal entry of the named table
    # imaginary: whichever table holds it, the exponent is complex
    N = 5
    rng = np.random.default_rng(41)
    tables = {k: rng.normal(size=(N,) * len(MONOMIALS[k][1])).astype(complex)
              for k in dict.fromkeys(["J", "a", name])}
    entry = (0, 1, 2, 3)[:len(MONOMIALS[name][1])]
    tables[name][entry] += 0.5j
    z = rng.normal(scale=0.3, size=(7, N))
    c = CoefficientSet(N=N, A=1.0, **tables)
    assert_exponent_matches_reference(c, z)
    assert perturbation_exponent(c, z).dtype == complex
    if len(entry) > 1:
        # on a coincident index the entry is zeroed with the rest: the real path
        tables[name][entry] = tables[name][entry].real
        tables[name][(1,) * len(entry)] = 0.5j
        c = CoefficientSet(N=N, A=1.0, **tables)
        assert_exponent_matches_reference(c, z)
        assert perturbation_exponent(c, z).dtype == np.float64


def test_zero_imaginary_pairs_take_the_real_path():
    # [re, 0.0] pair tables decode to complex tables with no imaginary part:
    # the exponent is float64, bit for bit that of the plain-number document,
    # and so is the box integral
    N = 4
    rng = np.random.default_rng(37)
    real = {"N": N, "A": 1.0, "a": (0.05 * rng.normal(size=N)).tolist(),
            "C": (0.05 * rng.normal(size=(N, N))).tolist(),
            "D": (0.05 * rng.normal(size=(N,) * 3)).tolist()}
    pairs = dict(real, **{name: np.stack([real[name], np.full_like(real[name], zero)],
                                         axis=-1).tolist()
                          for name, zero in (("a", 0.0), ("C", 0.0), ("D", -0.0))})
    c, c_real = CoefficientSet.from_dict(pairs), CoefficientSet.from_dict(real)
    assert c.a.dtype == complex and not np.any(c.C.imag)
    z = rng.normal(scale=0.3, size=(7, N))
    assert_exponent_matches_reference(c, z)
    got = perturbation_exponent(c, z)
    assert got.dtype == np.float64 and np.array_equal(got, perturbation_exponent(c_real, z))
    assert mc_box_integral(c, samples=2000, seed=5) == mc_box_integral(c_real, samples=2000, seed=5)


def test_perturbation_exponent_memory_is_bounded():
    # all ten tables at N = 8 over one full Monte-Carlo batch: the per-entry
    # loop peaked at 20 MiB, and an unchunked matmul chain at several times that
    N = 8
    rng = np.random.default_rng(29)
    c = CoefficientSet(N=N, A=1.0, **{
        name: rng.normal(size=(N,) * len(p)) + 1j * rng.normal(size=(N,) * len(p))
        for name, (_, p) in MONOMIALS.items()})
    z = rng.normal(scale=0.1, size=(1 << 16, N))
    tracemalloc.start()
    try:
        perturbation_exponent(c, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20


# -------------------------------------------------------------- serialization

def test_coefficient_set_dict_round_trip():
    N = 4
    rng = np.random.default_rng(23)
    c = CoefficientSet(N=N, A=2.0, eps_hat=0.8,
                       J=np.array([1 + 2j, 0, -1j, 3]),
                       C=rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)),
                       D=rng.normal(size=(N,) * 3) + 1j * rng.normal(size=(N,) * 3),
                       H=rng.normal(size=(N,) * 3), I=rng.normal(size=(N,) * 4))
    doc = c.to_dict()
    back = CoefficientSet.from_dict(json.loads(json.dumps(doc)))
    assert back.N == c.N and back.A == c.A and back.eps_hat == c.eps_hat
    for name in ("J", "C", "D", "H", "I"):
        assert np.array_equal(getattr(back, name), getattr(c, name))
    assert back.B is None
    assert "B" not in doc


def test_coefficient_set_json_round_trip_property():
    # a random subset of present tables, real or complex, at N in {2, 3, 4}
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(data=st.data(), N=st.sampled_from((2, 3, 4)), seed=st.integers(0, 2 ** 32 - 1),
               present=st.sets(st.sampled_from(sorted(MONOMIALS))))
    def check(data, N, seed, present):
        rng = np.random.default_rng(seed)
        tables = {}
        for name in present:
            shape = (N,) * len(MONOMIALS[name][1])
            tables[name] = rng.normal(size=shape)
            if data.draw(st.booleans()):
                tables[name] = tables[name] + 1j * rng.normal(size=shape)
        c = CoefficientSet(N=N, A=data.draw(st.floats(0.1, 10.0)),
                           eps_hat=data.draw(st.floats(0.1, 0.9)), **tables)
        back = CoefficientSet.from_dict(json.loads(json.dumps(c.to_dict())))
        assert (back.N, back.A, back.eps_hat) == (c.N, c.A, c.eps_hat)
        for name in MONOMIALS:
            if name in present:
                assert np.array_equal(getattr(back, name), getattr(c, name))
            else:
                assert getattr(back, name) is None

    check()


def test_two_by_two_tables_decode_by_shape():
    # with N = 2 a row of two numbers is a real table, not one [re, im] pair
    doc = {"N": 2, "A": 1.0, "a": [0.1, 0.2], "C": [[0.0, 0.3], [0.4, 0.0]]}
    c = CoefficientSet.from_dict(doc)
    assert np.array_equal(c.a, [0.1, 0.2]) and np.array_equal(c.C, [[0, 0.3], [0.4, 0]])
    c = CoefficientSet.from_dict({"N": 2, "A": 1.0, "a": [[0.1, 0.5], [0.2, -0.5]]})
    assert np.array_equal(c.a, [0.1 + 0.5j, 0.2 - 0.5j])
    for mixed in ([0.1, [0.2, 0.5]], [[0.1, 0.5], 0.2], ["0.1", "0.2"]):
        with pytest.raises(ValueError):
            CoefficientSet.from_dict({"N": 2, "A": 1.0, "a": mixed})


def test_coefficient_set_validation():
    with pytest.raises(ValueError):
        CoefficientSet(N=3, A=0.0)
    with pytest.raises(ValueError):
        CoefficientSet(N=3, A=1.0, J=np.zeros(4))
    with pytest.raises(ValueError):
        CoefficientSet(N=3, A=1.0, I=np.zeros((3, 3, 3)))
    # coincident-index entries of the many-index tables are zeroed on construction
    N = 4
    c = CoefficientSet(N=N, A=1.0, C=np.ones((N,) * 2), D=np.ones((N,) * 3),
                       H=np.ones((N,) * 3), I=np.ones((N,) * 4))
    for T in (c.C, c.D, c.H, c.I):
        for index in np.ndindex(T.shape):
            assert T[index] == (len(set(index)) == len(index))
    assert CoefficientSet(N=N, A=1.0).D is None
