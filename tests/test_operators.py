import math
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zenosim
from zenosim import (
    AmbiguousSpectrumError,
    DensityMatrix,
    Operator,
    Projector,
    SectorDecomposition,
    ValidationError,
    as_operator,
    basis_projector,
    eig,
    expm,
    load_matrix,
    offblock_norm,
    projector_from_columns,
    save_matrix,
    snorm,
    survival_probability,
)
from zenosim import operators
from zenosim.continuous import real_sectors
from zenosim.operators import Sector, block_diagonal_part, default_cluster_tol

from conftest import random_hermitian


def series_expm(generator: np.ndarray) -> np.ndarray:
    """Independent oracle: scaled Taylor series summation of exp(G)."""
    nrm = np.linalg.norm(generator, 2)
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-30) / 0.25))))
    a = generator / (2 ** s)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    k = 1
    while np.abs(term).max() > 1e-22:
        term = term @ a / k
        out += term
        k += 1
        assert k < 200
    for _ in range(s):
        out = out @ out
    return out


# --------------------------------------------------------------------------
# expm


def test_expm_zero_is_identity():
    for dim in (1, 2, 5):
        u = expm(np.zeros((dim, dim)), 1.0)
        assert np.array_equal(u.matrix, np.eye(dim))


def test_expm_diagonal_case():
    u = expm(np.diag([1.0, -1.0]), math.pi)
    assert np.allclose(u.matrix, -np.eye(2), atol=1e-14)


def test_expm_rabi_entry_matches_series_oracle():
    omega, t = 1.0, 0.7
    h = omega * np.array([[0, 1], [1, 0]], dtype=complex)
    u = expm(h, t)
    oracle = series_expm(-1j * t * h)
    assert np.abs(u.matrix - oracle).max() <= 1e-14
    assert abs(u.matrix[0, 0] - math.cos(0.7)) <= 1e-14
    assert abs(u.matrix[0, 0].real - 0.764842) <= 1e-6


def test_expm_nonhermitian_matches_series_oracle(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u = expm(m, 0.37)
    assert np.abs(u.matrix - series_expm(-1j * 0.37 * m)).max() <= 1e-12


def test_expm_unitarity_and_group_law(rng):
    h = random_hermitian(rng, 6)
    dim = 6
    u = expm(h, 0.9)
    assert snorm(u.matrix.conj().T @ u.matrix - np.eye(dim)) <= 1e-12 * dim
    prod = expm(h, 0.9).matrix @ expm(h, 1.7).matrix
    assert snorm(prod - expm(h, 2.6).matrix) <= 1e-10


def test_expm_rejects_nonfinite():
    with pytest.raises(ValidationError):
        expm(np.array([[np.nan, 0], [0, 1]]), 1.0)
    with pytest.raises(ValidationError):
        expm(np.eye(2), math.inf)


def test_expm_complex_scale():
    h = np.diag([2.0, 3.0])
    u = expm(h, -1j * 0.5)  # exp(-0.5 H)
    assert np.allclose(np.diag(u.matrix), np.exp([-1.0, -1.5]), atol=1e-14)


# --------------------------------------------------------------------------
# types


def test_operator_hermitian_flag_verified():
    with pytest.raises(ValidationError):
        Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)
    op = as_operator(np.array([[0, 1], [1, 0]]))
    assert op.hermitian


def test_operator_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        Operator(np.array([[np.inf, 0], [0, 0]]))


def test_projector_invariants():
    p = basis_projector(4, 0, 2)
    assert p.rank == 2
    assert snorm(p.matrix @ p.matrix - p.matrix) <= 1e-10 * 4
    with pytest.raises(ValidationError):
        Projector(np.array([[0.5, 0], [0, 0]]), rank=1)  # not idempotent
    with pytest.raises(ValidationError):
        Projector(np.eye(2), rank=1)  # trace/rank mismatch


@pytest.mark.parametrize("args, index", [((3, -1), "-1"), ((3, 3), "3"), ((3, 0, 0), "0"),
                                         ((4, 1, 2, 1), "1"), ((1, 1), "1"), ((3, 1.5), "1.5"),
                                         ((3, True), "True")])
def test_basis_projector_refuses_bad_indices(args, index):
    with pytest.raises(ValidationError, match=rf"basis index {index} is (not an integer|repeated)"):
        basis_projector(*args)


@pytest.mark.parametrize("dim", [2.5, 0, -1, True, "3"])
def test_basis_projector_refuses_a_dim_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValidationError, match=rf"dim {dim!r} is not an integer >= 1"):
        basis_projector(dim)


@pytest.mark.parametrize("columns", [np.zeros((3, 1)), [[1, 1], [0, 0], [0, 0]],
                                     [[1, 2], [1j, 2j], [0, 0]], np.ones((2, 3))])
def test_projector_from_columns_refuses_rank_deficient_columns(columns):
    with pytest.raises(ValidationError, match="rank"):
        projector_from_columns(columns)


def test_projector_from_columns_reads_a_vector_as_one_column():
    p = projector_from_columns(np.array([1, 0, 0]))
    assert p.rank == 1
    assert np.array_equal(p.matrix, basis_projector(3, 0).matrix)


@pytest.mark.parametrize("columns", [np.zeros((3, 1, 1)), np.float64(1.0)])
def test_projector_from_columns_refuses_other_shapes_by_name(columns):
    with pytest.raises(ValidationError, match=rf"have shape {re.escape(str(np.shape(columns)))}"):
        projector_from_columns(columns)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, 0.0]))  # trace > 1
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue
    rho = DensityMatrix.pure([3, 4j])
    assert abs(rho.trace - 1) < 1e-14
    assert abs(rho.matrix[0, 0] - 0.36) < 1e-14
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="NaN or Inf"):
        DensityMatrix.pure([1.0, np.nan])


@pytest.mark.parametrize("dim", [1, 3, 200])
def test_pure_state_passes_the_skipped_positivity_test(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    rho = DensityMatrix.pure(v)
    u = v / np.linalg.norm(v)
    assert np.array_equal(rho.matrix, DensityMatrix(np.outer(u, u.conj())).matrix)
    assert not rho.matrix.flags.writeable
    # a few ulp below zero at worst, against the 1e-10 allowance
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-14


# --------------------------------------------------------------------------
# eig / sectors


def test_eig_three_level_coupling_sectors():
    hm = np.zeros((3, 3), dtype=complex)
    hm[1, 2] = hm[2, 1] = 1.0
    dec = eig(as_operator(hm))
    assert [s.eigenvalue.real for s in dec] == pytest.approx([-1.0, 0.0, 1.0])
    dec.validate_resolution()
    p0 = dec.sectors[1].projector.matrix
    assert np.allclose(p0, np.diag([1.0, 0, 0]), atol=1e-14)
    plus = dec.sectors[2].projector.matrix
    expected = np.zeros((3, 3))
    expected[1:, 1:] = 0.5
    assert np.allclose(plus, expected, atol=1e-14)


def test_eig_identity_single_degenerate_sector():
    dec = eig(np.eye(4))
    assert len(dec) == 1
    s = dec.sectors[0]
    assert s.eigenvalue == pytest.approx(1.0)
    assert s.multiplicity == 4
    assert np.allclose(s.projector.matrix, np.eye(4), atol=1e-14)


def test_eig_reconstructs_hermitian_input(rng):
    a = random_hermitian(rng, 7)
    dec = eig(a)
    rebuilt = sum(s.eigenvalue * s.projector.matrix for s in dec)
    assert snorm(rebuilt - a) <= 1e-10 * snorm(a)
    dec.validate_resolution()
    assert dec.orthogonality_defect() <= 1e-10


def test_eig_ambiguous_spectrum_carries_gap_histogram():
    tol = 1e-6
    a = np.diag([0.0, 0.9e-6, 1.8e-6, 1.0])
    with pytest.raises(AmbiguousSpectrumError) as info:
        eig(as_operator(a), cluster_tol=tol)
    err = info.value
    assert err.gaps.size == 6
    counts, edges = err.histogram
    assert counts.sum() == 6


def test_eig_default_cluster_tol_scales_with_norm():
    a = as_operator(np.diag([0.0, 5e-8, 1000.0]))
    # default tol = 1e-8 * 1000 = 1e-5 merges the first two eigenvalues
    dec = eig(a)
    assert default_cluster_tol(a) == pytest.approx(1e-5)
    assert len(dec) == 2
    assert dec.sectors[0].multiplicity == 2


def test_eig_nonhermitian_dissipative_block():
    # lossy two-level block: complex eigenvalue pair, well conditioned
    g, kappa = 1.0, 1.0
    m = np.array([[0, 1j * g], [-1j * g, -1j * kappa]])
    dec = eig(as_operator(m))
    etas = sorted(dec.eigenvalues, key=lambda z: z.real)
    assert etas[0] == pytest.approx((-math.sqrt(3) - 1j) / 2, abs=1e-12)
    assert etas[1] == pytest.approx((math.sqrt(3) - 1j) / 2, abs=1e-12)
    assert all(s.condition >= 1.0 for s in dec)


def all_pairs_clusters(vals, tol):
    """Connected components of the proximity graph by a union over all
    n(n-1)/2 pairs, ordered as cluster_values orders them, and the diameter
    of the first component wider than ``tol`` (None if there is none)."""
    n = len(vals)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i
    dist = np.abs(vals[:, None] - vals[None, :])
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= tol and find(i) != find(j):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = sorted(groups.values(), key=lambda idx: (vals[idx[0]].real, vals[idx[0]].imag))
    wide = [dist[np.ix_(c, c)].max() for c in clusters
            if len(c) > 1 and dist[np.ix_(c, c)].max() > tol]
    return clusters, wide[0] if wide else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12),
       st.sampled_from(["real", "ties", "complex", "complex ties"]), st.sampled_from([-1, 0, 1]))
def test_cluster_values_unions_the_pairs_the_all_pairs_loop_does(seed, n, kind, ulps):
    # real and complex values go through the same components of one distance matrix
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, max(n, 1), n) * 0.5 + rng.uniform(0.0, 0.3, n)
    if kind == "ties":           # repeated values, signed zeros, negative values
        vals = np.round(vals, 1) - np.round(n / 4, 1)
        vals[vals == 0] = rng.choice([0.0, -0.0], int(np.sum(vals == 0)))
    if kind == "complex":
        vals = vals + 1j * (rng.integers(0, 2, n) * 0.5 + rng.uniform(0.0, 0.3, n))
    if kind == "complex ties":   # exact repeats, imaginary parts 0.0 and -0.0 among them
        vals = np.round(vals, 1).astype(complex)
        vals.imag = rng.choice([0.0, -0.0, 0.5], n)
        vals = vals[rng.integers(0, max(n, 1), n)]
    if n:
        i, j = rng.integers(0, n, 2)
        tol = abs(vals[i] - vals[j])   # a gap at tol, or 1 ulp on either side of it
        tol = float(np.nextafter(tol, math.inf * ulps)) if ulps else float(tol)
    else:
        tol = 0.1
    expected, diameter = all_pairs_clusters(vals, tol)
    if diameter is not None:
        with pytest.raises(AmbiguousSpectrumError) as err:
            operators.cluster_values(vals, tol)
        assert f"(cluster diameter {diameter:.3e})" in str(err.value)
        dist = np.abs(vals[:, None] - vals[None, :])
        assert np.array_equal(err.value.gaps, np.sort(dist[np.triu_indices(n, k=1)]))
    else:
        assert operators.cluster_values(vals, tol) == expected


@pytest.mark.parametrize("chain", [np.arange(6.0), 1j * np.arange(6)], ids=["real", "imaginary"])
def test_cluster_values_follows_a_chain_to_its_far_end(chain):
    # index 5 reaches index 0 only through the four values between them
    with pytest.raises(AmbiguousSpectrumError, match=r"\(cluster diameter 5\.000e\+00\)") as err:
        operators.cluster_values(chain, 1.0)
    dist = np.abs(chain[:, None] - chain[None, :])
    assert np.array_equal(err.value.gaps, np.sort(dist[np.triu_indices(6, k=1)]))


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_eig_rejects_nonfinite_or_negative_cluster_tol(tol):
    hermitian = np.diag([0.0, 1.0, 1.0])
    lossy = np.array([[0, 1j], [-1j, -1j]])
    for a in (hermitian, lossy):
        with pytest.raises(ValidationError, match="cluster tolerance"):
            eig(as_operator(a), cluster_tol=tol)


def test_eig_accepts_zero_cluster_tol():
    dec = eig(as_operator(np.diag([0.0, 1.0, 1.0])), cluster_tol=0.0)
    assert [s.multiplicity for s in dec] == [1, 2]


@pytest.mark.parametrize("coupling", [
    np.array([[0, 1], [0, 0]], dtype=complex),          # 2x2 Jordan block
    np.diag([1.0, 1.0], 1).astype(complex),               # 3x3 nilpotent
    np.array([[0, 1, 0], [0, 0, 0], [0, 0, 2]], dtype=complex),
], ids=["jordan", "nilpotent", "jordan_plus_simple"])
def test_defective_eigenvalues_are_dropped_not_certified(coupling):
    for dec in (eig(as_operator(coupling)), real_sectors(coupling)):
        assert not dec.complete
        assert all(abs(s.eigenvalue) > 1 for s in dec)    # only the simple eta = 2 survives
        [(eta, condition)] = dec.dropped
        assert eta == 0 and condition > operators.DEFAULT_MAX_SECTOR_CONDITION


# --------------------------------------------------------------------------
# offblock_norm


def _two_plus_two_sectors():
    hm = np.diag([0.0, 0.0, 1.0, 1.0])
    return eig(as_operator(hm))


def test_offblock_zero_for_block_diagonal(rng):
    sectors = _two_plus_two_sectors()
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = random_hermitian(rng, 2)
    a[2:, 2:] = random_hermitian(rng, 2)
    assert offblock_norm(a, sectors) == 0.0


def test_offblock_single_block_equals_frobenius(rng):
    sectors = _two_plus_two_sectors()
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = np.zeros((4, 4), dtype=complex)
    a[:2, 2:] = block
    assert offblock_norm(a, sectors) == pytest.approx(np.linalg.norm(block), abs=1e-14)


def test_offblock_matches_double_loop_oracle(rng):
    sectors = _two_plus_two_sectors()
    a = random_hermitian(rng, 4)
    total = 0.0
    for i, si in enumerate(sectors):
        for j, sj in enumerate(sectors):
            if i != j:
                total += np.linalg.norm(
                    si.projector.matrix @ a @ sj.projector.matrix) ** 2
    assert offblock_norm(a, sectors) == pytest.approx(math.sqrt(total), abs=1e-13)


def test_offblock_dimension_mismatch():
    with pytest.raises(ValidationError):
        offblock_norm(np.eye(3), _two_plus_two_sectors())


def test_block_diagonal_part_idempotent(rng):
    sectors = _two_plus_two_sectors()
    a = random_hermitian(rng, 4)
    once = block_diagonal_part(a, sectors)
    assert np.array_equal(block_diagonal_part(once, sectors), once)


# --------------------------------------------------------------------------
# matrix literal files


def test_matrix_file_roundtrip(tmp_path, rng):
    m = random_hermitian(rng, 3)
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.matrix, m)
    assert back.hermitian


def test_matrix_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("dim 2\n0 0 1 0\n")
    with pytest.raises(ValidationError, match="missing"):
        load_matrix(p)
    p.write_text("dim 2\n0 0 1 0\n0 0 2 0\n0 1 0 0\n1 0 0 0\n1 1 0 0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_matrix(p)
    p.write_text("size 2\n")
    with pytest.raises(ValidationError, match="dim"):
        load_matrix(p)
    p.write_text("dim 2\n0 5 1 0\n")
    with pytest.raises(ValidationError, match="out of range"):
        load_matrix(p)


# Each file below reaches the decision (and, for a rejection, the exact
# line-numbered message) that the line-by-line parser gives on it.
ENTRIES = "0 0 1 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n"
MATRIX_FILES = [
    ("dim 2\n# entries follow\n" + ENTRIES,
     ":2: expected 'row col re im', got '# entries follow'"),
    ("dim 2\n0 0 1 0\n# 0 1 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n",
     ":3: could not parse entry '# 0 1 0'"),
    ("dim 2\n0 0 1 0\n0 1.0 0 0\n1 0 0 0\n1 1 1 0\n",
     ":3: could not parse entry '0 1.0 0 0'"),
    ("dim 2\n0 0 1 0\n0 1 0 0\n1e0 0 0 0\n1 1 1 0\n",
     ":4: could not parse entry '1e0 0 0 0'"),
    ("dim 2\n0 0 1 0\n0 +1 0 0\n+1 0 0 0\n1 1 1 0\n", [[1, 0], [0, 1]]),
    ("dim 2\n0 0 1_0 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n", [[10, 0], [0, 1]]),
    ("dim 2\n0 0 1 0\n0 1 nan 0\n1 0 0 0\n1 1 1 0\n", ":3: non-finite entry"),
    ("dim 2\n0 0 1 0\n0 1 0 0\n1 0 0 -inf\n1 1 1 0\n", ":4: non-finite entry"),
    ("\n  \ndim 2\n\n0 0 1 0\n   \n0 1 0.5 0\n1 0 0.5 0\n\n1 1 1 0\n\n",
     [[1, 0.5], [0.5, 1]]),
    ("dim 2\n\n0 0 1 0\n\n0 1 0 0 7\n1 0 0 0\n1 1 1 0\n",
     ":5: expected 'row col re im', got '0 1 0 0 7'"),
    ("dim 2\n0 0 1 0\n0 1 0 0\n0 0 1 0\n1 1 1 0\n", ":4: duplicate entry (0,0)"),
    ("dim 2\n" + ENTRIES + "1 1 1 0\n", ":6: duplicate entry (1,1)"),
    ("dim 2\n0 0 1 0\n0 1 0 0\n1 1 1 0\n", ": 1 of 4 entries missing"),
    ("dim 2\n0 0 1 0\n0 2 0 0\n1 0 0 0\n1 1 1 0\n",
     ":3: index (0,2) out of range for dim 2"),
    ("dim 2\n0 0 1 0\n0 1 0 0\n-1 0 0 0\n1 1 1 0\n",
     ":4: index (-1,0) out of range for dim 2"),
    ("dim 2\n0 0 nan 0\n0 5 0 0\n1 0 0 0\n1 1 1 0\n", ":2: non-finite entry"),
    ("dim 1\n0 0 2.5 0\n", [[2.5]]),
    ("dim 3\n0 0 1 0\n1 1 1 0\n", ": 7 of 9 entries missing"),
    ("dim 3\n0 0 1 0\n0 0 1 0\n", ":3: duplicate entry (0,0)"),
    ("dim 3\n0 0 1 0\n1 x 1 0\n", ":3: could not parse entry '1 x 1 0'"),
    # str.splitlines ends a line at \f (and \v \x1c \x1d \x1e), np.loadtxt does not
    ("dim 2\n0 0\f1 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n", ":2: expected 'row col re im', got '0 0'"),
    ("dim 2\r\n" + ENTRIES.replace("\n", "\r\n"), [[1, 0], [0, 1]]),
    ("\rdim 2\r" + ENTRIES.replace("\n", "\r"), [[1, 0], [0, 1]]),
    ("dim 2\n0\x1f0 1\t0\n0 1 0 0\n1 0 0 0\n1 1 1 0\x1f\n", [[1, 0], [0, 1]]),
    ("dim 2\n-0 0_0 .5 1.\n0 1 1e-3 -0.0\n1 0 0 0\n1 1 1 0\n", [[0.5 + 1j, 1e-3], [0, 1]]),
    ("dim 2\n0 0 1 0\n0 0x1 0 0\n1 0 0 0\n1 1 1 0\n", ":3: could not parse entry '0 0x1 0 0'"),
    ("dim 2\n0 0 1j 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n", ":2: could not parse entry '0 0 1j 0'"),
    ("dim 2\n0 0 1,0 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n", ":2: could not parse entry '0 0 1,0 0'"),
    ("dim 2\n0 0 infinity 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n", ":2: non-finite entry"),
    ("\x1f\ndim 2\n" + ENTRIES, [[1, 0], [0, 1]]),          # str.strip strips \x1f
]


def test_short_matrix_file_is_refused_in_memory_of_its_size(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("dim 3000\n0 0 1 0")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=": 8999999 of 9000000 entries missing$"):
            load_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_header_without_entries_is_refused_without_a_warning(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("dim 2\n \n")             # loadtxt would warn of a file without data
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=": 4 of 4 entries missing$"):
            load_matrix(p)
    assert seen == []


@pytest.mark.parametrize("name", ["m.gz", "m.bz2", "m.xz", "m.lzma"])
def test_matrix_file_with_a_compression_suffix_is_read_as_text(tmp_path, name):
    p = tmp_path / name                      # loadtxt would try to decompress it
    p.write_text("dim 2\n" + ENTRIES)
    assert np.array_equal(load_matrix(p).matrix, np.eye(2))


@pytest.mark.parametrize("text, outcome", MATRIX_FILES)
def test_matrix_file_decisions(tmp_path, text, outcome):
    p = tmp_path / "m.txt"
    p.write_text(text)
    if isinstance(outcome, str):
        with pytest.raises(ValidationError) as info:
            load_matrix(p)
        assert str(info.value) == f"{p}{outcome}"
    else:
        assert np.array_equal(load_matrix(p).matrix, np.array(outcome, dtype=complex))


def test_matrix_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    d = 200
    m = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-150, 150, (d, d)) \
        + 1j * rng.standard_normal((d, d))
    m[0, :4] = [0.0, -0.0, complex(-0.0, -0.0), complex(5e-324, -0.0)]
    path = tmp_path / "m.txt"
    save_matrix(path, m)
    back = load_matrix(path).matrix
    assert np.array_equal(back.view(np.int64), m.view(np.int64))
    lines = path.read_text().splitlines()
    by_line = operators._parse_entries(path, list(enumerate(lines[1:], start=2)), d)
    assert np.array_equal(back.view(np.int64), by_line.view(np.int64))


def _whole_text_matrix(path, d: int) -> np.ndarray:
    """The reference reader: the whole text split by ``str.splitlines``, a
    ``dim d`` header, every entry parsed line by line."""
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from None
    k0 = next(k for k, ln in enumerate(lines, start=1) if ln.strip())
    assert lines[k0 - 1].split() == ["dim", str(d)]
    entries = [(k, ln.strip()) for k, ln in enumerate(lines[k0:], start=k0 + 1) if ln.strip()]
    return operators._parse_entries(path, entries, d)


def _bits_or_message(read):
    try:
        return read().view(np.int64).tolist()
    except ValidationError as exc:
        return str(exc)


SPLITTERS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"]


@st.composite
def mutated_matrix_files(draw):
    """A saved matrix file's text with its lines shuffled and respelled:
    field gaps and line tails from tabs and the six separators above,
    signs and underscores in fields, ``\\n``, ``\\r`` or ``\\r\\n`` line
    ends, blank lines before the header and between entries, a separator
    or a non-ASCII character inserted past the header, an entry dropped or
    doubled.  A per-file rate keeps about half of the files well formed."""
    d = draw(st.integers(1, 3))
    rate = draw(st.sampled_from([0, 1, 5, 20]))        # percent per chance of a fault

    def fault(spelled, *faults):
        return draw(st.sampled_from(faults)) if draw(st.integers(0, 99)) < rate else spelled

    floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    entries = [[str(i), str(j), repr(draw(floats)), fault(repr(draw(floats)), "nan", "-inf")]
               for i in range(d) for j in range(d)]
    entries = draw(st.permutations(entries))
    edit = fault("none", "drop", "double")
    if edit == "drop":
        entries = entries[1:]
    elif edit == "double":
        entries = entries + [list(entries[0])]
    head = [draw(st.sampled_from(["", " ", "\t", "\x1f"])) for _ in range(draw(st.integers(0, 2)))]
    body = []
    for fields in entries:
        for k, f in enumerate(fields):
            f = draw(st.sampled_from(["", "+", "-"][:2 if k < 2 else 3])) + f if f[0] != "-" else f
            at = draw(st.integers(0, len(f)))
            fields[k] = fault(f, f[:at] + "_" + f[at:], "-" + f)
        gaps = [fault(draw(st.sampled_from([" ", "  ", "\t", " \t ", "\x1f"])), *SPLITTERS)
                for _ in range(3)]
        body.append(draw(st.sampled_from(["", " "])) + "".join(map("".join, zip(fields, gaps)))
                    + fields[3] + fault(draw(st.sampled_from(["", " ", "\t", "\x1f"])), *SPLITTERS))
        if draw(st.integers(0, 5)) == 0:
            body.append(draw(st.sampled_from(["", " ", "\t"])))
    ends = st.sampled_from(["\n", "\r", "\r\n"])
    head, body = ("".join(ln + draw(ends) for ln in lines)
                  for lines in (head + [f"dim {d}"], body))
    insert = fault(None, "\xe9", "\x85", "\xc2\xa0", *SPLITTERS)     # \xc2\xa0: UTF-8 NBSP
    if insert is not None:                  # past the header line
        at = draw(st.integers(0, len(body)))
        body = body[:at] + insert + body[at:]
    return d, head + body


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_matrix_files())
def test_matrix_file_reads_as_the_whole_text_reference(tmp_path_factory, case):
    """Every file gives the bits, or the message, of the reference reader."""
    d, text = case
    path = tmp_path_factory.getbasetemp() / "whole_text_reference.txt"
    path.write_bytes(text.encode("latin-1"))
    assert (_bits_or_message(lambda: load_matrix(path).matrix)
            == _bits_or_message(lambda: _whole_text_matrix(path, d)))


def test_projector_basis():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    p = Projector(q[:, :4] @ q[:, :4].conj().T, rank=4)
    basis = p.basis
    assert basis.shape == (6, 4)
    assert p.basis is basis and not basis.flags.writeable
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(4), 2) <= 1e-14
    assert np.linalg.norm(basis @ basis.conj().T - p.matrix, 2) <= 1e-14
    assert basis_projector(3).basis.shape == (3, 0)


# --------------------------------------------------------------------------
# bound-first invariant checks: the same decisions as the exact-SVD checks
#
# Each ``exact_*`` function below writes out the check as it reads with
# the spectral norm computed by an SVD every time; the library decides
# from Frobenius bounds first and must reach the same verdict (and raise
# the same message) on every input, including inputs built to land on
# either side of each threshold.

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)
TINY = np.finfo(float).tiny


def svd_norm(m):
    return float(np.linalg.norm(m, 2))


def hermitian_dev(m):
    return np.max(np.abs(m - m.conj().T))


def exact_is_hermitian(m):
    return bool(hermitian_dev(m) <= 1e-12 * max(svd_norm(m), TINY))


def exact_projector_error(m, rank):
    n = m.shape[0]
    if hermitian_dev(m) > 1e-12 * max(1.0, svd_norm(m)):
        return "projector is not Hermitian"
    if svd_norm(m @ m - m) > 1e-10 * n:
        return "projector is not idempotent"
    tr = m.trace().real
    if abs(tr - rank) > 1e-10 * max(1, n):
        return f"projector trace {tr:.12g} does not match rank {rank}"
    return None


def exact_density_error(m):
    scale = max(1.0, svd_norm(m))
    if hermitian_dev(m) > 1e-12 * scale * m.shape[0]:
        return "density matrix is not Hermitian"
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if evals.min() < -1e-10 * scale:
        return f"density matrix has negative eigenvalue {evals.min():.3e}"
    tr = m.trace().real
    if tr > 1.0 + 1e-10:
        return f"density matrix trace {tr:.12g} exceeds one"
    return None


def exact_resolution_error(projectors, dim):
    total = sum(projectors, np.zeros((dim, dim), dtype=complex))
    d = svd_norm(total - np.eye(dim))
    if d > 1e-10 * dim:
        return f"projectors do not resolve the identity ({d:.3e})"
    worst = 0.0
    for i, pi in enumerate(projectors):
        for pj in projectors[i + 1:]:
            worst = max(worst, svd_norm(pi @ pj))
    if worst > 1e-10:
        return f"projectors are not mutually orthogonal ({worst:.3e})"
    return None


def exact_supported(rho, p):
    return not svd_norm(rho - p @ rho @ p) > 1e-10 * max(1.0, svd_norm(rho))


def raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return None


def unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spectrum(rng, dim, kind):
    """Eigenvalues: spread, near-degenerate clusters, or one dominant
    value (then Frobenius and spectral norms nearly coincide)."""
    if kind == "spread":
        return rng.standard_normal(dim)
    if kind == "clustered":
        return rng.integers(-2, 3, dim) + 1e-9 * rng.standard_normal(dim)
    return np.concatenate([[1.0], 1e-3 * rng.standard_normal(dim - 1)])


def straddling_skew(rng, dim, size):
    """Anti-Hermitian perturbation whose Hermitian deviation
    ``max|A - A^dag|`` equals ``size``."""
    i, j = rng.integers(dim, size=2)
    a = np.zeros((dim, dim), dtype=complex)
    if i == j:
        a[i, i] = 0.5j * size
    else:
        a[i, j] = 0.5 * size
        a[j, i] = -0.5 * size
    return a


seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 9)
kinds = st.sampled_from(["spread", "clustered", "dominant"])
# ratio of the perturbation to the exact threshold: far on either side,
# inside the Frobenius band, and within rounding of the threshold itself
ratios = st.one_of(st.floats(0.05, 20.0),
                   st.floats(-1e-12, 1e-12).map(lambda x: 1.0 + x))
scales = st.sampled_from([1e-8, 1e-3, 1.0, 7.0, 1e4])


@PROPERTY
@given(seeds, dims, kinds, ratios, scales)
def test_hermitian_checks_decide_as_exact_svd(seed, dim, kind, ratio, scale):
    rng = np.random.default_rng(seed)
    u = unitary(rng, dim)
    h = (u * (scale * spectrum(rng, dim, kind))) @ u.conj().T
    h = (h + h.conj().T) / 2
    m = h + straddling_skew(rng, dim, ratio * 1e-12 * svd_norm(h))
    expected = exact_is_hermitian(m)
    assert operators.is_hermitian(m) == expected
    assert (raised(Operator, m, hermitian=True) is None) == expected
    stack = np.stack([h, m, 0 * m])
    assert operators._is_hermitian(stack).tolist() == [True, expected, True]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hermitian_slices_of_non_finite_and_overflowing_matrices():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    skew = np.array([[0, 1e-11], [0, 0]])
    stack = np.stack([h, h * np.nan, h * np.inf, 1e200 * h, 1e200 * (h + skew)])
    assert operators._is_hermitian(stack).tolist() == [True, False, False, True, False]
    assert [operators.is_hermitian(m) for m in stack] == [True, False, False, True, False]


def test_hermitian_check_of_an_overflowing_norm_decides_on_the_scaled_matrix():
    a = 1e308                       # the spectral norm of each matrix below overflows
    skewed = np.array([[a, a, a], [a, a, a], [-a, a, a]])
    with pytest.raises(ValidationError, match="matrix flagged Hermitian deviates by") as info:
        Operator(skewed, hermitian=True)
    # the message prints the scaled decision: entries 1e308 * 2**-1023, deviation 2 of them
    dev, allowed = (float(x) for x in re.findall(r"\d\.\d{3}e[+-]\d+", str(info.value)))
    assert str(info.value).endswith(" on the matrix scaled by 2**-1023")
    assert dev == float(f"{2 * (a * 2.0 ** -1023):.3e}")
    assert allowed == float(f"{1e-12 * svd_norm(skewed * 2.0 ** -1023):.3e}")
    assert not operators.is_hermitian(skewed)
    assert Operator([[a, a], [a, a]], hermitian=True).hermitian
    # a finite deviation is weighed against the norm, 2a, as it is below the overflow
    assert not operators.is_hermitian([[a, a * (1 + 1e-10)], [a, a]])
    assert operators.is_hermitian([[a, a * (1 + 1e-14)], [a, a]])


@PROPERTY
@given(seeds, dims, st.sampled_from(["hermitian", "idempotent", "trace"]), ratios,
       st.sampled_from([1.0, 3.0]))
def test_projector_decides_as_exact_svd(seed, dim, which, ratio, gain):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, dim + 1))
    q = unitary(rng, dim)[:, :rank]
    m = gain * (q @ q.conj().T)
    if which == "hermitian":
        m = m + straddling_skew(rng, dim, ratio * 1e-12 * max(1.0, svd_norm(m)))
    elif which == "idempotent":
        e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        e = (e + e.conj().T) / 2
        e *= ratio * 1e-10 * dim / svd_norm(e)
        m = m + e
    else:
        m = m * (1 + ratio * 1e-10 * max(1, dim) / max(rank, 1))
    assert raised(Projector, m, rank=rank) == exact_projector_error(m, rank)


@PROPERTY
@given(seeds, dims, st.sampled_from(["hermitian", "psd", "large"]), ratios)
def test_density_matrix_decides_as_exact_svd(seed, dim, which, ratio):
    rng = np.random.default_rng(seed)
    u = unitary(rng, dim)
    p = rng.dirichlet(np.ones(dim))
    if which == "large" and dim > 1:
        # norm above one: the scale of both checks leaves its floor
        p = np.concatenate([[1.5], -0.5 * p[1:] / p[1:].sum()])
        p[-1] -= ratio * 1e-10 * 1.5
    elif which == "psd":
        p[-1] = -ratio * 1e-10
    m = (u * p) @ u.conj().T
    m = (m + m.conj().T) / 2
    if which == "hermitian":
        m = m + straddling_skew(rng, dim, ratio * 1e-12 * max(1.0, svd_norm(m)) * dim)
    assert raised(DensityMatrix, m) == exact_density_error(m)


@PROPERTY
@given(seeds, st.integers(2, 8), st.floats(-13, -7), kinds)
def test_validate_resolution_decides_as_exact_svd(seed, dim, log_eps, kind):
    rng = np.random.default_rng(seed)
    basis = unitary(rng, dim)
    basis = basis + 10.0 ** log_eps * (rng.standard_normal((dim, dim))
                                       + 1j * rng.standard_normal((dim, dim)))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=min(2, dim - 1), replace=False))
    blocks = np.split(np.arange(dim), cuts)
    projectors = [projector_from_columns(basis[:, b]) for b in blocks]
    values = {"spread": [0.0, 1.0, 2.0], "clustered": [0.0, 1e-6, 2e-6],
              "dominant": [0.0, 1.0, 1e3]}[kind]
    dec = SectorDecomposition(
        tuple(Sector(complex(v), p) for v, p in zip(values, projectors)),
        cluster_tol=1e-9, dim=dim)
    expected = exact_resolution_error([p.matrix for p in projectors], dim)
    assert raised(dec.validate_resolution) == expected


@PROPERTY
@given(seeds, st.integers(2, 8), ratios, st.floats(0.3, 1.0))
def test_survival_support_decides_as_exact_svd(seed, dim, ratio, purity):
    rng = np.random.default_rng(seed)
    q = unitary(rng, dim)
    rank = int(rng.integers(1, dim))
    p = projector_from_columns(q[:, :rank])
    inside = q[:, 0]
    outside = q[:, rank]
    # leakage amplitude c puts ||rho - P rho P|| at about c * purity
    c = ratio * 1e-10 / purity
    psi = inside + c * outside
    psi /= np.linalg.norm(psi)
    rho_m = purity * np.outer(psi, psi.conj())
    rho_m += (1 - purity) * p.matrix / rank
    rho = DensityMatrix((rho_m + rho_m.conj().T) / 2)
    message = raised(survival_probability, rho, np.eye(dim), p)
    assert (message is None) == exact_supported(rho.matrix, p.matrix)


@PROPERTY
@given(seeds, st.integers(1, 12), st.floats(-16, -6))
def test_certificate_implies_exact_idempotency(seed, dim, log_eps):
    rng = np.random.default_rng(seed)
    v = unitary(rng, dim) + 10.0 ** log_eps * (rng.standard_normal((dim, dim))
                                               + 1j * rng.standard_normal((dim, dim)))
    rank = int(rng.integers(1, dim + 1))
    held, resolved = operators._eigh_certificate(v, rank)
    assert held or not resolved
    if held:
        for k in range(1, rank + 1):
            cols = v[:, rng.permutation(dim)[:k]]
            m = cols @ cols.conj().T
            assert svd_norm(m @ m - m) <= 1e-10 * dim
            assert raised(Projector, m, rank=k) is None
    if resolved:
        cuts = np.arange(rank, dim, rank)
        blocks = np.split(rng.permutation(dim), cuts)
        projectors = [v[:, b] @ v[:, b].conj().T for b in blocks]
        assert exact_resolution_error(projectors, dim) is None


def test_certificate_accepts_eigh_vectors_and_rejects_skewed_ones(rng):
    _, v = np.linalg.eigh(random_hermitian(rng, 200))
    assert operators._eigh_certificate(v, 1) == (True, True)
    assert operators._eigh_certificate(v, 200) == (True, False)
    assert operators._eigh_certificate(v * (1 + 1e-6), 1) == (False, False)


def test_certificate_withholds_projectors_whose_trace_would_fail(rng):
    v = unitary(rng, 9) * (1 + 1e-10)   # ||V^dag V - I||_F = 6e-10, tr(V V^dag) = 9 + 1.8e-9
    assert "trace" in raised(Projector, v @ v.conj().T, rank=9)
    assert operators._eigh_certificate(v, 9) == (False, False)
    assert operators._eigh_certificate(v, 1) == (True, False)


@pytest.mark.parametrize("values, tol, distinct", [
    ([0.0, 1e-9], 1e-9, False), ([0.0, np.nextafter(1e-9, 1)], 1e-9, True),
    ([1j, 1 + 1j, 0.5 + 1j], 0.5, False), ([0.0, 1.0, 2.0], 0.0, True),
    ([0.0, 0.0], -1.0, True), ([0.0], 1.0, True),
])
def test_decomposition_refuses_sector_eigenvalues_within_the_tolerance(values, tol, distinct):
    sectors = tuple(Sector(complex(v), basis_projector(len(values), k))
                    for k, v in enumerate(values))
    make = lambda: SectorDecomposition(sectors, cluster_tol=tol, dim=len(values))
    assert (raised(make) is None) == distinct


def test_eig_holds_sectors_by_their_basis_in_little_memory(rng):
    h = as_operator(random_hermitian(rng, 200))
    tracemalloc.start()
    try:
        dec = eig(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dec) == 200
    assert peak < 16 * 2 ** 20   # 200 dense projectors would take 122 MiB
    for s in dec:
        m = s.projector.matrix
        assert np.array_equal(m, s.projector.basis @ s.projector.basis.conj().T)
        assert not m.flags.writeable and s.projector.matrix is m
        assert raised(Projector, m, rank=s.multiplicity) is None


def test_certified_resolution_needs_no_svd(rng, monkeypatch):
    dec = eig(random_hermitian(rng, 100))
    assert len(dec) == 100
    calls = []
    real = operators.snorm
    monkeypatch.setattr(operators, "snorm", lambda a: calls.append(1) or real(a))
    dec.validate_resolution()
    assert calls == []
    assert all("matrix" not in s.projector.__dict__ for s in dec)


def test_eig_uses_one_certificate_instead_of_per_projector_svds(rng, monkeypatch):
    calls = []
    real = operators.snorm
    monkeypatch.setattr(operators, "snorm", lambda a: calls.append(1) or real(a))
    dec = eig(random_hermitian(rng, 30))
    assert len(dec) == 30
    assert calls == []  # the default tolerance from the eigenvalues; no projector SVD
    dec.validate_resolution()
    ranks = []
    real_cert = operators._eigh_certificate
    monkeypatch.setattr(operators, "_eigh_certificate",
                        lambda v, rank: ranks.append(rank) or real_cert(v, rank))
    eig(np.diag([0.0, 2.0, 0.0, 1.0, 0.0]))
    assert ranks == [3]   # certified for the largest sector


def test_eig_falls_back_and_rejects_when_eigenvectors_are_not_orthonormal(rng, monkeypatch):
    real_eigh = np.linalg.eigh

    def skewed_eigh(a):
        w, v = real_eigh(a)
        return w, v * 1.001
    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    calls = []
    real = operators.snorm
    monkeypatch.setattr(operators, "snorm", lambda a: calls.append(1) or real(a))
    with pytest.raises(ValidationError, match="not idempotent"):
        eig(random_hermitian(rng, 5))
    assert calls  # the idempotency residual went to the exact check (the tolerance needs none)


def test_eig_falls_back_and_rejects_a_resolution_of_skewed_eigenvectors(rng, monkeypatch):
    real_eigh = np.linalg.eigh

    def skewed_eigh(a):
        w, v = real_eigh(a)
        v = v + 1e-6 * np.roll(v, 1, axis=1)
        return w, v / np.linalg.norm(v, axis=0)   # unit columns: each projector passes
    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    dec = eig(random_hermitian(rng, 5))
    assert all("basis" not in s.projector.__dict__ for s in dec)   # built and checked densely
    with pytest.raises(ValidationError, match="do not resolve the identity"):
        dec.validate_resolution()


def test_import_does_not_load_scipy_linalg():
    src = str(Path(zenosim.__file__).resolve().parents[1])
    code = "import sys, zenosim; sys.exit('scipy.linalg' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_all_names_the_public_functions_and_classes_only():
    public = {name for name, value in vars(zenosim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(zenosim.__all__) == len(set(zenosim.__all__))
    assert set(zenosim.__all__) == public
