"""One decomposition per sweep grid.

The sweep tasks diagonalize each operator once per grid and work in the
sector basis that decomposition gives.  Each sector-basis form is checked
here against the dense computation it replaces, on random Hermitian and
near-degenerate couplings: the block diagnostics, the grid-shared
exponentials, the sweep-N error on the rank x rank core, the sweep-K limit
propagators and the kept-entry and block nonselective chains (against a
plain masked chain kept here as the reference), with the rules that choose
between the kept and block chains and between the blocked and per-K
limits.  The sector-transport guards (overlap tracking without an assignment solver, the step ceiling
and the finiteness of the probes) close the file.
"""

import math
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import zenosim
from zenosim import (
    CoupledHamiltonian,
    DensityMatrix,
    NumericalError,
    Operator,
    SectorDecomposition,
    SectorTrackingError,
    StepResolutionError,
    TimeDependentBundle,
    ValidationError,
    as_operator,
    decay_model,
    eig,
    expm,
    nonadiabatic_defect,
    nonselective_evolve,
    offblock_norm,
    projector_from_columns,
    propagate_td,
    pulsed_limit,
    pulsed_propagator,
    required_steps,
    snorm,
    three_level,
    zeno_propagator,
)
from zenosim import operators, pulsed, scenario
from zenosim.adiabatic import _basis_stack, _overlaps, _sector_path, _tracked_sectors
from zenosim.cli import main
from zenosim import continuous
from zenosim.continuous import _defect_sweep, _zeno_limits
from zenosim.operators import Sector, block_diagonal_part, fnorm
from zenosim.pulsed import _block_chain, _chain_power, _kept_chain, _pulsed_errors, _selective_cores

from conftest import random_hermitian

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _sizes(draw, d):
    """Random sector ranks summing to ``d``."""
    outcomes = draw(st.integers(1, d))
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=outcomes - 1,
                                max_size=outcomes - 1, unique=True)))
    return np.diff([0, *cuts, d])


@st.composite
def couplings(draw, max_dim=10):
    """``(H, H_meas)``: a random Hermitian system part and a measurement
    coupling that is nondegenerate (GUE), exactly degenerate, or
    near-degenerate (each cluster spread by up to 1e-10, far inside the
    default cluster tolerance)."""
    d = draw(st.integers(2, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gue", "degenerate", "near-degenerate"]))
    if kind == "gue":
        hm = random_hermitian(rng, d)
    else:
        ranks = _sizes(draw, d)
        eta = np.repeat(np.arange(len(ranks), dtype=float), ranks)
        if kind == "near-degenerate":
            eta = eta + rng.uniform(-1e-10, 1e-10, d)
        v = _unitary(rng, d)
        hm = (v * eta) @ v.conj().T
        hm = (hm + hm.conj().T) / 2
    h = random_hermitian(rng, d) * draw(st.floats(0.1, 3.0))
    return as_operator(h), as_operator(hm), rng


# --------------------------------------------------------------------------
# sectors of eig carry their eigh columns; resolution checked once


@PROPERTY
@given(couplings())
def test_eig_sectors_resolve_the_identity_with_their_eigh_columns(problem):
    _, hm, _ = problem
    sectors = eig(hm)
    sectors.validate_resolution()
    d = sectors.dim
    assert sectors.completeness_defect() <= 1e-10 * d
    assert sectors.orthogonality_defect() <= 1e-10
    for s in sectors:
        q = s.projector.basis
        assert q.shape == (d, s.multiplicity) and not q.flags.writeable
        assert np.array_equal(q @ q.conj().T, s.projector.matrix)
        assert np.max(np.abs(q.conj().T @ q - np.eye(s.multiplicity))) <= 1e-13


def test_eig_sector_basis_needs_no_further_eigh(rng, monkeypatch):
    sectors = eig(random_hermitian(rng, 12))

    def no_eigh(a):
        raise AssertionError("eigh called")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert all(s.projector.basis.shape == (12, 1) for s in sectors)


def test_passed_resolution_is_recorded_and_a_failed_one_is_not(rng, monkeypatch):
    calls = []
    real = operators._norm_exceeds
    monkeypatch.setattr(operators, "_norm_exceeds",
                        lambda r, b: calls.append(1) or real(r, b))
    certified = eig(random_hermitian(rng, 6))
    certified.validate_resolution()
    assert calls == []              # eig recorded its certified resolution
    sectors = SectorDecomposition(certified.sectors, certified.cluster_tol, 6)
    sectors.validate_resolution()
    assert calls
    calls.clear()
    sectors.validate_resolution()
    assert calls == []

    half = SectorDecomposition((sectors.sectors[0],), sectors.cluster_tol, 6)
    for _ in range(2):
        with pytest.raises(ValidationError, match="do not resolve the identity"):
            half.validate_resolution()


# --------------------------------------------------------------------------
# block diagnostics through Q_n^dag A Q_n


@PROPERTY
@given(couplings(), st.booleans(), st.floats(1e-3, 1e3))
def test_block_diagnostics_match_the_dense_sandwich(problem, from_columns, scale):
    _, hm, rng = problem
    sectors = eig(hm)
    d = sectors.dim
    if from_columns:  # projectors whose basis comes from eigh(P) on first use
        sectors = SectorDecomposition(
            tuple(Sector(s.eigenvalue, projector_from_columns(s.projector.basis))
                  for s in sectors), sectors.cluster_tol, d)
    a = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    dense = sum(s.projector.matrix @ a @ s.projector.matrix for s in sectors)
    bound = 1e-12 * snorm(a)
    assert np.max(np.abs(block_diagonal_part(a, sectors) - dense)) <= bound
    assert abs(offblock_norm(a, sectors) - fnorm(a - dense)) <= bound


# --------------------------------------------------------------------------
# exponentials shared over a grid


@PROPERTY
@given(couplings(), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6))
def test_grid_shared_expm_is_bit_identical_to_a_fresh_call(problem, ts):
    h, _, _ = problem
    shared = [expm(h, t).matrix for t in ts]
    fresh = [expm(Operator(h.matrix.copy(), hermitian=True), t).matrix for t in ts]
    assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))


def test_one_eigh_serves_every_exponential_of_an_operator(rng, monkeypatch):
    h = as_operator(random_hermitian(rng, 5))
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real(a))
    for n in (1, 2, 4, 8):
        expm(h, 1.0 / n)
    assert len(calls) == 1
    with pytest.raises(ValidationError, match="requires a Hermitian operator"):
        Operator(np.array([[0, 1], [0, 0]]))._eigh


# --------------------------------------------------------------------------
# sweep-N on the rank x rank core


@PROPERTY
@given(couplings(), st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True),
       st.floats(0.0, 3.0), st.data())
def test_core_errors_match_the_full_dimension_difference(problem, ns, t, data):
    h, hm, _ = problem
    sectors = eig(hm)
    p = sectors.sectors[data.draw(st.integers(0, len(sectors) - 1))].projector
    hk = h.matrix + hm.matrix
    got = _pulsed_errors(as_operator(hk), p, ns, t)
    lim = pulsed_limit(hk, p, t).matrix
    want = [snorm(pulsed_propagator(hk, p, n, t).matrix - lim) for n in ns]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


@PROPERTY
@given(couplings(), st.integers(1, 200), st.floats(0.0, 20.0), st.data())
def test_selective_chain_contracts(problem, n, t, data):
    h, hm, _ = problem
    sectors = eig(hm)
    p = sectors.sectors[data.draw(st.integers(0, len(sectors) - 1))].projector
    v = pulsed_propagator(h.matrix + hm.matrix, p, n, t).matrix
    assert snorm(v) <= 1.0 + 1e-12 * p.dim
    assert snorm(v - p.matrix @ v @ p.matrix) <= 1e-12


def _stepwise_core(h, p, n, t):
    """``[Q^dag U(t/N) Q]^N`` by N - 1 multiplications of the step: the
    reference for the power blocks."""
    q = p.basis
    step = q.conj().T @ expm(h, t / n).matrix @ q
    v = step
    for _ in range(n - 1):
        v = step @ v
    return v


@PROPERTY
@given(st.integers(1, 12), st.integers(0, 3), st.integers(1, 300), st.floats(0.0, 3.0),
       st.integers(0, 2**32 - 1))
@example(2, 1, 63, 1.0, 0)
@example(2, 1, 64, 1.0, 0)
@example(5, 0, 65, 2.0, 1)
@example(12, 3, 128, 3.0, 2)
@example(1, 2, 129, 0.5, 3)
def test_selective_power_blocks_match_the_stepwise_chain(rank, extra, n, t, seed):
    rng = np.random.default_rng(seed)
    d = rank + extra
    h = as_operator(random_hermitian(rng, d))
    p = projector_from_columns(_unitary(rng, d)[:, :rank])
    [core] = _selective_cores(h, p, [n], t)
    assert np.max(np.abs(core - _stepwise_core(h, p, n, t))) <= 1e-12


def _spy_contraction(monkeypatch):
    calls, enforce = [], pulsed._enforce_contraction

    def spy(v, dim):
        calls.append(snorm(v))
        return enforce(v, dim)
    monkeypatch.setattr(pulsed, "_enforce_contraction", spy)
    return calls


def test_power_blocks_refuse_a_gain_at_the_first_monitor(monkeypatch):
    calls = _spy_contraction(monkeypatch)
    step = (1 + 1e-9) * _unitary(np.random.default_rng(3), 2)
    with pytest.raises(NumericalError, match=r"^pulsed chain lost contractivity \(norm "):
        _chain_power(step, 200, 2)
    assert len(calls) == 1 and calls[0] > 1 + 6e-8          # (1 + 1e-9)^64


def test_power_blocks_renormalize_a_roundoff_gain_silently(monkeypatch):
    calls = _spy_contraction(monkeypatch)
    u = _unitary(np.random.default_rng(4), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = _chain_power((1 + 1e-15) * u, 200, 2)
    assert len(calls) == 4 and max(calls) > 1.0             # three blocks and the end
    assert snorm(v) <= 1.0 + 1e-15
    assert np.max(np.abs(v - np.linalg.matrix_power(u, 200))) <= 1e-12


def test_core_errors_refuse_a_non_hermitian_hamiltonian():
    hk = decay_model(1.0, 1.0, 2.0)
    p = projector_from_columns(np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(ValidationError, match="requires a Hermitian Hamiltonian"):
        _pulsed_errors(hk.total(), p, [4], 1.0)


# --------------------------------------------------------------------------
# sweep-K limit from the blocked Hamiltonian


@PROPERTY
@given(couplings(), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4),
       st.floats(0.0, 2.0))
def test_blocked_limits_match_zeno_propagator(problem, ks, t):
    h, hm, _ = problem
    hk = CoupledHamiltonian(h, hm, 1.0)
    sectors = eig(hm)
    hdiag = sum(s.projector.matrix @ h.matrix @ s.projector.matrix for s in sectors)
    for k, limit in zip(ks, _zeno_limits(hk, t, ks, sectors)):
        want = expm(Operator(hdiag + k * hm.matrix, hermitian=True), t).matrix
        assert np.max(np.abs(limit - want)) <= 1e-12


@pytest.mark.parametrize("h, k, message", [
    (np.diag([1.0, 1e-13j]), 0.0,                   # Hermitian, but not its second block
     r"^matrix flagged Hermitian deviates by 2\.000e-13 \(allowed 1\.000e-25\)$"),
    (np.diag([1.0, 0.0]), 1e308, r"^operator contains NaN or Inf entries$"),
])
def test_blocked_limits_check_each_block_as_an_operator(h, k, message):
    hk = CoupledHamiltonian(as_operator(h, hermitian=True), as_operator(np.diag([0.0, 2.0])), 1.0)
    with pytest.raises(ValidationError, match=message), np.errstate(over="ignore"):
        list(_zeno_limits(hk, 1.0, [k], zenosim.zeno_sectors(hk)))


def _spy_blocked(monkeypatch):
    """Count the sector-block exponentials of the limits: one per K on the
    block route, none on the dense one (whose blocked Hamiltonian is formed
    inside ``operators``)."""
    calls = []
    real = continuous._sector_columns
    monkeypatch.setattr(continuous, "_sector_columns",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_large_hermitian_sweeps_take_the_blocked_limits(rng, monkeypatch):
    d = 40
    v = _unitary(rng, d)
    hm = (v * np.repeat([0.0, 1.0, 2.0, 3.0], d // 4)) @ v.conj().T
    hk = CoupledHamiltonian(as_operator(random_hermitian(rng, d)),
                            as_operator((hm + hm.conj().T) / 2), 1.0)
    sectors = eig(hk.h_meas)
    ks = [10.0, 20.0, 40.0]
    calls = _spy_blocked(monkeypatch)
    got = _defect_sweep(hk, 1.0, ks, sectors)
    assert len(calls) == len(ks)
    want = [nonadiabatic_defect(hk.with_coupling(k), 1.0, sectors=sectors) for k in ks]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def _system(d, skew=0.0):
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, d) - 1j * skew * np.eye(d)
    v = _unitary(rng, d)
    hm = (v * np.repeat([0.0, 1.0], d // 2)) @ v.conj().T
    return CoupledHamiltonian(as_operator(h), as_operator((hm + hm.conj().T) / 2), 1.0)


def _incomplete(hk):
    sectors = eig(hk.h_meas)
    return SectorDecomposition(sectors.sectors[:1], sectors.cluster_tol, hk.dim,
                               complete=False)


@pytest.mark.parametrize("hk, sectors", [
    (decay_model(1.0, 1.0, 2.0), None),             # non-Hermitian H at d = 3
    (_system(40, skew=0.1), None),                  # non-Hermitian H
    (zenosim.cavity(1.0, 1.0, 4).hk, None),         # non-Hermitian coupling
    (_system(40), _incomplete(_system(40))),        # incomplete decomposition
])
def test_other_inputs_keep_zeno_propagator(hk, sectors, monkeypatch):
    sectors = sectors or zenosim.zeno_sectors(hk)
    ks = [1.0, 4.0]
    calls = _spy_blocked(monkeypatch)
    got = _defect_sweep(hk, 1.5, ks, sectors)
    assert calls == []
    assert got == [nonadiabatic_defect(hk.with_coupling(k), 1.5, sectors=sectors)
                   for k in ks]


@pytest.mark.parametrize("hk", [three_level(1.0, 1.0),                   # three rank-1
                                zenosim.four_level(1.0, 2.0, 0.5).inner_regime()])  # ranks 1, 2, 1
def test_desk_sweeps_take_the_blocked_limits(hk, monkeypatch):
    sectors = zenosim.zeno_sectors(hk)
    ks = [1.0, 4.0, 16.0]
    calls = _spy_blocked(monkeypatch)
    got = _defect_sweep(hk, 1.5, ks, sectors)
    assert len(calls) == len(ks)
    want = [nonadiabatic_defect(hk.with_coupling(k), 1.5, sectors=sectors) for k in ks]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_zeno_limits_of_rank_one_sectors_take_no_full_dimension_exponential(rng, monkeypatch):
    d = 200
    h, hm = as_operator(random_hermitian(rng, d)), as_operator(random_hermitian(rng, d))
    sectors = eig(hm)
    assert len(sectors) == d
    hk, p = CoupledHamiltonian(h, hm, 10.0), sectors.sectors[0].projector
    rho0 = DensityMatrix.pure(np.ones(d))
    sizes = []

    def spy(real):
        return lambda a, *rest: sizes.append(np.shape(a)[-1]) or real(a, *rest)
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "expm", spy(scipy.linalg.expm))
    for module in (operators, pulsed, continuous):
        monkeypatch.setattr(module, "expm", spy(module.expm))
    for limit in (lambda: zenosim.nonselective_limit(h, sectors, 0.9, rho0),
                  lambda: pulsed_limit(h, p, 0.9), lambda: zeno_propagator(hk, 0.9, sectors)):
        sizes.clear()
        limit()
        assert sizes and d not in sizes


# --------------------------------------------------------------------------
# nonselective chains against the dense masked chain


def _dense_chain(u, rho, sizes, n, project_final):
    """The nonselective chain in the sector basis with the sandwich map as a
    mask and the per-step trace rule: the reference for both chains."""
    label = np.repeat(np.arange(len(sizes)), sizes)
    mask = label[:, None] == label[None, :]
    rho = rho * mask
    prev = rho.trace().real
    for k in range(n):
        rho = u @ rho @ u.conj().T
        if k < n - 1 or project_final:
            rho = rho * mask
        tr = rho.trace().real
        if abs(tr - prev) > 1e-12 * max(1.0, abs(prev)):
            raise NumericalError(f"step {k} changed the trace by {abs(tr - prev):.3e}")
        prev = tr
    return rho


def _chain_input(data, d):
    """Sector ranks in the order ``_sizes`` draws them (unequal and unsorted
    in general), a random unitary and a random full-rank state."""
    sizes = _sizes(data.draw, d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return sizes, _unitary(rng, d), a @ a.conj().T / np.trace(a @ a.conj().T).real


@PROPERTY
@given(st.integers(2, 40), st.integers(1, 20), st.booleans(), st.data())
def test_blockwise_step_matches_the_dense_step(d, n, project_final, data):
    sizes, u, rho = _chain_input(data, d)
    dense = _dense_chain(u, rho, sizes, n, project_final)
    block = _block_chain(u, rho, sizes, n, project_final)
    label = np.repeat(np.arange(len(sizes)), sizes)
    start = float((rho * (label[:, None] == label[None, :])).trace().real)
    assert np.max(np.abs(block - dense)) <= 1e-13
    assert abs(block.trace().real - start) <= 1e-13


# Chunk budgets for s kept entries (16 s bytes an iterate, 16 s^2 a power):
# one step per chunk, two fixed budgets, power blocks of 2 steps, blocks of
# 3 steps (4 at s = 2) in chunks of 3s + 2, so that a shorter last run occurs,
# and blocks of a whole chunk.
_CHUNK_BUDGETS = {"one step": lambda s: 1, "1000 B": lambda s: 1000,
                  "default": lambda s: pulsed._KEPT_CHUNK_BYTES,
                  "2 powers": lambda s: 32 * s * s, "3 powers": lambda s: 16 * s * (3 * s + 2),
                  "whole chunk": lambda s: 1024 * s * s}


@PROPERTY
@given(st.integers(2, 40), st.integers(1, 40), st.booleans(),
       st.sampled_from(sorted(_CHUNK_BUDGETS)), st.data())
def test_kept_chain_matches_the_dense_chain(d, n, project_final, budget, data):
    sizes, u, rho = _chain_input(data, d)
    dense = _dense_chain(u, rho, sizes, n, project_final)
    with pytest.MonkeyPatch.context() as mp:
        s = int(np.sum(np.square(sizes)))
        mp.setattr(pulsed, "_KEPT_CHUNK_BYTES", _CHUNK_BUDGETS[budget](s))
        kept = _kept_chain(u, rho, sizes, n, project_final)
    assert np.max(np.abs(kept - dense)) <= 1e-12


@pytest.mark.parametrize("sizes", [[1, 1, 1], [2, 1], [1, 2, 1, 1]])
@pytest.mark.parametrize("project_final", [True, False])
def test_kept_chain_reports_the_dense_chains_trace_error(sizes, project_final):
    d = sum(sizes)
    u = np.eye(d) + 0j
    u[[0, -1], [0, -1]] = np.cos(0.01)
    u[0, -1], u[-1, 0] = -np.sin(0.01), np.sin(0.01)
    u[-1] *= math.sqrt(1 + 2e-11)                  # a gain on the last level
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    # the gain shows after a few hundred steps; a larger one in the first step,
    # which with one measurement and no final projection is the full product
    for u, n, first in ((u, 3000, False), (1.001 * u, 1, True)):
        steps = []
        for chain in (_dense_chain, _kept_chain, _block_chain):
            with pytest.raises(NumericalError, match=r"^step \d+ changed the trace by ") as info:
                chain(u, rho, sizes, n, project_final)
            steps.append(int(str(info.value).split()[1]))
        assert steps[0] == steps[1] == steps[2] and (steps[0] == 0) == first


def test_long_kept_chain_holds_bounded_memory():
    u = _unitary(np.random.default_rng(5), 3)
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    tracemalloc.start()
    try:
        out = _kept_chain(u, rho, [1, 1, 1], 10 ** 5, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(out.trace().real - 1.0) <= 1e-9
    assert peak <= 4 * pulsed._KEPT_CHUNK_BYTES


# --------------------------------------------------------------------------
# nonselective_evolve: the kept chain while s = sum r_c^2 <= 2d, else the block chain


def _spy_chain(monkeypatch, name):
    calls = []
    real = getattr(pulsed, name)
    monkeypatch.setattr(pulsed, name, lambda *a: calls.append(1) or real(*a))
    return calls


def _measured(d, outcomes):
    rng = np.random.default_rng(3)
    v = _unitary(rng, d)
    hm = (v * np.repeat(np.arange(outcomes, dtype=float), d // outcomes)) @ v.conj().T
    return CoupledHamiltonian(as_operator(random_hermitian(rng, d)),
                              as_operator((hm + hm.conj().T) / 2), 2.0)


def _takes(chain, hk, monkeypatch, project_final):
    """Run an 8-step ``nonselective_evolve`` of ``hk``, assert that it took
    ``chain`` and not the other one, and compare it with the dense chain."""
    sectors = zenosim.zeno_sectors(hk)
    other = "_block_chain" if chain == "_kept_chain" else "_kept_chain"
    calls, other_calls = _spy_chain(monkeypatch, chain), _spy_chain(monkeypatch, other)
    rho0 = DensityMatrix.pure(np.ones(hk.dim))
    out = nonselective_evolve(hk.total(), sectors, 8, 1.0, rho0, project_final=project_final)
    assert calls == [1] and other_calls == []
    ps = [s.projector.matrix for s in sectors]
    u = expm(hk.total(), 1.0 / 8).matrix
    rho = sum(p @ rho0.matrix @ p for p in ps)
    for k in range(8):
        rho = u @ rho @ u.conj().T
        if k < 7 or project_final:
            rho = sum(p @ rho @ p for p in ps)
    assert np.max(np.abs(out.matrix - rho)) <= 1e-12
    assert abs(out.trace - 1.0) <= 1e-12


@pytest.mark.parametrize("project_final", [True, False])
def test_large_inputs_take_the_blockwise_step(monkeypatch, project_final):
    _takes("_block_chain", _measured(64, 2), monkeypatch, project_final)


@pytest.mark.parametrize("hk", [_measured(4, 1),         # one sector
                                _measured(32, 2),
                                _measured(64, 8),
                                _measured(3, 1),         # one rank-3 sector, s = 9 > 2d = 6
                                _measured(64, 16)])      # 16 sectors of rank 4
def test_other_inputs_take_the_block_chain(hk, monkeypatch):
    _takes("_block_chain", hk, monkeypatch, True)


@pytest.mark.parametrize("d, outcomes", [(3, 3), (64, 64), (64, 32)])
def test_few_kept_entries_take_the_kept_step(d, outcomes, monkeypatch):
    hk = three_level(1.0, 2.0) if d == 3 else _measured(d, outcomes)
    _takes("_kept_chain", hk, monkeypatch, False)


# --------------------------------------------------------------------------
# chain steps formed from the generator's eigenbasis, once per grid


def _rotated_selective(h, p, n, t):
    """The selective chain with its step rotated from the full exponential,
    ``Q^dag expm(H, t/N) Q``."""
    q = p.basis
    step = q.conj().T @ expm(h, t / n).matrix @ q
    v = step.copy()
    for k in range(1, n):
        v = step @ v
        if k % pulsed._MONITOR_STRIDE == 0:
            v = pulsed._enforce_contraction(v, p.dim)
    return q @ pulsed._enforce_contraction(v, p.dim) @ q.conj().T


def _rotated_nonselective(h, sectors, n, t, rho0, project_final):
    """The nonselective chain with its step rotated from the full
    exponential, ``W^dag expm(H, t/n) W``, and ``rho0`` rotated per call."""
    w, sizes, _ = sectors._frame
    u = w.conj().T @ expm(h, t / n).matrix @ w
    chain = _kept_chain if sum(r * r for r in sizes) <= 2 * sectors.dim else _block_chain
    rho = chain(u, w.conj().T @ rho0.matrix @ w, sizes, n, project_final)
    rho = w @ rho @ w.conj().T
    return (rho + rho.conj().T) / 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(couplings(max_dim=40), st.integers(1, 40), st.floats(0.0, 3.0), st.booleans(),
       st.data())
def test_eigenbasis_steps_match_the_rotated_exponential(problem, n, t, project_final, data):
    h, hm, _ = problem
    hk = as_operator(h.matrix + hm.matrix)
    sectors = eig(hm)
    p = sectors.sectors[data.draw(st.integers(0, len(sectors) - 1))].projector
    got = pulsed_propagator(hk, p, n, t).matrix
    assert np.max(np.abs(got - _rotated_selective(hk, p, n, t))) <= 1e-13
    rho0 = DensityMatrix.pure(np.ones(hk.dim))
    out = nonselective_evolve(hk, sectors, n, t, rho0, project_final=project_final).matrix
    want = _rotated_nonselective(hk, sectors, n, t, rho0, project_final)
    assert np.max(np.abs(out - want)) <= 1e-13


@pytest.mark.parametrize("d, outcomes", [(3, 3), (8, 2)])    # kept chain, block chain
@pytest.mark.parametrize("project_final", [True, False])
def test_non_hermitian_nonselective_step_is_the_rotated_exponential(d, outcomes, project_final):
    hk = _measured(d, outcomes)
    leak = np.zeros((d, d))
    leak[0, 1] = 3e-12 * snorm(hk.total())       # above the Hermiticity tolerance
    h = as_operator(hk.total().matrix + leak)
    assert not h.hermitian
    sectors, rho0 = zenosim.zeno_sectors(hk), DensityMatrix.pure(np.ones(d))
    out = nonselective_evolve(h, sectors, 4, 0.1, rho0, project_final=project_final)
    want = _rotated_nonselective(h, sectors, 4, 0.1, rho0, project_final)
    assert np.array_equal(out.matrix, want)


@pytest.mark.parametrize("d, outcomes", [(3, 3), (8, 2)])
def test_nonselective_runner_grid_is_the_per_n_calls(tmp_path, monkeypatch, d, outcomes):
    hk = _measured(d, outcomes)
    zenosim.save_matrix(tmp_path / "h.txt", hk.h)
    zenosim.save_matrix(tmp_path / "hm.txt", hk.h_meas)
    path = tmp_path / "scn.yaml"
    path.write_text("model: {kind: matrix, h_file: h.txt, hmeas_file: hm.txt, K: 2.0}\n"
                    "task: nonselective\ntime: {t_max: 3.0, samples: 2}\n"
                    "sweep: {N: [4, 16, 64, 256]}\n")
    shipped = Path(zenosim.__file__).resolve().parents[2] / "scenarios"
    for scn in (scenario.load_scenario(path),
                scenario.load_scenario(shipped / "nonselective_three_level.yaml")):
        grid = scenario.run(scn).values
        monkeypatch.setattr(scenario, "_nonselective_grid",
                            lambda h, sectors, ns, t, rho0, project_final: [
                                y for n in ns for y in pulsed._nonselective_grid(
                                    h, sectors, [n], t, rho0, project_final)])
        per_n = scenario.run(scn).values
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(grid, per_n))


@pytest.mark.parametrize("d, outcomes", [(3, 3), (200, 4)])    # rank-1 sectors, rank-50 sectors
def test_nonselective_rows_are_read_as_the_rotated_back_states_are(tmp_path, monkeypatch,
                                                                  d, outcomes):
    """The runner reads the off-block norm and the trace off the frame matrix
    ``W^dag rho W``; the public route rotates each state back and measures it."""
    hk = _measured(d, outcomes)
    zenosim.save_matrix(tmp_path / "h.txt", hk.h)
    zenosim.save_matrix(tmp_path / "hm.txt", hk.h_meas)
    path = tmp_path / "scn.yaml"
    path.write_text("model: {kind: matrix, h_file: h.txt, hmeas_file: hm.txt, K: 2.0}\n"
                    "task: nonselective\ntime: {t_max: 1.0, samples: 2}\n"
                    "sweep: {N: [4, 16, 64]}\n")
    calls, grid = [], scenario._nonselective_grid
    monkeypatch.setattr(scenario, "_nonselective_grid",
                        lambda *a, **k: calls.append((a, k)) or grid(*a, **k))
    ns, norms, traces = scenario.run(scenario.load_scenario(path)).values
    [((h, sectors, grid_ns, t, rho0), kwargs)] = calls
    assert kwargs == {"project_final": False}
    states = [nonselective_evolve(h, sectors, n, t, rho0, project_final=False) for n in grid_ns]
    assert list(ns) == grid_ns
    np.testing.assert_allclose(norms, [offblock_norm(rho, sectors) for rho in states],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(traces, [rho.trace for rho in states], rtol=1e-12, atol=0)


@pytest.mark.parametrize("chain, sizes", [(_kept_chain, [1, 1, 1]), (_block_chain, [2, 2])])
def test_a_frame_block_with_a_negative_eigenvalue_is_refused(chain, sizes):
    """Positivity is checked on the blocks before the last, unprojected step,
    at the :class:`DensityMatrix` tolerance and with its message."""
    d = sum(sizes)
    mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    for low, refused in ((-1e-9, True), (-5e-11, False)):
        frame = np.diag([1.0 - low, low] + [0.0] * (d - 2)).astype(complex)
        if sizes[0] == 2:                   # one block holds both eigenvalues
            frame[:2, :2] = mix @ frame[:2, :2] @ mix
        if refused:
            with pytest.raises(ValidationError) as info:
                chain(np.eye(d, dtype=complex), frame, sizes, 1, False)
            assert str(info.value) == "density matrix has negative eigenvalue -1.000e-09"
        else:
            assert np.array_equal(chain(np.eye(d, dtype=complex), frame, sizes, 1, False), frame)


# --------------------------------------------------------------------------
# sector transport: tracking, step ceiling, finite probes


def _rotation(i, j, angle):
    g = np.zeros((3, 3), dtype=complex)
    g[i, j], g[j, i] = -1j, 1j
    return expm(g, angle).matrix


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_tracking_matches_the_optimal_assignment(seed, angle):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    d = 5
    v = _unitary(rng, d)
    hm = (v * np.array([0.0, 0.0, 1.0, 2.0, 2.0])) @ v.conj().T
    g = random_hermitian(rng, d)
    r = expm(g, angle).matrix
    prev, current = eig(as_operator(hm)), eig(as_operator(r @ hm @ r.conj().T))
    perm = rng.permutation(len(current))
    current = SectorDecomposition(tuple(current.sectors[j] for j in perm),
                                  current.cluster_tol, d)
    overlap = np.array([[np.trace(p.matrix @ c.matrix).real / p.rank
                         for c in current.projectors] for p in prev.projectors])
    _, cols = linear_sum_assignment(-overlap)
    if overlap[np.arange(len(cols)), cols].min() < 0.5:
        with pytest.raises(SectorTrackingError):
            _tracked_sectors(prev, current)
        return
    tracked = _tracked_sectors(prev, current)
    assert [s.eigenvalue for s in tracked] == [current.sectors[j].eigenvalue for j in cols]


@PROPERTY
@given(couplings(), st.floats(0.0, 3.0))
def test_basis_overlaps_match_the_projector_traces(problem, angle):
    h, hm, _ = problem
    r = expm(h, angle).matrix
    prev, current = eig(hm), eig(as_operator(r @ hm.matrix @ r.conj().T))
    assume(len(current) == len(prev))
    want = np.array([[np.trace(p.matrix @ c.matrix).real / p.rank for c in current.projectors]
                     for p in prev.projectors])
    got = _overlaps(_basis_stack([prev]), _basis_stack([current]))[0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_sector_path_forms_no_projector_products():
    rng = np.random.default_rng(11)
    d = 40
    bundle = zenosim.rotating_bundle(random_hermitian(rng, d), random_hermitian(rng, d),
                                     random_hermitian(rng, d), 0.05, 1.0)
    tracemalloc.start()
    try:
        path = _sector_path(bundle, np.linspace(0.0, 1.0, 41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path) == 41 and len(path[-1]) == d
    assert peak <= 8 * 2**20            # one pair of dense projector stacks took 85 MiB


def test_intertwining_defect_holds_one_chunk_of_projectors():
    rng = np.random.default_rng(11)
    d = 40
    bundle = zenosim.rotating_bundle(random_hermitian(rng, d), random_hermitian(rng, d),
                                     random_hermitian(rng, d), 0.05, 1.0)
    tracemalloc.start()
    try:
        reports = zenosim.intertwining_defect(bundle, 1.0, [1.0, 2.0], samples=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(r.sectors) for r in reports] == [d, d]
    assert peak <= 10 * 2**20           # every checkpoint projector held twice took 85 MiB


def test_uncached_projector_matrix_is_the_cached_one():
    [p, _] = eig(as_operator(np.diag([1.0, 1.0, 2.0]))).projectors
    m = operators._projector_matrix(p)
    assert "matrix" not in p.__dict__
    assert np.array_equal(m, p.matrix) and operators._projector_matrix(p) is p.matrix


def test_a_bundle_changing_shape_between_probes_and_midpoints_is_refused():
    m = three_level(1.0, 1.0)
    hm, probes = m.h_meas.matrix, set(np.linspace(0.0, 1.0, 9).tolist())
    bundle = TimeDependentBundle(lambda t: m.h.matrix, coupling=1.0,
                                 h_meas=lambda t: hm if t in probes else hm[:, :2])
    with pytest.raises(ValidationError, match=r"^expected a square matrix, got shape \(3, 2\)$"):
        propagate_td(bundle, 1.0, 20)


def test_tracking_refuses_two_sectors_following_one():
    eta = np.diag([1.0, 2.0, 3.0])
    u = _rotation(0, 1, 0.7) @ _rotation(1, 2, 0.7)
    prev, current = eig(as_operator(eta)), eig(as_operator(u @ eta @ u.conj().T))
    with pytest.raises(SectorTrackingError, match="follow the same sector"):
        _tracked_sectors(prev, current)


def test_intertwine_needs_no_assignment_solver():
    src = str(Path(zenosim.__file__).resolve().parents[1])
    code = ("import sys, zenosim\n"
            "m = zenosim.three_level(1.0, 10.0)\n"
            "g = zenosim.rotation_generator(3, 2, 3, 'phase')\n"
            "b = zenosim.rotating_bundle(m.h.matrix, m.h_meas, g, 0.2, 10.0)\n"
            "zenosim.intertwining_defect(b, 1.0, [10.0], samples=4)\n"
            "sys.exit('scipy.optimize' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


INTERTWINE = """model: {kind: three_level, params: {omega: 1.0, K: 1.0}}
task: intertwine
time: {t_max: %s, samples: 2}
sweep: {K: [%s]}
rotation: {kind: phase, levels: [2, 3], rate: %s}
"""


def test_unresolvable_coupling_is_refused_before_integrating(tmp_path, capsys):
    path = tmp_path / "huge.yaml"
    path.write_text(INTERTWINE % (1.5, "1e12", 0.2))
    start = time.perf_counter()
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the ceiling of 1000000 steps" in capsys.readouterr().err


def test_explicit_step_count_above_the_ceiling_is_refused():
    m = three_level(1.0, 1.0)
    bundle = zenosim.constant_bundle(m)
    start = time.perf_counter()
    with pytest.raises(StepResolutionError, match="plan of 1000001 steps exceeds"):
        propagate_td(bundle, 1.0, 10**6 + 1)
    assert time.perf_counter() - start < 1.0
    propagate_td(bundle, 1.0, 1000)


def _nan_after_half():
    hm = np.diag([1.0, -1.0, 0.0]).astype(complex)
    return TimeDependentBundle(h=lambda t: np.zeros((3, 3)),
                               h_meas=lambda t: hm * (np.nan if t > 0.5 else 1.0),
                               coupling=2.0)


@pytest.mark.parametrize("call", [lambda b: required_steps(b, 1.0),
                                  lambda b: propagate_td(b, 1.0, 100)])
def test_non_finite_probe_names_its_time(call):
    with pytest.raises(ValidationError, match="h_meas has NaN or Inf entries at t = 0.625"):
        call(_nan_after_half())


def test_non_finite_bundle_exits_one(tmp_path, capsys):
    path = tmp_path / "overflow.yaml"
    path.write_text(INTERTWINE % (10, "10", "1e308"))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert "h_meas has NaN or Inf entries at t = 2.5" in capsys.readouterr().err
