"""One sector frame per decomposition.

Every routine that works in the stacked sector basis ``W = [Q_1 ... Q_m]``
reads it from ``SectorDecomposition._frame``: ``W`` with the sectors
stably sorted by rank, their ranks, and the sector that owns each column.
These tests pin that frame (its columns, its caching, its read-only
arrays) and check each reader against a dense reference on a decomposition
whose ranks are out of order, so that the rank sort moves sectors.
"""

import numpy as np
import pytest
import scipy.linalg

from zenosim import (
    CoupledHamiltonian,
    DensityMatrix,
    as_operator,
    cavity,
    eig,
    nonselective_evolve,
    nonselective_limit,
    perturbative_spectrum,
    zeno_propagator,
)
from zenosim import scenario
from zenosim.continuous import real_sectors
from zenosim.adiabatic import _basis_stack, _overlaps, _tracked_sectors
from zenosim.operators import block_diagonal_part

from conftest import random_hermitian

# eigenvalues 0, 1, 2 of ranks 2, 1, 3: sector order is eigenvalue order
_ETAS = [0.0, 0.0, 1.0, 2.0, 2.0, 2.0]


def _mixed():
    """A d = 6 pair whose coupling has sectors of ranks 2, 1, 3 in sector
    order, and a random system part and state."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    hm = (q * np.array(_ETAS)) @ q.conj().T
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = a @ a.conj().T
    hk = CoupledHamiltonian(as_operator(random_hermitian(rng, 6)), as_operator(hm), 3.0)
    return hk, eig(hk.h_meas), DensityMatrix(rho / np.trace(rho).real)


def _stacked_bases(dec):
    """``W`` as the readers stacked it for themselves before the frame: the
    bases stably sorted by rank, side by side."""
    bases = sorted((s.projector.basis for s in dec), key=lambda q: q.shape[1])
    return np.hstack(bases or [np.empty((dec.dim, 0), complex)])


def _dense_blocked(a, dec):
    return sum(p.matrix @ a @ p.matrix for p in dec.projectors)


def test_mixed_decomposition_has_ranks_out_of_order():
    _, dec, _ = _mixed()
    assert [s.multiplicity for s in dec] == [2, 1, 3]
    w, ranks, owner = dec._frame
    assert ranks == (1, 2, 3)
    assert owner.tolist() == [1, 0, 0, 2, 2, 2]
    for n, s in enumerate(dec):
        assert np.array_equal(w[:, owner == n], s.projector.basis)


def _decompositions():
    """Fresh decompositions of each kind the package builds, none of whose
    frames has been read."""
    hk, prev, _ = _mixed()
    rotated = scipy.linalg.expm(-0.1j * random_hermitian(np.random.default_rng(3), 6))
    moved = eig(as_operator(rotated @ hk.h_meas.matrix @ rotated.conj().T))
    return {
        "hermitian": _mixed()[1],
        "tracked": _tracked_sectors(prev, moved),
        "non-hermitian": real_sectors(cavity(1.0, 0.5, 3).hk.h_meas),
        "empty": real_sectors(np.diag([1j, 2j, 3j])),
    }


@pytest.mark.parametrize("kind", list(_decompositions()))
def test_frame_is_the_rank_sorted_stack_read_only_and_built_once(kind):
    dec = _decompositions()[kind]
    assert "_frame" not in dec.__dict__
    w, ranks, owner = dec._frame
    want = _stacked_bases(dec)
    assert w.shape == want.shape == (dec.dim, dec.total_rank())
    assert w.dtype == want.dtype and w.tobytes() == want.tobytes()
    assert list(ranks) == sorted(s.multiplicity for s in dec)
    assert np.bincount(owner, minlength=len(dec)).tolist() == [s.multiplicity for s in dec]
    assert dec._frame is dec.__dict__["_frame"] and dec._frame[0] is w
    for a in (w, owner):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def _readers():
    """Each reader of the frame on ``(hk, dec, rho0)``, as a function."""
    return {
        "block_diagonal_part": lambda hk, dec, rho0: block_diagonal_part(hk.h, dec),
        "zeno_propagator": lambda hk, dec, rho0: zeno_propagator(hk, 0.7, dec),
        "nonselective_evolve": lambda hk, dec, rho0: nonselective_evolve(hk.total(), dec, 5,
                                                                         0.7, rho0),
        "nonselective_limit": lambda hk, dec, rho0: nonselective_limit(hk.h, dec, 0.7, rho0),
        "perturbative_spectrum": lambda hk, dec, rho0: perturbative_spectrum(hk, sectors=dec),
        "_overlaps": lambda hk, dec, rho0: _overlaps(_basis_stack([dec]), _basis_stack([dec])),
        "dfs task": lambda hk, dec, rho0: _dfs_rows(dec),
    }


def _dfs_rows(dec):
    """The rows of the ``dfs`` task on the decomposition ``dec``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "dfs_extract", lambda hk, cluster_tol=None: dec)
        return scenario._dfs(None, None, None, {})


@pytest.mark.parametrize("reader", list(_readers()))
def test_each_reader_reads_the_frame_of_its_decomposition(reader):
    hk, dec, rho0 = _mixed()
    _readers()[reader](hk, dec, rho0)
    w = dec.__dict__["_frame"][0]
    assert w.tobytes() == _stacked_bases(dec).tobytes()


def test_block_diagonal_part_matches_the_dense_sum():
    hk, dec, _ = _mixed()
    h = hk.h.matrix
    assert np.abs(block_diagonal_part(h, dec) - _dense_blocked(h, dec)).max() <= 1e-12


def test_zeno_propagator_matches_the_dense_exponential():
    hk, dec, _ = _mixed()
    t = 0.7
    want = scipy.linalg.expm(-1j * t * (_dense_blocked(hk.h.matrix, dec)
                                        + hk.coupling * hk.h_meas.matrix))
    assert np.abs(zeno_propagator(hk, t, dec).matrix - want).max() <= 1e-12


@pytest.mark.parametrize("n", [7, 150])
@pytest.mark.parametrize("project_final", [True, False])
def test_nonselective_evolve_matches_the_dense_chain(n, project_final):
    hk, dec, rho0 = _mixed()                  # s = 14 > 2 d kept entries: the block chain
    t = 0.9
    u = scipy.linalg.expm(-1j * (t / n) * hk.total().matrix)
    rho = _dense_blocked(rho0.matrix, dec)
    for k in range(n):
        rho = u @ rho @ u.conj().T
        if k < n - 1 or project_final:
            rho = _dense_blocked(rho, dec)
    got = nonselective_evolve(hk.total(), dec, n, t, rho0, project_final=project_final)
    assert np.abs(got.matrix - rho).max() <= 1e-12


def test_nonselective_limit_matches_the_dense_sandwich():
    hk, dec, rho0 = _mixed()
    t = 0.9
    vs = [p.matrix @ scipy.linalg.expm(-1j * t * (p.matrix @ hk.h.matrix @ p.matrix))
          for p in dec.projectors]
    want = sum(v @ rho0.matrix @ v.conj().T for v in vs)
    assert np.abs(nonselective_limit(hk.h, dec, t, rho0).matrix - want).max() <= 1e-12


def test_nonselective_rows_read_the_off_blocks_of_the_frame(monkeypatch):
    hk, dec, _ = _mixed()
    monkeypatch.setattr(scenario, "zeno_sectors", lambda hk_, cluster_tol=None: dec)
    s = scenario.Scenario(task="nonselective", model_kind="matrix", model_params={},
                          t_max=0.9, sweep_key="N", sweep_values=(3, 8))
    series = scenario._nonselective(s, hk, None, {})
    rho0 = DensityMatrix.pure(np.ones(6))
    for n, norm, trace in zip(*series.values):
        rho = nonselective_evolve(hk.total(), dec, int(n), 0.9, rho0, project_final=False).matrix
        assert norm == pytest.approx(np.linalg.norm(rho - _dense_blocked(rho, dec)), abs=1e-12)
        assert trace == pytest.approx(np.trace(rho).real, abs=1e-12)


def test_perturbative_data_match_the_dense_resolvents():
    hk, dec, _ = _mixed()
    exp = perturbative_spectrum(hk, sectors=dec)
    h, ps, etas = hk.h.matrix, [p.matrix for p in dec.projectors], dec.eigenvalues
    res = [sum(pm / (etas[n] - etas[m]) for m, pm in enumerate(ps) if m != n)
           for n in range(len(ps))]
    for n, s_n in enumerate(res):
        assert np.abs(exp.reduced_resolvent(n) - s_n).max() <= 1e-12
    lam = 0.05
    gen = hk.h_meas.matrix + sum(lam * p @ h @ p + lam * lam * p @ h @ s_n @ h @ p
                                 for p, s_n in zip(ps, res))
    assert np.abs(exp.generator(lam).matrix - gen).max() <= 1e-12


def test_overlaps_match_the_projector_traces():
    hk, dec, _ = _mixed()
    rotated = scipy.linalg.expm(-0.3j * random_hermitian(np.random.default_rng(5), 6))
    moved = eig(as_operator(rotated @ hk.h_meas.matrix @ rotated.conj().T))
    want = np.array([[np.trace(p.matrix @ c.matrix).real / p.rank for c in moved.projectors]
                     for p in dec.projectors])
    got = _overlaps(_basis_stack([dec]), _basis_stack([moved]))[0]
    assert np.abs(got - want).max() <= 1e-12


def test_dfs_rows_list_each_sector_basis_in_sector_order():
    _, dec, _ = _mixed()
    series = _dfs_rows(dec)
    sector, vector, re, im = (series.column(c) for c in ("sector", "vector", "re", "im"))
    assert np.array_equal(sector, np.repeat([0, 1, 2], [12, 6, 18]))
    for n, s in enumerate(dec):
        q, rows = s.projector.basis, sector == n
        assert np.array_equal(vector[rows], np.repeat(np.arange(q.shape[1]), 6))
        assert np.array_equal(re[rows] + 1j * im[rows], q.T.ravel())
