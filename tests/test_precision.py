"""The Zeno-limit error columns against a 50-digit oracle.

The sweep-N column is ``||[Q^dag U(t/N) Q]^N - exp(-i G t)||`` for ``G =
Q^dag H Q``, the distance of the pulsed chain to its limit, and the sweep-K
column is ``||exp(-i (H + K H_meas) t) - sum_n Q_n exp(-i Q_n^dag (H + K
H_meas) Q_n t) Q_n^dag||``.  Both are recomputed here in mpmath at 50
digits from the same discretization and the same float inputs: the
Hamiltonians as given, and each basis the program measured in,
orthonormalized in mpmath (a float basis taken as exact would put about
``N u`` into the chain's reference itself).

Each column is asserted against its own bound, with ``u = 2^-53``, ``d``
the dimension and ``H_K = H + K H_meas``.  Measured on the cases below:

=====================  ===================================  ===========================
case                   measured                             asserted
=====================  ===================================  ===========================
sweep-N, three-level:  relative 1.1e-16 .. 5.6e-16          relative ``4 u log2(2N)``,
shipped rows and                                            below 1e-14
N = 2^14, 2^20
sweep-N, five random   absolute ``1.4 u (t ||H|| +          absolute ``4 d u (t ||H|| +
d <= 6 sectors,        log2(2N))`` at most; relative        log2(2N))``
N = 1 .. 2^20          1.5e-10 at most, at N = 2^20
sweep-K, three-level:  absolute ``0.93 u (1 + t ||H_K||)``  absolute ``4 d u (1 + t
shipped rows,          at most; relative 2.3e-15 (K = 10)   ||H_K||)``
K = 10 .. 160          .. 1.6e-13 (K = 160)
=====================  ===================================  ===========================

Where the bounds come from:
- sweep-N, three-level: the measured sector is the level ``|1>``, on which
  ``G = 0``.  Every difference in the binary power is then a number with a
  one-signed real part, and each of its about ``2 log2 N`` operations
  rounds it by a relative ``u`` or two.  A chain that loses ``N^2 u``
  relative is off by 7e-4 at N = 2^20.
- sweep-N, random: the step difference is ``f(H)`` for ``f(x) = e^{-i x
  t/N} - 1``, formed from an ``eigh`` with backward error about ``d u
  ||H||``, which the N steps carry as ``t d u ||H||``; each of the about
  ``2 log2 N`` products rounds a difference of norm at most 2.  The error
  is absolute, so the relative one grows like ``N u`` as the column falls
  like 1/N.
- sweep-K: each propagator comes from an ``eigh`` of ``H_K`` (or of its
  sector blocks) with backward error about ``d u ||H_K||``, carried as
  ``t`` times that.  The relative error grows like ``K^2 u``: 3.0e-9 at K =
  1e4 and 1.6e-4 at K = 1e6, beyond the shipped grid.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from zenosim import as_operator, projector_from_columns, snorm, three_level, zeno_sectors
from zenosim.continuous import _defect_sweep
from zenosim.pulsed import _pulsed_errors
from zenosim.scenario import load_scenario, run

from conftest import random_hermitian

ROOT = Path(__file__).resolve().parents[1]
U = 2.0 ** -53
DIGITS = 50


def _mp(a):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.asarray(a)])


def _orthonormal(q):
    """The float columns ``q``, orthonormalized in mpmath by Gram-Schmidt
    taken twice."""
    q, cols = _mp(q), []
    for j in range(q.cols):
        v = q[:, j]
        for _ in range(2):
            for c in cols:
                v -= c * (c.H * v)[0]
        cols.append(v / mp.norm(v))
    out = mp.matrix(q.rows, q.cols)
    for j, c in enumerate(cols):
        out[:, j] = c
    return out


def _propagator(a, t):
    """``exp(-i A t)`` of a Hermitian mpmath matrix."""
    w, v = mp.eigh(a)
    return v * mp.diag([mp.exp(-1j * t * x) for x in w]) * v.H


def _norm(m):
    return max(abs(s) for s in mp.svd_c(m, compute_uv=False))


def _sweep_n_reference(h, basis, ns, t):
    """The sweep-N column of ``h`` in the span of ``basis``, one value per N."""
    with mp.workdps(DIGITS):
        hm, q = _mp(h), _orthonormal(basis)
        limit = _propagator(q.H * hm * q, t)
        return [float(_norm((q.H * _propagator(hm, mp.mpf(t) / n) * q) ** n - limit))
                for n in ns]


def _sweep_k_reference(hk, sectors, ks, t):
    """The sweep-K column of ``hk`` on the frame of ``sectors``, one value per K."""
    w, sizes, _ = sectors._frame
    with mp.workdps(DIGITS):
        bases = [_orthonormal(w[:, at:at + r]) for at, r in zip(np.cumsum([0, *sizes]), sizes)]
        out = []
        for k in ks:
            a = _mp(hk.h.matrix) + k * _mp(hk.h_meas.matrix)
            limit = mp.zeros(hk.dim, hk.dim)
            for q in bases:
                limit += q * _propagator(q.H * a * q, t) * q.H
            out.append(float(_norm(_propagator(a, t) - limit)))
        return out


def _three_level_sector():
    """The sector the shipped sweep-N scenario measures: the one holding ``|1>``."""
    hk = three_level(1.0, 1.0)
    proj = max(zeno_sectors(hk), key=lambda s: np.linalg.norm(s.projector.basis[0])).projector
    return hk, proj


def test_three_level_sweep_n_rows_are_relative_to_a_few_roundings_at_every_n():
    series = run(load_scenario(ROOT / "scenarios" / "pulsed_limit_three_level.yaml"))
    hk, proj = _three_level_sector()
    ns = [int(n) for n in series.column("N")] + [2 ** 14, 2 ** 20]
    got = list(series.column("error")) + _pulsed_errors(hk.total(), proj, ns[-2:], 1.0)
    assert got[:-2] == _pulsed_errors(hk.total(), proj, ns[:-2], 1.0)
    want = _sweep_n_reference(hk.total().matrix, proj.basis, ns, 1.0)
    for n, g, r in zip(ns, got, want):
        assert abs(g - r) <= 4 * U * math.log2(2 * n) * r <= 1e-14 * r, n


@pytest.mark.parametrize("seed", range(5))
def test_random_sweep_n_errors_are_absolute_to_the_step_backward_error(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    rank = int(rng.integers(1, d))
    h = random_hermitian(rng, d)
    cols = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    proj = projector_from_columns(np.linalg.qr(cols)[0])
    t = float(rng.uniform(0.5, 2.0))
    ns = [1, 3, 64, 1000, 2 ** 14 + 1, 2 ** 20]
    got = _pulsed_errors(as_operator(h), proj, ns, t)
    want = _sweep_n_reference(h, proj.basis, ns, t)
    for n, g, r in zip(ns, got, want):
        assert abs(g - r) <= 4 * d * U * (t * snorm(h) + math.log2(2 * n)), n


def test_three_level_sweep_k_rows_are_absolute_to_the_propagator_backward_error():
    scn = load_scenario(ROOT / "scenarios" / "sweep_K_three_level.yaml")
    series = run(scn)
    hk = three_level(1.0, 0.0)
    ks = [float(k) for k in series.column("K")]
    sectors = zeno_sectors(hk)
    got = list(series.column("defect"))
    assert got == _defect_sweep(hk, scn.t_max, ks, sectors)
    want = _sweep_k_reference(hk, sectors, ks, scn.t_max)
    for k, g, r in zip(ks, got, want):
        bound = 4 * hk.dim * U * (1 + scn.t_max * snorm(hk.h.matrix + k * hk.h_meas.matrix))
        assert abs(g - r) <= bound, k
