"""Scale covariance of the Zeno limits.

Under ``H -> c H``, ``H_meas -> c H_meas`` and ``t -> t / c`` the sectors,
projectors and propagators stay, eigenvalues and rates scale by ``c`` and
Zeno times by ``1 / c``.  Every ``c`` here is a power of two, so the scaling
itself is exact and any difference comes from a tolerance that does not
scale with the operator it judges.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenosim import (
    CoupledHamiltonian,
    DensityMatrix,
    dfs_extract,
    effective_rate,
    eig,
    exact_propagator,
    nonselective_limit,
    perturbative_spectrum,
    pulsed_limit,
    pulsed_propagator,
    zeno_propagator,
    zeno_sectors,
    zeno_time,
    zeno_time_fitted,
)

from conftest import random_hermitian

# the largest deviation of an observable brought back to unit scale, relative to
# its largest entry; 400 random draws at d <= 8 and |k| <= 60 deviated by at most
# 9e-15 (the logarithms of the fitted Zeno time), most of them by nothing at all
RTOL = 1e-12


def _rotated(rng, values):
    """``Q diag(values) Q^dag`` for a random unitary ``Q``: normal, with the given spectrum."""
    d = len(values)
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return (q * np.asarray(values)) @ q.conj().T


def _sectors(name, dec, c):
    return {f"{name} ranks": [s.multiplicity for s in dec],
            f"{name} eigenvalues": dec.eigenvalues / c,
            f"{name} projectors": np.array([s.projector.matrix for s in dec])}


def _observables(h, hm, loss, v, c):
    """What the library says of ``c H`` with the couplings ``c H_meas`` and ``c L``
    at the times ``t / c``, brought back to unit scale."""
    hk = CoupledHamiltonian(c * h, c * hm, 3.0)
    dec = eig(c * hm)
    p = max(dec, key=lambda s: s.multiplicity).projector
    rho0 = DensityMatrix.pure(v)
    return {
        **_sectors("eig", dec, c),
        **_sectors("zeno_sectors", zeno_sectors(hk), c),
        **_sectors("dfs_extract", dfs_extract(CoupledHamiltonian(c * h, c * loss, 1.0)), c),
        "zeno_time": zeno_time(c * h, v) * c,
        "zeno_time_fitted": zeno_time_fitted(c * h, v) * c,
        "pulsed_propagator": pulsed_propagator(c * h, p, 8, 0.7 / c).matrix,
        "pulsed_limit": pulsed_limit(c * h, p, 0.7 / c).matrix,
        "exact_propagator": exact_propagator(hk, 0.7 / c).matrix,
        "zeno_propagator": zeno_propagator(hk, 0.7 / c).matrix,
        "nonselective_limit": nonselective_limit(c * h, dec, 0.7 / c, rho0).matrix,
        "effective_rate": effective_rate(c * h, v, 0.1 / c).gamma / c,
        "perturbative_spectrum": perturbative_spectrum(hk).predicted_eigenvalues(0.05) / c,
    }


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(-60, 60))
def test_the_zeno_limits_are_covariant_under_a_power_of_two_scale(seed, d, k):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    values = rng.integers(0, 3, d).astype(float)
    values[1] = values[0]                                   # a degenerate sector
    hm = _rotated(rng, values)
    # normal and dissipative: the real sector of values[0], every other level decays
    loss = _rotated(rng, values - 1j * (np.arange(d) >= 2) * rng.uniform(0.5, 2.0, d))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    unit = _observables(h, hm, loss, v, 1.0)
    scaled = _observables(h, hm, loss, v, math.ldexp(1.0, k))
    for name, expected in unit.items():
        if name.endswith("ranks"):
            assert scaled[name] == expected, name
        else:
            expected = np.asarray(expected)
            np.testing.assert_allclose(scaled[name], expected, rtol=0, err_msg=name,
                                       atol=RTOL * np.abs(expected).max(initial=1.0))


# regressions: each fails when a tolerance on the coupling or H has an absolute floor


def test_eig_of_a_tiny_coupling_keeps_its_sectors():
    dec = eig(np.diag([0, 0, 1, 2]) * 2.0**-30)
    assert [s.multiplicity for s in dec] == [2, 1, 1]


def test_a_zero_coupling_is_one_sector_at_tolerance_zero():
    dec = eig(np.zeros((3, 3)))
    assert [s.multiplicity for s in dec] == [3]
    assert dec.cluster_tol == 0.0


def test_a_tiny_dissipative_coupling_protects_only_its_real_level():
    dec = dfs_extract(CoupledHamiltonian(np.zeros((2, 2)), np.diag([0, -1j]) * 2.0**-40, 1.0))
    assert [(s.eigenvalue, s.multiplicity) for s in dec] == [(0, 1)]


@pytest.mark.parametrize("k", [-60, -40, 0, 40, 60])
def test_perturbative_spectrum_resolves_every_branch_at_every_scale(k):
    rng = np.random.default_rng(3)
    h, hm = random_hermitian(rng, 5), np.diag([0.0, 0.0, 0.0, 1.0, 2.0])
    c = math.ldexp(1.0, k)
    exp = perturbative_spectrum(CoupledHamiltonian(c * h, c * hm, 1.0))
    assert len(exp.branches) == 5 and not exp.unresolved


def test_zeno_time_fitted_is_covariant_under_powers_of_two():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    expected = zeno_time_fitted(h, v)
    for k in range(-200, 201):
        c = math.ldexp(1.0, k)
        assert zeno_time_fitted(c * h, v) * c == pytest.approx(expected, rel=1e-12), k
