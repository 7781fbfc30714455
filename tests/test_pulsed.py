import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenosim import (
    CoupledHamiltonian,
    DensityMatrix,
    NumericalError,
    Projector,
    ValidationError,
    as_operator,
    basis_projector,
    decay_model,
    eig,
    effective_rate,
    effective_rate_from_amplitude,
    exact_propagator,
    expm,
    nonselective_evolve,
    nonselective_limit,
    offblock_norm,
    pulsed_limit,
    projector_from_columns,
    pulsed_propagator,
    snorm,
    survival_amplitude,
    survival_probability,
    three_level,
    zeno_sectors,
    zeno_time,
    zeno_time_fitted,
)
from zenosim.cli import main
from zenosim.pulsed import _probability, _survival_amplitudes
from zenosim.scenario import load_scenario, read_result_csv, run

from conftest import random_hermitian


def rabi2(omega=1.0):
    return omega * np.array([[0, 1], [1, 0]], dtype=complex)


def full_three_level(omega=1.0, k=1.0):
    return three_level(omega, k).total()


# --------------------------------------------------------------------------
# pulsed propagator


def test_commuting_projection_collapses_to_single_pulse():
    h = np.diag([2.0, 2.0, 5.0])
    p = basis_projector(3, 0, 1)
    for n in (1, 3, 17):
        v = pulsed_propagator(h, p, n, 1.3)
        expected = p.matrix @ expm(h, 1.3).matrix @ p.matrix
        assert snorm(v.matrix - expected) <= 1e-12


def test_two_level_survival_is_cos_power():
    omega, t = 1.0, 1.1
    h = full_three_level(omega, 0.0)  # K=0: pure Rabi block on levels 1,2
    p = basis_projector(3, 0)
    rho0 = DensityMatrix.pure([1, 0, 0])
    for n in (1, 2, 8, 64):
        v = pulsed_propagator(h, p, n, t)
        prob = survival_probability(rho0, v, p)
        assert prob == pytest.approx(math.cos(omega * t / n) ** (2 * n), abs=1e-12)


def test_pulsed_chain_contracts(rng):
    from conftest import random_hermitian

    h = random_hermitian(rng, 5)
    p = basis_projector(5, 0, 1, 3)
    for n in (1, 10, 300):
        assert snorm(pulsed_propagator(h, p, n, 2.0).matrix) <= 1.0 + 1e-12 * 5


def test_pulsed_chain_converges_to_limit():
    h = full_three_level(1.0, 1.0)
    sec = eig(as_operator(np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)))
    p0 = sec.sectors[1].projector  # eta = 0
    p1 = sec.sectors[2].projector  # eta = +1
    from zenosim import Projector

    p = Projector(p0.matrix + p1.matrix, rank=2)
    lim = pulsed_limit(h, p, 1.0)
    errs = [snorm(pulsed_propagator(h, p, n, 1.0).matrix - lim.matrix)
            for n in (64, 128, 256, 512, 1024)]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(0.4 <= r <= 0.6 for r in ratios)  # first-order convergence


# --------------------------------------------------------------------------
# pulsed limit


def test_pulsed_limit_at_time_zero_is_projector():
    h = full_three_level(1.0, 2.0)
    p = basis_projector(3, 0, 1)
    assert np.allclose(pulsed_limit(h, p, 0.0).matrix, p.matrix, atol=1e-15)


def test_pulsed_limit_rank_one_is_pure_phase(rng):
    from conftest import random_hermitian

    h = random_hermitian(rng, 4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    p = basis_projector(4, 2)
    e2 = h[2, 2].real
    lim = pulsed_limit(h, p, 0.8)
    assert snorm(lim.matrix - p.matrix * np.exp(-1j * e2 * 0.8)) <= 1e-12


def test_pulsed_limit_unitary_within_range():
    h = full_three_level(1.0, 1.0)
    p = basis_projector(3, 0, 1)
    lim = pulsed_limit(h, p, 2.0).matrix
    # V^dag V restricted to Ran P equals P
    assert snorm(lim.conj().T @ lim - p.matrix) <= 1e-12


# --------------------------------------------------------------------------
# survival probability


def test_survival_no_evolution_is_one():
    p = basis_projector(3, 0)
    rho0 = DensityMatrix.pure([1, 0, 0])
    assert survival_probability(rho0, p.matrix, p) == 1.0


def test_survival_single_pulse_two_level():
    omega, t = 1.0, 0.6
    h = rabi2(omega)
    p = basis_projector(2, 0)
    rho0 = DensityMatrix.pure([1, 0])
    prob = survival_probability(rho0, expm(h, t), p)
    assert prob == pytest.approx(math.cos(omega * t) ** 2, abs=1e-14)


def test_survival_freezes_as_pulses_increase():
    h = rabi2(1.0)
    p = basis_projector(2, 0)
    rho0 = DensityMatrix.pure([1, 0])
    probs = [survival_probability(rho0, pulsed_propagator(h, p, n, 2.0), p)
             for n in (1, 10, 100, 1000)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.995


def test_survival_requires_supported_state():
    p = basis_projector(3, 0)
    rho0 = DensityMatrix.pure([0, 1, 0])
    with pytest.raises(ValidationError):
        survival_probability(rho0, np.eye(3), p)


# --------------------------------------------------------------------------
# effective rate


def test_effective_rate_eigenstate_is_stationary():
    h = np.diag([1.5, -0.5])
    r = effective_rate(h, [1, 0], 0.7)
    assert r.gamma == pytest.approx(0.0, abs=1e-12)
    assert r.omega == pytest.approx(1.5, abs=1e-12)


def test_effective_rate_small_tau_linear_in_tau():
    omega = 1.0
    h = rabi2(omega)
    for tau in (1e-3, 5e-4):
        r = effective_rate(h, [1, 0], tau)
        assert r.gamma == pytest.approx(omega ** 2 * tau, rel=1e-5)


def test_effective_rate_closed_form_cross_check():
    omega, tau = 1.0, 0.3
    r = effective_rate(rabi2(omega), [1, 0], tau)
    expected = -math.log(math.cos(0.3) ** 2) / 0.3
    assert r.gamma == pytest.approx(expected, abs=1e-12)


def test_effective_rate_identity_with_survival():
    # gamma * tau == -log p(tau) by definition
    h = full_three_level(1.3, 0.7)
    a = np.array([1, 0, 0], dtype=complex)
    for tau in (0.2, 0.9, 2.3):
        r = effective_rate(h, a, tau)
        p = abs(survival_amplitude(h, a, tau)) ** 2
        assert r.gamma * tau == pytest.approx(-math.log(p), abs=1e-12)


def test_effective_rate_zero_amplitude_signals_infinity():
    r = effective_rate_from_amplitude(lambda tau: 0.0, 1.0)
    assert r.infinite
    assert math.isnan(r.omega)


def test_amplitude_hook_threshold_exponent():
    # |A|^2 = 1 - tau/tau_c: the limit rate stays finite at 1/tau_c
    tau_c = 2.0
    amp = lambda tau: math.sqrt(max(0.0, 1 - tau / tau_c))
    rates = [effective_rate_from_amplitude(amp, tau).gamma
             for tau in (1e-2, 1e-4, 1e-6)]
    assert rates[-1] == pytest.approx(1 / tau_c, rel=1e-4)


def test_amplitude_hook_subthreshold_exponent_diverges():
    # |A|^2 = 1 - sqrt(tau): the limit rate diverges as tau -> 0
    amp = lambda tau: math.sqrt(max(0.0, 1 - math.sqrt(tau)))
    rates = [effective_rate_from_amplitude(amp, tau).gamma
             for tau in (1e-2, 1e-4, 1e-6)]
    assert rates[0] < rates[1] < rates[2]
    assert rates[2] > 100 * rates[0] / 11  # ~ tau**-0.5 growth


# --------------------------------------------------------------------------
# zeno time


def test_zeno_time_eigenstate_is_infinite():
    assert math.isinf(zeno_time(np.diag([1.0, 2.0]), [1, 0]))


def test_zeno_time_three_level_hand_value():
    for omega, k in ((1.0, 0.0), (2.5, 7.0)):
        h = full_three_level(omega, k)
        assert zeno_time(h, [1, 0, 0]) == pytest.approx(1 / omega, abs=1e-12)


def test_zeno_time_short_time_fit_consistency():
    omega = 1.0
    h = full_three_level(omega, 2.0)
    a = np.array([1, 0, 0], dtype=complex)
    taus = np.array([1e-3, 2e-3, 4e-3]) / omega
    deficits = np.array([1 - abs(survival_amplitude(h, a, t)) ** 2 for t in taus])
    # quadratic-fit oracle: 1 - p = c * tau^2, tz = 1/sqrt(c)
    c = float(np.sum(deficits * taus ** 2) / np.sum(taus ** 4))
    tz_fit = 1 / math.sqrt(c)
    assert abs(tz_fit - zeno_time(h, a)) / zeno_time(h, a) < 0.01


def test_zeno_time_fitted_two_level():
    omega = 1.7
    tz = zeno_time_fitted(rabi2(omega), [1, 0])
    assert abs(tz - 1 / omega) / (1 / omega) < 0.01


@pytest.mark.parametrize("h, a, expected", [
    ([[0, 1e200], [1e200, 0]], [1, 0], 1e-200),
    (np.full((3, 3), 1e200), [1, 0, 0], 1e-200 / math.sqrt(2)),
], ids=["rabi", "full"])
def test_zeno_time_of_a_huge_hamiltonian_takes_its_moments_scaled(h, a, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert zeno_time(h, a) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_zeno_time_at_unit_scale_is_the_unscaled_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, int(rng.integers(1, 21)))
    v = rng.standard_normal(len(h)) + 1j * rng.standard_normal(len(h))
    v /= np.linalg.norm(v)
    hv = h @ v
    m2 = float(np.vdot(hv, hv).real)
    m1 = float(np.vdot(v, hv).real)
    var = m2 - m1 * m1
    expected = math.inf if var <= 16 * np.finfo(float).eps * max(m2, 1.0) else 1.0 / math.sqrt(var)
    assert zeno_time(h, v) == expected


def test_zeno_time_of_a_tiny_hamiltonian_is_not_an_eigenstate():
    assert zeno_time([[0, 1e-8], [1e-8, 0]], [1, 0]) == pytest.approx(1e8, rel=1e-15)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(-60, 60))
def test_zeno_time_is_covariant_under_powers_of_two(seed, d, k):
    # c H is exact and so is its scaling by s / c: the moments are those of H, bit for bit
    rng = np.random.default_rng(seed)
    c = math.ldexp(1.0, k)
    h = random_hermitian(rng, d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    assert zeno_time(c * h, v) * c == zeno_time(h, v)
    # a dark state: the zero-eigenvalue eigenstate of a rotated H
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    dark = (q * np.arange(d)) @ q.conj().T
    assert zeno_time(c * (dark + dark.conj().T) / 2, q[:, 0]) == math.inf


def test_zeno_time_fitted_reads_cancellation_free_deficits():
    rng = np.random.default_rng(5)
    for d in rng.integers(2, 51, size=60):
        h = random_hermitian(rng, int(d))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        taus = 0.01 / snorm(h) * 0.5 ** np.arange(5)
        w, vecs = np.linalg.eigh(h)
        p = np.abs(vecs.conj().T @ v) ** 2
        deficits = [np.sum(np.outer(p, p) * 2 * np.sin(np.subtract.outer(w, w) * tau / 2) ** 2)
                    for tau in taus]
        # the model log(1 - p) = 2 log tau - 2 log tz, its slope fixed at 2
        intercept = np.mean(np.log(deficits) - 2 * np.log(taus))
        assert zeno_time_fitted(h, v) == pytest.approx(math.exp(-intercept / 2), rel=1e-12)


@pytest.mark.parametrize("points", [1, 0, -3, 2.5, 3.0, True, "5", None])
def test_zeno_time_fitted_refuses_points_that_are_not_integers_of_at_least_two(points):
    with pytest.raises(ValidationError, match="points"):
        zeno_time_fitted(rabi2(1.7), [1, 0], points=points)


@pytest.mark.parametrize("points", [2, np.int64(3)])
def test_zeno_time_fitted_accepts_integer_points(points):
    assert abs(zeno_time_fitted(rabi2(1.7), [1, 0], points=points) * 1.7 - 1) < 0.01


def test_short_time_law_ratio_drift():
    h = full_three_level(2.5, 7.0)
    a = np.array([1, 0, 0], dtype=complex)
    tz = zeno_time(h, a)
    tau0 = 1e-3
    ratios = []
    for tau in (tau0, tau0 / 2, tau0 / 4):
        p = abs(survival_amplitude(h, a, tau)) ** 2
        ratios.append((1 - p) * tz ** 2 / tau ** 2)
    drift = max(ratios) / min(ratios) - 1
    assert drift <= 0.05
    assert ratios[-1] == pytest.approx(1.0, abs=0.01)


# --------------------------------------------------------------------------
# nonselective chains


def three_level_sectors():
    hm = np.zeros((3, 3), dtype=complex)
    hm[1, 2] = hm[2, 1] = 1.0
    return eig(as_operator(hm))


def test_nonselective_single_step_commuting_case():
    sec = three_level_sectors()
    h = np.diag([0.3, 0.0, 0.0]) + 2.0 * np.array(
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)  # commutes with sectors
    rho0 = DensityMatrix.pure(np.array([1, 1, 0]) / math.sqrt(2))
    out = nonselective_evolve(h, sec, 1, 0.9, rho0)
    u = expm(h, 0.9).matrix
    direct = u @ (sum(s.projector.matrix @ rho0.matrix @ s.projector.matrix
                      for s in sec)) @ u.conj().T
    assert snorm(out.matrix - direct) <= 1e-12


def test_nonselective_trace_hermiticity_positivity():
    sec = three_level_sectors()
    h = full_three_level(1.0, 1.0)
    rho0 = DensityMatrix.pure(np.ones(3) / math.sqrt(3))
    for n in (1, 7, 64):
        out = nonselective_evolve(h, sec, n, 2.0, rho0)
        assert abs(out.trace - 1) <= 1e-12
        # DensityMatrix construction re-validates hermiticity + positivity
        assert offblock_norm(out, sec) <= 1e-14  # final projection: block diagonal


def test_nonselective_offblock_decays_like_one_over_n():
    sec = three_level_sectors()
    h = full_three_level(1.0, 1.0)
    rho0 = DensityMatrix.pure(np.ones(3) / math.sqrt(3))
    ns = [64, 128, 256, 512]
    obs = [offblock_norm(
        nonselective_evolve(h, sec, n, 3.0, rho0, project_final=False), sec)
        for n in ns]
    slope = np.polyfit(np.log(ns), np.log(obs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_nonselective_populations_converge_and_freeze():
    sec = three_level_sectors()
    h = full_three_level(1.0, 1.0)
    rho0 = DensityMatrix.pure([1, 0, 0])
    drifts = []
    for n in (64, 256, 1024):
        out = nonselective_evolve(h, sec, n, 1.5, rho0)
        drifts.append(max(abs(out.population(s.projector) - rho0.population(s.projector))
                          for s in sec))
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] < drifts[0] / 10  # ~ C/N shrinkage over 16x more pulses
    # frozen rank-1 sector: rho stays near |1><1|
    out = nonselective_evolve(h, sec, 4096, 1.5, rho0)
    assert snorm(out.matrix - rho0.matrix) < 2e-3


def test_nonselective_limit_blocks_never_mix():
    sec = three_level_sectors()
    h = full_three_level(1.0, 1.0)
    rho0 = DensityMatrix.pure(np.array([1, 1, 1]) / math.sqrt(3))
    out = nonselective_limit(h, sec, 2.0, rho0)
    assert offblock_norm(out, sec) <= 1e-14
    # per-sector weights equal the initial ones exactly
    for s in sec:
        assert out.population(s.projector) == pytest.approx(
            rho0.population(s.projector), abs=1e-12)


def test_nonselective_limit_block_unitary_when_block_diagonal():
    sec = three_level_sectors()
    h = full_three_level(1.0, 1.0)
    hmat = np.asarray(h)
    rho_blocks = sum(s.projector.matrix @ np.outer([0.6, 0.48, 0.64],
                                                   [0.6, 0.48, 0.64]) @ s.projector.matrix
                     for s in sec)
    rho0 = DensityMatrix(rho_blocks / rho_blocks.trace().real)
    out = nonselective_limit(h, sec, 1.7, rho0)
    direct = np.zeros((3, 3), dtype=complex)
    for s in sec:
        p = s.projector.matrix
        vn = p @ expm(as_operator(p @ hmat @ p, hermitian=True), 1.7).matrix
        direct += vn @ rho0.matrix @ vn.conj().T
    assert snorm(out.matrix - direct) <= 1e-13


def _written_out_nonselective_limit(hmat, sec, t, rho0):
    """``sum_n V_n rho0 V_n^dag`` with ``V_n = P_n exp(-i P_n H P_n t)``
    spelled out on dense ``d x d`` matrices."""
    hermitian = as_operator(hmat).hermitian
    direct = np.zeros(hmat.shape, dtype=complex)
    for s in sec:
        p = s.projector.matrix
        vn = p @ expm(as_operator(p @ hmat @ p, hermitian=hermitian), t).matrix
        direct += vn @ rho0.matrix @ vn.conj().T
    return (direct + direct.conj().T) / 2


def _random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityMatrix.pure(v / np.linalg.norm(v))


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_nonselective_limit_is_the_sum_of_written_out_sector_limits(rng, loss):
    # the sector-basis blocks round differently from the dense sandwich by a few ulp
    hmat = random_hermitian(rng, 5) - 1j * loss * np.eye(5)
    sec = eig(np.diag([0.0, 1.0, 1.0, 2.0, 2.0]))
    rho0 = _random_state(rng, 5)
    out = nonselective_limit(hmat, sec, 0.9, rho0).matrix
    assert np.max(np.abs(out - _written_out_nonselective_limit(hmat, sec, 0.9, rho0))) <= 1e-14


def test_nondegenerate_nonselective_limit_is_the_sum_of_written_out_sector_limits(rng):
    d = 120
    hmat = random_hermitian(rng, d)
    sec = eig(random_hermitian(rng, d))
    assert len(sec) == d
    rho0 = _random_state(rng, d)
    out = nonselective_limit(hmat, sec, 0.9, rho0).matrix
    assert np.max(np.abs(out - _written_out_nonselective_limit(hmat, sec, 0.9, rho0))) <= 1e-14


def test_nonselective_limit_matches_chain_at_large_n():
    sec = three_level_sectors()
    h = full_three_level(1.0, 1.0)
    rho0 = DensityMatrix.pure(np.ones(3) / math.sqrt(3))
    lim = nonselective_limit(h, sec, 1.0, rho0)
    ns = [512, 1024, 2048, 4096]
    ds = [snorm(nonselective_evolve(h, sec, n, 1.0, rho0).matrix - lim.matrix)
          for n in ns]
    slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
    assert -1.2 <= slope <= -0.8
    assert ds[-1] <= 2.0 / 4096


def test_nonselective_rejects_mismatched_state():
    sec = three_level_sectors()
    with pytest.raises(ValidationError):
        nonselective_evolve(np.eye(2), sec, 4, 1.0, DensityMatrix.pure([1, 0]))


@pytest.mark.parametrize("call", [
    lambda h, sec, rho: pulsed_limit(h, sec.sectors[0].projector, 1.0),
    lambda h, sec, rho: pulsed_propagator(h, sec.sectors[0].projector, 4, 1.0),
    lambda h, sec, rho: nonselective_limit(h, sec, 1.0, rho),
    lambda h, sec, rho: nonselective_evolve(h, sec, 4, 1.0, rho),
    lambda h, sec, rho: survival_probability(rho, expm(h, 1.0), sec.sectors[0].projector),
], ids=["pulsed_limit", "pulsed_propagator", "nonselective_limit", "nonselective_evolve",
        "survival_probability"])
def test_operator_of_another_dimension_is_a_validation_error(call):
    sec = three_level_sectors()
    rho0 = DensityMatrix(sec.sectors[0].projector.matrix)
    with pytest.raises(ValidationError,
                       match=r"^operator dimension 2 does not match sectors \(3\)$"):
        call(rabi2(), sec, rho0)


# --------------------------------------------------------------------------
# chains in the sector basis against written-out full-dimension oracles
#
# The library runs selective chains in an orthonormal basis of Ran P,
# nonselective chains in the basis of all sectors, and the survival task
# from one eigendecomposition per time grid.  Each oracle below is the
# textbook full-dimension computation; both must agree to 1e-12 on random
# Hermitian Hamiltonians with degenerate measurement couplings (d <= 8).

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def degenerate_problems(draw):
    """Random Hermitian H and a measurement coupling with repeated
    eigenvalues (sector ranks drawn at random), as a seeded draw."""
    d = draw(st.integers(2, 8))
    outcomes = draw(st.integers(1, d))
    cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=outcomes - 1,
                                max_size=outcomes - 1, unique=True)))
    ranks = np.diff([0, *cuts, d])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = _unitary(rng, d)
    hm = (v * np.repeat(np.arange(len(ranks), dtype=float), ranks)) @ v.conj().T
    h = random_hermitian(rng, d) * draw(st.floats(0.1, 3.0))
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return h, eig(as_operator((hm + hm.conj().T) / 2)), psi / np.linalg.norm(psi)


def oracle_nonselective(h, sectors, n, t, rho0, project_final):
    ps = [s.projector.matrix for s in sectors]

    def sandwich(rho):
        return sum(p @ rho @ p for p in ps)

    u = expm(h, t / n).matrix
    rho = sandwich(rho0.matrix)
    for k in range(n):
        rho = u @ rho @ u.conj().T
        if k < n - 1 or project_final:
            rho = sandwich(rho)
    return (rho + rho.conj().T) / 2


def oracle_selective(h, p, n, t):
    step = p.matrix @ expm(as_operator(h), t / n).matrix @ p.matrix
    v = step
    for _ in range(n - 1):
        v = step @ v
    return v


@ORACLE
@given(degenerate_problems(), st.integers(1, 40), st.floats(0.0, 3.0), st.booleans())
def test_nonselective_chain_matches_sandwich_oracle(problem, n, t, project_final):
    h, sectors, psi = problem
    rho0 = DensityMatrix.pure(psi)
    out = nonselective_evolve(h, sectors, n, t, rho0, project_final=project_final)
    want = oracle_nonselective(h, sectors, n, t, rho0, project_final)
    assert np.max(np.abs(out.matrix - want)) <= 1e-12


@ORACLE
@given(degenerate_problems(), st.integers(1, 40), st.floats(0.0, 3.0), st.data())
def test_selective_chain_matches_full_dimension_oracle(problem, n, t, data):
    h, sectors, _ = problem
    p = sectors.sectors[data.draw(st.integers(0, len(sectors) - 1))].projector
    got = pulsed_propagator(h, p, n, t).matrix
    assert np.max(np.abs(got - oracle_selective(h, p, n, t))) <= 1e-12


@ORACLE
@given(degenerate_problems(), st.floats(0.1, 20.0), st.integers(2, 40), st.data())
def test_survival_grid_matches_per_sample_oracle(problem, k, samples, data):
    h, sectors, psi = problem
    hm = sum(s.eigenvalue.real * s.projector.matrix for s in sectors)
    hk = CoupledHamiltonian(as_operator(h), as_operator(hm), k)
    ts = np.linspace(0.0, data.draw(st.floats(0.1, 10.0)), samples)
    got = np.abs(_survival_amplitudes(hk.total(), psi, ts)) ** 2
    rho0, p = DensityMatrix.pure(psi), projector_from_columns(psi.reshape(-1, 1))
    want = [survival_probability(rho0, exact_propagator(hk, t), p) for t in ts]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


@ORACLE
@given(degenerate_problems(), st.floats(0.0, 10.0), st.data())
def test_survival_probability_of_a_mixed_state_sums_its_pure_parts(problem, t, data):
    h, sectors, _ = problem
    s = sectors.sectors[data.draw(st.integers(0, len(sectors) - 1))]
    p, r, u = s.projector, s.multiplicity, expm(h, t).matrix
    got = survival_probability(DensityMatrix(p.matrix / r), u, p)
    # rho0 = sum_i |q_i><q_i| / r over the basis of Ran P, so p(t) = sum_i ||P U q_i||^2 / r
    assert abs(got - np.linalg.norm(p.matrix @ u @ p.basis) ** 2 / r) <= 1e-12


@ORACLE
@given(st.floats(0.2, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 20.0),
       st.floats(0.5, 10.0))
def test_survival_grid_matches_oracle_for_decay_model(tau_z, gamma, k, t_max):
    hk = decay_model(tau_z, gamma, k)
    assert not hk.total().hermitian
    v0 = np.array([1, 0, 0], dtype=complex)
    rho0, p = DensityMatrix.pure(v0), projector_from_columns(v0.reshape(-1, 1))
    ts = np.linspace(0.0, t_max, 21)
    got = np.abs(_survival_amplitudes(hk.total(), v0, ts)) ** 2
    want = [survival_probability(rho0, exact_propagator(hk, t), p) for t in ts]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


@ORACLE
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0), st.floats(-0.2, 0.2))
def test_survival_amplitude_is_the_propagated_overlap(d, seed, tau, damping):
    rng = np.random.default_rng(seed)
    for h in (as_operator(random_hermitian(rng, d)), decay_model(1.0, 2.0, 3.0).total()):
        v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        v /= np.linalg.norm(v)
        for t in (tau, complex(tau, damping)):
            want = np.vdot(v, expm(h, t).matrix @ v)
            assert abs(survival_amplitude(h, v, t) - want) <= 1e-14 * max(1.0, abs(want))


def test_a_hermitian_survival_run_diagonalizes_once_and_builds_no_state(monkeypatch):
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                             / "survival_three_level.yaml")
    calls = []

    def counted(name, f):
        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(Projector, "__post_init__", counted("Projector", Projector.__post_init__))
    monkeypatch.setattr(DensityMatrix, "_checked",
                        classmethod(counted("DensityMatrix", DensityMatrix._checked.__func__)))
    assert run(scenario).column("p0").size == 1001
    assert calls == ["eigh"]


def test_survival_grid_rejects_unsupported_state():
    hk = three_level(1.0, 2.0)
    rho0 = DensityMatrix.pure([1, 0, 0])
    p = basis_projector(3, 1)
    message = "initial state is not supported in the measured subspace"
    with pytest.raises(ValidationError, match=message):
        survival_probability(rho0, exact_propagator(hk, 0.5), p)


def test_survival_grid_names_the_first_sample_outside_the_range(tmp_path, capsys):
    # exp(-i H t) with H = 0.5i amplifies: the survival is exp(t)
    (tmp_path / "h.txt").write_text("dim 1\n0 0 0.0 0.5\n")
    (tmp_path / "hm.txt").write_text("dim 1\n0 0 0.0 0.0\n")
    scenario, out = tmp_path / "s.yaml", tmp_path / "out.csv"
    model = "model: {kind: matrix, h_file: h.txt, hmeas_file: hm.txt}\ntask: survival\n"
    scenario.write_text(model + "time: {t_max: 2.0e-9, samples: 3}\n")
    assert main(["run", str(scenario), "--out", str(out)]) == 2
    assert ("numerical error: survival probability 1.000000001 outside [0, 1]"
            in capsys.readouterr().err)
    assert not out.exists()
    scenario.write_text(model + "time: {t_max: 1.0e-13, samples: 2}\n")
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    assert read_result_csv(out).column("p0").tolist() == [1.0, 1.0]


def test_range_check_names_the_first_nan_and_clips_roundoff():
    with pytest.raises(NumericalError, match=r"^survival probability nan outside \[0, 1\]$"):
        _probability(np.array([0.5, np.nan, 1 + 1e-9]))
    with pytest.raises(NumericalError, match=r"^survival probability 1\.000000001 outside "):
        _probability(np.array([0.5, 1 + 1e-9, np.nan]))
    clipped = _probability(np.array([-1e-13, -0.0, 0.25, 1 + 1e-13])).tolist()
    assert clipped == [0.0, 0.0, 0.25, 1.0] and math.copysign(1.0, clipped[1]) == 1.0
