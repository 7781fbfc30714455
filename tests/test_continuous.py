import math

import numpy as np
import pytest

from zenosim import (
    CoupledHamiltonian,
    DensityMatrix,
    ValidationError,
    as_operator,
    cavity,
    diag_part,
    eig,
    exact_propagator,
    four_level,
    nonadiabatic_defect,
    perturbative_spectrum,
    snorm,
    three_level,
    three_level_survival,
    zeno_propagator,
    zeno_sectors,
)

from zenosim import operators
from zenosim.continuous import real_sectors

from conftest import random_hermitian


# --------------------------------------------------------------------------
# sectors


def test_sectors_three_level():
    dec = zeno_sectors(three_level(1.0, 5.0))
    assert sorted(s.eigenvalue.real for s in dec) == pytest.approx([-1.0, 0.0, 1.0])
    dec.validate_resolution()


def test_sectors_zero_coupling_matrix_single_sector():
    hk = CoupledHamiltonian(as_operator(random_hermitian(np.random.default_rng(3), 4)),
                            as_operator(np.zeros((4, 4))), 1.0)
    dec = zeno_sectors(hk)
    assert len(dec) == 1
    assert dec.sectors[0].multiplicity == 4
    assert dec.sectors[0].eigenvalue == 0


def test_sectors_cavity_real_eigenvalue_rule():
    model = cavity(1.0, 1.0, 2)
    dec = zeno_sectors(model.hk)
    assert not dec.complete
    assert len(dec) == 1
    assert dec.sectors[0].eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert dec.sectors[0].multiplicity == 5


def test_real_sector_of_normal_coupling_reports_measured_condition(rng):
    # unitarily diagonalizable, with a rank-2 real sector and two decaying modes
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    hm = (q * np.array([0.5, 0.5, 1 - 1j, -0.5j])) @ q.conj().T
    dec = real_sectors(hm)
    assert not dec.complete and dec.dropped == ()
    assert [s.multiplicity for s in dec] == [2]
    assert abs(dec.sectors[0].condition - 1.0) <= 1e-12
    # non-normal: the eta = 0 spectral projector is (A + i)/i, of norm sqrt(2)
    a = np.array([[0, 1], [0, -1j]])
    assert real_sectors(a).sectors[0].condition == pytest.approx(math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("tol", [None, 1e-6])
def test_real_sectors_take_one_norm_of_a_dissipative_coupling(monkeypatch, tol):
    hm = cavity(1.0, 1.0, 3).hk.h_meas
    expected = real_sectors(hm, cluster_tol=tol)
    calls = []
    real = operators.snorm
    monkeypatch.setattr(operators, "snorm", lambda a: calls.append(a) or real(a))
    dec = real_sectors(hm, cluster_tol=tol)
    assert sum(a is hm for a in calls) == 1         # both thresholds from one SVD
    assert len(calls) == 1 + len(dec)              # and one condition per sector
    assert dec.cluster_tol == (operators.default_cluster_tol(hm) if tol is None else tol)
    assert [(s.eigenvalue, s.multiplicity, s.condition) for s in dec] == \
        [(s.eigenvalue, s.multiplicity, s.condition) for s in expected]


def test_coupled_hamiltonian_validation():
    with pytest.raises(ValidationError):
        CoupledHamiltonian(as_operator(np.eye(2)), as_operator(np.eye(3)), 1.0)
    with pytest.raises(ValidationError):
        three_level(1.0, 5.0).with_coupling(-2.0)


# --------------------------------------------------------------------------
# diag part


def test_diag_part_three_level_vanishes():
    hk = three_level(1.0, 5.0)
    sec = zeno_sectors(hk)
    hd = diag_part(hk.h, sec)
    assert snorm(hd.matrix) <= 1e-14


def test_diag_part_four_level_inner_regime_kills_rabi_block():
    m = four_level(1.0, 5.0, 0.7)
    hk = m.inner_regime()
    sec = zeno_sectors(hk)
    hd = diag_part(hk.h, sec)
    # both the Rabi block and the outer coupling have no blocked part
    assert snorm(hd.matrix) <= 1e-14


def test_diag_part_four_level_outer_regime_keeps_rabi_block():
    m = four_level(1.3, 5.0, 40.0)
    hk = m.outer_regime()
    sec = zeno_sectors(hk)
    hd = diag_part(hk.h, sec)
    assert snorm(hd.matrix - m.rabi) <= 1e-12
    # the strong-coupling generator is then rabi + outer coupling
    gen = hd.matrix + hk.coupling * hk.h_meas.matrix
    assert snorm(gen - (m.rabi + m.outer_coupling)) <= 1e-12


def test_diag_part_idempotent(rng):
    # idempotent in exact arithmetic; re-multiplication leaves ulp-level dust
    hk = three_level(1.0, 2.0)
    sec = zeno_sectors(hk)
    h = random_hermitian(rng, 3)
    once = diag_part(h, sec).matrix
    assert snorm(diag_part(once, sec).matrix - once) <= 4 * np.finfo(float).eps


def test_diag_part_commutes_with_sector_projectors(rng):
    hk = three_level(1.0, 2.0)
    sec = zeno_sectors(hk)
    hd = diag_part(random_hermitian(rng, 3), sec).matrix
    for s in sec:
        p = s.projector.matrix
        assert snorm(hd @ p - p @ hd) <= 1e-12


# --------------------------------------------------------------------------
# propagators


def test_exact_propagator_zero_coupling_and_time():
    hk = three_level(1.0, 0.0)
    from zenosim import expm

    assert snorm(exact_propagator(hk, 1.3).matrix - expm(hk.h, 1.3).matrix) == 0.0
    assert snorm(exact_propagator(hk, 0.0).matrix - np.eye(3)) <= 1e-15


def test_exact_propagator_matches_closed_form_survival():
    for k in (0.0, 1.0, 10.0):
        hk = three_level(1.0, k)
        for t in np.linspace(0.0, 8.0, 41):
            p = abs(exact_propagator(hk, t).matrix[0, 0]) ** 2
            assert p == pytest.approx(three_level_survival(1.0, k, t), abs=1e-10)


def test_zeno_propagator_inhibits_watched_transition():
    hk = three_level(1.0, 7.0)
    u = zeno_propagator(hk, 1.0)
    assert abs(u.matrix[1, 0]) <= 1e-15
    assert abs(u.matrix[0, 0] - 1.0) <= 1e-14


def test_zeno_propagator_commutes_with_sectors():
    for hk in (three_level(1.0, 10.0),
               four_level(1.0, 5.0, 0.0).inner_regime(),
               four_level(1.0, 5.0, 40.0).outer_regime()):
        sec = zeno_sectors(hk)
        for t in (0.5, 3.0, 10.0):
            u = zeno_propagator(hk, t, sectors=sec).matrix
            for s in sec:
                p = s.projector.matrix
                assert snorm(u @ p - p @ u) <= 1e-10


def test_zeno_propagator_sector_populations_constant(rng):
    hk = three_level(1.0, 10.0)
    sec = zeno_sectors(hk)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = m @ m.conj().T
    rho0 = DensityMatrix(rho / rho.trace().real)
    p0 = [rho0.population(s.projector) for s in sec]
    for t in np.linspace(0.0, 10.0, 21):
        u = zeno_propagator(hk, t, sectors=sec).matrix
        rho_t = u @ rho0.matrix @ u.conj().T
        pt = [float((s.projector.matrix @ rho_t).trace().real) for s in sec]
        assert max(abs(a - b) for a, b in zip(p0, pt)) <= 1e-10


def test_commuting_coupling_makes_limit_exact():
    # H and H_meas diagonal in the same basis
    h = np.diag([1.0, 2.0, 3.0])
    hm = np.diag([0.0, 1.0, 1.0])
    for k in (0.0, 0.7, 13.0):
        hk = CoupledHamiltonian(as_operator(h), as_operator(hm), k)
        assert nonadiabatic_defect(hk, 2.0) <= 1e-12


def test_defect_at_zero_coupling_is_free_baseline():
    hk = three_level(1.0, 0.0)
    sec = zeno_sectors(hk)
    from zenosim import expm

    hd = diag_part(hk.h, sec).matrix
    baseline = snorm(expm(hk.h, 1.0).matrix - expm(as_operator(hd), 1.0).matrix)
    assert nonadiabatic_defect(hk, 1.0) == pytest.approx(baseline, abs=1e-14)
    assert baseline > 0.1


def test_defect_slope_minus_one():
    hk = three_level(1.0, 0.0)
    ks = [10.0, 20.0, 40.0, 80.0, 160.0]
    ds = [nonadiabatic_defect(hk.with_coupling(k), 1.0) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(ds), 1)[0]
    assert -1.1 <= slope <= -0.9


def test_defect_slope_minus_one_all_hermitian_models():
    ks = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    for hk in (four_level(1.0, 1.0, 0.5).inner_regime(),
               four_level(1.0, 0.5, 1.0).outer_regime()):
        ds = [nonadiabatic_defect(hk.with_coupling(k), 1.0) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(ds), 1)[0]
        assert -1.1 <= slope <= -0.9


def test_defect_envelope_halving_ratio():
    # the pointwise defect constant oscillates with the phase of K*t;
    # the envelope over [0, t] halves cleanly when K doubles
    hk = three_level(1.0, 0.0)
    ts = np.linspace(0.0, 1.0, 101)

    def envelope(k):
        w = hk.with_coupling(k)
        sec = zeno_sectors(w)
        return max(nonadiabatic_defect(w, t, sectors=sec) for t in ts)

    d80, d160 = envelope(80.0), envelope(160.0)
    assert 0.45 <= d160 / d80 <= 0.55


# --------------------------------------------------------------------------
# perturbative spectrum


def test_perturbative_zero_system_hamiltonian():
    hk = CoupledHamiltonian(as_operator(np.zeros((3, 3))),
                            three_level(1.0, 1.0).h_meas, 1.0)
    exp = perturbative_spectrum(hk, order=2)
    for b in exp.branches:
        assert b.eta1 == 0.0
        assert b.eta2 == 0.0
    gen = exp.generator(0.2).matrix
    assert snorm(gen - hk.h_meas.matrix) <= 1e-14


def test_perturbative_three_level_second_order_values():
    omega = 1.0
    hk = three_level(omega, 1.0)
    exp = perturbative_spectrum(hk, order=2)
    by_eta = {round(b.eta0.real): b for b in exp.branches}
    assert by_eta[0].eta1 == pytest.approx(0.0, abs=1e-14)
    assert by_eta[0].eta2 == pytest.approx(0.0, abs=1e-14)
    assert by_eta[1].eta2 == pytest.approx(omega ** 2 / 2, abs=1e-12)
    assert by_eta[-1].eta2 == pytest.approx(-omega ** 2 / 2, abs=1e-12)


def test_perturbative_second_order_matches_lambda_sweep_oracle():
    hk = three_level(1.0, 1.0)
    exp = perturbative_spectrum(hk, order=2)
    h, hm = hk.h.matrix, hk.h_meas.matrix
    # oracle: fit the lambda^2 coefficient of the eta=+1 branch
    lams = np.array([4e-3, 2e-3, 1e-3, 5e-4])
    tops = [np.linalg.eigvalsh(hm + lam * h).max() for lam in lams]
    coeff = np.polyfit(lams ** 2, np.array(tops) - 1.0, 1)[0]
    b = {round(x.eta0.real): x for x in exp.branches}[1]
    assert coeff == pytest.approx(b.eta2, rel=1e-4)


def test_perturbative_branch_projectors_resolve_identity(rng):
    hm = np.diag([0.0, 0.0, 1.0, 3.0]).astype(complex)
    h = random_hermitian(rng, 4)
    hk = CoupledHamiltonian(as_operator(h), as_operator(hm), 1.0)
    exp = perturbative_spectrum(hk, order=2)
    total = sum(b.projector.matrix for b in exp.branches)
    assert snorm(total - np.eye(4)) <= 1e-10


def test_reduced_resolvent_identity():
    hk = three_level(1.0, 1.0)
    exp = perturbative_spectrum(hk)
    hm = hk.h_meas.matrix
    for n, s in enumerate(exp.sectors):
        res = exp.reduced_resolvent(n)
        q = np.eye(3) - s.projector.matrix
        assert snorm((s.eigenvalue * np.eye(3) - hm) @ res - q) <= 1e-10


def test_perturbative_eigenvalues_accurate_to_lambda_cubed(rng):
    # coupling with a degenerate sector and a generic system part
    hm = np.diag([0.0, 0.0, 1.0, 3.0]).astype(complex)
    h = random_hermitian(rng, 4)
    hk = CoupledHamiltonian(as_operator(h), as_operator(hm), 1.0)
    exp = perturbative_spectrum(hk, order=2)
    quotients = []
    for lam in (1e-2, 5e-3, 2.5e-3):
        exact = np.sort(np.linalg.eigvalsh(hm + lam * h))
        pred = np.sort(exp.predicted_eigenvalues(lam).real)
        quotients.append(np.abs(exact - pred).max() / lam ** 3)
    assert max(quotients) <= 2.0 * quotients[0] + 1e-9


def test_perturbative_first_order_only():
    hk = three_level(1.0, 1.0)
    exp1 = perturbative_spectrum(hk, order=1)
    lam = 1e-3
    exact = np.sort(np.linalg.eigvalsh(hk.h_meas.matrix + lam * hk.h.matrix))
    pred = np.sort(exp1.predicted_eigenvalues(lam).real)
    # first-order prediction is accurate only to lambda^2
    err = np.abs(exact - pred).max()
    assert err <= 2 * lam ** 2
    assert err >= lam ** 2 / 4


def test_perturbative_projector_correction_direction():
    hk = three_level(1.0, 1.0)
    exp = perturbative_spectrum(hk)
    hm, h = hk.h_meas.matrix, hk.h.matrix
    lam = 1e-4
    w, v = np.linalg.eigh(hm + lam * h)
    for b in exp.branches:
        if b.multiplicity != 1:
            continue
        idx = int(np.argmin(np.abs(w - b.eigenvalue(lam).real)))
        vec = v[:, idx]
        exact_proj = np.outer(vec, vec.conj())
        predicted = b.projector.matrix + lam * b.projector_correction
        assert snorm(exact_proj - predicted) <= 10 * lam ** 2 / abs(lam)  # O(lam)
        assert snorm(exact_proj - predicted) <= 5 * lam  # correction helps
        assert snorm(exact_proj - b.projector.matrix) >= snorm(exact_proj - predicted)


def test_perturbative_generator_reproduces_spectrum():
    hk = three_level(1.0, 1.0)
    exp = perturbative_spectrum(hk)
    lam = 5e-3
    gen_eigs = np.sort(np.linalg.eigvalsh(exp.generator(lam).matrix))
    exact = np.sort(np.linalg.eigvalsh(hk.h_meas.matrix + lam * hk.h.matrix))
    assert np.abs(gen_eigs - exact).max() <= 10 * lam ** 3


def test_perturbative_unresolved_degeneracy_reported():
    # two identical uncoupled blocks: degenerate at every order
    hm = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 2] = h[2, 0] = 1.0
    h[1, 3] = h[3, 1] = 1.0
    hk = CoupledHamiltonian(as_operator(h), as_operator(hm), 1.0)
    exp = perturbative_spectrum(hk, order=2)
    assert exp.unresolved
    lump = exp.unresolved[0]
    assert lump.multiplicity == 2
    # the degenerate prediction is still correct for the pair
    lam = 1e-3
    exact = np.sort(np.linalg.eigvalsh(hm + lam * h))
    pred = np.sort(exp.predicted_eigenvalues(lam).real)
    assert np.abs(exact - pred).max() <= 10 * lam ** 3


def _rotated(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values),) * 2)
                        + 1j * rng.standard_normal((len(values),) * 2))
    return (q * np.asarray(values, dtype=float)) @ q.conj().T


def _perturbative_pair(kind):
    rng = np.random.default_rng(11)
    if kind == "nondegenerate":          # d = 30, unit gaps, a generic system part
        hm = _rotated(rng, np.arange(30.0))
        h = random_hermitian(rng, 30) / np.sqrt(30)
    else:                                # d = 12, ranks 4, 3, 5; P_n H P_n = 0 in every sector
        hm = _rotated(rng, [0.0] * 4 + [1.0] * 3 + [2.5] * 5)
        h = random_hermitian(rng, 12)
        for s in eig(hm):
            h -= s.projector.matrix @ h @ s.projector.matrix
    return CoupledHamiltonian(as_operator(h), as_operator(hm), 1.0)


@pytest.mark.parametrize("kind", ["nondegenerate", "degenerate"])
@pytest.mark.parametrize("order", [1, 2])
def test_perturbative_data_match_a_written_out_dense_reference(kind, order):
    hk = _perturbative_pair(kind)
    exp = perturbative_spectrum(hk, order=order)
    h, hm, d = hk.h.matrix, hk.h_meas.matrix, hk.dim
    ps = [s.projector.matrix for s in exp.sectors]
    etas = exp.sectors.eigenvalues
    res = [sum((pm / (etas[n] - etas[m]) for m, pm in enumerate(ps) if m != n),
               np.zeros((d, d), complex)) for n in range(len(ps))]
    for n, s_n in enumerate(res):
        assert np.abs(exp.reduced_resolvent(n) - s_n).max() <= 1e-12
    assert sum(b.multiplicity for b in exp.branches) == d
    for b in exp.branches:
        p, s_n = b.projector.matrix, res[b.sector_index]
        assert b.eta0 == etas[b.sector_index]
        assert abs(b.eta1 - np.trace(p @ h @ p).real / b.multiplicity) <= 1e-12
        b2 = p @ h @ s_n @ h @ p if order == 2 else np.zeros((d, d))
        assert abs(b.eta2 - np.trace(b2).real / b.multiplicity) <= 1e-12
        assert np.abs(b.projector_correction - (s_n @ h @ p + p @ h @ s_n)).max() <= 1e-12
    if kind == "degenerate":             # only the second order splits a sector
        assert all(b.eta1 == pytest.approx(0.0, abs=1e-12) for b in exp.branches)
        assert len(exp.unresolved) == (0 if order == 2 else 3)
        assert len(exp.branches) == (d if order == 2 else 3)
    lam = 0.05
    gen = hm + sum(lam * p @ h @ p + (order == 2) * lam * lam * p @ h @ s_n @ h @ p
                   for p, s_n in zip(ps, res))
    assert np.abs(exp.generator(lam).matrix - gen).max() <= 1e-12


def test_perturbative_data_of_a_certified_decomposition_form_no_sector_matrix(rng):
    hm = np.diag(np.repeat(np.arange(20.0), 3)).astype(complex)
    hk = CoupledHamiltonian(as_operator(random_hermitian(rng, 60)), as_operator(hm), 1.0)
    sectors = zeno_sectors(hk)
    assert all("basis" in s.projector.__dict__ for s in sectors)
    exp = perturbative_spectrum(hk, sectors=sectors)
    exp.generator(0.01)
    exp.reduced_resolvent(3)
    assert not any("matrix" in s.projector.__dict__ for s in sectors)


@pytest.mark.parametrize("n", [-1, 3, True, False, 1.0, "0", None])
def test_reduced_resolvent_refuses_an_index_outside_the_sectors(n):
    exp = perturbative_spectrum(three_level(1.0, 5.0))     # three sectors
    with pytest.raises(ValidationError, match=r"n = .* is not a sector index in 0 \.\. 2"):
        exp.reduced_resolvent(n)


def test_reduced_resolvent_takes_a_numpy_integer():
    exp = perturbative_spectrum(three_level(1.0, 5.0))
    assert np.array_equal(exp.reduced_resolvent(np.int64(2)), exp.reduced_resolvent(2))


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_generator_and_predicted_eigenvalues_refuse_a_non_finite_lam(lam):
    exp = perturbative_spectrum(three_level(1.0, 5.0))
    with pytest.raises(ValidationError, match="lam must be finite"):
        exp.generator(lam)
    with pytest.raises(ValidationError, match="lam must be finite"):
        exp.predicted_eigenvalues(lam)


def test_perturbative_requires_hermitian_coupling():
    model = cavity(1.0, 1.0, 2)
    with pytest.raises(ValidationError):
        perturbative_spectrum(model.hk)
