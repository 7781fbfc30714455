import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenosim import (
    SectorTrackingError,
    StepResolutionError,
    TimeDependentBundle,
    ValidationError,
    adiabatic,
    as_operator,
    constant_bundle,
    eig,
    exact_propagator,
    expm,
    intertwining_defect,
    propagate_td,
    required_steps,
    rotating_bundle,
    rotation_generator,
    snorm,
    three_level,
)
from zenosim.operators import UNITARITY_TOL


def rotating_three_level(omega=1.0, rate=0.2, coupling=1.0, kind="phase"):
    m = three_level(omega, coupling)
    gen = rotation_generator(3, 2, 3, kind)
    return rotating_bundle(m.h.matrix, m.h_meas, gen, rate, coupling)


# --------------------------------------------------------------------------
# integrator


def test_constant_bundle_matches_exact_propagator():
    hk = three_level(1.0, 5.0)
    b = constant_bundle(hk)
    u = propagate_td(b, 1.2, required_steps(b, 1.2))
    # midpoint exponentials are exact for a constant generator
    assert snorm(u.matrix - exact_propagator(hk, 1.2).matrix) <= 1e-11


def test_propagate_unitary_and_second_order():
    b = rotating_three_level(coupling=5.0, rate=0.3)
    t = 1.0
    n0 = 4 * required_steps(b, t)
    u1 = propagate_td(b, t, n0).matrix
    u2 = propagate_td(b, t, 2 * n0).matrix
    u3 = propagate_td(b, t, 4 * n0).matrix
    assert snorm(u3.conj().T @ u3 - np.eye(3)) <= 1e-10
    ratio = snorm(u1 - u2) / snorm(u2 - u3)
    assert 3.6 <= ratio <= 4.4


def test_step_resolution_error_names_timescale():
    b = rotating_three_level(coupling=50.0)
    with pytest.raises(StepResolutionError) as info:
        propagate_td(b, 1.0, 3)
    assert info.value.timescale == "measurement"
    slow = TimeDependentBundle(h=lambda t: 30.0 * np.diag([1.0, -1.0]),
                               h_meas=lambda t: np.zeros((2, 2)), coupling=0.0)
    with pytest.raises(StepResolutionError) as info:
        propagate_td(slow, 1.0, 10)
    assert info.value.timescale == "system"


def test_propagate_rejects_nonhermitian_sample():
    bad = TimeDependentBundle(h=lambda t: np.array([[0, t], [0, 0]]),
                              h_meas=lambda t: np.zeros((2, 2)), coupling=0.0)
    with pytest.raises(ValidationError):
        propagate_td(bad, 1.0, 100)


def test_time_zero_is_identity():
    b = rotating_three_level()
    assert np.array_equal(propagate_td(b, 0.0, 1).matrix, np.eye(3))


# --------------------------------------------------------------------------
# batched midpoint integration

SEVEN_STEPS = 7 * 16 * 3 * 3        # stack cap of seven 3x3 generators


def per_step_checkpoints(bundle, t, steps, checkpoints=1):
    """The loop the batched integrator reproduces bit for bit: one
    Hermitian exponential per midpoint, multiplied into U in time order."""
    dt = t / steps
    u = np.eye(3, dtype=complex)
    out = []
    for k in range(steps):
        gen = as_operator(bundle.total((k + 0.5) * dt), hermitian=True)
        u = expm(gen, dt).matrix @ u
        if (k + 1) % (steps // checkpoints) == 0:
            out.append(u)
    return out


def time_by_time(bundle, h_meas=None):
    """The bundle behind plain callables, which are sampled one time at a
    time."""
    return TimeDependentBundle(lambda t: bundle.h(t), h_meas or (lambda t: bundle.h_meas(t)),
                               bundle.coupling)


@pytest.mark.parametrize("steps, checkpoints", [(20, 4), (21, 3), (28, 4), (29, 1), (7, 7)])
@pytest.mark.parametrize("stacked", [True, False])
def test_batched_steps_are_the_per_step_loop(monkeypatch, steps, checkpoints, stacked):
    monkeypatch.setattr(adiabatic, "_STACK_BYTES", SEVEN_STEPS)
    b = rotating_three_level(coupling=2.0, rate=0.4)
    b = b if stacked else time_by_time(b)
    got = list(adiabatic._midpoint_checkpoints(b, 1.0, steps, checkpoints))
    want = per_step_checkpoints(b, 1.0, steps, checkpoints)
    assert len(got) == checkpoints
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("stacked", [True, False])
def test_propagate_td_is_the_per_step_loop(stacked):
    b = rotating_three_level(coupling=40.0)
    b = b if stacked else time_by_time(b)
    n = required_steps(b, 1.5)
    [want] = per_step_checkpoints(b, 1.5, n)
    assert np.array_equal(propagate_td(b, 1.5, n).matrix, want)


@pytest.mark.parametrize("onset, first", [(0.0, "0.025"), (0.6, "0.625"), (0.7, "0.725")])
def test_first_non_hermitian_time_is_reported(monkeypatch, onset, first):
    # chunks of seven steps: 0.625 is inside the second, 0.725 opens the third
    monkeypatch.setattr(adiabatic, "_STACK_BYTES", SEVEN_STEPS)
    b = rotating_three_level()
    leak = np.zeros((3, 3), dtype=complex)
    leak[0, 1] = 1e-3
    bad = time_by_time(b, lambda t: b.h_meas(t) + (leak if t > onset else 0))
    with pytest.raises(ValidationError, match=f"bundle is not Hermitian at t = {first}$"):
        propagate_td(bad, 1.0, 20)


def test_non_hermitian_rotating_bundle_is_rejected():
    m = three_level(1.0, 1.0)
    h = m.h.matrix.copy()
    h[0, 1] += 1e-3
    b = rotating_bundle(h, m.h_meas, rotation_generator(3, 2, 3, "phase"), 0.2, 1.0)
    with pytest.raises(ValidationError, match="bundle is not Hermitian at t = 0.025$"):
        propagate_td(b, 1.0, 20)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_generator_is_rejected(monkeypatch, value):
    monkeypatch.setattr(adiabatic, "_STACK_BYTES", SEVEN_STEPS)
    b = rotating_three_level()

    def h_meas(t):                  # non-finite at one midpoint only, no probe time
        m = b.h_meas(t)
        if abs(t - 0.725) < 1e-9:
            m[1, 1] = value
        return m

    with pytest.raises(ValidationError, match="bundle is not Hermitian at t = 0.725$"):
        propagate_td(time_by_time(b, h_meas), 1.0, 20)


def test_intertwining_defect_exponentiates_independently_of_the_step_count(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return expm(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "zenosim" or name.startswith("zenosim.")) and hasattr(module, "expm"):
            monkeypatch.setattr(module, "expm", counting)
    b = rotating_three_level()
    ks = [10.0, 40.0]
    n = required_steps(b.with_coupling(ks[-1]), 1.5)
    counts = []
    for steps in (n, 8 * n):
        calls.clear()
        intertwining_defect(b, 1.5, ks, samples=10, steps=steps)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= len(ks)


def per_checkpoint_reports(bundle, t, ks, samples):
    """The loop the chunked checkpoints reproduce bit for bit: each
    checkpoint ``U`` against its own stacked (sector, d, d) projectors."""
    path = [eig(as_operator(bundle.h_meas(0.0)))]
    for tk in np.linspace(0.0, t, samples + 1)[1:]:
        path.append(adiabatic._tracked_sectors(path[-1], eig(as_operator(bundle.h_meas(tk)))))
    p0 = np.array([p.matrix for p in path[0].projectors])
    rho0 = np.array([p.matrix / p.rank for p in path[0].projectors])
    out = []
    for k in ks:
        bk = bundle.with_coupling(k)
        steps = adiabatic._step_plan(bk, t, None, samples, resolve=True)
        defect = drift = np.zeros(len(p0))
        for here, u in zip(path[1:], adiabatic._midpoint_checkpoints(bk, t, steps, samples)):
            pt = np.array([p.matrix for p in here.projectors])
            defect = np.maximum(defect, np.linalg.norm(u @ p0 - pt @ u, 2, axis=(1, 2)))
            pop = np.trace(pt @ u @ rho0 @ u.conj().T, axis1=1, axis2=2).real
            drift = np.maximum(drift, np.abs(pop - 1.0))
        out.append((k, defect.tolist(), drift.tolist()))
    return out


@pytest.mark.parametrize("budget", [1, 3 * 16 * 3 * 3 * 3, adiabatic._STACK_BYTES])
def test_chunked_checkpoints_give_the_per_checkpoint_reports(monkeypatch, budget):
    # one, three (a ragged last chunk of one) and 37 checkpoints of three sectors per chunk
    monkeypatch.setattr(adiabatic, "_STACK_BYTES", budget)
    b = rotating_three_level(rate=0.3)
    reports = intertwining_defect(b, 1.5, [10.0, 40.0], samples=10)
    got = [(r.coupling, [s.defect for s in r.sectors], [s.drift for s in r.sectors])
           for r in reports]
    assert got == per_checkpoint_reports(b, 1.5, [10.0, 40.0], 10)


# --------------------------------------------------------------------------
# intertwining / transport


def test_constant_coupling_reduces_to_commutator_defect():
    hk = three_level(1.0, 1.0)
    b = constant_bundle(hk)
    reports = intertwining_defect(b, 1.0, [25.0], samples=10)
    r = reports[0]
    # constant sectors: defect is the worst commutator norm over checkpoints
    from zenosim import zeno_sectors

    sec = zeno_sectors(hk)
    worst = 0.0
    for t in np.linspace(0.1, 1.0, 10):
        u = exact_propagator(hk.with_coupling(25.0), t).matrix
        for s in sec:
            p = s.projector.matrix
            worst = max(worst, snorm(u @ p - p @ u))
    assert r.max_defect == pytest.approx(worst, rel=1e-6)


def test_intertwining_defect_zero_at_time_zero():
    b = rotating_three_level()
    reports = intertwining_defect(b, 0.0, [10.0], samples=1)
    assert reports[0].max_defect <= 1e-12


def test_intertwining_defect_shrinks_with_coupling():
    b = rotating_three_level(rate=0.2)
    reports = intertwining_defect(b, 1.5, [10.0, 40.0, 160.0], samples=30)
    d = [r.max_defect for r in reports]
    assert d[1] / d[0] <= 0.35
    assert d[2] / d[1] <= 0.35
    drift = [r.max_drift for r in reports]
    assert drift[0] > drift[1] > drift[2]


def test_transport_monotone_on_doubling_grid():
    b = rotating_three_level(rate=0.2)
    reports = intertwining_defect(b, 1.0, [10.0, 20.0, 40.0, 80.0], samples=20)
    defects = [r.max_defect for r in reports]
    drifts = [r.max_drift for r in reports]
    for a, bb in zip(defects, defects[1:]):
        assert bb <= 1.05 * a
    for a, bb in zip(drifts, drifts[1:]):
        assert bb <= 1.05 * a


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 4), st.floats(0.05, 0.5))
def test_intertwining_on_random_rotating_couplings(seed, dim, rate):
    rng = np.random.default_rng(seed)

    def hermitian():        # unit spectral norm
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (a + a.conj().T) / snorm(a + a.conj().T)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    etas = rng.permutation(dim) + rng.uniform(-0.2, 0.2, dim)   # gaps of at least 0.6
    h_meas = (q * etas) @ q.conj().T
    b = rotating_bundle(hermitian(), (h_meas + h_meas.conj().T) / 2, hermitian(), rate, 1.0)
    ks = [10.0, 40.0, 160.0]
    defects = [r.max_defect for r in intertwining_defect(b, 1.0, ks, samples=20)]
    assert defects[0] > defects[1] > defects[2]
    for k in ks:
        bk = b.with_coupling(k)
        steps = adiabatic._step_plan(bk, 1.0, None, 20, resolve=True)
        for u in adiabatic._midpoint_checkpoints(bk, 1.0, steps, 20):
            assert snorm(u.conj().T @ u - np.eye(dim)) <= UNITARITY_TOL * dim


def test_plane_rotation_transport():
    b = rotating_three_level(rate=0.15, kind="plane")
    reports = intertwining_defect(b, 1.0, [20.0, 80.0], samples=20)
    assert reports[1].max_defect < reports[0].max_defect / 2


def test_eigenvalue_crossing_refused():
    hm0 = np.diag([1.0, -1.0, 0.0])

    def h_meas(t):
        return (1.0 - 2.0 * t) * hm0

    b = TimeDependentBundle(h=lambda t: np.zeros((3, 3)), h_meas=h_meas, coupling=10.0)
    with pytest.raises(SectorTrackingError):
        intertwining_defect(b, 1.0, [10.0], samples=10)


def test_bad_grids_rejected():
    b = rotating_three_level()
    with pytest.raises(ValidationError):
        intertwining_defect(b, 1.0, [])
    with pytest.raises(ValidationError):
        intertwining_defect(b, 1.0, [-1.0])
