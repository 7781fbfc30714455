"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass.  Slopes and rates are fitted with plain numpy here, independently of
the slope the scenario runner writes; closed forms are evaluated inline.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from zenosim import (
    DensityMatrix,
    Projector,
    basis_projector,
    cavity,
    decay_model,
    dfs_extract,
    exact_propagator,
    expm,
    four_level,
    intertwining_defect,
    nonadiabatic_defect,
    nonselective_evolve,
    nonselective_limit,
    offblock_norm,
    perturbative_spectrum,
    pulsed_limit,
    pulsed_propagator,
    rotating_bundle,
    rotation_generator,
    snorm,
    survival_amplitude,
    three_level,
    three_level_survival,
    zeno_propagator,
    zeno_sectors,
    zeno_time,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, ok: bool, description: str, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def rank2_projector(hk):
    sec = zeno_sectors(hk)
    by_eta = {round(s.eigenvalue.real): s.projector for s in sec}
    return Projector(by_eta[0].matrix + by_eta[1].matrix, rank=2)


def test_criterion_01_analytic_survival():
    start = time.perf_counter()
    ts = np.linspace(0.0, 10.0, 1001)
    worst = 0.0
    for k in (0.0, 1.0, 10.0, 100.0):
        hk = three_level(1.0, k)
        rho0 = DensityMatrix.pure([1, 0, 0])
        p0 = basis_projector(3, 0)
        for t in ts:
            from zenosim import survival_probability

            p = survival_probability(rho0, exact_propagator(hk, t), p0)
            worst = max(worst, abs(p - three_level_survival(1.0, k, t)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, ok, "closed-form survival across couplings",
           f"max dev {worst:.3e} (<= 1e-8), {elapsed:.2f} s (< 1 s)")


def test_criterion_02_zeno_saturation():
    start = time.perf_counter()
    hk = three_level(1.0, 100.0)
    ts = np.linspace(0.0, 10.0, 1001)
    pmin = min(abs(exact_propagator(hk, t).matrix[0, 0]) ** 2 for t in ts)
    elapsed = time.perf_counter() - start
    ok = pmin >= 0.999 and elapsed < 1.0
    report(2, ok, "strong-coupling survival floor at K=100",
           f"min p0 {pmin:.6f} (>= 0.999), {elapsed:.2f} s (< 1 s)")


def test_criterion_03_pulsed_limit_convergence():
    start = time.perf_counter()
    hk = three_level(1.0, 1.0)
    h = hk.total()
    p = rank2_projector(hk)
    lim = pulsed_limit(h, p, 1.0).matrix
    ns = np.array([64, 128, 256, 512, 1024])
    errs = np.array([snorm(pulsed_propagator(h, p, int(n), 1.0).matrix - lim)
                     for n in ns])
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - start
    ok = -1.1 <= slope <= -0.9 and elapsed < 5.0
    report(3, ok, "pulsed chain converges to its limit like 1/N",
           f"slope {slope:.4f} (-1 +/- 0.1), {elapsed:.2f} s (< 5 s)")


def test_criterion_04_continuous_limit_convergence():
    start = time.perf_counter()
    hk = three_level(1.0, 0.0)
    ks = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    ds = np.array([nonadiabatic_defect(hk.with_coupling(k), 1.0) for k in ks])
    slope = np.polyfit(np.log(ks), np.log(ds), 1)[0]
    elapsed = time.perf_counter() - start
    ok = -1.1 <= slope <= -0.9 and elapsed < 5.0
    report(4, ok, "exact propagator approaches the limit form like 1/K",
           f"slope {slope:.4f} (-1 +/- 0.1), {elapsed:.2f} s (< 5 s)")


def test_criterion_05_superselection():
    models = [
        three_level(1.0, 10.0),
        four_level(1.0, 50.0, 0.0).inner_regime(),
        four_level(1.0, 50.0, 2500.0).outer_regime(),
        four_level(1.0, 5.0, 2.0).inner_regime(),
    ]
    rng = np.random.default_rng(7)
    worst_comm = worst_drift = 0.0
    for hk in models:
        sec = zeno_sectors(hk)
        dim = hk.dim
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m @ m.conj().T
        rho /= rho.trace().real
        p0 = [float((s.projector.matrix @ rho).trace().real) for s in sec]
        for t in np.linspace(0.0, 10.0, 21):
            u = zeno_propagator(hk, t, sectors=sec).matrix
            for n, s in enumerate(sec):
                pmat = s.projector.matrix
                worst_comm = max(worst_comm, snorm(u @ pmat - pmat @ u))
                pt = float((pmat @ u @ rho @ u.conj().T).trace().real)
                worst_drift = max(worst_drift, abs(pt - p0[n]))
    ok = worst_comm <= 1e-10 and worst_drift <= 1e-10
    report(5, ok, "limit propagator respects every sector",
           f"max commutator {worst_comm:.2e}, max drift {worst_drift:.2e} (<= 1e-10)")


def test_criterion_06_nonselective_decoherence():
    hk = three_level(1.0, 1.0)
    sec = zeno_sectors(hk)
    h = hk.total()
    rho0 = DensityMatrix.pure(np.ones(3) / math.sqrt(3))
    ns = np.array([16, 32, 64, 128, 256, 512, 1024])
    obs = np.array([offblock_norm(
        nonselective_evolve(h, sec, int(n), 3.0, rho0, project_final=False), sec)
        for n in ns])
    slope = np.polyfit(np.log(ns), np.log(obs), 1)[0]
    lim = nonselective_limit(h, sec, 3.0, rho0)
    drift = max(abs(lim.population(s.projector) - rho0.population(s.projector))
                for s in sec)
    ok = -1.15 <= slope <= -0.85 and drift <= 1e-10
    report(6, ok, "unread measurements decohere the blocks like 1/N",
           f"offblock slope {slope:.4f} (-1 +/- 0.15), limit drift {drift:.2e}")


def test_criterion_07_zeno_time_fit():
    omega = 1.0
    h = omega * np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.array([1, 0], dtype=complex)
    taus = 0.01 * 0.5 ** np.arange(5)  # 0.01/||H|| geometric grid
    deficits = np.array([1 - abs(survival_amplitude(h, a, t)) ** 2 for t in taus])
    slope, intercept = np.polyfit(np.log(taus), np.log(deficits), 1)
    tz_fit = math.exp(-intercept / 2)
    err = abs(tz_fit - 1 / omega) * omega
    ok = err <= 0.01 and abs(zeno_time(h, a) - 1 / omega) <= 1e-12
    report(7, ok, "short-time fit recovers the quadratic decay scale",
           f"fitted tz {tz_fit:.6f} vs 1/omega, rel err {err:.2e} (<= 1%), "
           f"exponent {slope:.3f}")


def test_criterion_08_four_level_hindrance_restoration():
    frozen = json.loads((FIXTURES / "four_level_thresholds.json").read_text())
    ts = np.linspace(0.0, 2 * math.pi, 1001)

    def p1(model):
        return np.array([abs(expm(model.total, t).matrix[0, 0]) ** 2 for t in ts])

    hindered = p1(four_level(frozen["omega"], frozen["k_inner"],
                             frozen["hindrance"]["k_outer"]))
    restored = p1(four_level(frozen["omega"], frozen["k_inner"],
                             frozen["restoration"]["k_outer"]))
    dev = np.abs(restored - np.cos(ts) ** 2).max()
    ok = (hindered.min() >= frozen["hindrance"]["min_p1_threshold"]
          and dev <= frozen["restoration"]["max_deviation_threshold"])
    report(8, ok, "watcher freezes the pair, watched watcher frees it",
           f"min p1 {hindered.min():.5f} (>= {frozen['hindrance']['min_p1_threshold']}), "
           f"max |p1 - cos^2| {dev:.5f} (<= {frozen['restoration']['max_deviation_threshold']})")


def test_criterion_09_decoherence_free_subspace():
    model = cavity(1.0, 1.0, 2)
    dec = dfs_extract(model.hk)
    dim_ok = dec.total_rank() == 5
    e = np.zeros((model.dim, 5), dtype=complex)
    for k, lbl in enumerate([(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]):
        e[model.sectors.index(lbl), k] = 1.0
    e[model.sectors.index((0, 2, 1)), 4] = 1 / math.sqrt(2)
    e[model.sectors.index((0, 1, 2)), 4] = -1 / math.sqrt(2)
    distance = snorm(dec.sectors[0].projector.matrix - e @ e.conj().T)

    order = [(0, 2, 0), (0, 0, 2), (1, 0, 0), (1, 1, 0),
             (1, 0, 1), (0, 2, 1), (0, 1, 2), (1, 1, 1)]
    block = model.sectors.restriction(model.hk.h_meas.matrix, 1, order=order)
    ig, ik = 1j, 1j
    reference = np.array([
        [0, 0, 0, ig, 0, 0, 0, 0],
        [0, 0, 0, 0, ig, 0, 0, 0],
        [0, 0, -ik, 0, 0, 0, 0, 0],
        [-ig, 0, 0, -ik, 0, 0, 0, 0],
        [0, -ig, 0, 0, -ik, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, ig],
        [0, 0, 0, 0, 0, 0, 0, ig],
        [0, 0, 0, 0, 0, -ig, -ig, -ik],
    ], dtype=complex)
    entrywise = np.array_equal(block, reference)
    ok = dim_ok and distance <= 1e-9 and entrywise
    report(9, ok, "dissipative coupling leaves a five-dimensional safe subspace",
           f"dimension {dec.total_rank()} (= 5), subspace distance {distance:.2e} "
           f"(<= 1e-9), 8x8 restriction entrywise match: {entrywise}")


def test_criterion_10_decay_protection():
    ts = np.linspace(0.0, 10.0, 501)

    def rate(k):
        hk = decay_model(1.0, 0.5, float(k))
        p = np.array([abs(expm(hk.total(), t).matrix[0, 0]) ** 2 for t in ts])
        return -np.polyfit(ts, np.log(p), 1)[0]

    rates = [rate(k) for k in (0, 1, 2, 4, 8, 16)]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(rates, rates[1:]))
    ratio = rates[-1] / rates[0]
    ok = monotone and ratio <= 0.10
    report(10, ok, "resonant driving shuts off the decay",
           f"rates {['%.3g' % r for r in rates]}, monotone: {monotone}, "
           f"K=16/K=0 ratio {ratio:.2e} (<= 0.1)")


def test_criterion_11_perturbative_spectrum():
    hk = three_level(1.0, 1.0)
    exp = perturbative_spectrum(hk, order=2)
    hm, h = hk.h_meas.matrix, hk.h.matrix
    quotients = []
    for lam in (1e-2, 5e-3, 2.5e-3):
        exact = np.sort(np.linalg.eigvalsh(hm + lam * h))
        pred = np.sort(exp.predicted_eigenvalues(lam).real)
        quotients.append(np.abs(exact - pred).max() / lam ** 3)
    # bounded as lam -> 0: no quotient may grow past twice the coarsest one
    ok = max(quotients) <= 2.0 * quotients[0] + 1e-12
    report(11, ok, "second-order eigenvalue corrections are accurate to cubic order",
           f"err/lam^3 quotients {['%.3e' % q for q in quotients]} (bounded)")


def test_criterion_12_time_dependent_intertwining():
    hk = three_level(1.0, 1.0)
    gen = rotation_generator(3, 2, 3, "phase")
    bundle = rotating_bundle(hk.h.matrix, hk.h_meas, gen, 0.2, 1.0)
    reports = intertwining_defect(bundle, 1.5, [10.0, 40.0, 160.0], samples=30)
    d = [r.max_defect for r in reports]
    r1, r2 = d[1] / d[0], d[2] / d[1]
    ok = r1 <= 0.35 and r2 <= 0.35
    report(12, ok, "rotating sectors are dragged along in the strong-coupling limit",
           f"defect ratios 40/10 {r1:.3f}, 160/40 {r2:.3f} (<= 0.35)")
