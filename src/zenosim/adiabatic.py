"""Time-dependent strong coupling and sector transport.

When the measurement coupling itself moves, ``H_K(t) = H(t) + K H_meas(t)``,
the strong-coupling limit no longer pins the state to a fixed sector: it
drags each sector along its own path.  The limit propagator maps the
sector at time zero onto the sector at time t (the intertwining property),
and the population of the moving sector stays constant.  This module
integrates the Schroedinger equation for such bundles and measures how
far a finite coupling is from perfect transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .continuous import CoupledHamiltonian
from .errors import SectorTrackingError, StepResolutionError, ValidationError
from .operators import (
    Operator,
    SectorDecomposition,
    as_operator,
    eig,
    expm,
    is_hermitian,
    snorm,
)

# Fraction of the fastest period a single step may cover.
_STEP_FRACTION = 0.1
_TRACK_OVERLAP_FLOOR = 0.5


@dataclass(frozen=True)
class TimeDependentBundle:
    """Time-dependent system and measurement Hamiltonians with strength K.

    ``h`` and ``h_meas`` map a time to a matrix; both must keep a constant
    dimension and stay Hermitian at every sampled time (checked as the
    integrator walks the path).
    """

    h: Callable[[float], np.ndarray]
    h_meas: Callable[[float], np.ndarray]
    coupling: float

    def __post_init__(self):
        if not math.isfinite(self.coupling) or self.coupling < 0:
            raise ValidationError("coupling strength K must be finite and >= 0")

    def with_coupling(self, coupling: float) -> "TimeDependentBundle":
        return TimeDependentBundle(self.h, self.h_meas, coupling)

    def total(self, t: float) -> np.ndarray:
        return np.asarray(self.h(t), dtype=complex) + \
            self.coupling * np.asarray(self.h_meas(t), dtype=complex)


def constant_bundle(hk: CoupledHamiltonian) -> TimeDependentBundle:
    """Freeze a time-independent Hamiltonian pair into a bundle."""
    h = hk.h.matrix
    hm = hk.h_meas.matrix
    return TimeDependentBundle(h=lambda t: h, h_meas=lambda t: hm,
                               coupling=hk.coupling)


def rotating_bundle(h0, h_meas0, generator, rate: float,
                    coupling: float) -> TimeDependentBundle:
    """Bundle with a rigidly rotating measurement coupling.

    The measurement matrix is carried along ``R(t) = exp(-i * rate * t * G)``
    as ``R H_meas R^dag`` while the system part stays fixed, so its sector
    projectors rotate smoothly without eigenvalue crossings.
    """
    h = np.asarray(h0, dtype=complex)
    hm0 = as_operator(h_meas0)
    gen = as_operator(generator)
    if not gen.hermitian:
        raise ValidationError("rotation generator must be Hermitian")
    if gen.dim != hm0.dim:
        raise ValidationError("rotation generator dimension mismatch")
    # R(t) = expm(gen, rate * t), from one eigendecomposition of the generator
    w, v = np.linalg.eigh(gen.matrix)
    vdag = v.conj().T

    def h_meas(t: float) -> np.ndarray:
        r = (v * np.exp(-1j * (rate * t) * w)) @ vdag
        return r @ hm0.matrix @ r.conj().T

    return TimeDependentBundle(h=lambda t: h, h_meas=h_meas, coupling=coupling)


def _max_norms(bundle: TimeDependentBundle, t: float, probes: int = 9) -> tuple[float, float]:
    ts = np.linspace(0.0, t, probes) if t > 0 else np.array([0.0])
    hn = max(snorm(np.asarray(bundle.h(s), dtype=complex)) for s in ts)
    mn = max(snorm(np.asarray(bundle.h_meas(s), dtype=complex)) for s in ts)
    return hn, mn


def required_steps(bundle: TimeDependentBundle, t: float) -> int:
    """Smallest step count resolving both the system and the (K-scaled)
    measurement timescale at a tenth of a period."""
    return _steps_for(bundle, t, _max_norms(bundle, t))


def _steps_for(bundle: TimeDependentBundle, t: float, norms: tuple[float, float]) -> int:
    hn, mn = norms
    fastest = max(hn, bundle.coupling * mn)
    if fastest == 0 or t == 0:
        return 1
    return max(1, int(math.ceil(t * fastest / _STEP_FRACTION)))


def _check_resolution(bundle: TimeDependentBundle, t: float, steps: int,
                      norms: tuple[float, float]) -> None:
    """Refuse steps coarser than a tenth of either period; ``norms`` is
    ``_max_norms(bundle, t)``."""
    hn, mn = norms
    dt = t / steps
    km = bundle.coupling * mn
    # report the tighter of the two violated timescales
    checks = sorted((("system", hn), ("measurement", km)),
                    key=lambda kv: -kv[1])
    for name, rate in checks:
        if rate > 0 and dt > _STEP_FRACTION / rate:
            raise StepResolutionError(
                f"step {dt:.3e} does not resolve the {name} timescale "
                f"{_STEP_FRACTION / rate:.3e}; need >= {_steps_for(bundle, t, norms)} steps",
                timescale=name)


def _step_generator(bundle: TimeDependentBundle, tm: float) -> Operator:
    gen = bundle.total(tm)
    if not is_hermitian(gen):
        raise ValidationError(f"bundle is not Hermitian at t = {tm:.6g}")
    return as_operator(gen, hermitian=True)


def propagate_td(bundle: TimeDependentBundle, t: float, steps: int) -> Operator:
    """Propagator of the time-dependent Schroedinger equation.

    Ordered product of midpoint-sampled exponentials,
    ``U = prod_k exp(-i H_K(t_k + dt/2) dt)``: unitary by construction at
    every step and second-order accurate in the step size.  Steps must
    resolve both timescales (a tenth of the fastest period), otherwise a
    resolution error names the binding one.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValidationError("step count must be an integer >= 1")
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("horizon must be finite and non-negative")
    dim = np.asarray(bundle.h(0.0)).shape[0]
    if t == 0:
        return Operator(np.eye(dim, dtype=complex))
    _check_resolution(bundle, t, steps, _max_norms(bundle, t))
    dt = t / steps
    u = np.eye(dim, dtype=complex)
    for k in range(steps):
        gen = _step_generator(bundle, (k + 0.5) * dt)
        u = expm(gen, dt).matrix @ u
    return Operator(u)


def propagate_td_interaction(bundle: TimeDependentBundle, t: float,
                             steps: int) -> tuple[Operator, Operator]:
    """Split propagation: system factor ``U_S`` and the factor ``U_I``
    generated by the rotated coupling ``K U_S^dag H_meas U_S``.

    Their product reproduces :func:`propagate_td` to integrator accuracy;
    the comparison is the frame-consistency check of the integrator.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValidationError("step count must be an integer >= 1")
    dim = np.asarray(bundle.h(0.0)).shape[0]
    if t == 0:
        eye = Operator(np.eye(dim, dtype=complex))
        return eye, eye
    _check_resolution(bundle, t, steps, _max_norms(bundle, t))
    dt = t / steps
    us = np.eye(dim, dtype=complex)
    ui = np.eye(dim, dtype=complex)
    for k in range(steps):
        tm = (k + 0.5) * dt
        h_mid = np.asarray(bundle.h(tm), dtype=complex)
        us_mid = expm(as_operator(h_mid, hermitian=True), dt / 2).matrix @ us
        hi_mid = us_mid.conj().T @ np.asarray(bundle.h_meas(tm), dtype=complex) @ us_mid
        ui = expm(as_operator(bundle.coupling * hi_mid), dt).matrix @ ui
        us = expm(as_operator(h_mid, hermitian=True), dt).matrix @ us
    return Operator(us), Operator(ui)


# ---------------------------------------------------------------------------
# sector transport


@dataclass(frozen=True)
class SectorTransport:
    """Transport quality of one sector: worst intertwining defect
    ``||U(t) P_n(0) - P_n(t) U(t)||`` and worst population drift of a state
    started inside the sector (maximally mixed over it)."""

    eigenvalue: complex
    defect: float
    drift: float


@dataclass(frozen=True)
class TransportReport:
    """Per-coupling transport summary over a sampled path."""

    coupling: float
    sectors: tuple[SectorTransport, ...]

    @property
    def max_defect(self) -> float:
        return max((s.defect for s in self.sectors), default=0.0)

    @property
    def max_drift(self) -> float:
        return max((s.drift for s in self.sectors), default=0.0)


def _tracked_sectors(prev: SectorDecomposition,
                     current: SectorDecomposition) -> SectorDecomposition:
    """Reorder ``current`` to follow ``prev`` by maximal projector overlap.

    Overlap is ``Tr[P_prev P_new] / rank``; any matched pair below 0.5 is
    treated as an eigenvalue crossing and refused.
    """
    if len(prev) != len(current):
        raise SectorTrackingError(
            f"sector count changed along the path ({len(prev)} -> {len(current)})")
    overlap = np.zeros((len(prev), len(current)))
    for i, sp in enumerate(prev):
        for j, sc in enumerate(current):
            overlap[i, j] = float(
                (sp.projector.matrix @ sc.projector.matrix).trace().real
            ) / sp.projector.rank
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-overlap)
    order = [0] * len(prev)
    for i, j in zip(rows, cols):
        if overlap[i, j] < _TRACK_OVERLAP_FLOOR:
            raise SectorTrackingError(
                f"sector overlap {overlap[i, j]:.3f} below {_TRACK_OVERLAP_FLOOR}; "
                "the path crosses eigenvalues")
        order[i] = j
    return SectorDecomposition(tuple(current.sectors[j] for j in order),
                               current.cluster_tol, current.dim,
                               complete=current.complete)


def intertwining_defect(bundle: TimeDependentBundle, t: float, k_grid,
                        samples: int = 40,
                        steps: int | None = None) -> list[TransportReport]:
    """Transport defect and drift along the path, for each coupling in
    ``k_grid``.

    For each K the path is integrated with automatically resolved steps
    (or ``steps``, which must resolve the largest K), the sectors of
    ``H_meas(t_k)`` are followed by maximal overlap through ``samples``
    checkpoints, and each sector reports its worst intertwining defect and
    population drift.  Both shrink as K grows.
    """
    ks = [float(k) for k in k_grid]
    if not ks:
        raise ValidationError("coupling grid must not be empty")
    if any(k < 0 for k in ks):
        raise ValidationError("coupling strengths must be >= 0")
    if samples < 1:
        raise ValidationError("need at least one checkpoint")

    sample_ts = np.linspace(0.0, t, samples + 1)
    # sector path is coupling-independent: track it once
    sector_path = [eig(as_operator(np.asarray(bundle.h_meas(0.0), dtype=complex)))]
    for tk in sample_ts[1:]:
        fresh = eig(as_operator(np.asarray(bundle.h_meas(tk), dtype=complex)))
        sector_path.append(_tracked_sectors(sector_path[-1], fresh))

    reports = []
    for k in ks:
        b = bundle.with_coupling(k)
        norms = _max_norms(b, t)
        nsteps = _steps_for(b, t, norms) if steps is None else int(steps)
        nsteps = max(nsteps, samples)
        nsteps += (-nsteps) % samples       # integer steps per checkpoint
        _check_resolution(b, t, nsteps, norms)
        per = nsteps // samples
        dt = t / nsteps

        sectors0 = sector_path[0]
        rho0 = [p.matrix / p.rank for p in sectors0.projectors]
        worst_defect = [0.0] * len(sectors0)
        worst_drift = [0.0] * len(sectors0)

        u = np.eye(b.total(0.0).shape[0], dtype=complex)
        for chunk in range(1, samples + 1):
            for k_step in range(per):
                tm = ((chunk - 1) * per + k_step + 0.5) * dt
                u = expm(_step_generator(b, tm), dt).matrix @ u
            here = sector_path[chunk]
            for n, s in enumerate(here):
                p0 = sectors0.sectors[n].projector.matrix
                pt = s.projector.matrix
                worst_defect[n] = max(worst_defect[n], snorm(u @ p0 - pt @ u))
                pop = float((pt @ u @ rho0[n] @ u.conj().T).trace().real)
                worst_drift[n] = max(worst_drift[n], abs(pop - 1.0))
        reports.append(TransportReport(
            coupling=k,
            sectors=tuple(
                SectorTransport(eigenvalue=s.eigenvalue, defect=worst_defect[n],
                                drift=worst_drift[n])
                for n, s in enumerate(sectors0)
            ),
        ))
    return reports
