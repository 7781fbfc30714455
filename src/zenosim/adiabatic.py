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


def required_steps(bundle: TimeDependentBundle, t: float) -> int:
    """Smallest step count resolving both the system and the (K-scaled)
    measurement timescale at a tenth of a period over the horizon ``t``
    (finite and >= 0)."""
    return _step_plan(bundle, t, None, resolve=True)


def _count(n, what: str) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"{what} must be an integer >= 1")
    return int(n)


def _step_plan(bundle: TimeDependentBundle, t: float, steps, checkpoints: int = 1,
               resolve: bool = False) -> int:
    """Validated step count for integrating ``bundle`` over ``[0, t]``:
    ``steps`` (or, with ``resolve`` and ``steps=None``, the fewest that
    resolve both timescales) raised to a multiple of ``checkpoints``.  The
    horizon must be finite and >= 0 and the counts integers >= 1; a step
    above a tenth of either period raises :class:`StepResolutionError`
    naming the tighter of the violated timescales."""
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("horizon must be finite and non-negative")
    if not (resolve and steps is None):
        steps = _count(steps, "step count")
    checkpoints = _count(checkpoints, "checkpoint count")
    # the largest norms over nine probe times
    probes = np.linspace(0.0, t, 9) if t > 0 else [0.0]
    hn = max(snorm(np.asarray(bundle.h(s), dtype=complex)) for s in probes)
    mn = max(snorm(np.asarray(bundle.h_meas(s), dtype=complex)) for s in probes)
    rates = (("system", hn), ("measurement", bundle.coupling * mn))
    need = max(1, math.ceil(t * max(rate for _, rate in rates) / _STEP_FRACTION))
    n = max(need if steps is None else steps, checkpoints)
    n += (-n) % checkpoints             # integer steps per checkpoint
    dt = t / n
    for name, rate in sorted(rates, key=lambda kv: -kv[1]):
        if rate > 0 and dt > _STEP_FRACTION / rate:
            raise StepResolutionError(
                f"step {dt:.3e} does not resolve the {name} timescale "
                f"{_STEP_FRACTION / rate:.3e}; need >= {need} steps",
                timescale=name)
    return n


def _midpoint_checkpoints(bundle: TimeDependentBundle, t: float, steps: int,
                          checkpoints: int = 1):
    """Yield ``U`` at ``checkpoints`` evenly spaced times up to ``t``, from
    ``steps`` midpoint steps ``exp(-i H_K(t_k + dt/2) dt)`` (a multiple of
    ``checkpoints``, as :func:`_step_plan` returns)."""
    dt = t / steps
    per = steps // checkpoints
    u = np.eye(np.asarray(bundle.h(0.0)).shape[0], dtype=complex)
    for k in range(steps):
        tm = (k + 0.5) * dt
        gen = bundle.total(tm)
        if not is_hermitian(gen):
            raise ValidationError(f"bundle is not Hermitian at t = {tm:.6g}")
        u = expm(as_operator(gen, hermitian=True), dt).matrix @ u
        if (k + 1) % per == 0:
            yield u


def propagate_td(bundle: TimeDependentBundle, t: float, steps: int) -> Operator:
    """Propagator of the time-dependent Schroedinger equation.

    Ordered product of midpoint-sampled exponentials,
    ``U = prod_k exp(-i H_K(t_k + dt/2) dt)``: unitary by construction at
    every step and second-order accurate in the step size.  The horizon
    ``t`` must be finite and >= 0 and ``steps`` an integer >= 1 whose steps
    resolve both timescales (a tenth of the fastest period), otherwise a
    resolution error names the binding one.
    """
    steps = _step_plan(bundle, t, steps)
    if t == 0:
        return Operator(np.eye(np.asarray(bundle.h(0.0)).shape[0], dtype=complex))
    [u] = _midpoint_checkpoints(bundle, t, steps)
    return Operator(u)


def propagate_td_interaction(bundle: TimeDependentBundle, t: float,
                             steps: int) -> tuple[Operator, Operator]:
    """Split propagation: system factor ``U_S`` and the factor ``U_I``
    generated by the rotated coupling ``K U_S^dag H_meas U_S``.

    Their product reproduces :func:`propagate_td` to integrator accuracy;
    the comparison is the frame-consistency check of the integrator.  The
    horizon and step rules are those of :func:`propagate_td`.
    """
    steps = _step_plan(bundle, t, steps)
    dim = np.asarray(bundle.h(0.0)).shape[0]
    if t == 0:
        eye = Operator(np.eye(dim, dtype=complex))
        return eye, eye
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
    (or ``steps``, an integer >= 1 which must resolve the largest K), the
    sectors of ``H_meas(t_k)`` are followed by maximal overlap through
    ``samples`` checkpoints (an integer >= 1), and each sector reports its
    worst intertwining defect and population drift.  Both shrink as K
    grows.  The horizon ``t`` must be finite and >= 0; the step count is
    raised to a multiple of ``samples``.
    """
    ks = [float(k) for k in k_grid]
    if not ks:
        raise ValidationError("coupling grid must not be empty")
    if any(k < 0 for k in ks):
        raise ValidationError("coupling strengths must be >= 0")
    plans = [(k, _step_plan(bundle.with_coupling(k), t, steps, samples, resolve=True))
             for k in ks]

    sample_ts = np.linspace(0.0, t, samples + 1)
    # sector path is coupling-independent: track it once
    sector_path = [eig(as_operator(np.asarray(bundle.h_meas(0.0), dtype=complex)))]
    for tk in sample_ts[1:]:
        fresh = eig(as_operator(np.asarray(bundle.h_meas(tk), dtype=complex)))
        sector_path.append(_tracked_sectors(sector_path[-1], fresh))

    sectors0 = sector_path[0]
    rho0 = [p.matrix / p.rank for p in sectors0.projectors]
    reports = []
    for k, nsteps in plans:
        worst_defect = [0.0] * len(sectors0)
        worst_drift = [0.0] * len(sectors0)
        checkpoints = _midpoint_checkpoints(bundle.with_coupling(k), t, nsteps, samples)
        for here, u in zip(sector_path[1:], checkpoints):
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
