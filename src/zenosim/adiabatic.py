"""Time-dependent strong coupling and sector transport.

When the measurement coupling itself moves, ``H_K(t) = H(t) + K H_meas(t)``,
the strong-coupling limit no longer pins the state to a fixed sector: it
drags each sector along its own path.  The limit propagator maps the
sector at time zero onto the sector at time t (the intertwining property),
and the population of the moving sector stays constant.  This module
integrates the Schroedinger equation for such bundles and measures how
far a finite coupling is from perfect transport.

The midpoint integrator works a chunk of steps at a time, the chunk capped
at ``_STACK_BYTES`` of generators: it stacks the chunk's midpoint
generators (a rotating bundle evaluates all its times at once), checks
them in one pass, diagonalizes them by one batched ``eigh`` and multiplies
the step propagators into ``U`` one by one in time order, so ``U`` equals
the product of per-step :func:`expm` calls bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .continuous import CoupledHamiltonian
from .errors import SectorTrackingError, StepResolutionError, ValidationError
from .operators import (
    Operator,
    SectorDecomposition,
    _hermitian_slices,
    as_operator,
    eig,
    snorm,
)

# Fraction of the fastest period a single step may cover.
_STEP_FRACTION = 0.1
_TRACK_OVERLAP_FLOOR = 0.5
# Bytes of midpoint generators stacked at once: 113 steps at d = 3, one from d = 23.
_STACK_BYTES = 1 << 14


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
        return replace(self, coupling=coupling)

    def total(self, t: float) -> np.ndarray:
        return np.asarray(self.h(t), dtype=complex) + \
            self.coupling * np.asarray(self.h_meas(t), dtype=complex)


class _StackedBundle(TimeDependentBundle):
    """Bundle whose ``h`` and ``h_meas`` also take an array of times; each
    slice of the result is the value at its time, bit for bit."""


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

    def h_meas(t):          # t may be an array of times
        r = (v * np.exp(-1j * (rate * np.asarray(t))[..., None] * w)[..., None, :]) @ v.conj().T
        return r @ hm0.matrix @ np.swapaxes(r.conj(), -1, -2)

    return _StackedBundle(h=lambda t: h, h_meas=h_meas, coupling=coupling)


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
    ``checkpoints``, as :func:`_step_plan` returns), in stacked chunks (see
    the module notes; a pairwise product would round differently).  The
    first midpoint whose generator has NaN or Inf entries or fails the
    :func:`is_hermitian` rule raises, naming its time."""
    dt = t / steps
    per = steps // checkpoints
    dim = np.asarray(bundle.h(0.0)).shape[0]
    chunk = max(1, _STACK_BYTES // (16 * dim * dim))
    u = np.eye(dim, dtype=complex)
    for start in range(0, steps, chunk):
        ts = (np.arange(start, min(start + chunk, steps)) + 0.5) * dt
        gens = (bundle.total(ts) if isinstance(bundle, _StackedBundle)
                else np.stack([bundle.total(s) for s in ts.tolist()]))
        hermitian = _hermitian_slices(gens)
        if not hermitian.all():
            raise ValidationError(f"bundle is not Hermitian at t = {ts[np.argmin(hermitian)]:.6g}")
        w, v = np.linalg.eigh(gens)
        steps_u = (v * np.exp(-1j * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        for k, step in enumerate(steps_u, start):
            u = step @ u
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
    pp, pc = (np.array([p.matrix for p in dec.projectors]) for dec in (prev, current))
    ranks = np.array([p.rank for p in prev.projectors])
    overlap = np.trace(pp[:, None] @ pc, axis1=2, axis2=3).real / ranks[:, None]
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-overlap)        # rows are 0, 1, ..., n - 1
    for i, j in zip(rows, cols):
        if overlap[i, j] < _TRACK_OVERLAP_FLOOR:
            raise SectorTrackingError(
                f"sector overlap {overlap[i, j]:.3f} below {_TRACK_OVERLAP_FLOOR}; "
                "the path crosses eigenvalues")
    return SectorDecomposition(tuple(current.sectors[j] for j in cols),
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

    # sector path is coupling-independent: track it once
    sector_path = []
    for tk in np.linspace(0.0, t, samples + 1):
        fresh = eig(as_operator(np.asarray(bundle.h_meas(tk), dtype=complex)))
        sector_path.append(_tracked_sectors(sector_path[-1], fresh) if sector_path else fresh)

    # each checkpoint against all sectors at once, stacked (sector, d, d)
    sectors0 = sector_path[0]
    p0 = np.array([p.matrix for p in sectors0.projectors])
    rho0 = np.array([p.matrix / p.rank for p in sectors0.projectors])
    reports = []
    for k, nsteps in plans:
        defect = drift = np.zeros(len(sectors0))
        checkpoints = _midpoint_checkpoints(bundle.with_coupling(k), t, nsteps, samples)
        for here, u in zip(sector_path[1:], checkpoints):
            pt = np.array([p.matrix for p in here.projectors])
            defect = np.maximum(defect, np.linalg.norm(u @ p0 - pt @ u, 2, axis=(1, 2)))
            pop = np.trace(pt @ u @ rho0 @ u.conj().T, axis1=1, axis2=2).real
            drift = np.maximum(drift, np.abs(pop - 1.0))
        reports.append(TransportReport(k, tuple(map(
            SectorTransport, [s.eigenvalue for s in sectors0], defect.tolist(), drift.tolist()))))
    return reports
