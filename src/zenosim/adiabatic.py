"""Time-dependent strong coupling and sector transport.

When the measurement coupling itself moves, ``H_K(t) = H(t) + K H_meas(t)``,
the strong-coupling limit no longer pins the state to a fixed sector: it
drags each sector along its own path.  The limit propagator maps the
sector at time zero onto the sector at time t (the intertwining property),
and the population of the moving sector stays constant.  This module
integrates the Schroedinger equation for such bundles and measures how
far a finite coupling is from perfect transport.

The midpoint integrator works a chunk of steps at a time, the chunk capped
at ``_STACK_BYTES`` of generators: it samples them by :func:`_sampled`
(a rotating bundle evaluates all its times at once), checks them in one
pass, diagonalizes them by one batched ``eigh`` and multiplies the step
propagators into ``U`` one by one in time order, so ``U`` equals the
product of per-step :func:`expm` calls bit for bit.

Work that does not depend on the coupling K is done once per path: the
step plans of a K grid share one set of probe norms, the sectors of
``H_meas`` at all checkpoints come from one batched decomposition with
the tracking overlaps from their sector bases in batched products (each
decision the one :func:`eig` and :func:`_tracked_sectors` make checkpoint
by checkpoint, bit for bit), and the defects are measured in one pass
over the checkpoints: each chunk's projector stack is formed once, not
cached, and serves every K, so memory is in proportion to one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable

import numpy as np

from .continuous import _COUPLED, CoupledHamiltonian
from .errors import SectorTrackingError, StepResolutionError, ValidationError
from .operators import (
    Operator,
    SectorDecomposition,
    _count,
    _eigh_exp,
    _eigh_sectors,
    _is_hermitian,
    _number,
    _record,
    as_matrix,
    as_operator,
    eig,
)

# Fraction of the fastest period a single step may cover.
_STEP_FRACTION = 0.1
_TRACK_OVERLAP_FLOOR = 0.5
# Bytes of midpoint generators stacked at once: 113 steps at d = 3, one from d = 23.
_STACK_BYTES = 1 << 14
# Most midpoint steps one integration may take: a few seconds at d = 3.
_MAX_STEPS = 10 ** 6
_BUNDLE = "expected a TimeDependentBundle, got {}"


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
        _number(self.coupling, "coupling strength K must be finite and >= 0", 0)

    def with_coupling(self, coupling: float) -> "TimeDependentBundle":
        return replace(self, coupling=coupling)

    def total(self, t: float) -> np.ndarray:
        t = _number(t, "time must be finite, got {!r}")
        return np.asarray(self.h(t), dtype=complex) + \
            self.coupling * np.asarray(self.h_meas(t), dtype=complex)


class _StackedBundle(TimeDependentBundle):
    """Bundle whose ``h`` and ``h_meas`` also take an array of times; each
    slice of the result is the value at its time, bit for bit."""


def constant_bundle(hk: CoupledHamiltonian) -> TimeDependentBundle:
    """Freeze a time-independent Hamiltonian pair into a bundle."""
    h, hm = _record(hk, CoupledHamiltonian, _COUPLED).h.matrix, hk.h_meas.matrix
    return TimeDependentBundle(h=lambda t: h, h_meas=lambda t: hm, coupling=hk.coupling)


def rotating_bundle(h0, h_meas0, generator, rate: float,
                    coupling: float) -> TimeDependentBundle:
    """Bundle with a rigidly rotating measurement coupling.

    The measurement matrix is carried along ``R(t) = exp(-i * rate * t * G)``
    as ``R H_meas R^dag`` while the system part stays fixed, so its sector
    projectors rotate smoothly without eigenvalue crossings.
    """
    hk = CoupledHamiltonian(h0, h_meas0, coupling)     # checks both matrices and K
    h, hm0 = hk.h.matrix, hk.h_meas
    gen = as_operator(generator)
    if not gen.hermitian:
        raise ValidationError("rotation generator must be Hermitian")
    if gen.dim != hm0.dim:
        raise ValidationError("rotation generator dimension mismatch")
    _number(rate, "rotation rate must be finite, got {!r}")
    # R(t) = expm(gen, rate * t), from one eigendecomposition of the generator
    w, v = np.linalg.eigh(gen.matrix)

    def h_meas(t):          # t may be an array of times
        # an overflowing rate * t gives NaN entries, which the integrator reports
        with np.errstate(over="ignore", invalid="ignore"):
            r = _eigh_exp(w, v, (rate * np.asarray(t))[..., None])
            return r @ hm0.matrix @ np.swapaxes(r.conj(), -1, -2)

    return _StackedBundle(h=lambda t: h, h_meas=h_meas, coupling=coupling)


def required_steps(bundle: TimeDependentBundle, t: float) -> int:
    """Smallest step count resolving both the system and the (K-scaled)
    measurement timescale at a tenth of a period over the horizon ``t``
    (finite and >= 0)."""
    _record(bundle, TimeDependentBundle, _BUNDLE)
    [n] = _step_plan(bundle, t, [bundle.coupling], None, resolve=True)
    return n


def _step_plan(bundle: TimeDependentBundle, t: float, ks, steps, checkpoints: int = 1,
               resolve: bool = False) -> list[int]:
    """Validated step count for integrating ``bundle`` over ``[0, t]`` at
    each coupling in ``ks``: ``steps`` (or, with ``resolve`` and
    ``steps=None``, the fewest that resolve both timescales) raised to a
    multiple of ``checkpoints``.  The horizon must be finite and >= 0, the
    counts integers >= 1, and ``bundle.h`` and ``bundle.h_meas`` finite at
    the nine probe times.  K only scales the measurement rate, so the probe
    norms are taken once for the whole grid (:func:`_probe_norms`).  A step
    above a tenth of either period raises :class:`StepResolutionError`
    naming the tighter of the violated timescales, and so does a plan
    above ``_MAX_STEPS`` steps, before any step is taken; the first such K
    of the grid raises."""
    _number(t, "horizon must be finite and non-negative", 0)
    if not (resolve and steps is None):
        steps = _count(steps, "step count must be an integer >= 1")
    checkpoints = _count(checkpoints, "checkpoint count must be an integer >= 1")
    hn, mn = _probe_norms(bundle, t)
    plans = []
    for k in ks:
        rates = (("system", hn), ("measurement", k * mn))
        binding, fastest = max(rates, key=lambda kv: kv[1])
        need = t * fastest / _STEP_FRACTION         # inf when a norm overflows
        if not need <= _MAX_STEPS:
            raise _ceiling_error(f"resolving the {binding} timescale over t = {t:.6g}", binding)
        need = max(1, math.ceil(need))
        n = max(need if steps is None else steps, checkpoints)
        n += (-n) % checkpoints             # integer steps per checkpoint
        if n > _MAX_STEPS:
            raise _ceiling_error(f"a plan of {n} steps", binding)
        dt = t / n
        for name, rate in sorted(rates, key=lambda kv: -kv[1]):
            if rate > 0 and dt > _STEP_FRACTION / rate:
                raise StepResolutionError(
                    f"step {dt:.3e} does not resolve the {name} timescale "
                    f"{_STEP_FRACTION / rate:.3e}; need >= {need} steps",
                    timescale=name)
        plans.append(n)
    return plans


def _ceiling_error(what: str, timescale: str) -> StepResolutionError:
    return StepResolutionError(f"{what} exceeds the ceiling of {_MAX_STEPS} steps",
                               timescale=timescale)


def _sampled(bundle: TimeDependentBundle, part: str, times: np.ndarray) -> np.ndarray:
    """``bundle.h`` or ``bundle.h_meas`` (``part``) at ``times``: one call
    for a stacked bundle (whose constant ``h`` may come back as one
    matrix), else the square matrices of per-time calls, stacked."""
    f = getattr(bundle, part)
    if isinstance(bundle, _StackedBundle):
        return np.asarray(f(times), dtype=complex)
    return np.stack([as_matrix(f(s)) for s in times])


def _probe_norms(bundle: TimeDependentBundle, t: float) -> tuple[float, float]:
    """Largest spectral norms of ``bundle.h`` and ``bundle.h_meas`` over
    nine probe times spanning ``[0, t]`` (one at t = 0), one batched norm
    each; the first probe time with NaN or Inf entries raises."""
    probes = np.linspace(0.0, t, 9 if t > 0 else 1)
    norms = []
    for part in ("h", "h_meas"):
        m = _sampled(bundle, part, probes)
        bad = np.flatnonzero(~np.isfinite(m).all(axis=(-2, -1)))
        if bad.size:
            raise ValidationError(
                f"bundle {part} has NaN or Inf entries at t = {probes[bad[0]]:.6g}")
        norms.append(float(np.linalg.norm(m, 2, axis=(-2, -1)).max()))
    return norms[0], norms[1]


def _midpoint_checkpoints(bundle: TimeDependentBundle, t: float, steps: int,
                          checkpoints: int = 1):
    """Yield ``U`` at ``checkpoints`` evenly spaced times up to ``t``, from
    ``steps`` midpoint steps ``exp(-i H_K(t_k + dt/2) dt)`` (a multiple of
    ``checkpoints``, as :func:`_step_plan` returns), in stacked chunks (see
    the module notes; a pairwise product would round differently), each
    ``H + K H_meas`` summed as :meth:`~TimeDependentBundle.total` sums it.  The
    first midpoint generator that is not square raises, as does, naming its
    time, one with NaN or Inf entries or failing the :func:`is_hermitian` rule."""
    dt = t / steps
    per = steps // checkpoints
    dim = np.asarray(bundle.h(0.0)).shape[0]
    chunk = max(1, _STACK_BYTES // (16 * dim * dim))
    u = np.eye(dim, dtype=complex)
    for start in range(0, steps, chunk):
        ts = (np.arange(start, min(start + chunk, steps)) + 0.5) * dt
        gens = _sampled(bundle, "h", ts) + bundle.coupling * _sampled(bundle, "h_meas", ts)
        hermitian = _is_hermitian(gens)
        if not hermitian.all():
            raise ValidationError(f"bundle is not Hermitian at t = {ts[np.argmin(hermitian)]:.6g}")
        steps_u = _eigh_exp(*np.linalg.eigh(gens), dt)
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
    _record(bundle, TimeDependentBundle, _BUNDLE)
    [steps] = _step_plan(bundle, t, [bundle.coupling], steps)
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


def _tracked_sectors(prev: SectorDecomposition, current: SectorDecomposition,
                     overlap: np.ndarray | None = None) -> SectorDecomposition:
    """Reorder ``current`` to follow ``prev`` by maximal projector overlap.

    Overlap is ``Tr[P_prev P_new] / rank``, from the sector bases
    (:func:`_overlaps`) unless the caller passes those rows as
    ``overlap``; each previous sector follows the current sector of its
    largest overlap.  When these row-wise maxima pick every current sector
    once, the matching maximizes the summed overlap, since the sum of the
    row maxima bounds that of every assignment.  Any matched pair below
    0.5 is treated as an eigenvalue crossing and refused, and so is a
    matching that picks some sector twice: for complete Hermitian
    decompositions each row of overlaps sums to 1, so at most one entry
    per row exceeds 0.5, and the best assignment would then have matched
    some pair at or below 0.5 as well (below it, except at exact ties).
    """
    if len(prev) != len(current):
        raise SectorTrackingError(
            f"sector count changed along the path ({len(prev)} -> {len(current)})")
    if overlap is None:
        overlap = _overlaps(_basis_stack([prev]), _basis_stack([current]))[0]
    cols = np.argmax(overlap, axis=1)
    if len(set(cols.tolist())) < len(cols):
        raise SectorTrackingError(
            "two sectors follow the same sector; the path crosses eigenvalues")
    for i, j in enumerate(cols):
        if overlap[i, j] < _TRACK_OVERLAP_FLOOR:
            raise SectorTrackingError(
                f"sector overlap {overlap[i, j]:.3f} below {_TRACK_OVERLAP_FLOOR}; "
                "the path crosses eigenvalues")
    return SectorDecomposition(tuple(current.sectors[j] for j in cols),
                               current.cluster_tol, current.dim,
                               complete=current.complete)


def _basis_stack(decs) -> tuple[np.ndarray, np.ndarray]:
    """The frames ``W`` of decompositions with equal sector counts side by side,
    ``(checkpoint, d, d)`` with zero columns past the total rank, and the
    ``(checkpoint, sector, d)`` indicator of each sector's columns."""
    n, d, m = len(decs), decs[0].dim, len(decs[0])
    bases, member = np.zeros((n, d, d), dtype=complex), np.zeros((n, m, d))
    for k, dec in enumerate(decs):
        w, _, owner = dec._frame
        bases[k, :, :owner.size], member[k, owner, np.arange(owner.size)] = w, 1.0
    return bases, member


def _overlaps(prev, current) -> np.ndarray:
    """``Tr[P_i Q_j] / rank(P_i)`` ``(pair, i, j)`` for each pair of
    :func:`_basis_stack` entries.  With ``P_i = B_i B_i^dag`` and ``Q_j =
    C_j C_j^dag`` the trace is ``||B_i^dag C_j||_F^2``, the sum of the
    block ``(i, j)`` of ``|W_prev^dag W_cur|^2``: ``O(d^3)`` per pair, no
    ``d x d`` projector formed."""
    (wp, mp), (wc, mc) = prev, current
    g = np.abs(wp.conj().swapaxes(1, 2) @ wc) ** 2
    return mp @ g @ mc.swapaxes(1, 2) / mp.sum(axis=2)[:, :, None]


def _sector_path(bundle: TimeDependentBundle, times: np.ndarray) -> list[SectorDecomposition]:
    """Sectors of ``bundle.h_meas`` at ``times``, each following the one
    before (:func:`_tracked_sectors`).

    ``h_meas`` is sampled as one stack, checked by one
    :func:`_is_hermitian` and diagonalized by one batched ``eigh``;
    each Hermitian slice's sectors come from the Hermitian branch of
    :func:`eig` (:func:`_eigh_sectors`), any other slice goes through
    :func:`eig` itself.  The overlaps of consecutive checkpoints come
    from their sector bases (:func:`_overlaps`), one batched product per
    chunk of at most ``_STACK_BYTES`` of ``d x d`` products.
    """
    stack = _sampled(bundle, "h_meas", times)
    hermitian = _is_hermitian(stack)
    eighs = zip(*np.linalg.eigh(stack[hermitian]))
    fresh = [_eigh_sectors(*next(eighs), None) if ok else eig(h)
             for h, ok in zip(stack, hermitian)]
    m, d = len(fresh[0]), stack.shape[-1]
    same = next((k for k, dec in enumerate(fresh) if len(dec) != m), len(fresh))
    per = max(1, _STACK_BYTES // (16 * d * d))      # pairs per product
    path, order = fresh[:1], np.arange(m)
    for first in range(0, same - 1, per):
        bases, member = _basis_stack(fresh[first:min(first + per, same - 1) + 1])
        overlaps = _overlaps((bases[:-1], member[:-1]), (bases[1:], member[1:]))
        for rows, here in zip(overlaps, fresh[first + 1:]):
            rows = rows[order]                  # the previous sectors in tracked order
            path.append(_tracked_sectors(path[-1], here, rows))
            order = rows.argmax(axis=1)         # the current sectors they followed
    if same < len(fresh):
        _tracked_sectors(path[-1], fresh[same])     # refuses the changed sector count
    return path


def intertwining_defect(bundle: TimeDependentBundle, t: float, k_grid,
                        samples: int = 40,
                        steps: int | None = None) -> list[TransportReport]:
    """Transport defect and drift along the path for each coupling in ``k_grid``.

    For each K the path is integrated with automatically resolved steps
    (or ``steps``, an integer >= 1 which must resolve the largest K), the
    sectors of ``H_meas(t_k)`` are followed by maximal overlap through
    ``samples`` checkpoints (an integer >= 1), and each sector reports its
    worst intertwining defect and population drift.  Both shrink as K
    grows.  The horizon ``t`` must be finite and >= 0; the step count is
    raised to a multiple of ``samples``.

    The couplings share the probe norms, the sector path and one pass over
    the checkpoints in chunks of at most ``_STACK_BYTES`` of projectors: each
    chunk's stack is formed once, and every K's integration advances through
    it before the next.  Of several failing couplings, the first failure met
    in chunk order raises.
    """
    _record(bundle, TimeDependentBundle, _BUNDLE)
    ks = [float(_number(k, "coupling strengths must be >= 0", 0)) for k in k_grid]
    if not ks:
        raise ValidationError("coupling grid must not be empty")
    plans = _step_plan(bundle, t, ks, steps, samples, resolve=True)
    sector_path = _sector_path(bundle, np.linspace(0.0, t, samples + 1))
    runs = [_midpoint_checkpoints(bundle.with_coupling(k), t, n, samples)
            for k, n in zip(ks, plans)]

    sectors0 = sector_path[0]
    p0 = np.array([p.matrix for p in sectors0.projectors])
    rho0 = np.array([m / p.rank for m, p in zip(p0, sectors0.projectors)])
    per = max(1, _STACK_BYTES // p0.nbytes)     # 37 checkpoints at d = 3 with three sectors
    worst = np.zeros((len(ks), 2, len(sectors0)))      # defect and drift per K and sector
    for i in range(1, samples + 1, per):
        pt = np.array([[p.matrix for p in here.projectors]
                       for here in sector_path[i:i + per]])
        for run, w in zip(runs, worst):
            u = np.array(list(islice(run, len(pt))))[:, None]      # (checkpoint, 1, d, d)
            norms = np.linalg.norm(u @ p0 - pt @ u, 2, axis=(2, 3))
            pop = np.trace(pt @ u @ rho0 @ u.conj().swapaxes(2, 3), axis1=2, axis2=3).real
            np.maximum(w, [norms.max(axis=0), np.abs(pop - 1.0).max(axis=0)], out=w)
    eigenvalues = [s.eigenvalue for s in sectors0]
    return [TransportReport(k, tuple(map(SectorTransport, eigenvalues, *w.tolist())))
            for k, w in zip(ks, worst)]
