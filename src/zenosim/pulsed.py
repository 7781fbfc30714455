"""Pulsed projective-measurement dynamics.

A system evolving under a Hamiltonian ``H`` is interrupted ``N`` times in a
horizon ``t`` by instantaneous projections.  Selective chains keep one
outcome, ``V_N(t) = [P U(t/N) P]^N``; nonselective chains keep all of them
through the sandwich map ``rho -> sum_n P_n rho P_n``.  As N grows both
freeze into unitary motion inside the projected subspaces: the selective
chain converges to ``P exp(-i P H P t)`` and the nonselective one to
independent block evolutions with exactly conserved per-sector weights.

Chains run where that motion lives: a selective chain on ``rank x rank``
cores in a basis of ``Ran P``, a nonselective one in the basis of all
sector bases, with steps formed there once per N grid and advanced a block
per numpy call (:func:`pulsed_propagator`, :func:`nonselective_evolve`).
Both limits come from the sector blocks ``Q_n exp(-i Q_n^dag H Q_n t)`` of
``operators._sector_columns``, as the continuous limit does.

The survival amplitude ``<a| exp(-i H t) |a>`` of a time grid comes from one
diagonalization (:func:`_survival_amplitudes`) for every pure-state caller;
:func:`survival_probability` serves mixed states and any projector.

Units have hbar = 1 throughout; rates and frequencies are inverse time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (
    DensityMatrix,
    Operator,
    Projector,
    SectorDecomposition,
    _PROJECTOR,
    _ROUNDING,
    _SECTORS,
    _check_dimension,
    _check_positive,
    _count,
    _eigh_exp,
    _number,
    _rank_groups,
    _record,
    _sector_blocks,
    _sector_columns,
    _snorm,
    _state_vector,
    _unit_scale,
    _within_scaled,
    as_matrix,
    as_operator,
    expm,
    fnorm,
    snorm,
)

# Spectral-norm drift beyond which a pulsed chain is considered broken
# rather than renormalizable roundoff.
_CONTRACTION_SLACK = 1e-12
# How often the running product is checked against the contraction bound.
_MONITOR_STRIDE = 64
_STATE = "expected a DensityMatrix, got {}"


@dataclass(frozen=True)
class EffectiveRate:
    """Exponential-equivalent decay rate and phase drift of repeated
    measurements at interval tau.

    ``gamma`` is ``-(1/tau) log |A(tau)|^2`` and ``omega`` is
    ``-(1/tau) arg A(tau)`` for the survival amplitude A.  A vanishing
    amplitude is signalled by ``gamma = inf`` (not an exception).
    """

    gamma: float
    omega: float
    tau: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.gamma)


def pulsed_propagator(h, p: Projector, n: int, t: float) -> Operator:
    """Selective chain ``[P U(t/N) P]^N`` with ``U = exp(-i H t/N)``.

    The chain runs inside ``Ran P``: with the orthonormal basis ``Q`` of
    the range (``P = Q Q^dag``) the power is ``Q [Q^dag U Q]^N Q^dag``, so
    each step multiplies ``rank x rank`` matrices instead of ``dim x dim``
    ones.  The step is formed from the eigenbasis of ``H = V diag(w)
    V^dag`` as ``(B e^{-i w t/N}) B^dag`` with ``B = Q^dag V``.  The power
    is accumulated in blocks of ``_MONITOR_STRIDE`` steps, the block formed
    once by repeated squaring (:func:`_chain_power`), and is checked after
    every block against the contraction bound ``||V|| <= 1``, which the
    isometry ``Q`` leaves unchanged; norm overshoot within roundoff is
    renormalized away, anything larger raises.
    """
    [v] = _selective_cores(h, p, [n], t)
    q = p.basis
    return Operator(q @ v @ q.conj().T)


def _selective_cores(h, p: Projector, ns, t: float):
    """The ``rank x rank`` cores ``[Q^dag U(t/N) Q]^N`` of
    :func:`pulsed_propagator` in the basis ``Q`` of ``Ran P``, one per N
    in ``ns``, from one ``B = Q^dag V`` for the whole grid."""
    hop = as_operator(h)
    if not hop.hermitian:
        raise ValidationError("pulsed propagation requires a Hermitian Hamiltonian")
    _check_dimension(hop.matrix, _record(p, Projector, _PROJECTOR).dim)
    w, vecs = hop._eigh
    b = p.basis.conj().T @ vecs
    for n in ns:
        _count(n, "pulse count must be an integer >= 1")
        _number(t, "horizon must be finite and non-negative", 0)
        yield _chain_power(_eigh_exp(w, b, t / n), n, p.dim)


def _chain_power(step: np.ndarray, n: int, dim: int) -> np.ndarray:
    """``step^n`` for a selective chain in a space of dimension ``dim``.

    From N = ``_MONITOR_STRIDE`` on, the block ``step^_MONITOR_STRIDE`` is
    formed once by repeated squaring and applied ``N // _MONITOR_STRIDE``
    times, the contraction bound checked after each block; the other
    ``N mod _MONITOR_STRIDE`` steps are applied one by one.
    """
    v = None
    if n >= _MONITOR_STRIDE:
        block = np.linalg.matrix_power(step, _MONITOR_STRIDE)
        for _ in range(n // _MONITOR_STRIDE):
            v = _enforce_contraction(block if v is None else block @ v, dim)
    if n % _MONITOR_STRIDE == 0:
        return v                        # checked after its last block
    for _ in range(n % _MONITOR_STRIDE):
        v = step if v is None else step @ v
    return _enforce_contraction(v, dim)


def _pulsed_errors(h, p: Projector, ns, t: float) -> list[float]:
    """``||pulsed_propagator(h, p, N, t) - pulsed_limit(h, p, t)||`` for each
    N in ``ns``, as ``||v_N - l||`` on the ``rank x rank`` cores of ``V_N =
    Q v_N Q^dag`` and of the limit ``Q l Q^dag`` (on the basis ``I``)."""
    hop = as_operator(h)
    cores = list(_selective_cores(hop, p, ns, t))
    limit = _sector_columns(np.eye(p.rank), [p.rank],
                            _sector_blocks(p.basis, [p.rank], hop.matrix), t, hermitian=True)
    return [_snorm(v - limit) for v in cores]


def _enforce_contraction(v: np.ndarray, dim: int) -> np.ndarray:
    s = _snorm(v)
    if s > 1.0 + _CONTRACTION_SLACK * dim:
        raise NumericalError(f"pulsed chain lost contractivity (norm {s:.15g})")
    if s > 1.0:
        v = v / s
    return v


def pulsed_limit(h, p: Projector, t: float) -> Operator:
    """Frequent-measurement limit ``P exp(-i P H P t)`` of the selective
    chain, ``Q exp(-i Q^dag H Q t) Q^dag``; unitary within the range of P."""
    _number(t, "time scale must be finite", complex_ok=True)
    hop = as_operator(h)
    q = _record(p, Projector, _PROJECTOR).basis
    x = _sector_columns(q, [p.rank], _sector_blocks(q, [p.rank], hop.matrix), t, hop.hermitian)
    return Operator(x @ q.conj().T)


def survival_probability(rho0: DensityMatrix, v, p: Projector) -> float:
    """Probability of still finding the state inside Ran P after applying
    the propagator ``v``.

    Requires the initial state to be supported in Ran P: ``||rho - P rho
    P||_2 <= 1e-10 max(1, ||rho||_2)``, whose floor 1 stays, as a state has a
    fixed scale.  The propagator is restricted to the subspace before
    tracing, so both sandwiched chains (``V_N``) and plain unitaries give the
    textbook survival value.
    """
    rho = _record(rho0, DensityMatrix, _STATE).matrix
    proj, v = _record(p, Projector, _PROJECTOR).matrix, as_matrix(v)
    _check_dimension(v, p.dim)
    _check_dimension(rho, p.dim)
    resid = rho - proj @ rho @ proj
    # ||resid||_2 <= ||resid||_F settles nearly every call at the floor, without an SVD
    bound = fnorm(resid) * (1 + _ROUNDING)
    if not _within_scaled(bound if bound <= 1e-10 else snorm(resid), rho, 1e-10):
        raise ValidationError("initial state is not supported in the measured subspace")
    w = proj @ v @ proj
    return float(_probability((w @ rho @ w.conj().T).trace().real))


def _probability(prob) -> np.ndarray:
    """Survival probabilities (a number or an array) clipped to [0, 1]; the
    first one outside it by more than 1e-12, NaN included, raises."""
    prob = np.asarray(prob, dtype=float)
    bad = np.flatnonzero(~((prob >= -1e-12) & (prob <= 1.0 + 1e-12)))
    if bad.size:
        raise NumericalError(f"survival probability {prob.flat[bad[0]]:.15g} outside [0, 1]")
    return np.where(prob > 0.0, np.minimum(prob, 1.0), 0.0)    # -0.0 clips to 0.0


def _survival_amplitudes(h: Operator, v: np.ndarray, ts) -> np.ndarray:
    """``<v| exp(-i h t) |v>`` for every t in ``ts``: ``sum_k e^{-i w_k t} |(V^dag v)_k|^2``
    from the kept ``eigh`` of a Hermitian ``h``, else one Pade exponential per t."""
    if h.hermitian:
        w, vecs = h._eigh
        return np.exp(-1j * np.multiply.outer(ts, w)) @ np.abs(vecs.conj().T @ v) ** 2
    return np.array([np.vdot(v, expm(h, t).matrix @ v) for t in ts])


def survival_amplitude(h, a, tau: float) -> complex:
    """Undisturbed amplitude ``<a| exp(-i H tau) |a>``."""
    hop = as_operator(h)
    _number(tau, "time scale must be finite", complex_ok=True)
    [amp] = _survival_amplitudes(hop, _state_vector(a, hop.dim), [tau])
    return complex(amp)


def effective_rate(h, a, tau: float) -> EffectiveRate:
    """Exponential-equivalent rate/phase pair of measurements at interval tau.

    For a Hermitian ``h`` the amplitude modulus cannot exceed one, so
    roundoff overshoot is clipped; dissipative generators are left as
    computed (transient amplification then yields a negative rate).
    """
    _number(tau, "measurement interval must be positive", 0, strict=True)
    amp = survival_amplitude(h, a, tau)
    return _rate_from_amplitude(amp, tau, clip=as_operator(h).hermitian)


def effective_rate_from_amplitude(amplitude: Callable[[float], complex],
                                  tau: float) -> EffectiveRate:
    """Rate/phase pair for a user-supplied survival amplitude.

    Finite matrices always give a quadratic short-time law; this hook lets
    model amplitudes with other short-time exponents (where the limit rate
    can stay finite or diverge) be pushed through the same definitions.
    """
    _number(tau, "measurement interval must be positive", 0, strict=True)
    amp = _number(amplitude(tau), "amplitude must be a finite number, got {!r}", complex_ok=True)
    return _rate_from_amplitude(complex(amp), tau, clip=False)


def _rate_from_amplitude(amp: complex, tau: float, clip: bool) -> EffectiveRate:
    mod2 = abs(amp) ** 2
    if clip:
        if mod2 > 1.0 + 1e-12:
            raise NumericalError(f"survival amplitude modulus {mod2:.15g} exceeds one")
        mod2 = min(1.0, mod2)
    if mod2 == 0.0:
        return EffectiveRate(gamma=math.inf, omega=math.nan, tau=tau)
    gamma = -math.log(mod2) / tau
    omega = -cmath.phase(amp) / tau
    return EffectiveRate(gamma=gamma, omega=omega, tau=tau)


def zeno_time(h, a) -> float:
    """Inverse square root of the energy variance in state ``a``.

    Sets the curvature of the short-time quadratic survival law
    ``p(tau) ~ 1 - (tau / tz)^2``.  Returns ``inf`` for an eigenstate
    (zero variance).  The variance is evaluated as ``||H a||^2 - <a|H a>^2``
    so both moments come from the same matrix-vector product, taken on ``s H``
    for the power of two ``s`` of ``operators._unit_scale`` (exact, and finite
    for any finite ``H``).  The largest entry of ``s H`` lies in [1, 2), so an
    eigenstate has ``var <= 16 eps max(m2, 1)`` on those moments at every
    scale of ``H``.
    """
    hop = as_operator(h)
    if not hop.hermitian:
        raise ValidationError("the quadratic decay scale requires a Hermitian Hamiltonian")
    v = _state_vector(a, hop.dim)
    s = _unit_scale(hop.matrix)
    hv = (hop.matrix * s) @ v
    m2 = float(np.vdot(hv, hv).real)
    m1 = float(np.vdot(v, hv).real)
    var = m2 - m1 * m1
    if var <= 16 * np.finfo(float).eps * max(m2, 1.0):
        return math.inf
    return s / math.sqrt(var)


def zeno_time_fitted(h, a, tau0: float | None = None, points: int = 5) -> float:
    """Quadratic-decay scale recovered from short-time survival data.

    Evaluates ``1 - p(tau)`` on the geometric grid ``tau0 * 2**-k`` for
    ``k = 0 .. points-1`` (default ``tau0 = 0.01 / ||H||``) and fits the
    model ``log(1 - p) = 2 log tau - 2 log tz`` with its one free parameter:
    the intercept is ``mean(log(1 - p) - 2 log tau)``, so ``c H`` gives ``tz /
    c`` for every ``c > 0``.  ``points`` must be an integer >= 2.  For a
    Hermitian ``H = V diag(w) V^dag`` the deficit is ``sum_kl p_k p_l 2
    sin^2((w_k - w_l) tau / 2)`` with ``p = |V^dag a|^2``, free of the
    cancellation in ``1 - |A|^2`` at small tau.
    """
    _count(points, "points must be an integer >= 2, got {!r}", 2)
    hop = as_operator(h)
    v = _state_vector(a, hop.dim)
    if tau0 is None:
        nrm = snorm(hop)
        if nrm == 0:
            return math.inf
        tau0 = 0.01 / nrm
    _number(tau0, "tau0 must be a finite number > 0, got {!r}", 0, strict=True)
    taus = tau0 * 0.5 ** np.arange(points)
    if hop.hermitian:
        w, vecs = hop._eigh
        p = np.abs(vecs.conj().T @ v) ** 2
        x = np.multiply.outer(taus / 2, w)      # x_k - x_l: w_k - w_l alone may overflow
        deficits = 2 * (np.sin(x[:, :, None] - x[:, None, :]) ** 2 @ p) @ p
    else:
        deficits = 1.0 - np.abs(_survival_amplitudes(hop, v, taus)) ** 2
    deficits = np.maximum(deficits, 0.0)
    if np.any(deficits <= 0):
        return math.inf
    intercept = float(np.mean(np.log(deficits) - 2 * np.log(taus)))
    return math.exp(-intercept / 2.0)


# ---------------------------------------------------------------------------
# nonselective chains


def nonselective_evolve(h, sectors: SectorDecomposition, n: int, t: float,
                        rho0: DensityMatrix, project_final: bool = True) -> DensityMatrix:
    """State after ``n`` unread measurements in a horizon ``t``.

    The chain applies the sandwich map at time zero, then ``n`` rounds of
    (evolve by ``t/n``, measure).  With ``project_final=False`` the last
    measurement is omitted, exposing the state just before the next
    read-out: its off-block content then decays like C/N instead of being
    exactly zero by construction.  The trace is checked to 1e-12 at every
    step.

    The chain runs in the frame ``W = [Q_1 ... Q_m]`` of the decomposition
    on the ``s = sum_n r_n^2`` entries the measurements keep, and the state is
    rotated back (:func:`_nonselective_grid`): while ``s <= 2 d`` as one ``s x
    s`` matrix on those entries (:func:`_kept_chain`), else blockwise (:func:`_block_chain`).
    """
    y = next(_nonselective_grid(h, sectors, [n], t, rho0, project_final))
    w = sectors._frame[0]
    rho = w @ y @ w.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)


def _nonselective_grid(h, sectors: SectorDecomposition, ns, t: float,
                       rho0: DensityMatrix, project_final: bool = True):
    """:func:`nonselective_evolve` for each measurement count in ``ns``, as
    an iterator of the frame states ``Y = W^dag rho W`` (checked as
    :class:`DensityMatrix`, positivity in :func:`_finish`), with the step ``(A
    e^{-i w t/n}) A^dag`` for a Hermitian ``H = V diag(w) V^dag`` (else ``W^dag
    exp(-i H t/n) W``); ``A = W^dag V`` and ``W^dag rho0 W`` are formed once."""
    for n in ns:
        _count(n, "measurement count must be an integer >= 1")
    _number(t, "horizon must be finite and non-negative", 0)
    _check_resolution(sectors, rho0)
    hop = as_operator(h)
    _check_dimension(hop.matrix, sectors.dim)
    w, sizes, _ = sectors._frame
    chain = _kept_chain if sum(r * r for r in sizes) <= 2 * sectors.dim else _block_chain
    start = w.conj().T @ rho0.matrix @ w
    if hop.hermitian:
        energies, vecs = hop._eigh
        a = w.conj().T @ vecs

    def step(n):
        if hop.hermitian:
            return _eigh_exp(energies, a, t / n)
        return w.conj().T @ expm(hop, t / n).matrix @ w

    def evolve(n):         # returns, so no step or chain array outlives its N
        return DensityMatrix._checked(chain(step(n), start, sizes, n, project_final), psd=False)

    return map(evolve, ns)


def _check_resolution(sectors: SectorDecomposition, rho0: DensityMatrix) -> None:
    """Refuse ``sectors`` and ``rho0`` of the wrong type or dimension, or sectors
    that do not resolve the identity."""
    _record(sectors, SectorDecomposition, _SECTORS)
    if _record(rho0, DensityMatrix, _STATE).dim != sectors.dim:
        raise ValidationError("state dimension does not match sectors")
    sectors.validate_resolution()


# Bytes of kept-entry iterates, and of kept-step powers, held at once: 1365
# iterates and 455 powers at d = 3 with three rank-1 sectors (0.4 us a step,
# against 2.1 us one step at a time), 20 iterates and one power at d = 200 with
# 200 rank-1 sectors (31 us a step either way; one BLAS thread).
_KEPT_CHUNK_BYTES = 1 << 16


def _check_traces(first: int, traces: np.ndarray) -> float:
    """Refuse the first of the steps ``first, first + 1, ...`` that changed
    the trace by more than ``1e-12`` relative, and return the last trace:
    ``traces[j + 1]`` is the trace after step ``first + j`` and
    ``traces[0]`` the one before ``first``.  The floor 1 of ``1e-12 max(1,
    |trace|)`` stays: the trace of a state is at most one at every scale."""
    prev, delta = traces[:-1], np.abs(np.diff(traces))
    bad = np.flatnonzero(delta > 1e-12 * np.maximum(1.0, np.abs(prev)))
    if bad.size:
        raise NumericalError(f"step {first + bad[0]} changed the trace by {delta[bad[0]]:.3e}")
    return float(traces[-1])


def _kept_entries(sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``ia`` and columns ``ib`` of the diagonal blocks' entries in
    row-major order (each block one run), and where the diagonal lies."""
    label = np.repeat(np.arange(len(sizes)), sizes)
    ia, ib = np.nonzero(label[:, None] == label[None, :])
    return ia, ib, np.flatnonzero(ia == ib)


def _kept_chain(u, rho, sizes, n: int, project_final: bool) -> np.ndarray:
    """The chain in the sector basis on the ``s = sum_c r_c^2`` entries the
    sandwich map keeps.

    On the kept entries ``(a, b)`` the step ``X -> U X U^dag`` is the
    ``s x s`` matrix ``M[(a, b), (i, j)] = U_ai conj(U_bj)`` (for rank-1
    sectors the classical map ``p -> |U_ab|^2 p`` on the populations).
    The iterates fill a chunk of ``_KEPT_CHUNK_BYTES`` at a time, whose
    traces are then checked in one pass.  The powers ``M^1 .. M^b`` (``b``
    as many as ``_KEPT_CHUNK_BYTES`` holds, at most a chunk) are formed once
    by doubling, and each run of ``b`` iterates is one batched product
    ``M^i v`` (with ``b = 1``, from ``s = 64``, one step per product).
    An unprojected final step keeps the full product ``U X U^dag``.
    """
    ia, ib, diag = _kept_entries(sizes)
    m = u[ia[:, None], ia] * u.conj()[ib[:, None], ib]
    steps = n if project_final else n - 1
    vs = np.empty((max(1, min(steps, _KEPT_CHUNK_BYTES // (16 * ia.size))) + 1, ia.size),
                  dtype=complex)
    pw = np.empty((max(1, min(len(vs) - 1, _KEPT_CHUNK_BYTES // (16 * m.size))),) + m.shape,
                  dtype=complex)
    pw[0], k = m, 1
    while k < len(pw):                  # M^(k+1) .. M^(2k) as M^1 .. M^k times M^k
        top = min(2 * k, len(pw))
        np.matmul(pw[:top - k], pw[k - 1], out=pw[k:top])
        k *= 2
    vs[0] = rho[ia, ib]
    prev = float(vs[0, diag].real.sum())
    for first in range(0, steps, len(vs) - 1):
        count = min(len(vs) - 1, steps - first)
        for j in range(0, count, len(pw)):
            c = min(len(pw), count - j)
            np.matmul(pw[:c], vs[j], out=vs[j + 1:j + 1 + c])
        traces = vs[:count + 1, diag].real.sum(axis=1)
        traces[0] = prev
        prev = _check_traces(first, traces)
        vs[0] = vs[count]
    return _finish(u, vs[0], sizes, (ia, ib), n, prev, project_final)


def _block_chain(u, rho, sizes, n: int, project_final: bool) -> np.ndarray:
    """The chain in the sector basis on the diagonal blocks alone.

    A step maps the blocks ``rho_c`` to ``rho_b = sum_c U_bc rho_c
    U_bc^dag`` in two halves, the rows ``Z[c, :] = rho_c U[:, c]^dag`` of a
    ``d x d`` buffer and then ``rho_b = U[b, :] Z[:, b]``, each one batched
    product per group of equal-rank sectors (:func:`_rank_groups`).  The
    blocks live in one vector laid out as the kept entries of
    :func:`_kept_chain`; the factors are formed once, ``Z[:, b]`` as a
    strided view, so a step copies nothing.  An unprojected final step
    keeps the full product.
    """
    d, (ia, ib, diag) = u.shape[0], _kept_entries(sizes)
    udag, v, z = u.conj().T, rho[ia, ib], np.empty_like(u)
    groups = []
    for (rows, rank, count), blocks in zip(_rank_groups(sizes), _block_stacks(v, sizes)):
        stack = (count, rank, d)
        groups.append((blocks, udag[rows].reshape(stack), z[rows].reshape(stack),
                       u[rows].reshape(stack), z[:, rows].reshape(d, count, rank).swapaxes(0, 1)))
    prev = float(v[diag].real.sum())
    for k in range(n if project_final else n - 1):
        for blocks, udag_rows, z_rows, _, _ in groups:
            np.matmul(blocks, udag_rows, out=z_rows)
        for blocks, _, _, u_rows, z_cols in groups:
            np.matmul(u_rows, z_cols, out=blocks)
        prev = _check_traces(k, np.array([prev, v[diag].real.sum()]))
    return _finish(u, v, sizes, (ia, ib), n, prev, project_final)


def _block_stacks(v, sizes) -> list[np.ndarray]:
    """The kept entries ``v`` as a ``(count, rank, rank)`` view per rank group."""
    groups = _rank_groups(sizes)
    parts = np.split(v, np.cumsum([count * rank * rank for _, rank, count in groups])[:-1])
    return [part.reshape(count, rank, rank) for part, (_, rank, count) in zip(parts, groups)]


def _finish(u, v, sizes, kept, n: int, prev: float, project_final: bool) -> np.ndarray:
    """The kept entries ``v``, at the rows and columns ``kept``, as the block-diagonal
    ``X``, or without the final projection the last step's ``U X U^dag = [U_1 X_1 ...
    U_m X_m] U^dag``, once ``X`` passes the :class:`DensityMatrix` positivity rule
    on its blocks.  That congruence and a rotation back move an eigenvalue by about
    ``2 (d + r) d u tr X`` at most (Weyl): 1.3e-11 at d = 200, against ``_PSD_TOL``."""
    blocks = _block_stacks(v, sizes)
    x = np.zeros_like(u)
    x[kept] = v
    _check_positive(x, blocks)
    if project_final:
        return x
    y = _sector_columns(u, sizes, blocks) @ u.conj().T
    _check_traces(n - 1, np.array([prev, y.trace().real]))
    return y


def nonselective_limit(h, sectors: SectorDecomposition, t: float,
                       rho0: DensityMatrix) -> DensityMatrix:
    """Frequent-measurement limit of the nonselective chain,
    ``sum_n V_n(t) rho0 V_n(t)^dag`` with ``V_n = P_n exp(-i P_n H P_n t)``.

    Block diagonal by construction; each sector keeps exactly the weight it
    started with, whatever the off-block content of ``rho0`` was.  It is
    ``X' X^dag`` for ``X = [V_n Q_n]`` and ``X' = [V_n Q_n Q_n^dag rho0 Q_n]``.
    """
    _number(t, "time scale must be finite", complex_ok=True)
    _check_resolution(sectors, rho0)
    hop = as_operator(h)
    w, sizes, _ = sectors._frame
    x = _sector_columns(w, sizes, _sector_blocks(w, sizes, hop.matrix), t, hop.hermitian)
    out = _sector_columns(x, sizes, _sector_blocks(w, sizes, rho0.matrix)) @ x.conj().T
    return DensityMatrix((out + out.conj().T) / 2)
