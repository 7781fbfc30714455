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

Units have hbar = 1 throughout; rates and frequencies are inverse time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .fitting import loglog_fit
from .operators import (
    DensityMatrix,
    Operator,
    Projector,
    SectorDecomposition,
    _check_dimension,
    _norm_exceeds,
    _rank_groups,
    _sector_basis,
    _sector_blocks,
    _sector_columns,
    as_matrix,
    as_operator,
    expm,
    snorm,
)

# Spectral-norm drift beyond which a pulsed chain is considered broken
# rather than renormalizable roundoff.
_CONTRACTION_SLACK = 1e-12
# How often the running product is checked against the contraction bound.
_MONITOR_STRIDE = 64


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


def _normalized_vector(a) -> np.ndarray:
    v = np.asarray(a, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-10:
        raise ValidationError(f"state vector must be normalized (norm {nrm:.12g})")
    return v


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
    _check_dimension(hop.matrix, p.dim)
    w, vecs = hop._eigh
    b = p.basis.conj().T @ vecs
    for n in ns:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError("pulse count must be an integer >= 1")
        if not (math.isfinite(t) and t >= 0):
            raise ValidationError("horizon must be finite and non-negative")
        yield _chain_power((b * np.exp(-1j * (t / n) * w)) @ b.conj().T, n, p.dim)


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
    return [snorm(v - limit) for v in cores]


def _enforce_contraction(v: np.ndarray, dim: int) -> np.ndarray:
    s = snorm(v)
    if s > 1.0 + _CONTRACTION_SLACK * dim:
        raise NumericalError(f"pulsed chain lost contractivity (norm {s:.15g})")
    if s > 1.0:
        v = v / s
    return v


def pulsed_limit(h, p: Projector, t: float) -> Operator:
    """Frequent-measurement limit ``P exp(-i P H P t)`` of the selective
    chain, ``Q exp(-i Q^dag H Q t) Q^dag``; unitary within the range of P."""
    hop = as_operator(h)
    q = p.basis
    x = _sector_columns(q, [p.rank], _sector_blocks(q, [p.rank], hop.matrix), t, hop.hermitian)
    return Operator(x @ q.conj().T)


def survival_probability(rho0: DensityMatrix, v, p: Projector) -> float:
    """Probability of still finding the state inside Ran P after applying
    the propagator ``v``.

    Requires the initial state to be supported in Ran P.  The propagator is
    restricted to the subspace before tracing, so both sandwiched chains
    (``V_N``) and plain unitaries give the textbook survival value.
    """
    rho = rho0.matrix
    proj = p.matrix
    _check_dimension(as_matrix(v), p.dim)
    _check_dimension(rho, p.dim)
    _check_support(rho, proj)
    w = proj @ as_matrix(v) @ proj
    return float(_probability((w @ rho @ w.conj().T).trace().real))


def _check_support(rho: np.ndarray, proj: np.ndarray) -> None:
    resid = rho - proj @ rho @ proj
    # The floor of the allowance settles nearly every call without an SVD.
    if _norm_exceeds(resid, 1e-10) and snorm(resid) > 1e-10 * max(1.0, snorm(rho)):
        raise ValidationError("initial state is not supported in the measured subspace")


def _probability(prob) -> np.ndarray:
    """Survival probabilities (a number or an array) clipped to [0, 1]; the
    first one outside it by more than 1e-12, NaN included, raises."""
    prob = np.asarray(prob, dtype=float)
    bad = np.flatnonzero(~((prob >= -1e-12) & (prob <= 1.0 + 1e-12)))
    if bad.size:
        raise NumericalError(f"survival probability {prob.flat[bad[0]]:.15g} outside [0, 1]")
    return np.where(prob > 0.0, np.minimum(prob, 1.0), 0.0)    # -0.0 clips to 0.0


def _survival_grid(h: Operator, ts: np.ndarray, rho0: DensityMatrix,
                   p: Projector) -> list[float]:
    """``survival_probability(rho0, expm(h, t), p)`` for every t in ``ts``.

    With ``P = Q Q^dag`` and ``rho0 = Q s Q^dag`` the survival is
    ``Tr[A s A^dag]`` for the ``rank x rank`` amplitude ``A = Q^dag U Q``.
    A Hermitian ``h = V diag(w) V^dag`` is diagonalized once and gives
    ``A(t) = (Q^dag V) e^{-i w t} (V^dag Q)`` for the whole grid; other
    generators take one Pade exponential per sample.  The support check
    runs once, the [0, 1] range check on all values in one pass.
    """
    _check_support(rho0.matrix, p.matrix)
    q = p.basis
    s = q.conj().T @ rho0.matrix @ q
    if h.hermitian:
        w, vecs = h._eigh
        left, right = q.conj().T @ vecs, vecs.conj().T @ q
        amps = np.einsum("ik,tk,kj->tij", left, np.exp(-1j * np.multiply.outer(ts, w)), right)
    else:
        amps = np.array([q.conj().T @ expm(h, t).matrix @ q for t in ts])
    probs = np.einsum("tij,jk,tik->t", amps, s, amps.conj()).real
    return _probability(probs).tolist()


def survival_amplitude(h, a, tau: float) -> complex:
    """Undisturbed amplitude ``<a| exp(-i H tau) |a>``."""
    v = _normalized_vector(a)
    u = expm(h, tau).matrix
    return complex(np.vdot(v, u @ v))


def effective_rate(h, a, tau: float) -> EffectiveRate:
    """Exponential-equivalent rate/phase pair of measurements at interval tau.

    For a Hermitian ``h`` the amplitude modulus cannot exceed one, so
    roundoff overshoot is clipped; dissipative generators are left as
    computed (transient amplification then yields a negative rate).
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValidationError("measurement interval must be positive")
    amp = survival_amplitude(h, a, tau)
    hermitian = as_operator(h).hermitian
    return _rate_from_amplitude(amp, tau, clip=hermitian)


def effective_rate_from_amplitude(amplitude: Callable[[float], complex],
                                  tau: float) -> EffectiveRate:
    """Rate/phase pair for a user-supplied survival amplitude.

    Finite matrices always give a quadratic short-time law; this hook lets
    model amplitudes with other short-time exponents (where the limit rate
    can stay finite or diverge) be pushed through the same definitions.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValidationError("measurement interval must be positive")
    return _rate_from_amplitude(complex(amplitude(tau)), tau, clip=False)


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
    so both moments come from the same matrix-vector product.
    """
    hop = as_operator(h)
    if not hop.hermitian:
        raise ValidationError("the quadratic decay scale requires a Hermitian Hamiltonian")
    v = _normalized_vector(a)
    hv = hop.matrix @ v
    m2 = float(np.vdot(hv, hv).real)
    m1 = float(np.vdot(v, hv).real)
    var = m2 - m1 * m1
    if var <= 16 * np.finfo(float).eps * max(m2, 1.0):
        return math.inf
    return 1.0 / math.sqrt(var)


def zeno_time_fitted(h, a, tau0: float | None = None, points: int = 5) -> float:
    """Quadratic-decay scale recovered from short-time survival data.

    Evaluates ``1 - p(tau)`` on the geometric grid ``tau0 * 2**-k`` for
    ``k = 0 .. points-1`` (default ``tau0 = 0.01 / ||H||``) and fits
    ``log(1 - p)`` against ``log tau``; the intercept gives the time scale.
    """
    hop = as_operator(h)
    if tau0 is None:
        nrm = snorm(hop)
        if nrm == 0:
            return math.inf
        tau0 = 0.01 / nrm
    taus = tau0 * 0.5 ** np.arange(points)
    deficits = []
    for tau in taus:
        p = abs(survival_amplitude(hop, a, tau)) ** 2
        deficits.append(max(1.0 - p, 0.0))
    deficits = np.asarray(deficits)
    if np.any(deficits <= 0):
        return math.inf
    _, intercept = loglog_fit(taus, deficits)
    # model: log(1 - p) = 2 log tau - 2 log tz
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

    The chain runs in the sector basis ``W = [Q_1 ... Q_m]`` (``P_n =
    Q_n Q_n^dag``, sectors sorted by rank): ``rho0`` is rotated once, the
    step is formed there from the eigenbasis of a Hermitian ``H = V
    diag(w) V^dag`` as ``u = (A e^{-i w t/n}) A^dag`` with ``A = W^dag V``
    (else ``u = W^dag exp(-i H t/n) W``), the sandwich map ``rho -> sum_n
    P_n rho P_n`` keeps the ``s = sum_n r_n^2`` entries of the diagonal
    blocks, and the final state is rotated back.  An N grid shares the
    rotation of ``rho0`` and ``A`` (:func:`_nonselective_grid`).  While
    ``s <= 2 d`` (small sectors; rank-1 blocks are the populations) the
    chain iterates one ``s x s`` matrix on those entries
    (:func:`_kept_chain`, run by the shipped d = 3 scenario), otherwise it
    multiplies the blocks alone (:func:`_block_chain`, run by four rank-50
    sectors at d = 200).
    """
    [rho] = _nonselective_grid(h, sectors, [n], t, rho0, project_final)
    return rho


def _nonselective_grid(h, sectors: SectorDecomposition, ns, t: float,
                       rho0: DensityMatrix, project_final: bool = True):
    """:func:`nonselective_evolve` for each measurement count in ``ns``, as
    an iterator, with the rotation of ``rho0`` and ``A = W^dag V`` formed
    once for the grid."""
    for n in ns:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError("measurement count must be an integer >= 1")
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("horizon must be finite and non-negative")
    if rho0.dim != sectors.dim:
        raise ValidationError("state dimension does not match sectors")
    sectors.validate_resolution()

    hop = as_operator(h)
    _check_dimension(hop.matrix, sectors.dim)
    w, sizes = _sector_basis(sectors)
    chain = _kept_chain if sum(r * r for r in sizes) <= 2 * sectors.dim else _block_chain
    start = w.conj().T @ rho0.matrix @ w
    if hop.hermitian:
        energies, vecs = hop._eigh
        a = w.conj().T @ vecs

    def step(n):
        if hop.hermitian:
            return (a * np.exp(-1j * (t / n) * energies)) @ a.conj().T
        return w.conj().T @ expm(hop, t / n).matrix @ w

    def evolve(n):         # returns, so no step or chain array outlives its N
        rho = w @ chain(step(n), start, sizes, n, project_final) @ w.conj().T
        return DensityMatrix((rho + rho.conj().T) / 2)

    return map(evolve, ns)


# Bytes of kept-entry iterates, and of kept-step powers, held at once: 1365
# iterates and 455 powers at d = 3 with three rank-1 sectors (0.4 us a step,
# against 2.1 us one step at a time), 20 iterates and one power at d = 200 with
# 200 rank-1 sectors (31 us a step either way; one BLAS thread).
_KEPT_CHUNK_BYTES = 1 << 16


def _check_trace_step(k: int, tr: float, prev: float) -> float:
    if abs(tr - prev) > 1e-12 * max(1.0, abs(prev)):
        raise NumericalError(f"step {k} changed the trace by {abs(tr - prev):.3e}")
    return tr


def _check_traces(first: int, traces: np.ndarray) -> None:
    """:func:`_check_trace_step` for the steps ``first, first + 1, ...``
    at once: ``traces[j + 1]`` is the trace after step ``first + j`` and
    ``traces[0]`` the one before ``first``.  The first offending step
    raises, with the message of the per-step check."""
    prev, delta = traces[:-1], np.abs(np.diff(traces))
    bad = np.flatnonzero(delta > 1e-12 * np.maximum(1.0, np.abs(prev)))
    if bad.size:
        raise NumericalError(f"step {first + bad[0]} changed the trace by {delta[bad[0]]:.3e}")


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
        _check_traces(first, traces)
        prev = float(traces[-1])
        vs[0] = vs[count]
    return _finish(u, vs[0], ia, ib, n, prev, project_final)


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
    groups, offset = [], 0
    for rows, rank, count in _rank_groups(sizes):
        stack = (count, rank, d)
        groups.append((v[offset:offset + count * rank * rank].reshape(count, rank, rank),
                       udag[rows].reshape(stack), z[rows].reshape(stack), u[rows].reshape(stack),
                       z[:, rows].reshape(d, count, rank).transpose(1, 0, 2)))
        offset += count * rank * rank
    prev = float(v[diag].real.sum())
    for k in range(n if project_final else n - 1):
        for blocks, udag_rows, z_rows, _, _ in groups:
            np.matmul(blocks, udag_rows, out=z_rows)
        for blocks, _, _, u_rows, z_cols in groups:
            np.matmul(u_rows, z_cols, out=blocks)
        prev = _check_trace_step(k, float(v[diag].real.sum()), prev)
    return _finish(u, v, ia, ib, n, prev, project_final)


def _finish(u, v, ia, ib, n: int, prev: float, project_final: bool) -> np.ndarray:
    """The kept entries ``v`` as the block-diagonal ``X``, or without the
    final projection the last step's full product ``U X U^dag``."""
    x = np.zeros_like(u)
    x[ia, ib] = v
    if not project_final:
        x = u @ x @ u.conj().T
        _check_trace_step(n - 1, float(x.trace().real), prev)
    return x


def nonselective_limit(h, sectors: SectorDecomposition, t: float,
                       rho0: DensityMatrix) -> DensityMatrix:
    """Frequent-measurement limit of the nonselective chain,
    ``sum_n V_n(t) rho0 V_n(t)^dag`` with ``V_n = P_n exp(-i P_n H P_n t)``.

    Block diagonal by construction; each sector keeps exactly the weight it
    started with, whatever the off-block content of ``rho0`` was.  It is
    ``X' X^dag`` for ``X = [V_n Q_n]`` and ``X' = [V_n Q_n Q_n^dag rho0 Q_n]``.
    """
    if rho0.dim != sectors.dim:
        raise ValidationError("state dimension does not match sectors")
    sectors.validate_resolution()
    hop = as_operator(h)
    w, sizes = _sector_basis(sectors)
    x = _sector_columns(w, sizes, _sector_blocks(w, sizes, hop.matrix), t, hop.hermitian)
    out = _sector_columns(x, sizes, _sector_blocks(w, sizes, rho0.matrix)) @ x.conj().T
    return DensityMatrix((out + out.conj().T) / 2)
