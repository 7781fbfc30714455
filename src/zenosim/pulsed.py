"""Pulsed projective-measurement dynamics.

A system evolving under a Hamiltonian ``H`` is interrupted ``N`` times in a
horizon ``t`` by instantaneous projections.  Selective chains keep one
outcome, ``V_N(t) = [P U(t/N) P]^N``; nonselective chains keep all of them
through the sandwich map ``rho -> sum_n P_n rho P_n``.  As N grows both
freeze into unitary motion inside the projected subspaces: the selective
chain converges to ``P exp(-i P H P t)`` and the nonselective one to
independent block evolutions with exactly conserved per-sector weights.

Chains run where that motion lives.  A selective chain multiplies
``rank x rank`` matrices in an orthonormal basis of ``Ran P``
(:attr:`Projector.basis`); a nonselective chain runs in the basis made of
all sector bases, where the sandwich map keeps the diagonal blocks.  ``U``
is rotated into the small basis once per chain and the result rotated
back once.

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
    _norm_exceeds,
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
    ones.  The power is accumulated by repeated multiplication (so that an
    N-sweep reuses the same error-accumulation order) and monitored against
    the contraction bound ``||V|| <= 1``, which the isometry ``Q`` leaves
    unchanged; norm overshoot within roundoff is renormalized away,
    anything larger raises.
    """
    hop = as_operator(h)
    if not hop.hermitian:
        raise ValidationError("pulsed propagation requires a Hermitian Hamiltonian")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError("pulse count must be an integer >= 1")
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("horizon must be finite and non-negative")

    u = expm(hop, t / n).matrix
    q = p.basis
    step = q.conj().T @ u @ q
    v = step.copy()
    for k in range(1, n):
        v = step @ v
        if k % _MONITOR_STRIDE == 0:
            v = _enforce_contraction(v, p.dim)
    v = _enforce_contraction(v, p.dim)
    return Operator(q @ v @ q.conj().T)


def _enforce_contraction(v: np.ndarray, dim: int) -> np.ndarray:
    s = snorm(v)
    if s > 1.0 + _CONTRACTION_SLACK * dim:
        raise NumericalError(f"pulsed chain lost contractivity (norm {s:.15g})")
    if s > 1.0:
        v = v / s
    return v


def pulsed_limit(h, p: Projector, t: float) -> Operator:
    """Frequent-measurement limit ``P exp(-i P H P t)`` of the selective
    chain; unitary within the range of P."""
    hop = as_operator(h)
    php = p.matrix @ hop.matrix @ p.matrix
    u = expm(as_operator(php, hermitian=hop.hermitian), t).matrix
    return Operator(p.matrix @ u)


def survival_probability(rho0: DensityMatrix, v, p: Projector) -> float:
    """Probability of still finding the state inside Ran P after applying
    the propagator ``v``.

    Requires the initial state to be supported in Ran P.  The propagator is
    restricted to the subspace before tracing, so both sandwiched chains
    (``V_N``) and plain unitaries give the textbook survival value.
    """
    rho = rho0.matrix
    proj = p.matrix
    _check_support(rho, proj)
    w = proj @ as_matrix(v) @ proj
    return _probability(float((w @ rho @ w.conj().T).trace().real))


def _check_support(rho: np.ndarray, proj: np.ndarray) -> None:
    resid = rho - proj @ rho @ proj
    # The floor of the allowance settles nearly every call without an SVD.
    if _norm_exceeds(resid, 1e-10) and snorm(resid) > 1e-10 * max(1.0, snorm(rho)):
        raise ValidationError("initial state is not supported in the measured subspace")


def _probability(prob: float) -> float:
    if not -1e-12 <= prob <= 1.0 + 1e-12:      # NaN included
        raise NumericalError(f"survival probability {prob:.15g} outside [0, 1]")
    return min(1.0, max(0.0, prob))


def _survival_grid(h: Operator, ts: np.ndarray, rho0: DensityMatrix,
                   p: Projector) -> list[float]:
    """``survival_probability(rho0, expm(h, t), p)`` for every t in ``ts``.

    With ``P = Q Q^dag`` and ``rho0 = Q s Q^dag`` the survival is
    ``Tr[A s A^dag]`` for the ``rank x rank`` amplitude ``A = Q^dag U Q``.
    A Hermitian ``h = V diag(w) V^dag`` is diagonalized once and gives
    ``A(t) = (Q^dag V) e^{-i w t} (V^dag Q)`` for the whole grid; other
    generators take one Pade exponential per sample.  The support check
    runs once, the [0, 1] range check on every value.
    """
    _check_support(rho0.matrix, p.matrix)
    q = p.basis
    s = q.conj().T @ rho0.matrix @ q
    if h.hermitian:
        w, vecs = np.linalg.eigh(h.matrix)
        left, right = q.conj().T @ vecs, vecs.conj().T @ q
        amps = np.einsum("ik,tk,kj->tij", left, np.exp(-1j * np.multiply.outer(ts, w)), right)
    else:
        amps = np.array([q.conj().T @ expm(h, t).matrix @ q for t in ts])
    probs = np.einsum("tij,jk,tik->t", amps, s, amps.conj()).real
    return [_probability(float(x)) for x in probs]


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
    Q_n Q_n^dag``): ``U`` and ``rho0`` are rotated once, the sandwich map
    ``rho -> sum_n P_n rho P_n`` becomes the elementwise mask that keeps
    the diagonal blocks, and the final state is rotated back.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError("measurement count must be an integer >= 1")
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError("horizon must be finite and non-negative")
    if rho0.dim != sectors.dim:
        raise ValidationError("state dimension does not match sectors")
    sectors.validate_resolution()

    w = np.hstack([s.projector.basis for s in sectors])
    label = np.repeat(np.arange(len(sectors)), [s.multiplicity for s in sectors])
    mask = label[:, None] == label[None, :]
    u = w.conj().T @ expm(h, t / n).matrix @ w
    udag = u.conj().T
    rho = (w.conj().T @ rho0.matrix @ w) * mask
    prev = float(rho.trace().real)
    for k in range(n):
        rho = u @ rho @ udag
        if k < n - 1 or project_final:
            rho = rho * mask
        tr = float(rho.trace().real)
        if abs(tr - prev) > 1e-12 * max(1.0, abs(prev)):
            raise NumericalError(
                f"step {k} changed the trace by {abs(tr - prev):.3e}")
        prev = tr
    rho = w @ rho @ w.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)


def nonselective_limit(h, sectors: SectorDecomposition, t: float,
                       rho0: DensityMatrix) -> DensityMatrix:
    """Frequent-measurement limit of the nonselective chain,
    ``sum_n V_n(t) rho0 V_n(t)^dag`` with ``V_n = P_n exp(-i P_n H P_n t)``.

    Block diagonal by construction; each sector keeps exactly the weight it
    started with, whatever the off-block content of ``rho0`` was.
    """
    if rho0.dim != sectors.dim:
        raise ValidationError("state dimension does not match sectors")
    sectors.validate_resolution()
    out = np.zeros_like(rho0.matrix)
    for s in sectors:
        vn = pulsed_limit(h, s.projector, t).matrix
        out += vn @ rho0.matrix @ vn.conj().T
    return DensityMatrix((out + out.conj().T) / 2)
