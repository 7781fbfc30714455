"""Strong-coupling (continuous-measurement) dynamics.

The measured system evolves under ``H_K = H + K * H_meas``.  As the
coupling K grows, the propagator commutes ever better with the spectral
projectors of ``H_meas``: the Hilbert space splits into sectors that the
apparatus can distinguish, transitions between them switch off like 1/K,
and within each sector the motion is generated by the blocked Hamiltonian
``P_n H P_n``.  This module provides the exact propagator, its limit form,
the sector machinery, second-order perturbative corrections in 1/K, and
the defect that measures how far a finite coupling is from the limit.
The limit form is exponentiated sector by sector (``operators._sector_columns``),
or densely for a non-Hermitian model or an incomplete decomposition.  The
perturbative data are read off ``G = W^dag H W`` on the frame ``W = [Q_1
... Q_m]`` of the decomposition, in which every reduced resolvent is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import (
    Operator,
    Projector,
    SectorDecomposition,
    _SECTORS,
    _check_dimension,
    _count,
    _eigenvector_sectors,
    _number,
    _record,
    _sector_blocks,
    _sector_columns,
    _snorm,
    as_operator,
    block_diagonal_part,
    cluster_values,
    eig,
    expm,
    projector_from_columns,
    snorm,
)

_COUPLED = "expected a CoupledHamiltonian, got {}"


@dataclass(frozen=True)
class CoupledHamiltonian:
    """System Hamiltonian plus a measurement coupling of strength K.

    ``h_meas`` is the unit-strength coupling matrix; K scales it and plays
    the role of the inverse response time of the apparatus.  Either part
    may be non-Hermitian when it carries an effective decay width, which
    the Operator flags record.
    """

    h: Operator
    h_meas: Operator
    coupling: float

    def __post_init__(self):
        h = as_operator(self.h)
        hm = as_operator(self.h_meas)
        if h.dim != hm.dim:
            raise ValidationError("system and measurement dimensions differ")
        _number(self.coupling, "coupling strength K must be finite and >= 0", 0)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_meas", hm)

    @property
    def dim(self) -> int:
        return self.h.dim

    def with_coupling(self, coupling: float) -> "CoupledHamiltonian":
        return CoupledHamiltonian(self.h, self.h_meas, coupling)

    def total(self) -> Operator:
        """The full generator ``H + K * H_meas``."""
        return as_operator(self.h.matrix + self.coupling * self.h_meas.matrix,
                           hermitian=self.h.hermitian and self.h_meas.hermitian)


def zeno_sectors(hk: CoupledHamiltonian, cluster_tol: float | None = None) -> SectorDecomposition:
    """Distinct-eigenvalue sectors of the measurement coupling.

    Hermitian couplings give a complete resolution of the identity.  For a
    dissipative (non-Hermitian) coupling only the real-eigenvalue clusters
    define sectors in which probability is preserved; complex-eigenvalue
    weight leaks out of the space and is reported as a trace deficit by the
    density-matrix evolutions.
    """
    return real_sectors(_record(hk, CoupledHamiltonian, _COUPLED).h_meas, cluster_tol=cluster_tol)


def real_sectors(h_meas, cluster_tol: float | None = None) -> SectorDecomposition:
    """Real-eigenvalue sectors of a possibly dissipative coupling.

    Eigenvalues with ``|Im eta| <= REAL_EIGENVALUE_RTOL * ||h_meas||`` (1e-9
    relative, so ``c h_meas`` has the sectors of ``h_meas`` for every ``c >
    0``) are clustered and each cluster contributes the orthogonal
    projector onto the span of its right eigenvectors, with the measured
    condition number of its spectral projector (a cluster whose eigenvector
    block or spectral projector exceeds ``DEFAULT_MAX_SECTOR_CONDITION`` is
    dropped).  No real eigenvalue
    yields an empty (valid) decomposition.  Complex eigenvalues are never
    clustered here, so a smeared dissipative spectrum cannot poison it.
    """
    hm = as_operator(h_meas)
    if hm.hermitian:
        return eig(hm, cluster_tol=cluster_tol)
    return _eigenvector_sectors(hm, cluster_tol, real_only=True)


def diag_part(h, sectors: SectorDecomposition) -> Operator:
    """Blocked part ``sum_n P_n H P_n`` of the system Hamiltonian.

    Hermitian if ``h`` is, commutes with every sector projector, and is a
    fixed point of the blocking (applying it twice changes nothing).
    """
    hop = as_operator(h)
    blocked = block_diagonal_part(hop.matrix, sectors)
    return as_operator(blocked, hermitian=hop.hermitian if sectors.complete else None)


def exact_propagator(hk: CoupledHamiltonian, t: float) -> Operator:
    """Finite-coupling propagator ``exp(-i (H + K H_meas) t)``."""
    return expm(_record(hk, CoupledHamiltonian, _COUPLED).total(), t)


def zeno_propagator(hk: CoupledHamiltonian, t: float,
                    sectors: SectorDecomposition | None = None) -> Operator:
    """Infinite-coupling limit form ``exp(-i (H^diag + K H_meas) t)``.

    Commutes with every sector projector, so sector populations computed
    with it are exactly constant in time.
    """
    _record(hk, CoupledHamiltonian, _COUPLED)
    [limit] = _zeno_limits(hk, t, [hk.coupling], sectors)
    return Operator(limit)


def nonadiabatic_defect(hk: CoupledHamiltonian, t: float,
                        sectors: SectorDecomposition | None = None) -> float:
    """Spectral-norm distance between the exact and the limit propagator.

    Decays like C/K in the coupling, with C set by the system norm, the
    sector gaps and the horizon; acceptance checks fit the slope of a
    K-doubling sweep rather than any absolute constant.  Each propagator is
    exact to about ``u ||H + K H_meas||`` (``u = 2^-53``), so the relative
    error of the defect grows like ``K^2 u``: against a 50-digit reference
    the three-level defect at t = 1 is off by 2.3e-15 at K = 10, 1.6e-13
    at K = 160 and 1.6e-4 at K = 1e6.
    """
    _record(hk, CoupledHamiltonian, _COUPLED)
    [defect] = _defect_sweep(hk, t, [hk.coupling], sectors)
    return defect


def _defect_sweep(hk: CoupledHamiltonian, t: float, couplings,
                  sectors: SectorDecomposition | None) -> list[float]:
    """:func:`nonadiabatic_defect` of ``hk`` at each coupling K in ``couplings``."""
    return [_snorm(exact_propagator(hk.with_coupling(k), t).matrix - limit)
            for k, limit in zip(couplings, _zeno_limits(hk, t, couplings, sectors))]


def _zeno_limits(hk: CoupledHamiltonian, t: float, couplings,
                 sectors: SectorDecomposition | None):
    """Yield :func:`zeno_propagator` of ``hk`` at each coupling K in
    ``couplings``, as arrays (``sectors`` defaults to :func:`zeno_sectors`).
    The sector blocks need Hermitian ``H`` and ``H_meas`` and a complete
    decomposition, as :func:`eig` gives.  They keep the within-sector part
    of ``H_meas``, not ``K eta_n``, so clusters spread within the cluster
    tolerance stay exact."""
    _number(t, "time scale must be finite", complex_ok=True)
    if sectors is None:
        sectors = zeno_sectors(hk)
    _record(sectors, SectorDecomposition, _SECTORS)
    if not (sectors.complete and hk.h.hermitian and hk.h_meas.hermitian):
        hdiag = diag_part(hk.h, sectors)
        for k in couplings:
            yield exact_propagator(CoupledHamiltonian(hdiag, hk.h_meas, k), t).matrix
        return
    w, sizes, _ = sectors._frame
    hb, hmb = _sector_blocks(w, sizes, hk.h.matrix), _sector_blocks(w, sizes, hk.h_meas.matrix)
    for k in couplings:
        blocks = [a + k * b for a, b in zip(hb, hmb)]
        yield _sector_columns(w, sizes, blocks, t, hermitian=True) @ w.conj().T


# ---------------------------------------------------------------------------
# perturbative spectrum in the inverse coupling
#
# With lam = 1/K and tau = K t the propagator is exp(-i H_lam tau) for
# H_lam = H_meas + lam H, and ordinary matrix perturbation theory in lam
# gives the corrections to the sector structure at large but finite K.

_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class PerturbativeBranch:
    """One eigenvalue branch ``eta(lam) = eta0 + lam eta1 + lam^2 eta2``.

    ``projector`` projects on the zeroth-order eigenspace slice of the
    branch; ``projector_correction`` is its first-order correction built
    from the reduced resolvent.  ``resolved`` is False when first- and
    second-order data both failed to split a degenerate slice, in which
    case the branch keeps the whole lump (multiplicity > 1).
    """

    sector_index: int
    eta0: complex
    eta1: float
    eta2: float
    multiplicity: int
    projector: Projector
    projector_correction: np.ndarray
    resolved: bool = True

    def eigenvalue(self, lam: float, order: int = 2) -> complex:
        _number(lam, "lam must be finite, got {!r}")
        out = complex(self.eta0) + lam * self.eta1
        if order >= 2:
            out += lam * lam * self.eta2
        return out


@dataclass(frozen=True)
class PerturbativeExpansion:
    """Second-order perturbative data of ``H_meas + lam H``."""

    hk: CoupledHamiltonian
    sectors: SectorDecomposition
    order: int
    branches: tuple[PerturbativeBranch, ...]

    @property
    def unresolved(self) -> tuple[PerturbativeBranch, ...]:
        return tuple(b for b in self.branches if not b.resolved)

    def reduced_resolvent(self, n: int) -> np.ndarray:
        """``S_n = sum_{m != n} P_m / (eta_n - eta_m)``, as ``W diag(D_n) W^dag``."""
        w, _, diags = _resolvent_frame(self.sectors)
        n = _count(n, "n = {!r} is not a sector index in 0 .. {high}", 0, len(diags) - 1)
        return (w * diags[n]) @ w.conj().T

    def predicted_eigenvalues(self, lam: float) -> np.ndarray:
        """All eigenvalue branches at ``lam``, repeated by multiplicity."""
        return np.array([b.eigenvalue(lam, self.order) for b in self.branches
                         for _ in range(b.multiplicity)])

    def generator(self, lam: float) -> Operator:
        """Blocked generator ``H_meas + lam H^diag + lam^2 sum_n P_n H S_n H P_n``
        reproducing the exact spectrum through second order, formed as
        ``H_meas + W X W^dag`` from the sector blocks of ``G = W^dag H W``."""
        _number(lam, "lam must be finite, got {!r}")
        w, owner, diags = _resolvent_frame(self.sectors)
        g = w.conj().T @ self.hk.h.matrix @ w
        x = lam * g
        if self.order >= 2:
            x += lam * lam * (g * diags[owner]) @ g   # row i: G[i, :] D_n(i) G
        x *= owner[:, None] == owner                   # keep the sector blocks
        return as_operator(self.hk.h_meas.matrix + w @ x @ w.conj().T)


def _resolvent_frame(sectors: SectorDecomposition):
    """``W`` and the owner of each column (:attr:`SectorDecomposition._frame`),
    and the diagonals ``D_n`` of the reduced resolvents in that basis:
    ``1 / (eta_n - eta_m)`` on the columns of sector ``m != n``, 0 on its own."""
    w, _, owner = sectors._frame
    gaps = sectors.eigenvalues[:, None] - sectors.eigenvalues[owner]
    others = owner != np.arange(len(sectors))[:, None]
    return w, owner, np.divide(1.0, gaps, out=np.zeros(gaps.shape, complex), where=others)


def perturbative_spectrum(hk: CoupledHamiltonian, order: int = 2,
                          sectors: SectorDecomposition | None = None) -> PerturbativeExpansion:
    """Eigenvalue and projector corrections of ``H_meas + lam H`` in lam.

    Within each sector the first-order splitting diagonalizes
    ``P_n H P_n``; slices still degenerate there are split by the
    second-order block through the reduced resolvent.  A slice degenerate
    at both orders is kept as one lump and reported via ``resolved=False``
    (its eigenvalue data is still correct for every state in the lump).
    Eigenvalues of a slice are degenerate within ``_DEGENERACY_RTOL`` times
    the bound of their block: ``||H||`` at first order, and at second
    order ``||P_n H S_n H P_n|| <= ||H||^2 ||S_n||``, where ``||S_n||`` is
    the inverse distance from ``eta_n`` to the nearest other sector.  Both
    scale like the values they split, so ``c H``, ``c H_meas`` split alike
    for every ``c > 0``.
    """
    _count(order, "perturbative order must be 1 or 2", 1, 2)
    if not _record(hk, CoupledHamiltonian, _COUPLED).h_meas.hermitian:
        raise ValidationError("perturbative corrections require a Hermitian coupling")
    if sectors is None:
        sectors = zeno_sectors(hk)
    _record(sectors, SectorDecomposition, _SECTORS)
    sectors.validate_resolution()
    _check_dimension(hk.h.matrix, sectors.dim)

    w, owner, diags = _resolvent_frame(sectors)
    g = w.conj().T @ hk.h.matrix @ w
    hnorm = snorm(hk.h)
    branches: list[PerturbativeBranch] = []
    for n, (s, dn) in enumerate(zip(sectors, diags)):
        own = owner == n
        b1 = g[np.ix_(own, own)]                             # first-order block
        w1, v1 = np.linalg.eigh((b1 + b1.conj().T) / 2)
        # second-order slices: ||P_n H S_n H P_n|| <= ||H||^2 ||S_n||, ||S_n|| = max|D_n|
        tol2 = _DEGENERACY_RTOL * hnorm * np.abs(dn).max(initial=0.0) * hnorm
        for idx in cluster_values(w1, _DEGENERACY_RTOL * hnorm):
            c = v1[:, idx]                                   # slice in the sector basis
            hc, ch = g[:, own] @ c, c.conj().T @ g[own]      # W^dag H V, V^dag H W; V = W_n c
            if order == 1:                                   # the slice stays one branch
                w2, v2 = np.zeros(len(idx)), np.eye(len(idx))
            else:
                b2 = (ch * dn) @ hc
                w2, v2 = np.linalg.eigh((b2 + b2.conj().T) / 2)
            for sub in cluster_values(w2, tol2):
                u = v2[:, sub]
                cols = w[:, own] @ (c @ u)                   # the branch's basis
                sh = w @ (dn[:, None] * (hc @ u))            # S_n H cols
                hs = ((u.conj().T @ ch) * dn) @ w.conj().T   # cols^dag H S_n
                branches.append(PerturbativeBranch(
                    sector_index=n, eta0=complex(s.eigenvalue), eta1=float(np.mean(w1[idx])),
                    eta2=float(np.mean(w2[sub])), multiplicity=len(sub),
                    projector=projector_from_columns(cols),
                    projector_correction=sh @ cols.conj().T + cols @ hs, resolved=len(sub) == 1))
    return PerturbativeExpansion(hk=hk, sectors=sectors, order=order, branches=tuple(branches))
