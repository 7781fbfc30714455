"""Bundled model systems.

Four small systems exercise every regime of the library:

* ``three_level``: a Rabi pair |1>,|2> whose upper level is watched by a
  third level with strength K; the survival of |1> has a closed form.
* ``four_level``: the Rabi pair watched by |3>, which is itself watched by
  |4>; watching the watcher restores the oscillations it suppressed.
* ``cavity``: two three-level atoms in a leaky cavity; the coupling is
  dissipative (non-Hermitian) and its real-eigenvalue sector is a
  five-dimensional decoherence-free subspace.
* ``decay_model``: spontaneous emission of |1> through a lossy |2> that is
  resonantly driven to |3>; strong driving protects |1>.

Level labels in docstrings are 1-based kets |1>, |2>, ...; array indices
are 0-based as usual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .continuous import CoupledHamiltonian, real_sectors
from .errors import ValidationError
from .operators import Operator, SectorDecomposition, as_matrix, as_operator
from .operators import _check_dimension, _count, _number

def _rates(*rates) -> None:
    for rate in rates:
        _number(rate, "rates must be >= 0", 0)


def coupling_matrix(dim: int, i: int, j: int) -> np.ndarray:
    """Unit coupling |i><j| + |j><i| between 1-based levels i and j."""
    message, fields = "levels ({i},{j}) invalid for dimension {dim}", dict(i=i, j=j, dim=dim)
    dim = _count(dim, message, **fields)
    if _count(i, message, 1, dim, **fields) == _count(j, message, 1, dim, **fields):
        raise ValidationError(message.format(**fields))
    m = np.zeros((dim, dim), dtype=complex)
    m[i - 1, j - 1] = 1.0
    m[j - 1, i - 1] = 1.0
    return m


def rotation_generator(dim: int, i: int, j: int, kind: str = "phase") -> Operator:
    """Hermitian generator rotating the (i, j) level pair (1-based).

    ``kind="phase"`` is the population-difference generator |i><i| - |j><j|
    (rotates the relative phase of the pair); ``kind="plane"`` is the
    antisymmetric generator -i|i><j| + i|j><i| (rotates the pair into each
    other).  Both carry eigenvalue-preserving paths without crossings.
    """
    dim = len(coupling_matrix(dim, i, j))      # refuses an invalid level pair
    g = np.zeros((dim, dim), dtype=complex)
    if kind == "phase":
        g[i - 1, i - 1] = 1.0
        g[j - 1, j - 1] = -1.0
    elif kind == "plane":
        g[i - 1, j - 1] = -1j
        g[j - 1, i - 1] = 1j
    else:
        raise ValidationError(f"unknown rotation kind {kind!r}")
    return Operator(g, hermitian=True)


# ---------------------------------------------------------------------------
# three-level model


def three_level(omega: float, coupling: float) -> CoupledHamiltonian:
    """Rabi pair with a watched upper level.

    System ``H = omega (|1><2| + |2><1|)`` on three levels, measurement
    coupling ``|2><3| + |3><2|`` of strength K.  The total matrix is

        [[0,      omega, 0],
         [omega,  0,     K],
         [0,      K,     0]].
    """
    _rates(omega, coupling)
    h = omega * coupling_matrix(3, 1, 2)
    hm = coupling_matrix(3, 2, 3)
    return CoupledHamiltonian(Operator(h, hermitian=True),
                              Operator(hm, hermitian=True), coupling)


def three_level_survival(omega: float, coupling: float, t):
    """Closed-form survival probability of level |1> in :func:`three_level`.

    ``p0(t) = (K^2 + omega^2 cos(K1 t))^2 / K1^4`` with
    ``K1 = sqrt(K^2 + omega^2)``; tends to one as K grows at fixed t.
    Accepts a scalar or an array of times.
    """
    _rates(omega, coupling)
    k2 = coupling * coupling
    o2 = omega * omega
    k1sq = k2 + o2
    if k1sq == 0:
        raise ValidationError("survival formula undefined for omega = K = 0")
    k1 = math.sqrt(k1sq)
    t = np.asarray(t, dtype=float)
    p = (k2 + o2 * np.cos(k1 * t)) ** 2 / (k1sq * k1sq)
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# four-level hierarchy


@dataclass(frozen=True)
class FourLevelModel:
    """Rabi pair, watcher and watcher's watcher.

    ``total = omega*X12 + k_inner*X23 + k_outer*X34`` on four levels:

        [[0,      omega,   0,       0      ],
         [omega,  0,       k_inner, 0      ],
         [0,      k_inner, 0,       k_outer],
         [0,      0,       k_outer, 0      ]].

    ``inner_regime`` treats the |2>-|3> coupling as the measurement
    (freezes the Rabi pair for k_inner >> omega, k_outer);
    ``outer_regime`` treats the |3>-|4> coupling as the measurement
    (restores the Rabi oscillations for k_outer >> k_inner).
    """

    omega: float
    k_inner: float
    k_outer: float

    def __post_init__(self):
        _rates(self.omega, self.k_inner, self.k_outer)

    @property
    def rabi(self) -> np.ndarray:
        return self.omega * coupling_matrix(4, 1, 2)

    @property
    def inner_coupling(self) -> np.ndarray:
        return self.k_inner * coupling_matrix(4, 2, 3)

    @property
    def outer_coupling(self) -> np.ndarray:
        return self.k_outer * coupling_matrix(4, 3, 4)

    @property
    def total(self) -> Operator:
        return Operator(self.rabi + self.inner_coupling + self.outer_coupling,
                        hermitian=True)

    def inner_regime(self) -> CoupledHamiltonian:
        h = self.rabi + self.outer_coupling
        return CoupledHamiltonian(as_operator(h, hermitian=True),
                                  Operator(coupling_matrix(4, 2, 3), hermitian=True),
                                  self.k_inner)

    def outer_regime(self) -> CoupledHamiltonian:
        h = self.rabi + self.inner_coupling
        return CoupledHamiltonian(as_operator(h, hermitian=True),
                                  Operator(coupling_matrix(4, 3, 4), hermitian=True),
                                  self.k_outer)


def four_level(omega: float, k_inner: float, k_outer: float) -> FourLevelModel:
    """Build the four-level hierarchy (see :class:`FourLevelModel`)."""
    return FourLevelModel(omega=omega, k_inner=k_inner, k_outer=k_outer)


# ---------------------------------------------------------------------------
# two atoms in a leaky cavity


@dataclass(frozen=True)
class ExcitationSectors:
    """Excitation-number structure of the cavity model.

    ``number_op`` counts cavity photons plus atoms in their upper level;
    it commutes with the cavity coupling, so the coupling is block
    diagonal over the eigenspaces S_n collected in ``labels_by_n``.
    Labels are ``(photons, atom1, atom2)`` tuples with atom levels 0..2.
    """

    number_op: np.ndarray
    labels: tuple[tuple[int, int, int], ...]

    @cached_property
    def labels_by_n(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        out: dict[int, list] = {}
        for lbl in self.labels:
            n = lbl[0] + (lbl[1] == 2) + (lbl[2] == 2)
            out.setdefault(n, []).append(lbl)
        return {n: tuple(v) for n, v in sorted(out.items())}

    def index(self, label: tuple[int, int, int]) -> int:
        if not (isinstance(label, (tuple, list, np.ndarray)) and tuple(label) in self.labels):
            raise ValidationError(f"label {label} is not in the basis")
        return self.labels.index(tuple(label))

    def sector_labels(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """Lexicographically ordered basis labels of S_n."""
        try:
            return self.labels_by_n[_count(n, "no excitation sector with N = {}", 0)]
        except KeyError:
            raise ValidationError(f"no excitation sector with N = {n}") from None

    def restriction(self, matrix, n: int, order=None) -> np.ndarray:
        """Block of ``matrix`` on S_n, rows/columns in ``order`` (default:
        the lexicographic sector basis)."""
        labels = self.sector_labels(n) if order is None else [tuple(l) for l in order]
        allowed = set(self.sector_labels(n))
        for lbl in labels:
            if lbl not in allowed:
                raise ValidationError(f"label {lbl} is not in excitation sector {n}")
        idx = [self.index(lbl) for lbl in labels]
        m = as_matrix(matrix)
        _check_dimension(m, len(self.labels))
        return m[np.ix_(idx, idx)]


@dataclass(frozen=True)
class CavityModel:
    """Two three-level atoms coupled to one leaky cavity mode.

    The atoms sit in a Lambda configuration with ground states |0>, |1>
    and upper state |2>; the cavity mode is resonant with the 1-2
    transition and leaks photons at rate kappa.  The effective coupling

        H_meas = i g sum_i (b |2>_i<1| - b^dag |1>_i<2|) - i kappa b^dag b

    is non-Hermitian: its complex eigenvalues dissipate out of the space,
    its real eigenvalues generate unitary motion (the decoherence-free
    subspace).  The basis is |photons> x |atom1> x |atom2|, lexicographic,
    photons truncated at ``n_max``.
    """

    g: float
    kappa: float
    n_max: int
    hk: CoupledHamiltonian
    sectors: ExcitationSectors

    @property
    def dim(self) -> int:
        return self.hk.dim


def cavity(g: float, kappa: float, n_max: int = 2) -> CavityModel:
    """Build the two-atom cavity model truncated at ``n_max`` photons.

    ``n_max >= 2`` is required so that every state reachable from the
    zero- and one-excitation sectors is represented exactly.
    """
    n_max = _count(n_max, "photon truncation n_max must be >= 2", 2)
    _rates(g, kappa)
    nph = n_max + 1
    b = np.diag(np.sqrt(np.arange(1, nph)), 1).astype(complex)
    id_ph = np.eye(nph, dtype=complex)
    id_at = np.eye(3, dtype=complex)
    raise_21 = np.zeros((3, 3), dtype=complex)
    raise_21[2, 1] = 1.0                       # |2><1| on one atom
    lower_12 = raise_21.conj().T

    def kron3(a, b_, c):
        return np.kron(a, np.kron(b_, c))

    hm = np.zeros((nph * 9, nph * 9), dtype=complex)
    hm += 1j * g * (kron3(b, raise_21, id_at) - kron3(b.conj().T, lower_12, id_at))
    hm += 1j * g * (kron3(b, id_at, raise_21) - kron3(b.conj().T, id_at, lower_12))
    hm += -1j * kappa * kron3(b.conj().T @ b, id_at, id_at)

    upper = np.diag([0.0, 0.0, 1.0]).astype(complex)
    number = kron3(b.conj().T @ b, id_at, id_at) \
        + kron3(id_ph, upper, id_at) + kron3(id_ph, id_at, upper)

    labels = tuple((n, a1, a2) for n in range(nph) for a1 in range(3) for a2 in range(3))
    hermitian = kappa == 0
    hk = CoupledHamiltonian(
        Operator(np.zeros_like(hm), hermitian=True),
        as_operator(hm, hermitian=hermitian),
        coupling=1.0,
    )
    return CavityModel(g=g, kappa=kappa, n_max=n_max, hk=hk,
                       sectors=ExcitationSectors(number_op=number, labels=labels))


def dfs_extract(hk: CoupledHamiltonian, cluster_tol: float | None = None) -> SectorDecomposition:
    """Sectors of the measurement coupling in which probability survives.

    For a Hermitian coupling this is the full sector decomposition.  For a
    dissipative one only eigenvalues with negligible imaginary part are
    kept; an empty decomposition is a valid result (everything decays).
    The union of the returned subspaces is protected from the dissipation:
    dynamics restricted there stays unitary.
    """
    return real_sectors(hk.h_meas, cluster_tol=cluster_tol)


# ---------------------------------------------------------------------------
# protected decay model


def decay_model(tau_z: float, gamma: float, coupling: float) -> CoupledHamiltonian:
    """Spontaneous emission |1> -> |2> with a driven protection level.

    The system part is non-Hermitian: level |2> carries the effective
    width of the continuum it decays into,

        H = [[0,       1/tau_z,            0],
             [1/tau_z, -2j/(tau_z^2 gamma), 0],
             [0,       0,                  0]],

    where gamma is the free decay rate of |1> and tau_z the curvature
    scale of its short-time quadratic decay.  The measurement coupling
    resonantly drives |2> <-> |3> with strength K; driving faster than the
    effective width cuts the decay off.
    """
    _number(tau_z, "tau_z and gamma must be > 0", 0, strict=True)
    _number(gamma, "tau_z and gamma must be > 0", 0, strict=True)
    _number(coupling, "coupling strength K must be >= 0", 0)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0 / tau_z
    h[1, 1] = -2j / (tau_z * tau_z * gamma)
    hm = coupling_matrix(3, 2, 3)
    return CoupledHamiltonian(as_operator(h, hermitian=False),
                              Operator(hm, hermitian=True), coupling)
