"""Dense complex operator engine.

Everything downstream (pulsed and continuous measurement dynamics, the
bundled models, the scenario runner) is built on the four primitives in
this module: matrix exponentials, spectral decompositions clustered into
distinct-eigenvalue sectors, projector algebra, and block-structure
diagnostics.

Conventions
-----------
* ``expm(a, t)`` returns ``exp(-1j * t * a)``: the *generator* is passed,
  never a pre-multiplied exponent.  Hermitian generators are exponentiated
  through their eigendecomposition, which keeps the result unitary to
  machine precision; everything else goes through the scaling-and-squaring
  rational (Pade) kernel of :func:`scipy.linalg.expm`.
* Norms: the spectral norm (largest singular value) backs convergence and
  unitarity statements; the Frobenius norm backs block-structure
  diagnostics such as :func:`offblock_norm`.
* A matrix counts as Hermitian when ``max|A - A^dag|`` does not exceed
  ``HERMITIAN_RTOL`` times its spectral norm.
* Invariant checks are decided from cheap bounds first and fall back to
  the exact spectral norm (an SVD) only when the bounds cannot decide, so
  every accept/reject decision is the one the exact check makes.  A
  spectral norm lies between ``||M||_F / sqrt(n)`` and ``||M||_F``; a
  scaled tolerance ``rtol * max(floor, ||M||)`` is settled by those two
  bounds, and a residual bound ``||R|| <= b`` passes outright when
  ``||R||_F <= b``.  Both sides carry a relative slack ``_ROUNDING``
  that covers the rounding of the Frobenius sum and of the SVD.
* The Hermitian sectors of :func:`eig` are held by their ``eigh`` columns
  (:attr:`Projector.basis`), through which the block diagnostics and the
  chains work; a sector's ``matrix = fl(Q Q^dag)`` is formed when read.
  One ``e = ||V^dag V - I||_F`` proves that every such matrix passes the
  projector checks and that the sectors resolve the identity, which is
  recorded at construction (:func:`_eigh_certificate`); without that
  certificate, every projector and the resolution are checked in full.
* Non-Hermitian sectors, the real-eigenvalue (decoherence-free) ones
  included, come from one eigenvector routine and carry the measured
  condition number of their spectral projector; a cluster whose eigenvector
  block or spectral projector exceeds ``DEFAULT_MAX_SECTOR_CONDITION`` is dropped.
* A clustering tolerance must be finite and >= 0.

Intended scale is "desk" size, dimensions up to a couple hundred; there is
deliberately no sparse or structured path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AmbiguousSpectrumError, ValidationError

# Tolerances used by the type invariants.  Dimensionful checks scale with
# the matrix norm or dimension as noted at each use site.
HERMITIAN_RTOL = 1e-12
IDEMPOTENCY_TOL = 1e-10   # times dim
COMPLETENESS_TOL = 1e-10  # times dim
ORTHOGONALITY_TOL = 1e-10
TRACE_RANK_TOL = 1e-10
UNITARITY_TOL = 1e-12     # times dim
REAL_EIGENVALUE_RTOL = 1e-9
DEFAULT_CLUSTER_RTOL = 1e-8
DEFAULT_MAX_SECTOR_CONDITION = 1e8

# Relative slack on computed norms used as bounds for the exact check.  It
# exceeds the worst-case rounding of a Frobenius norm (n^2 u for a BLAS dot
# over n^2 squares) and the p(n) u error of LAPACK's largest singular value
# for n up to a few thousand, far beyond the intended scale.
_ROUNDING = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def snorm(a) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(as_matrix(a), 2))


def fnorm(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(as_matrix(a)))


def as_matrix(a) -> np.ndarray:
    """Coerce an Operator, Projector, DensityMatrix or array-like to a
    complex square ndarray (no copy when already suitable)."""
    if isinstance(a, (Operator, Projector, DensityMatrix)):
        return a.matrix
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_finite(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m.view(float)).all():
        raise ValidationError(f"{what} contains NaN or Inf entries")


def _within_scaled(dev, m: np.ndarray, allowed) -> bool:
    """``dev <= allowed(snorm(m))`` for an ``allowed`` nondecreasing in the
    norm.  The floor ``allowed(0)`` passes most calls outright; otherwise
    ``||m||_F / sqrt(n) <= ||m||_2 <= ||m||_F`` decides unless ``dev``
    falls between the two allowances, and only then the SVD runs."""
    if dev <= allowed(0.0):
        return True
    f = fnorm(m)
    if math.isfinite(f):
        if dev <= allowed(f / math.sqrt(m.shape[0]) * (1 - _ROUNDING)):
            return True
        if dev > allowed(f * (1 + _ROUNDING)):
            return False
    return bool(dev <= allowed(snorm(m)))


def _norm_exceeds(r: np.ndarray, bound: float) -> bool:
    """``snorm(r) > bound``; a Frobenius norm within the bound settles it
    without an SVD."""
    if fnorm(r) * (1 + _ROUNDING) <= bound:
        return False
    return snorm(r) > bound


def _hermitian_allowance(norm: float) -> float:
    return HERMITIAN_RTOL * max(norm, _TINY)


def _hermitian_deviation(m: np.ndarray) -> float:
    return np.max(np.abs(m - m.conj().T))


def is_hermitian(a) -> bool:
    """Hermiticity test at the module tolerance (1e-12 relative to the
    spectral norm; the zero matrix is Hermitian)."""
    m = as_matrix(a)
    return _within_scaled(_hermitian_deviation(m), m, _hermitian_allowance)


def _hermitian_slices(ms: np.ndarray) -> np.ndarray:
    """:func:`is_hermitian` of each slice of the stack ``ms``: the Frobenius
    bounds of :func:`_within_scaled` decide for the whole stack at once, and
    only the slices they leave undecided are checked one by one.  A slice
    with NaN or Inf entries is not Hermitian."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(ms - ms.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        f = np.sqrt((ms.real ** 2 + ms.imag ** 2).sum(axis=(1, 2)))
        f[~np.isfinite(f)] = np.nan             # an overflowed norm bounds nothing
        low, high = f / math.sqrt(ms.shape[1]) * (1 - _ROUNDING), f * (1 + _ROUNDING)
        ok = dev <= HERMITIAN_RTOL * np.maximum(low, _TINY)
        no = ~np.isfinite(dev) | (dev > HERMITIAN_RTOL * np.maximum(high, _TINY))
    for k in np.flatnonzero(~ok & ~no):
        ok[k] = is_hermitian(ms[k])
    return ok


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with a Hermiticity flag.

    The flag is asserted by the caller and verified on construction; use
    :func:`as_operator` to auto-detect it instead.  The stored array is
    made read-only, so instances are safe to share across threads.
    """

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"operator must be square, got shape {m.shape}")
        _check_finite(m, "operator")
        if self.hermitian:
            dev = _hermitian_deviation(m)
            if not _within_scaled(dev, m, _hermitian_allowance):
                raise ValidationError(
                    f"matrix flagged Hermitian deviates by {dev:.3e} "
                    f"(allowed {_hermitian_allowance(snorm(m)):.3e})"
                )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w, V)`` of ``np.linalg.eigh`` of a Hermitian operator, computed
        once and kept with it (read-only), so every exponential or survival
        grid of one operator shares a single diagonalization."""
        if not self.hermitian:
            raise ValidationError("eigendecomposition requires a Hermitian operator")
        w, v = np.linalg.eigh(self.matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def adjoint(self) -> "Operator":
        return Operator(self.matrix.conj().T, hermitian=self.hermitian)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __matmul__(self, other):
        return self.matrix @ as_matrix(other)

    def __rmatmul__(self, other):
        return as_matrix(other) @ self.matrix


def as_operator(a, hermitian: bool | None = None) -> Operator:
    """Wrap ``a`` as an :class:`Operator`.

    With ``hermitian=None`` the flag is detected numerically; passing an
    explicit flag re-asserts (and re-verifies) it.
    """
    if isinstance(a, Operator) and hermitian in (None, a.hermitian):
        return a
    m = as_matrix(a)
    _check_finite(m, "operator")
    if hermitian is None:
        hermitian = is_hermitian(m)
    return Operator(m, hermitian=hermitian)


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector: Hermitian, idempotent, integer trace.  A sector
    of :func:`eig` is held by its :attr:`basis` and forms its matrix when read."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, order="C")
        _check_finite(m, "projector")
        n = m.shape[0]
        if m.ndim != 2 or m.shape[1] != n:
            raise ValidationError(f"projector must be square, got shape {m.shape}")
        if not _within_scaled(_hermitian_deviation(m), m,
                              lambda norm: HERMITIAN_RTOL * max(1.0, norm)):
            raise ValidationError("projector is not Hermitian")
        if _norm_exceeds(m @ m - m, IDEMPOTENCY_TOL * n):
            raise ValidationError("projector is not idempotent")
        tr = m.trace().real
        if abs(tr - self.rank) > TRACE_RANK_TOL * max(1, n):
            raise ValidationError(f"projector trace {tr:.12g} does not match rank {self.rank}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __getattr__(self, name):    # the first read of a basis-held projector's matrix
        if name != "matrix" or "basis" not in self.__dict__:
            raise AttributeError(name)
        m = self.basis @ self.basis.conj().T
        m.setflags(write=False)
        self.__dict__["matrix"] = m
        return m

    @property
    def dim(self) -> int:
        return self.__dict__.get("matrix", self.__dict__.get("basis")).shape[0]

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal ``dim x rank`` basis ``Q`` of the range (read-only):
        the ``eigh`` columns of a sector of :func:`eig`, whose matrix is
        ``fl(Q Q^dag)`` bit for bit, else the eigenvectors of the matrix with
        eigenvalue above 1/2 (computed once)."""
        w, v = np.linalg.eigh(self.matrix)
        cols = v[:, w > 0.5]
        if cols.shape[1] != self.rank:
            raise ValidationError("projector rank does not match its spectrum")
        cols.setflags(write=False)
        return cols

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)

    def __matmul__(self, other):
        return self.matrix @ as_matrix(other)

    def __rmatmul__(self, other):
        return as_matrix(other) @ self.matrix


def _eigh_projector(cols: np.ndarray) -> Projector:
    """Projector held by ``eigh`` columns that :func:`_eigh_certificate` certified."""
    p = object.__new__(Projector)
    cols.setflags(write=False)
    p.__dict__.update(rank=cols.shape[1], basis=cols)
    return p


def projector_from_columns(columns: np.ndarray) -> Projector:
    """Orthogonal projector onto the column span (orthonormalized by QR)."""
    cols = np.atleast_2d(np.asarray(columns, dtype=complex))
    if cols.shape[1] == 0:
        raise ValidationError("cannot build a projector from zero columns")
    q, _ = np.linalg.qr(cols)
    return Projector(q @ q.conj().T, rank=cols.shape[1])


def basis_projector(dim: int, *indices: int) -> Projector:
    """Projector onto the span of the given canonical basis vectors."""
    cols = np.zeros((dim, len(indices)), dtype=complex)
    for k, i in enumerate(indices):
        cols[i, k] = 1.0
    return Projector(cols @ cols.conj().T, rank=len(indices))


@dataclass(frozen=True)
class Sector:
    """One distinct-eigenvalue sector: the eigenvalue, the orthogonal
    projector onto its invariant subspace, and (for non-normal inputs) the
    condition number of the underlying spectral projector."""

    eigenvalue: complex
    projector: Projector
    condition: float = 1.0

    @property
    def multiplicity(self) -> int:
        return self.projector.rank


@dataclass(frozen=True)
class SectorDecomposition:
    """Ordered list of distinct-eigenvalue sectors.

    For a Hermitian input the sectors resolve the identity; restrictions
    (for instance to real eigenvalues of a dissipative coupling) may be
    incomplete, which the ``complete`` flag records.  ``dropped`` lists
    ``(eigenvalue, condition)`` pairs of clusters that were excluded for
    exceeding the conditioning threshold.
    """

    sectors: tuple[Sector, ...]
    cluster_tol: float
    dim: int
    complete: bool = True
    dropped: tuple[tuple[complex, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if any(s.projector.dim != self.dim for s in self.sectors):
            raise ValidationError("sector projector dimension mismatch")
        values = self.eigenvalues.astype(complex)
        close = np.abs(values[:, None] - values) <= self.cluster_tol
        close.flat[::len(values) + 1] = False                  # |a - b| = |b - a|: any pair
        if close.any():
            raise ValidationError("sector eigenvalues are not distinct at the cluster tolerance")

    def __iter__(self):
        return iter(self.sectors)

    def __len__(self) -> int:
        return len(self.sectors)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([s.eigenvalue for s in self.sectors])

    @property
    def projectors(self) -> list[Projector]:
        return [s.projector for s in self.sectors]

    def total_rank(self) -> int:
        return sum(s.multiplicity for s in self.sectors)

    def _identity_residual(self) -> np.ndarray:
        total = sum((s.projector.matrix for s in self.sectors),
                    np.zeros((self.dim, self.dim), dtype=complex))
        return total - np.eye(self.dim)

    def completeness_defect(self) -> float:
        return snorm(self._identity_residual())

    def _pair_products(self):
        return (si.projector.matrix @ sj.projector.matrix
                for i, si in enumerate(self.sectors) for sj in self.sectors[i + 1:])

    def orthogonality_defect(self) -> float:
        return max(map(snorm, self._pair_products()), default=0.0)

    def validate_resolution(self) -> None:
        """Assert completeness and mutual orthogonality (Hermitian case).
        The decomposition is immutable, so a passed check is recorded on it
        and not repeated; :func:`eig` records a certified one at construction."""
        if self.__dict__.get("_resolved"):
            return
        if not self.complete:
            raise ValidationError("decomposition is marked incomplete")
        if _norm_exceeds(self._identity_residual(), COMPLETENESS_TOL * self.dim):
            raise ValidationError(
                f"projectors do not resolve the identity ({self.completeness_defect():.3e})")
        if any(_norm_exceeds(pp, ORTHOGONALITY_TOL) for pp in self._pair_products()):
            raise ValidationError(
                f"projectors are not mutually orthogonal ({self.orthogonality_defect():.3e})")
        self.__dict__["_resolved"] = True


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite matrix with trace at most one
    (exactly one under unitary dynamics; dissipative models leak trace)."""

    matrix: np.ndarray

    _PSD_TOL = 1e-10
    _TRACE_TOL = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "matrix", self._checked(self.matrix, psd=True))

    @classmethod
    def _checked(cls, matrix, psd: bool) -> np.ndarray:
        """Read-only copy of ``matrix`` after the finiteness, shape,
        Hermiticity and trace checks, and with ``psd`` the positivity test."""
        m = np.array(matrix, dtype=complex, order="C")
        _check_finite(m, "density matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        n = m.shape[0]
        if not _within_scaled(_hermitian_deviation(m), m,
                              lambda norm: HERMITIAN_RTOL * max(1.0, norm) * n):
            raise ValidationError("density matrix is not Hermitian")
        if psd:
            evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
            if not _within_scaled(-evals.min(), m, lambda norm: cls._PSD_TOL * max(1.0, norm)):
                raise ValidationError(
                    f"density matrix has negative eigenvalue {evals.min():.3e}"
                )
        tr = m.trace().real
        if tr > 1.0 + cls._TRACE_TOL:
            raise ValidationError(f"density matrix trace {tr:.12g} exceeds one")
        m.setflags(write=False)
        return m

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityMatrix":
        """Rank-one density matrix of a normalized state vector.

        The positivity test is skipped, since it cannot fail here: the
        computed outer product is ``fl(v v^dag) = v v^dag + E`` with
        ``|E_ij| <= sqrt(2) gamma_2 |v_i| |v_j|`` (``gamma_2 = 2u / (1 -
        2u)``, u the unit roundoff), so ``||E||_F <= 3u ||v||^2`` and by
        Weyl's inequality ``lambda_min(fl(v v^dag)) >= -||E||_F``, a few
        ulp, far below ``_PSD_TOL``.  The other checks run as for every
        density matrix.
        """
        v = np.asarray(state, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        v = v / nrm
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", cls._checked(np.outer(v, v.conj()), psd=False))
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def population(self, projector: Projector) -> float:
        """Probability weight inside the projector's range."""
        return float((projector.matrix @ self.matrix).trace().real)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


# ---------------------------------------------------------------------------
# matrix exponential


def expm(a, t: float | complex = 1.0) -> Operator:
    """Propagator ``exp(-1j * t * a)`` of the generator ``a``.

    Hermitian generators go through the eigendecomposition (result unitary
    to ``UNITARITY_TOL * dim`` for real ``t``), which the operator keeps, so
    a grid of times over one generator diagonalizes it once; other
    generators through scipy's scaling-and-squaring Pade kernel.
    """
    op = as_operator(a)
    if not np.isfinite(t):
        raise ValidationError("time scale must be finite")
    if op.hermitian:
        w, v = op._eigh
        phases = np.exp(-1j * t * w)
        return Operator((v * phases) @ v.conj().T)
    import scipy.linalg  # deferred: the Hermitian paths never need it

    return Operator(scipy.linalg.expm(-1j * t * op.matrix))


# ---------------------------------------------------------------------------
# spectral clustering into sectors


def default_cluster_tol(a) -> float:
    """Default clustering tolerance, 1e-8 * max(1, ||A||)."""
    return _cluster_tol(lambda: snorm(a), None)


def real_eigenvalue_tol(a) -> float:
    """Threshold on |Im eta| below which an eigenvalue counts as real."""
    return _real_tol(snorm(a))


def _real_tol(norm: float) -> float:
    return REAL_EIGENVALUE_RTOL * max(1.0, norm)


def cluster_values(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of ``values`` into clusters of pairwise distance <= tol.

    Clusters are connected components of the proximity graph, ordered by
    value, with their indices ascending.  If chaining produces a component
    whose diameter exceeds ``tol`` the clustering is ambiguous (a different
    tolerance would split it differently) and an
    :class:`AmbiguousSpectrumError` carrying the gap histogram is raised.

    For real values the components are the runs of the sorted values whose
    consecutive gaps are ``<= tol``: rounded subtraction is monotone, so
    ``a <= b <= c`` gives ``fl(c - a) >= fl(c - b)``, and an edge between
    two values bounds every gap between them.  Complex values are joined
    pair by pair.
    """
    vals = np.asarray(values)
    n = len(vals)
    real = np.isrealobj(vals)
    if real:
        order = np.argsort(vals, kind="stable")
        ascending = vals[order]
        cuts = (np.flatnonzero(~(ascending[1:] - ascending[:-1] <= tol)) + 1).tolist()
        bounds = [0, *cuts, n] if n else []
        order = order.tolist()
        clusters = [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    else:
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        dist = np.abs(vals[:, None] - vals[None, :])
        for i, j in np.argwhere(dist <= tol).tolist():     # row-major, as a loop over pairs
            if i < j:
                parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        clusters = sorted(groups.values(), key=lambda idx: (vals[idx[0]].real, vals[idx[0]].imag))

    for idx in clusters:
        if len(idx) < 2:
            continue
        part = vals[idx]
        diameter = part.max() - part.min() if real else np.abs(part[:, None] - part).max()
        if diameter > tol:
            gaps = np.sort(np.abs(vals[:, None] - vals[None, :])[np.triu_indices(n, k=1)])
            histogram = np.histogram(gaps, bins=min(16, max(4, n)))
            raise AmbiguousSpectrumError(
                f"eigenvalue gaps straddle the cluster tolerance {tol:.3e} "
                f"(cluster diameter {diameter:.3e}); adjust cluster_tol",
                gaps=gaps,
                histogram=histogram,
            )
    return clusters


def _cluster_tol(norm, cluster_tol) -> float:
    """The clustering tolerance of a decomposition: the default for an
    operator of spectral norm ``norm()`` when None, else a finite value >= 0."""
    if cluster_tol is None:
        return DEFAULT_CLUSTER_RTOL * max(1.0, norm())
    tol = float(cluster_tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"cluster tolerance must be finite and >= 0, got {tol!r}")
    return tol


def eig(a, cluster_tol: float | None = None,
        max_condition: float = DEFAULT_MAX_SECTOR_CONDITION) -> SectorDecomposition:
    """Spectral decomposition into distinct-eigenvalue sectors.

    Eigenvalues within ``cluster_tol`` of each other are merged into one
    sector whose projector has rank equal to the multiplicity.  Hermitian
    input yields an exact resolution of the identity.  For non-Hermitian
    input the projector of each cluster is the orthogonal projector onto
    the span of its right eigenvectors; clusters whose eigenvector block or
    spectral projector has condition number above ``max_condition``
    (defective eigenvalue, poorly separated subspace) go to ``dropped``.
    """
    op = as_operator(a)
    if not op.hermitian:
        return _eigenvector_sectors(op, cluster_tol, max_condition)
    return _eigh_sectors(*op._eigh, cluster_tol)


def _eigh_sectors(w: np.ndarray, v: np.ndarray,
                  cluster_tol: float | None) -> SectorDecomposition:
    """The Hermitian branch of :func:`eig`, from the ``eigh`` eigenvalues
    ``w`` and eigenvectors ``V`` of the operator, so that one batched
    ``eigh`` can serve a stack of operators (``adiabatic`` does)."""
    tol = _cluster_tol(lambda: float(np.abs(w).max()), cluster_tol)    # ||A|| = max |w|
    clusters = cluster_values(w, tol)
    held, resolved = _eigh_certificate(v, max(map(len, clusters)))
    sectors = tuple(
        Sector(complex(np.mean(w[idx])), _eigh_projector(v[:, idx]) if held
               else Projector(v[:, idx] @ v[:, idx].conj().T, rank=len(idx)))
        for idx in clusters)
    dec = SectorDecomposition(sectors, tol, v.shape[0], complete=True)
    dec.__dict__["_resolved"] = resolved
    return dec


def _eigenvector_sectors(op: Operator, cluster_tol: float | None,
                         max_condition: float = DEFAULT_MAX_SECTOR_CONDITION,
                         real_only: bool = False) -> SectorDecomposition:
    """Sectors of a non-Hermitian ``op`` from its right eigenvectors.

    Each cluster of eigenvalues gives the orthogonal projector onto the
    span of its eigenvectors and the measured condition number of its
    spectral projector.  A cluster goes to ``dropped``, with the figure,
    when the condition number of its eigenvector block or else of its
    spectral projector exceeds ``max_condition``.  ``real_only`` keeps only
    eigenvalues with ``|Im eta| <= real_eigenvalue_tol(op)``, reports their
    real parts and marks the decomposition incomplete.
    """
    norm = snorm(op) if real_only or cluster_tol is None else None     # one SVD serves both
    tol = _cluster_tol(lambda: norm, cluster_tol)
    w, vr = np.linalg.eig(op.matrix)
    keep = (np.flatnonzero(np.abs(w.imag) <= _real_tol(norm)) if real_only
            else np.arange(w.size))
    vr_inv = None
    sectors = []
    dropped = []
    for group in cluster_values(w[keep], tol):
        idx = keep[group]
        eta = complex(np.mean(w[idx].real)) if real_only else complex(np.mean(w[idx]))
        # a defective eigenvalue leaves its eigenvector block rank deficient
        condition = float(np.linalg.cond(vr[:, idx]))
        if condition <= max_condition:
            vr_inv = np.linalg.inv(vr) if vr_inv is None else vr_inv
            condition = snorm(vr[:, idx] @ vr_inv[idx, :])
        if condition > max_condition:
            dropped.append((eta, condition))
            continue
        sectors.append(Sector(eta, projector_from_columns(vr[:, idx]), condition=condition))
    complete = not real_only and not dropped and _ranks_fill(sectors, op.dim)
    return SectorDecomposition(tuple(sectors), tol, op.dim, complete=complete,
                               dropped=tuple(dropped))


def _eigh_certificate(v: np.ndarray, rank: int) -> tuple[bool, bool]:
    """``(held, resolved)`` from ``e = ||V^dag V - I||_F`` of the ``d x d``
    ``eigh`` eigenvectors ``V``.  ``held``: ``M = fl(C C^dag)`` passes the
    :class:`Projector` checks for every set ``C`` of at most ``rank``
    columns.  ``resolved``: the ``M_n`` of a partition of the columns into
    such sets pass :meth:`SectorDecomposition.validate_resolution`.

    ``g_n = 8 (n + 1) u`` overstates the elementwise error of a length-``n``
    complex inner product, ``sqrt(2) gamma_{n+2} |a|^T |b|``; ``e`` adds the
    rounding of ``V^dag V`` to the computed norm.  ``G = C^dag C - I`` is a
    principal submatrix of ``V^dag V - I``, so for ``r`` columns
    ``||C||^2 <= 1 + e``, ``||C||_F^2 <= r (1 + e)``, and ``M = C C^dag + D``
    with ``|D| <= g_r |C| |C|^T`` and ``||D||_F <= delta = g_r r (1 + e)``.
    Hermitian: ``|M - M^dag| <= 2 g_r |C| |C|^T <= 2 g_r (1 + e)`` entrywise.
    Trace: ``tr(C C^dag) = r + tr G``, ``|tr G| <= sqrt(r) e``; ``D`` and the
    sum add ``2 g_d r (1 + e)``.  Idempotency: ``C G C^dag`` has norm at most
    ``(1 + e) e``, ``D`` adds ``delta (3 + 2 e + delta)`` and ``fl(M @ M)``
    ``g_d (sqrt(r) (1 + e) + delta)^2``; their sum ``b`` bounds
    ``fl(M_i @ M_j)`` too, ``C_i^dag C_j`` being a block of ``V^dag V - I``.
    Completeness: ``sum_n C_n C_n^dag = V V^dag`` is within ``e`` of ``I``,
    and the ``D_n`` and the sum add ``2 g_d d (1 + e)``.  The subtractions
    and SVDs of the checks fit in ``_ROUNDING``.  At d = 200 and rank 1,
    ``b`` is 3.6e-11, mostly the rounding of ``V^dag V``, against
    ``ORTHOGONALITY_TOL = 1e-10``; from about d = 330 the resolution keeps
    its exact check.
    """
    d = v.shape[0]
    g, gr = 8 * (d + 1) * _UNIT_ROUNDOFF, 8 * (rank + 1) * _UNIT_ROUNDOFF
    e = (fnorm(v.conj().T @ v - np.eye(d)) * (1 + _ROUNDING) + g * d) / (1 - g * math.sqrt(d))
    delta = gr * rank * (1 + e)
    slack = (1 + _ROUNDING) ** 2
    b = ((1 + e) * e + delta * (3 + 2 * e + delta)
         + g * (math.sqrt(rank) * (1 + e) + delta) ** 2) * slack
    held = (2 * gr * (1 + e) * slack <= HERMITIAN_RTOL
            and (math.sqrt(rank) * e + 2 * g * rank * (1 + e)) * slack <= TRACE_RANK_TOL * d
            and b <= IDEMPOTENCY_TOL * d)
    resolved = (held and b <= ORTHOGONALITY_TOL
                and (e + 2 * g * d * (1 + e)) * slack <= COMPLETENESS_TOL * d)
    return held, resolved


def _ranks_fill(sectors, dim) -> bool:
    return sum(s.multiplicity for s in sectors) == dim


def _sector_basis(sectors: SectorDecomposition) -> tuple[np.ndarray, list[int]]:
    """``W = [Q_1 ... Q_m]`` (``d x 0`` for no sectors) and its ranks, stably
    sorted by rank so that equal-rank blocks batch together (:func:`_rank_groups`)."""
    bases = sorted((s.projector.basis for s in sectors), key=lambda q: q.shape[1])
    return np.hstack(bases or [np.empty((sectors.dim, 0), complex)]), [q.shape[1] for q in bases]


def _rank_groups(sizes) -> list[tuple[slice, int, int]]:
    """``(cols, rank, count)`` of each run of equal ``sizes``: ``count``
    blocks of ``rank x rank`` on the basis columns ``cols``."""
    groups, start = [], 0
    for rank, run in itertools.groupby(sizes):
        count = len(list(run))
        groups.append((slice(start, start + rank * count), rank, count))
        start += rank * count
    return groups


def _check_dimension(m: np.ndarray, dim: int) -> None:
    if m.shape[0] != dim:
        raise ValidationError(f"operator dimension {m.shape[0]} does not match sectors ({dim})")


def _stacked(w: np.ndarray, cols: slice, count: int, rank: int) -> np.ndarray:
    """The columns ``cols`` of ``w`` as a ``(count, d, rank)`` view."""
    return w[:, cols].reshape(w.shape[0], count, rank).transpose(1, 0, 2)


def _sector_blocks(w: np.ndarray, sizes, a: np.ndarray) -> list[np.ndarray]:
    """The blocks ``Q_n^dag A Q_n`` on the bases ``W = [Q_1 ... Q_m]`` of
    :func:`_sector_basis`, one ``(count, rank, rank)`` stack per group of
    :func:`_rank_groups` (``2 r d^2`` flops a sector, not ``4 d^3``)."""
    _check_dimension(a, w.shape[0])
    wdag = w.conj().T
    return [(wdag[cols] @ a).reshape(count, rank, -1) @ _stacked(w, cols, count, rank)
            for cols, rank, count in _rank_groups(sizes)]


def _sector_columns(basis: np.ndarray, sizes, blocks, t=None,
                    hermitian: bool = False) -> np.ndarray:
    """``X = [Q_1 B_1 ... Q_m B_m]`` on the columns ``basis`` for the stacks
    ``G`` of :func:`_sector_blocks`: ``B_n = G_n``, or with a time ``t`` ``B_n
    = exp(-i G_n t)``, so ``X W^dag`` is ``sum_n P_n A P_n`` or a Zeno limit.
    A ``hermitian`` group is checked as Hermitian :class:`Operator` blocks
    (with their messages) and exponentiated by one batched ``eigh`` as
    :func:`expm` does; other blocks go through :func:`expm` one by one."""
    if t is not None and not np.isfinite(t):
        raise ValidationError("time scale must be finite")
    x = np.empty(basis.shape, dtype=complex)
    for (cols, rank, count), g in zip(_rank_groups(sizes), blocks):
        if t is not None and hermitian:
            ok = _hermitian_slices(g)
            if not ok.all():
                Operator(g[np.argmin(ok)], hermitian=True)     # raises its error
            e, v = np.linalg.eigh(g)
            g = (v * np.exp(-1j * t * e)[:, None]) @ v.conj().transpose(0, 2, 1)
        elif t is not None:
            g = np.array([expm(Operator(b), t).matrix for b in g])
        np.matmul(_stacked(basis, cols, count, rank), g, out=_stacked(x, cols, count, rank))
    return x


def offblock_norm(a, sectors: SectorDecomposition) -> float:
    """Frobenius norm of the part of ``a`` outside the sector blocks,
    ``||A - sum_n P_n A P_n||_F``.  Zero iff ``a`` is block diagonal."""
    m = as_matrix(a)
    return fnorm(m - block_diagonal_part(m, sectors))


def block_diagonal_part(a, sectors: SectorDecomposition) -> np.ndarray:
    """``sum_n P_n A P_n`` as a plain array, formed through the sector bases
    as ``X W^dag`` (:func:`_sector_columns`)."""
    m = as_matrix(a)
    w, sizes = _sector_basis(sectors)
    return _sector_columns(w, sizes, _sector_blocks(w, sizes, m)) @ w.conj().T


# ---------------------------------------------------------------------------
# matrix literal files
#
# Plain-text format: first line "dim d", then d*d lines "row col re im"
# with 0-indexed coordinates.  Every entry must appear exactly once.


def save_matrix(path, a) -> None:
    """Write a matrix literal file."""
    m = as_matrix(a)
    d = m.shape[0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim {d}\n")
        for i in range(d):
            for j in range(d):
                fh.write(f"{i} {j} {float(m[i, j].real)!r} {float(m[i, j].imag)!r}\n")


def load_matrix(path) -> Operator:
    """Read a matrix literal file; the Hermiticity flag is auto-detected."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from None
    k0 = next((k for k, ln in enumerate(lines, start=1) if ln.strip()), None)
    if k0 is None:
        raise ValidationError(f"{path}: empty matrix file")
    header = lines[k0 - 1].strip()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ValidationError(f"{path}:{k0}: expected 'dim d' header, got {header!r}")
    try:
        d = int(parts[1])
    except ValueError:
        raise ValidationError(f"{path}:{k0}: dimension is not an integer") from None
    if d < 1:
        raise ValidationError(f"{path}:{k0}: dimension must be >= 1")
    m = _parse_clean_entries(lines[k0:], d)
    if m is None:
        entries = [(k, ln.strip()) for k, ln in enumerate(lines[k0:], start=k0 + 1)
                   if ln.strip()]
        m = _parse_entries(path, entries, d)
    return as_operator(m)


_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("re", float), ("im", float)])


def _parse_clean_entries(lines: list[str], d: int) -> np.ndarray | None:
    """The matrix of well-formed entry lines, parsed in one pass: besides
    blank lines, exactly ``d * d`` lines of two integers and two finite
    floats, each index pair in range and present once.  Anything else
    returns None and is left to :func:`_parse_entries`, which names the
    offending line.  ``loadtxt`` accepts a subset of the spellings
    ``int``/``float`` accept, parses them to the same values and skips the
    same blank lines."""
    if len(lines) < d * d or not any(ln.strip() for ln in lines):
        return None
    try:
        data = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j, re, im = data["row"], data["col"], data["re"], data["im"]
    if not (len(data) == d * d
            and ((0 <= i) & (i < d) & (0 <= j) & (j < d)).all()
            and np.isfinite(re).all() and np.isfinite(im).all()):
        return None
    if np.bincount(i * d + j, minlength=d * d).max() != 1:
        return None
    m = np.empty((d, d), dtype=complex)
    m.real[i, j] = re
    m.imag[i, j] = im
    return m


def _parse_entries(path, entries, d: int) -> np.ndarray:
    """Line-by-line parse that raises on the first malformed entry.  The
    entries are held by index pair, so a file with fewer than ``d * d`` of
    them is refused in memory proportional to the file, not to its header."""
    values = {}
    for k, ln in entries:
        fields = ln.split()
        if len(fields) != 4:
            raise ValidationError(f"{path}:{k}: expected 'row col re im', got {ln!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
            re, im = float(fields[2]), float(fields[3])
        except ValueError:
            raise ValidationError(f"{path}:{k}: could not parse entry {ln!r}") from None
        if not (0 <= i < d and 0 <= j < d):
            raise ValidationError(f"{path}:{k}: index ({i},{j}) out of range for dim {d}")
        if (i, j) in values:
            raise ValidationError(f"{path}:{k}: duplicate entry ({i},{j})")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError(f"{path}:{k}: non-finite entry")
        values[i, j] = complex(re, im)
    if len(values) < d * d:
        raise ValidationError(f"{path}: {d * d - len(values)} of {d * d} entries missing")
    m = np.empty((d, d), dtype=complex)
    m[tuple(zip(*values))] = list(values.values())
    return m
