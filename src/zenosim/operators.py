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
* One decision, ``dev <= rtol * max(floor, ||M||_2)`` for a matrix or each
  slice of a stack (:func:`_within_scaled`), backs every scaled tolerance:
  the floor settles most single matrices, ``||M||_F / sqrt(n) <= ||M||_2 <=
  ||M||_F`` (with a relative slack ``_ROUNDING`` for rounding) the rest
  unless ``dev`` falls between them, and only then an SVD runs, so each
  verdict is the exact one.  A NaN ``dev`` fails; an overflowed norm is
  decided on the matrix scaled by a power of two.  Hermitian: ``max|A -
  A^dag| <= HERMITIAN_RTOL * ||A||_2`` (a projector's floor is 1, a density
  matrix's tolerance n-fold).  Positive: ``-lambda_min(herm X) <= _PSD_TOL *
  max(1, ||X||_2)`` (:func:`_check_positive`).  A residual bound ``||R|| <=
  b`` passes outright when ``||R||_F <= b``.
* The Hermitian sectors of :func:`eig` are held by their ``eigh`` columns
  (:attr:`Projector.basis`), through which the block diagnostics and the
  chains work; a sector's ``matrix = fl(Q Q^dag)`` is formed when read.
  One ``e = ||V^dag V - I||_F`` proves that every such matrix passes the
  projector checks (:func:`_eigh_certificate`); without that certificate
  every projector is checked in full.  The resolution of the identity, by
  any decomposition, is checked once on its frame ``W = [Q_1 ... Q_m]``
  (:meth:`SectorDecomposition.validate_resolution`).
* Non-Hermitian sectors, the real-eigenvalue (decoherence-free) ones
  included, come from one eigenvector routine and carry the measured
  condition number of their spectral projector; a cluster whose eigenvector
  block or spectral projector exceeds ``DEFAULT_MAX_SECTOR_CONDITION`` is dropped.
* State vectors are normalized, or their norm checked, on the vector scaled
  by the power of two of :func:`_unit_scale` (exact), so a huge or tiny
  finite vector neither overflows nor underflows; ``zeno_time`` takes its
  moments on ``s H`` alike.
* Five guards check arguments: ``_number``, ``_count``, ``_array``,
  ``_state_vector`` and ``_record`` (a record of its type).

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
_FLOAT_MAX = np.finfo(float).max
_REAL = (int, float, np.integer, np.floating)
_COMPLEX = (*_REAL, complex, np.complexfloating)
_PROJECTOR = "expected a Projector, got {}"
_SECTORS = "expected a SectorDecomposition, got {}"


def snorm(a) -> float:
    """Spectral norm (largest singular value) of a finite matrix."""
    return _snorm(_finite_matrix(a))


def _snorm(m: np.ndarray) -> float:
    """Spectral norm of a computed array: NaN ends in numpy's ``LinAlgError``, Inf gives NaN."""
    return float(np.linalg.norm(m, 2))


def fnorm(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(as_matrix(a)))


def as_matrix(a) -> np.ndarray:
    """Coerce an Operator, Projector, DensityMatrix or array-like to a
    complex square ndarray (no copy when already suitable)."""
    if isinstance(a, (Operator, Projector, DensityMatrix)):
        return a.matrix
    return _array(a, "expected a square matrix, got shape {}")


def _finite_matrix(a) -> np.ndarray:
    """:func:`as_matrix` of an argument, refused when it holds NaN or Inf entries."""
    return _array(as_matrix(a), "expected a square matrix, got shape {}", finite="matrix")


def _number(x, message: str, low: float = -math.inf, strict=False, complex_ok=False):
    """``x`` if it is a finite real number ``>= low`` (``> low`` when ``strict``), or with
    ``complex_ok`` a finite complex one, no bool; else ``ValidationError(message.format(x))``."""
    if (isinstance(x, _COMPLEX if complex_ok else _REAL) and not isinstance(x, bool)
            and abs(x) <= _FLOAT_MAX and (complex_ok or not (x < low or x == low and strict))):
        return x
    raise ValidationError(message.format(x))


def _count(n, message: str, low: int = 1, high: float = math.inf, **fields) -> int:
    """``n`` as an int if an integer in ``low .. high``, not a bool; else ``message`` formatted."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and low <= n <= high:
        return int(n)
    raise ValidationError(message.format(n, high=high, **fields))


def _array(a, message: str, ndims=(2,), copy: bool = False, finite: str = "") -> np.ndarray:
    """``a`` as a complex array with ``ndims`` dimensions (a C-ordered copy with ``copy``), square
    and nonempty for ``(2,)``; ``message.format(shape)`` refuses the rest, ``finite`` NaN, Inf."""
    try:
        m = np.array(a, dtype=complex, order="C") if copy else np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{message.format('?')} ({exc})") from None
    if m.ndim not in ndims or ndims == (2,) and not m.shape[0] == m.shape[1] >= 1:
        raise ValidationError(message.format(m.shape))
    if finite and not np.isfinite(np.ascontiguousarray(m).view(float)).all():
        raise ValidationError(f"{finite} contains NaN or Inf entries")
    return m


def _state_vector(a, dim: int | None, normalize: bool = False) -> np.ndarray:
    """``a`` as a finite vector of length ``dim`` (any if None), ``normalize``d or of norm 1.
    The norm is taken on ``v = a * s`` for ``s`` of :func:`_unit_scale`, exactly, so no finite
    vector overflows or underflows it; ``normalize`` divides ``v`` by it as reals (numpy divides
    a complex by a real through the reciprocal, which leaves ``[1e-320, 0]`` below norm 1)."""
    v = _array(a, "state vector has shape {}, not (d,)", (1,), finite="state vector")
    if dim is not None and v.size != dim:
        raise ValidationError(f"state vector has shape {v.shape}, not ({dim},)")
    s = _unit_scale(v)
    parts = np.ascontiguousarray(v).view(float) * s
    nrm = np.linalg.norm(parts.view(complex))
    if normalize and nrm == 0:
        raise ValidationError("cannot normalize the zero vector")
    if not normalize and abs(float(nrm) / s - 1.0) > 1e-10:
        raise ValidationError(f"state vector must be normalized (norm {float(nrm) / s:.12g})")
    return (parts / nrm).view(complex) if normalize else v


def _record(x, cls, message: str):
    """``x`` if it is a ``cls``, else ``ValidationError(message.format(name))``
    with the name of its type."""
    if isinstance(x, cls):
        return x
    raise ValidationError(message.format(type(x).__name__))


def _within_scaled(dev, m: np.ndarray, rtol: float, floor: float = 1.0):
    """``dev <= rtol * max(floor, ||m||_2)``: a bool for a matrix ``m``, a bool
    array for the slices of a stack (``dev`` one value per slice).  The floor
    passes most single matrices outright; otherwise ``||m||_F / sqrt(n) <=
    ||m||_2 <= ||m||_F`` decides a whole stack at once unless ``dev`` falls
    between the two allowances, and only those slices take the SVD.  A NaN or
    Inf ``dev`` fails.  A slice whose norm overflows is decided on it and its
    ``dev`` scaled by :func:`_overflow_scale`, exactly, as the allowance is
    linear above its floor (at most 1)."""
    if m.ndim == 2 and dev <= rtol * floor:
        return True
    ms, devs = np.ascontiguousarray(m).reshape(-1, *m.shape[-2:]), np.reshape(dev, -1)
    parts = ms.view(float)
    with np.errstate(over="ignore"):
        f = np.sqrt(np.einsum("kij,kij->k", parts, parts))     # no n x n temporaries
        # an overflowed norm bounds nothing from below; NaN fails every comparison
        ok = (devs <= rtol * np.maximum(floor, f / math.sqrt(ms.shape[1]) * (1 - _ROUNDING))
              ) & np.isfinite(f)
        open_ = ~ok & np.isfinite(devs) & (devs <= rtol * np.maximum(floor, f * (1 + _ROUNDING)))
    for k in np.flatnonzero(open_):
        s = _overflow_scale(ms[k])
        ok[k] = devs[k] * s <= rtol * max(floor, snorm(ms[k] * s))
    return ok if m.ndim == 3 else bool(ok[0])


def _overflow_scale(m: np.ndarray) -> float:
    """1, or :func:`_unit_scale` of a finite matrix whose Frobenius norm overflows."""
    with np.errstate(over="ignore"):
        if math.isfinite(fnorm(m)):
            return 1.0
    return _unit_scale(m)


def _unit_scale(a: np.ndarray) -> float:
    """The power of two that brings the largest real or imaginary part of a finite array
    into [1, 2), at most ``2**1023`` (a subnormal peak stays below 1); 1 for a zero array."""
    peak = max(np.abs(a.real).max(initial=0.0), np.abs(a.imag).max(initial=0.0))
    return math.ldexp(1.0, min(1023, 1 - math.frexp(peak)[1])) if peak else 1.0


def _norm_exceeds(r: np.ndarray, bound: float) -> bool:
    """``snorm(r) > bound``; a Frobenius norm within the bound settles it
    without an SVD, and one that is not finite exceeds it."""
    f = fnorm(r)
    if f * (1 + _ROUNDING) <= bound:
        return False
    return not math.isfinite(f) or snorm(r) > bound


def _hermitian_deviation(m: np.ndarray):
    """``max|A - A^dag|`` of a matrix, or of each slice of a stack."""
    with np.errstate(over="ignore", invalid="ignore"):      # an overflow fails any allowance
        return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def is_hermitian(a) -> bool:
    """Hermiticity test at the module tolerance (1e-12 relative to the
    spectral norm; the zero matrix is Hermitian)."""
    return _is_hermitian(as_matrix(a))


def _is_hermitian(m: np.ndarray):
    """:func:`is_hermitian` of a matrix, or of each slice of a stack."""
    return _within_scaled(_hermitian_deviation(m), m, HERMITIAN_RTOL, _TINY)


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
        m = _array(self.matrix, "operator must be square, got shape {}", copy=True,
                   finite="operator")
        if self.hermitian and not _is_hermitian(m):
            s = _overflow_scale(m)              # the message names the scaled decision
            raise ValidationError(
                f"matrix flagged Hermitian deviates by {_hermitian_deviation(m * s):.3e} "
                f"(allowed {HERMITIAN_RTOL * max(snorm(m * s), _TINY):.3e})"
                + (f" on the matrix scaled by 2**{math.frexp(s)[1] - 1}" if s != 1 else ""))
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
    return Operator(m, hermitian=is_hermitian(m) if hermitian is None else hermitian)


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector: Hermitian, idempotent, integer trace.  A sector
    of :func:`eig` is held by its :attr:`basis` and forms its matrix when read."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        m = _array(self.matrix, "projector must be square, got shape {}", copy=True,
                   finite="projector")
        _count(self.rank, "projector rank {!r} is not an integer >= 0", 0)
        if not _within_scaled(_hermitian_deviation(m), m, HERMITIAN_RTOL):
            raise ValidationError("projector is not Hermitian")
        with np.errstate(over="ignore", invalid="ignore"):    # an overflow is not idempotent
            residual = m @ m - m
        if _norm_exceeds(residual, IDEMPOTENCY_TOL * len(m)):
            raise ValidationError("projector is not idempotent")
        tr = m.trace().real
        if abs(tr - self.rank) > TRACE_RANK_TOL * len(m):     # the guard refuses a 0 x 0 matrix
            raise ValidationError(f"projector trace {tr:.12g} does not match rank {self.rank}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __getattr__(self, name):    # the first read of a basis-held projector's matrix
        if name != "matrix" or "basis" not in self.__dict__:
            raise AttributeError(name)
        m = self.__dict__["matrix"] = _projector_matrix(self)
        m.setflags(write=False)
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


def _projector_matrix(p: Projector) -> np.ndarray:
    """``p.matrix`` bit for bit, ``fl(Q Q^dag)`` of a basis-held ``p`` not cached on it."""
    return p.__dict__["matrix"] if "matrix" in p.__dict__ else p.basis @ p.basis.conj().T


def _eigh_projector(cols: np.ndarray) -> Projector:
    """Projector held by ``eigh`` columns that :func:`_eigh_certificate` certified."""
    p = object.__new__(Projector)
    cols.setflags(write=False)
    p.__dict__.update(rank=cols.shape[1], basis=cols)
    return p


def projector_from_columns(columns: np.ndarray) -> Projector:
    """Orthogonal projector onto the span of independent columns
    (orthonormalized by QR); a 1-D vector is one column."""
    cols = _array(columns, "projector columns have shape {}, not (d,) or (d, k)", (1, 2),
                  finite="projector columns")
    cols = cols[:, None] if cols.ndim == 1 else cols
    if cols.shape[1] == 0:
        raise ValidationError("cannot build a projector from zero columns")
    q, r = np.linalg.qr(cols)
    rank = np.linalg.matrix_rank(r)
    if rank < cols.shape[1]:
        raise ValidationError(f"projector columns have rank {rank} < their count {cols.shape[1]}")
    return Projector(q @ q.conj().T, rank=cols.shape[1])


def basis_projector(dim: int, *indices: int) -> Projector:
    """Projector onto the span of the given distinct canonical basis vectors."""
    dim = _count(dim, "dim {!r} is not an integer >= 1")
    for k, i in enumerate(indices):
        _count(i, "basis index {} is not an integer in 0 .. {high}", 0, dim - 1)
        if i in indices[:k]:
            raise ValidationError(f"basis index {i} is repeated")
    cols = np.eye(dim, dtype=complex)[:, list(indices)]
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

    @cached_property
    def _frame(self) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
        """``(W, ranks, owner)``: ``W = [Q_1 ... Q_m]`` stably sorted by rank, read-only
        (``d x 0`` for no sectors), its ranks and each column's sector, for every reader."""
        order = sorted(range(len(self)), key=lambda n: self.sectors[n].multiplicity)
        bases = [self.sectors[n].projector.basis for n in order]
        w = np.hstack([np.empty((self.dim, 0), complex), *bases])
        owner = np.repeat(np.array(order, dtype=int), [q.shape[1] for q in bases])
        w.setflags(write=False)
        owner.setflags(write=False)
        return w, tuple(q.shape[1] for q in bases), owner

    def _identity_residual(self) -> np.ndarray:
        """``sum_n M_n - I``, each ``M_n`` of :func:`_projector_matrix` (none is cached)."""
        total = sum((_projector_matrix(s.projector) for s in self.sectors),
                    np.zeros((self.dim, self.dim), dtype=complex))
        return total - np.eye(self.dim)

    def completeness_defect(self) -> float:
        return snorm(self._identity_residual())

    def _gram_pairs(self):
        """``(f, r, block)`` of the sector pairs ``i < j``, in ``np.triu_indices`` order: the
        Frobenius norms ``f`` of the blocks ``G_ij = Q_i^dag Q_j`` of the frame Gram ``G =
        W^dag W``, all from one reduction ``M |G|^2 M^T`` over the sector-membership
        indicator ``M``; the smaller rank ``r`` of each pair (at least 1); and ``block(k)``,
        the block of pair ``k``.  For orthonormal bases ``P_i P_j = Q_i G_ij Q_j^dag``, so
        ``||P_i P_j||_2 = ||G_ij||_2``."""
        w, _, owner = self._frame
        g = w.conj().T @ w
        member = np.zeros((len(self), owner.size))
        member[owner, np.arange(owner.size)] = 1.0
        i, j = np.triu_indices(len(self), 1)
        ranks = member.sum(axis=1)

        def block(k):       # zero-padded to a square, which keeps both of its norms
            b = g[np.ix_(owner == i[k], owner == j[k])]
            return np.pad(b, [(0, max(b.shape) - n) for n in b.shape])
        return (np.sqrt((member @ (np.abs(g) ** 2) @ member.T)[i, j]),
                np.minimum(ranks[i], ranks[j]).clip(1), block)

    def orthogonality_defect(self) -> float:
        """``max_{i<j} ||G_ij||_2`` (:meth:`_gram_pairs`).  Each ``||G_ij||_2 >= f / sqrt(r)``,
        so only a block whose ``f`` reaches the largest such bound can hold the maximum,
        and only those take an SVD."""
        f, r, block = self._gram_pairs()
        low = (f / np.sqrt(r)).max(initial=0.0)
        return max((snorm(block(k)) for k in np.flatnonzero(f * (1 + _ROUNDING) > low)),
                   default=0.0)

    def validate_resolution(self) -> None:
        """Assert completeness and mutual orthogonality (Hermitian case) of
        any decomposition; it is immutable, so a passed check is recorded on
        it and not repeated.  Completeness: ``||sum_n M_n - I||_2 <=
        COMPLETENESS_TOL d`` on the projector matrices, each formed, added
        and dropped.  Orthogonality: ``||G_ij||_2 <= ORTHOGONALITY_TOL`` on
        the bases ``Q_n`` that the consumers of a resolution read
        (:meth:`_gram_pairs`); a block whose Frobenius norm is within it
        passes, the rest take an SVD.  ``||G_ij||_2`` and the dense
        ``||fl(M_i M_j)||_2`` differ by the rounding of the bases (``M_n =
        Q_n Q_n^dag + O(d u)``) and of the products: under ``2 d u`` in 3,000
        random draws at d <= 40, and ``8 d u`` (7e-14 at d = 40) in the
        tests, so only a defect that close to the tolerance can be decided
        otherwise than on the dense products."""
        if self.__dict__.get("_resolved"):
            return
        if not self.complete:
            raise ValidationError("decomposition is marked incomplete")
        if _norm_exceeds(self._identity_residual(), COMPLETENESS_TOL * self.dim):
            raise ValidationError(
                f"projectors do not resolve the identity ({self.completeness_defect():.3e})")
        f, _, block = self._gram_pairs()
        if any(_norm_exceeds(block(k), ORTHOGONALITY_TOL)
               for k in np.flatnonzero(f * (1 + _ROUNDING) > ORTHOGONALITY_TOL)):
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
        m = _array(matrix, "density matrix must be square, got {}", copy=True,
                   finite="density matrix")
        if not _within_scaled(_hermitian_deviation(m), m, HERMITIAN_RTOL * len(m)):
            raise ValidationError("density matrix is not Hermitian")
        if psd:
            _check_positive(m, [m])
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
        v = _state_vector(state, None, normalize=True)
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
        if _record(projector, Projector, _PROJECTOR).dim != self.dim:
            raise ValidationError("state dimension does not match the projector")
        return float((projector.matrix @ self.matrix).trace().real)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


def _check_positive(m: np.ndarray, blocks) -> None:
    """``-lambda_min(herm X) <= _PSD_TOL * max(1, ||X||_2)`` for ``X = m``, block
    diagonal with the matrices or stacks ``blocks`` (``[m]`` for any ``m``)."""
    lowest = min(np.linalg.eigvalsh((b + b.conj().swapaxes(-1, -2)) / 2).min() for b in blocks)
    if not _within_scaled(-lowest, m, DensityMatrix._PSD_TOL):
        raise ValidationError(f"density matrix has negative eigenvalue {lowest:.3e}")


# ---------------------------------------------------------------------------
# matrix exponential


def _eigh_exp(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """``V e^{-i t w} V^dag`` for eigenvalues ``w`` and eigenvectors ``V`` (or rows
    of them, such as ``Q^dag V``), one set or a stack; ``t`` broadcasts against ``w``."""
    return (v * np.exp(-1j * t * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def expm(a, t: float | complex = 1.0) -> Operator:
    """Propagator ``exp(-1j * t * a)`` of the generator ``a``.

    Hermitian generators go through the eigendecomposition (result unitary
    to ``UNITARITY_TOL * dim`` for real ``t``), which the operator keeps, so
    a grid of times over one generator diagonalizes it once; other
    generators through scipy's scaling-and-squaring Pade kernel.
    """
    op = as_operator(a)
    _number(t, "time scale must be finite", complex_ok=True)
    if op.hermitian:
        return Operator(_eigh_exp(*op._eigh, t))
    import scipy.linalg  # deferred: the Hermitian paths never need it

    return Operator(scipy.linalg.expm(-1j * t * op.matrix))


# ---------------------------------------------------------------------------
# spectral clustering into sectors


def default_cluster_tol(a) -> float:
    """Default clustering tolerance, 1e-8 * max(1, ||A||)."""
    return _cluster_tol(snorm(a), None)


def _real_tol(norm: float) -> float:
    return REAL_EIGENVALUE_RTOL * max(1.0, norm)


def cluster_values(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of ``values`` into clusters of pairwise distance <= tol.

    Clusters are connected components of the proximity graph, ordered by
    value, with their indices ascending.  If chaining produces a component
    whose diameter exceeds ``tol`` the clustering is ambiguous (a different
    tolerance would split it differently) and an
    :class:`AmbiguousSpectrumError` carrying the gap histogram is raised.

    One rule for real and complex values: from ``dist = |v_i - v_j|`` each
    index takes the smallest index it reaches through ``dist <= tol``, one
    hop per round of label propagation.  That is O(n^2) time and memory for
    n <= d eigenvalues: a component that does not raise has diameter <= tol,
    so one round joins it; only an ambiguous chain takes a round per hop.
    """
    vals = np.asarray(values)
    n = len(vals)
    dist = np.abs(vals[:, None] - vals[None, :])
    close = dist <= tol
    np.fill_diagonal(close, True)       # every index reaches itself, even for tol < 0
    label = np.arange(n)
    while True:
        reached = np.where(close, label, n).min(axis=1, initial=n)
        if np.array_equal(reached, label):
            break
        label = reached
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(label.tolist()):
        groups.setdefault(root, []).append(i)
    clusters = sorted(groups.values(), key=lambda idx: (vals[idx[0]].real, vals[idx[0]].imag))

    for idx in clusters:
        if len(idx) < 2:
            continue
        diameter = dist[np.ix_(idx, idx)].max()
        if diameter > tol:
            gaps = np.sort(dist[np.triu_indices(n, k=1)])
            histogram = np.histogram(gaps, bins=min(16, max(4, n)))
            raise AmbiguousSpectrumError(
                f"eigenvalue gaps straddle the cluster tolerance {tol:.3e} "
                f"(cluster diameter {diameter:.3e}); adjust cluster_tol",
                gaps=gaps,
                histogram=histogram,
            )
    return clusters


def _cluster_tol(norm: float | None, cluster_tol) -> float:
    """The clustering tolerance of a decomposition: the default for an
    operator of spectral norm ``norm`` when None, else a finite value >= 0."""
    if cluster_tol is None:
        return DEFAULT_CLUSTER_RTOL * max(1.0, norm)
    return float(_number(cluster_tol, "cluster tolerance must be finite and >= 0, got {!r}", 0))


def eig(a, cluster_tol: float | None = None) -> SectorDecomposition:
    """Spectral decomposition into distinct-eigenvalue sectors.

    Eigenvalues within ``cluster_tol`` of each other are merged into one
    sector whose projector has rank equal to the multiplicity.  Hermitian
    input yields an exact resolution of the identity.  For non-Hermitian
    input the projector of each cluster is the orthogonal projector onto
    the span of its right eigenvectors; clusters whose eigenvector block or
    spectral projector has condition number above the fixed threshold
    ``DEFAULT_MAX_SECTOR_CONDITION = 1e8`` (defective eigenvalue, poorly
    separated subspace) go to ``dropped``.
    """
    op = as_operator(a)
    if not op.hermitian:
        return _eigenvector_sectors(op, cluster_tol)
    return _eigh_sectors(*op._eigh, cluster_tol)


def _eigh_sectors(w: np.ndarray, v: np.ndarray,
                  cluster_tol: float | None) -> SectorDecomposition:
    """The Hermitian branch of :func:`eig`, from the ``eigh`` eigenvalues
    ``w`` and eigenvectors ``V`` of the operator, so that one batched
    ``eigh`` can serve a stack of operators (``adiabatic`` does)."""
    tol = _cluster_tol(float(np.abs(w).max()), cluster_tol)    # ||A|| = max |w|
    clusters = cluster_values(w, tol)
    held = _eigh_certificate(v, max(map(len, clusters)))
    sectors = tuple(
        Sector(complex(np.mean(w[idx])), _eigh_projector(v[:, idx]) if held
               else Projector(v[:, idx] @ v[:, idx].conj().T, rank=len(idx)))
        for idx in clusters)
    return SectorDecomposition(sectors, tol, v.shape[0], complete=True)


def _eigenvector_sectors(op: Operator, cluster_tol: float | None,
                         real_only: bool = False) -> SectorDecomposition:
    """Sectors of a non-Hermitian ``op`` from its right eigenvectors.

    Each cluster of eigenvalues gives the orthogonal projector onto the
    span of its eigenvectors and the measured condition number of its
    spectral projector.  A cluster goes to ``dropped``, with the figure,
    when the condition number of its eigenvector block or else of its
    spectral projector exceeds ``DEFAULT_MAX_SECTOR_CONDITION``.  ``real_only``
    keeps only eigenvalues with ``|Im eta| <= _real_tol(||op||)``,
    reports their real parts and marks the decomposition incomplete.
    """
    norm = snorm(op) if real_only or cluster_tol is None else None     # one SVD serves both
    tol = _cluster_tol(norm, cluster_tol)
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
        if condition <= DEFAULT_MAX_SECTOR_CONDITION:
            vr_inv = np.linalg.inv(vr) if vr_inv is None else vr_inv
            product = vr[:, idx] @ vr_inv[idx, :]      # an overflowed one is unbounded
            condition = snorm(product) if np.isfinite(product).all() else math.inf
        if condition > DEFAULT_MAX_SECTOR_CONDITION:
            dropped.append((eta, condition))
            continue
        sectors.append(Sector(eta, projector_from_columns(vr[:, idx]), condition=condition))
    complete = not real_only and not dropped and sum(s.multiplicity for s in sectors) == op.dim
    return SectorDecomposition(tuple(sectors), tol, op.dim, complete=complete,
                               dropped=tuple(dropped))


def _eigh_certificate(v: np.ndarray, rank: int) -> bool:
    """Whether ``M = fl(C C^dag)`` passes the :class:`Projector` checks for
    every set ``C`` of at most ``rank`` columns of the ``d x d`` ``eigh``
    eigenvectors ``V``, from ``e = ||V^dag V - I||_F``.  The resolution of
    the sectors is not certified here:
    :meth:`SectorDecomposition.validate_resolution` checks it on their bases.

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
    ``g_d (sqrt(r) (1 + e) + delta)^2``; their sum is ``b``.  The
    subtractions and SVDs of the checks fit in ``_ROUNDING``.  The
    idempotency clause is implied by the trace clause up to ``r d u`` terms
    (``b - (1 + e) e``).
    """
    d = v.shape[0]
    g, gr = 8 * (d + 1) * _UNIT_ROUNDOFF, 8 * (rank + 1) * _UNIT_ROUNDOFF
    e = (fnorm(v.conj().T @ v - np.eye(d)) * (1 + _ROUNDING) + g * d) / (1 - g * math.sqrt(d))
    delta = gr * rank * (1 + e)
    slack = (1 + _ROUNDING) ** 2
    b = ((1 + e) * e + delta * (3 + 2 * e + delta)
         + g * (math.sqrt(rank) * (1 + e) + delta) ** 2) * slack
    return (2 * gr * (1 + e) * slack <= HERMITIAN_RTOL
            and (math.sqrt(rank) * e + 2 * g * rank * (1 + e)) * slack <= TRACE_RANK_TOL * d
            and b <= IDEMPOTENCY_TOL * d)


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
    :attr:`SectorDecomposition._frame`, one ``(count, rank, rank)`` stack per group of
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
    x = np.empty(basis.shape, dtype=complex)
    for (cols, rank, count), g in zip(_rank_groups(sizes), blocks):
        if t is not None and hermitian:
            ok = _is_hermitian(g)
            if not ok.all():
                Operator(g[np.argmin(ok)], hermitian=True)     # raises its error
            g = _eigh_exp(*np.linalg.eigh(g), t)
        elif t is not None:
            g = np.array([expm(Operator(b), t).matrix for b in g])
        np.matmul(_stacked(basis, cols, count, rank), g, out=_stacked(x, cols, count, rank))
    return x


def offblock_norm(a, sectors: SectorDecomposition) -> float:
    """Frobenius norm of the part of ``a`` outside the sector blocks,
    ``||A - sum_n P_n A P_n||_F``.  Zero iff ``a`` is block diagonal."""
    m = _finite_matrix(a)
    return fnorm(m - block_diagonal_part(m, sectors))


def block_diagonal_part(a, sectors: SectorDecomposition) -> np.ndarray:
    """``sum_n P_n A P_n`` as a plain array, formed through the sector bases
    as ``X W^dag`` (:func:`_sector_columns`)."""
    w, sizes, _ = _record(sectors, SectorDecomposition, _SECTORS)._frame
    return _sector_columns(w, sizes, _sector_blocks(w, sizes, as_matrix(a))) @ w.conj().T


# ---------------------------------------------------------------------------
# matrix literal files
#
# Plain-text format: first line "dim d", then d*d lines "row col re im"
# with 0-indexed coordinates.  Every entry must appear exactly once.


def save_matrix(path, a) -> None:
    """Write a matrix literal file of a finite matrix."""
    m = _finite_matrix(a)
    d = m.shape[0]
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"dim {d}\n")
            for i in range(d):
                for j in range(d):
                    fh.write(f"{i} {j} {float(m[i, j].real)!r} {float(m[i, j].imag)!r}\n")
    except (OSError, TypeError) as exc:
        raise ValidationError(f"cannot write matrix file {path}: {exc}") from None


def load_matrix(path) -> Operator:
    """Read a matrix literal file; the Hermiticity flag is auto-detected.
    Lines end where ``str.splitlines`` ends them."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # str.splitlines ends lines at these, loadtxt reads them as field separators
        plain = raw.isascii() and not any(c in raw for c in b"\v\f\x1c\x1d\x1e")
        # a plain file's header line ends before the first \n past its leading blanks
        nl = raw.find(b"\n", len(raw) - len(raw.lstrip(_BLANK))) if plain else -1
        lines = raw[:nl if nl >= 0 else None].decode("ascii").splitlines()
    except (OSError, TypeError, UnicodeDecodeError) as exc:
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
    m = _parse_clean_entries(path, k0, d) if nl >= 0 and len(raw.rstrip(_BLANK)) > nl else None
    if m is None:
        body = raw.decode("ascii").splitlines()[k0:] if nl >= 0 else lines[k0:]
        entries = [(k, ln.strip()) for k, ln in enumerate(body, start=k0 + 1) if ln.strip()]
        m = _parse_entries(path, entries, d)
    return as_operator(m)


_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("re", float), ("im", float)])
_BLANK = b" \t\n\r\x1f"     # what str.strip strips of ASCII, less \v \f \x1c \x1d \x1e


def _parse_clean_entries(path, skip: int, d: int) -> np.ndarray | None:
    """The matrix of the lines past the first ``skip`` of ``path`` in one
    ``loadtxt`` pass (text mode: ``\\r``, ``\\r\\n`` end lines), when besides
    blank lines they are ``d * d`` entries of two integers and two finite
    floats, each index pair in range and present once; else None, left to
    :func:`_parse_entries`.  ``loadtxt`` accepts a subset of the spellings
    ``int``/``float`` accept, with the same values, skips the same blank
    lines, and warns when nothing else follows (the caller checks first)."""
    try:
        data = np.loadtxt(path, _ENTRY, comments=None, skiprows=skip, encoding="ascii", ndmin=1)
    except Exception:     # a refusal; also a suffix such as .gz, which loadtxt decompresses
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
