"""The three workloads: their scenario lists, seeded inputs and checks.

* ``desk`` runs the six shipped ``scenarios/*.yaml`` unchanged (d = 3
  three-level models and the 27-dim cavity).  It is what users run; time
  goes to per-call overhead and invariant checks on tiny matrices.
* ``dynamics200`` runs four ``matrix``-model scenarios at d = 200: the
  chain loops (pulsed, nonselective) are BLAS-bound matmuls, and matrix
  file parsing is on the timed path.
* ``spectra200`` finds sectors at d = 200 (nondegenerate and 4-fold
  degenerate couplings, and a dissipative coupling's real sector), where
  projector certification dominates and the CSV export is large.

The d = 200 inputs come from ``--seed``.  They are written with the public
``save_matrix`` and read back by the scenario ``matrix`` model, so parsing
is timed while generation is not.  Their reference outputs are computed
here from the generated matrices with plain numpy, by a route independent
of the program (the inputs change with the seed, so no file can hold
them); the desk references are CSVs recorded from the program in
``reference/desk/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import check

HERE = Path(__file__).resolve().parent
DESK_REFERENCE = HERE / "reference" / "desk"

D = 200
OUTCOMES = 4                     # eigenvalues 0, 1, 2, 3 of the measurement
H_NORM = 1.4                     # spectral norm of the GUE system part
DFS_RANK = 50                    # real (protected) sector of the dfs coupling

SWEEP_N = (16, 32, 64, 128, 256)
NONSELECTIVE_N = (4, 8, 16, 32, 64)
SWEEP_K = (10, 20, 40, 80, 160)
SURVIVAL_K, SURVIVAL_T, SURVIVAL_SAMPLES = 10.0, 10.0, 51
T_MAX = 1.0

# Slope windows of the convergence fits (the nonselective fit is the
# least asymptotic of the three at these grids).
SLOPE = (-1.1, -0.9)
SLOPE_NONSELECTIVE = (-1.15, -0.85)
INTERTWINE_RATIO = 0.35          # defect ratio per 4x step in K


@dataclass(frozen=True)
class Job:
    """One scenario of a workload: its file, metric name and output check."""

    key: str
    metric: str
    path: Path
    check: Callable[[check.Table], list]


WORKLOADS = ("desk", "dynamics200", "spectra200")
DESK = ("survival_three_level", "pulsed_limit_three_level", "sweep_K_three_level",
        "nonselective_three_level", "intertwine_rotating", "dfs_cavity")


def build(workload: str, seed: int, root: Path, work: Path) -> list[Job]:
    """Scenario list of ``workload``; d = 200 inputs are generated into
    ``work`` from ``seed`` (the desk list ignores the seed)."""
    if workload == "desk":
        return desk_jobs(root / "scenarios")
    inputs = generate(seed)
    if workload == "dynamics200":
        return dynamics_jobs(inputs, work)
    if workload == "spectra200":
        return spectra_jobs(inputs, work)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# desk


def desk_jobs(scenarios: Path) -> list[Job]:
    def job(key, metric, *checks):
        ref = check.read_table(DESK_REFERENCE / f"{key}.csv")

        def verdict(t):
            problems = check.same_table(t, ref)
            for c in checks:
                problems += c(t)
            return problems
        return Job(key, metric, scenarios / f"{key}.yaml", verdict)

    def analytic(t):
        dev = float(np.max(np.abs(t.col("p0") - t.col("p0_analytic"))))
        return [] if dev <= 1e-8 else [f"max |p0 - p0_analytic| = {dev:.3e}"]

    def ratios(t):
        d = t.col("defect")
        worst = float(np.max(d[1:] / d[:-1]))
        return [] if worst <= INTERTWINE_RATIO else [f"defect ratio {worst:.3f}"]

    def dfs5(t):
        return [] if int(t.meta_float("dfs_dimension")) == 5 else ["dfs_dimension != 5"]

    return [
        job("survival_three_level", "survival_s", check.probabilities, analytic),
        job("pulsed_limit_three_level", "sweep_n_s",
            lambda t: check.slope(t, "N", "error", *SLOPE)),
        job("sweep_K_three_level", "sweep_k_s",
            lambda t: check.slope(t, "K", "defect", *SLOPE)),
        job("nonselective_three_level", "nonselective_s",
            lambda t: check.slope(t, "N", "offblock_norm", *SLOPE_NONSELECTIVE),
            lambda t: check.close("trace", t.col("trace"), 1.0)),
        job("intertwine_rotating", "intertwine_s", ratios),
        job("dfs_cavity", "dfs_s", dfs5),
    ]


# ---------------------------------------------------------------------------
# seeded d = 200 inputs


@dataclass(frozen=True)
class Inputs:
    h: np.ndarray            # GUE system Hamiltonian, ||H|| = H_NORM
    basis4: np.ndarray       # eigenbasis of the 4-outcome measurement
    hmeas4: np.ndarray       # eigenvalues 0..3, each of rank D / 4
    hgue: np.ndarray         # nondegenerate GUE coupling
    dfs_basis: np.ndarray    # eigenbasis of the dissipative coupling
    hdfs: np.ndarray         # normal; DFS_RANK zero eigenvalues, the rest decay

    @property
    def blocks(self) -> list[np.ndarray]:
        """Projectors of the 4-outcome measurement, by eigenvalue."""
        r = D // OUTCOMES
        return [self.basis4[:, k * r:(k + 1) * r] @ self.basis4[:, k * r:(k + 1) * r].conj().T
                for k in range(OUTCOMES)]


def _gue(rng, norm: float) -> np.ndarray:
    a = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    h = (a + a.conj().T) / 2
    return h * (norm / np.linalg.norm(h, 2))


def _haar(rng) -> np.ndarray:
    z = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(m: np.ndarray) -> np.ndarray:
    # (m + m^dag) / 2 is exactly Hermitian in floating point, so the
    # program's Hermiticity detection sees it as such.
    return (m + m.conj().T) / 2


def generate(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    h = _gue(rng, H_NORM)
    basis4 = _haar(rng)
    hmeas4 = _hermitian((basis4 * np.repeat(np.arange(OUTCOMES, dtype=float), D // OUTCOMES))
                        @ basis4.conj().T)
    hgue = _gue(rng, H_NORM)
    dfs_basis = _haar(rng)
    decaying = rng.uniform(-1.0, 1.0, D - DFS_RANK) - 1j * rng.uniform(0.2, 1.0, D - DFS_RANK)
    spectrum = np.concatenate([np.zeros(DFS_RANK), decaying])
    hdfs = (dfs_basis * spectrum) @ dfs_basis.conj().T
    return Inputs(h, basis4, hmeas4, hgue, dfs_basis, hdfs)


def _write(work: Path, inputs: Inputs, names) -> None:
    from zenosim import save_matrix
    for name in names:
        save_matrix(work / f"{name}.txt", getattr(inputs, name))


def _scenario(work: Path, key: str, text: str) -> Path:
    path = work / f"{key}.yaml"
    path.write_text(text, encoding="ascii")
    return path


def _evolution(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


# ---------------------------------------------------------------------------
# dynamics200 and its references


def dynamics_jobs(inputs: Inputs, work: Path) -> list[Job]:
    _write(work, inputs, ("h", "hmeas4"))
    model = "model: {kind: matrix, h_file: h.txt, hmeas_file: hmeas4.txt, K: %s}\n"
    grid = lambda key, values: f"sweep: {{{key}: [{', '.join(str(v) for v in values)}]}}\n"
    horizon = f"time: {{t_max: {T_MAX}, samples: 2}}\n"
    ref = dynamics_reference(inputs)

    def sweep_n(t):
        return (check.close("N", t.col("N"), SWEEP_N)
                + check.close("error", t.col("error"), ref["sweep_n"], rtol=1e-6)
                + check.slope(t, "N", "error", *SLOPE))

    def nonselective(t):
        return (check.close("N", t.col("N"), NONSELECTIVE_N)
                + check.close("offblock_norm", t.col("offblock_norm"),
                              ref["nonselective"], rtol=1e-6)
                + check.close("trace", t.col("trace"), 1.0)
                + check.slope(t, "N", "offblock_norm", *SLOPE_NONSELECTIVE))

    def sweep_k(t):
        return (check.close("K", t.col("K"), SWEEP_K)
                + check.close("defect", t.col("defect"), ref["sweep_k"], rtol=1e-6)
                + check.slope(t, "K", "defect", *SLOPE))

    def survival(t):
        return (check.close("t", t.col("t"), ref["t"])
                + check.close("p0", t.col("p0"), ref["survival"], atol=1e-9)
                + check.probabilities(t))

    return [
        Job("sweep_n200", "sweep_n_s", _scenario(
            work, "sweep_n200", model % 1.0 + "task: sweep-N\n" + horizon
            + grid("N", SWEEP_N)), sweep_n),
        Job("nonselective200", "nonselective_s", _scenario(
            work, "nonselective200", model % 1.0 + "task: nonselective\n" + horizon
            + grid("N", NONSELECTIVE_N)), nonselective),
        Job("sweep_k200", "sweep_k_s", _scenario(
            work, "sweep_k200", model % 0.0 + "task: sweep-K\n" + horizon
            + grid("K", SWEEP_K)), sweep_k),
        Job("survival200", "survival_s", _scenario(
            work, "survival200", model % SURVIVAL_K + "task: survival\n"
            + f"time: {{t_max: {SURVIVAL_T}, samples: {SURVIVAL_SAMPLES}}}\n"), survival),
    ]


def dynamics_reference(inputs: Inputs) -> dict:
    """Expected outputs of the dynamics200 scenarios, by plain numpy."""
    h, hm, blocks = inputs.h, inputs.hmeas4, inputs.blocks
    out = {}

    # selective chain in the sector holding |0>, against its limit
    htot = h + 1.0 * hm
    p = max(blocks, key=lambda b: b[0, 0].real)
    limit = p @ _evolution(p @ htot @ p, T_MAX)
    out["sweep_n"] = [np.linalg.norm(np.linalg.matrix_power(
        p @ _evolution(htot, T_MAX / n) @ p, n) - limit, 2) for n in SWEEP_N]

    # nonselective chain from the uniform state, in the measurement basis
    # where the sandwich map keeps the diagonal blocks
    w = inputs.basis4
    r = D // OUTCOMES
    mask = np.kron(np.eye(OUTCOMES), np.ones((r, r)))
    v0 = w.conj().T @ (np.ones(D) / np.sqrt(D))
    out["nonselective"] = []
    for n in NONSELECTIVE_N:
        u = w.conj().T @ _evolution(htot, T_MAX / n) @ w
        rho = np.outer(v0, v0.conj()) * mask
        for k in range(n):
            rho = u @ rho @ u.conj().T
            if k < n - 1:
                rho = rho * mask
        out["nonselective"].append(np.linalg.norm(rho * (1 - mask)))

    # exact against limit propagator over the K grid
    hdiag = sum(b @ h @ b for b in blocks)
    out["sweep_k"] = [np.linalg.norm(_evolution(h + k * hm, T_MAX)
                                     - _evolution(hdiag + k * hm, T_MAX), 2)
                      for k in SWEEP_K]

    # survival of |0> under H + K H_meas
    e, v = np.linalg.eigh(h + SURVIVAL_K * hm)
    weights = np.abs(v[0, :]) ** 2
    out["t"] = np.linspace(0.0, SURVIVAL_T, SURVIVAL_SAMPLES)
    out["survival"] = np.abs(np.exp(-1j * np.outer(out["t"], e)) @ weights) ** 2
    return out


# ---------------------------------------------------------------------------
# spectra200 and its references


def spectra_jobs(inputs: Inputs, work: Path) -> list[Job]:
    _write(work, inputs, ("hgue", "hmeas4", "hdfs"))
    gue_eta = np.linalg.eigvalsh(inputs.hgue)
    r = D // OUTCOMES

    def sectors(eta, rank):
        def verdict(t):
            return (check.close("eta_re", t.col("eta_re"), eta, atol=1e-9)
                    + check.close("eta_im", t.col("eta_im"), 0.0)
                    + check.close("rank", t.col("rank"), rank)
                    + check.close("condition", t.col("condition"), 1.0)
                    + check.close("complete", t.meta_float("complete"), 1))
        return verdict

    protected = inputs.dfs_basis[:, :DFS_RANK]
    dfs_reference = {0: (0j, protected @ protected.conj().T)}

    return [
        Job("sectors_gue200", "sectors_s", _scenario(
            work, "sectors_gue200", "model: {kind: matrix, hmeas_file: hgue.txt}\n"
            "task: sectors\n"), sectors(gue_eta, 1)),
        Job("sectors4_200", "sectors4_s", _scenario(
            work, "sectors4_200", "model: {kind: matrix, hmeas_file: hmeas4.txt}\n"
            "task: sectors\n"), sectors(np.arange(OUTCOMES, dtype=float), r)),
        Job("dfs200", "dfs_s", _scenario(
            work, "dfs200", "model: {kind: matrix, hmeas_file: hdfs.txt}\ntask: dfs\n"),
            lambda t: check.dfs(t, DFS_RANK, dfs_reference)),
    ]
