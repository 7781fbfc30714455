"""Output check: a verdict for one scenario run, derived from its CSV.

The checker reads the CSV that ``export_csv`` wrote with its own parser
(not ``zenosim.scenario.read_result_csv``), so a fault in the program's
reader cannot hide a fault in its writer.  A check returns a list of
problems; an empty list is a pass.

Tolerances (stated once, used by every workload):

* Floats compared to a reference agree when ``|x - ref| <= ATOL + RTOL |ref|``.
* A decoherence-free (``dfs``) sector is compared through the orthogonal
  projector its vectors span, because the basis of a degenerate sector is
  not unique; entries must agree to ``PROJECTOR_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-7
ATOL = 1e-10
PROJECTOR_TOL = 1e-8


@dataclass(frozen=True)
class Table:
    """A result CSV: ``# key: value`` metadata, header, numeric rows."""

    metadata: dict
    columns: tuple
    rows: np.ndarray

    def col(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def meta_float(self, key: str) -> float:
        return float(self.metadata[key])


def read_table(path) -> Table:
    metadata, body = {}, []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif line:
            body.append(line)
    columns = tuple(body[0].split(","))
    rows = np.array([[float(c) for c in ln.split(",")] for ln in body[1:]], dtype=float)
    return Table(metadata, columns, rows.reshape(len(body) - 1, len(columns)))


# ---------------------------------------------------------------------------
# building blocks


def close(what: str, got, want, rtol: float = RTOL, atol: float = ATOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if want.ndim == 0:
        want = np.broadcast_to(want, got.shape)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, reference {want.shape}"]
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(excess <= 0):
        k = int(np.argmax(excess))
        return [f"{what}: entry {k} is {float(got.flat[k])!r}, "
                f"reference {float(want.flat[k])!r}"]
    return []


def slope(table: Table, x: str, y: str, lo: float, hi: float) -> list[str]:
    """The metadata slope lies in [lo, hi] and matches a fit of the rows."""
    if "slope" not in table.metadata:
        return ["no slope in the metadata"]
    s = table.meta_float("slope")
    fitted = np.polyfit(np.log(table.col(x)), np.log(table.col(y)), 1)[0]
    problems = close("slope against a fit of the rows", s, fitted, rtol=1e-9)
    if not lo <= s <= hi:
        problems.append(f"slope {s:.4f} outside [{lo}, {hi}]")
    return problems


def dfs_projectors(table: Table) -> dict[int, tuple[complex, np.ndarray]]:
    """Sector index -> (eigenvalue, projector spanned by its vectors)."""
    out = {}
    dim = int(table.col("component").max()) + 1
    for n in np.unique(table.col("sector")).astype(int):
        rows = table.rows[table.col("sector") == n]
        sub = Table(table.metadata, table.columns, rows)
        nvec = int(sub.col("vector").max()) + 1
        basis = np.zeros((dim, nvec), dtype=complex)
        basis[sub.col("component").astype(int), sub.col("vector").astype(int)] = \
            sub.col("re") + 1j * sub.col("im")
        eta = complex(sub.col("eta_re")[0], sub.col("eta_im")[0])
        out[n] = (eta, basis @ basis.conj().T)
    return out


def dfs(table: Table, dimension: int, reference: dict) -> list[str]:
    """``dfs_dimension`` and every sector's projector against the reference."""
    problems = []
    if int(table.meta_float("dfs_dimension")) != dimension:
        problems.append(f"dfs_dimension {table.metadata['dfs_dimension']}, expected {dimension}")
    got = dfs_projectors(table)
    if sorted(got) != sorted(reference):
        return problems + [f"sectors {sorted(got)}, reference {sorted(reference)}"]
    for n, (eta, proj) in got.items():
        ref_eta, ref_proj = reference[n]
        problems += close(f"sector {n} eigenvalue", [eta.real, eta.imag],
                          [ref_eta.real, ref_eta.imag], atol=1e-9)
        dev = float(np.max(np.abs(proj - ref_proj)))
        if not dev <= PROJECTOR_TOL:
            problems.append(f"sector {n} projector deviates by {dev:.3e}")
    return problems


def same_table(table: Table, reference: Table) -> list[str]:
    """Every column and the numeric metadata the tasks define, against a
    reference CSV of the same scenario."""
    if table.columns != reference.columns:
        return [f"columns {table.columns}, reference {reference.columns}"]
    problems = []
    for key in ("slope", "dfs_dimension", "complete"):
        if key in reference.metadata:
            if key not in table.metadata:
                problems.append(f"metadata {key} missing")
            else:
                problems += close(key, table.meta_float(key), reference.meta_float(key))
    if "vector" in table.columns:
        return problems + dfs(table, int(reference.meta_float("dfs_dimension")),
                              dfs_projectors(reference))
    return problems + close("rows", table.rows, reference.rows)


def probabilities(table: Table) -> list[str]:
    p = table.col("p0")
    problems = []
    if not (np.all(p >= 0) and np.all(p <= 1)):
        problems.append("p0 outside [0, 1]")
    if not math.isclose(p[0], 1.0, abs_tol=1e-12):
        problems.append(f"p0(0) = {p[0]!r}, expected 1")
    return problems
