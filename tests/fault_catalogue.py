"""Fault catalogue: deliberate faults that the Tier-1 tests must catch.

Each entry names a source file, an exact text in it, the text that
replaces it, and the tests expected to fail once it is replaced.  For each
entry the script copies the tree to a temporary directory, applies that
one fault there and runs only the named tests.  It exits 1 when a fault
survives (the named tests pass), when an entry's old text is not found
exactly once, or when its tests cannot be run.  So a refactor that moves
or rewrites faulted code must update the entries, and a change that adds a
path or a check adds its fault here.

Run from the repository root with ``python tests/fault_catalogue.py``.
Two faults run at a time, each in its own copy, and a fault whose tests
run past ``TIMEOUT`` seconds counts as broken.  The last line printed is
``N of M faults caught, T s``.  pytest does not collect this file (its
name does not start with ``test_``).
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2
TIMEOUT = 120.0


class Fault(NamedTuple):
    name: str
    file: str          # relative to the repository root
    old: str           # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


FRAME = "tests/test_sector_frame.py::"
GRIDS = "tests/test_sweep_grids.py::"
OPS = "tests/test_operators.py::"
PERT = "tests/test_continuous.py::"
GOLDEN = "tests/test_golden.py::"
ADIA = "tests/test_adiabatic.py::"
PULSED = "tests/test_pulsed.py::"
BOUNDARY = "tests/test_public_boundary.py::test_a_bad_argument_raises_a_zeno_error["

FAULTS = [
    # the sector frame and its readers
    Fault("frame owner numbered in sorted order instead of by sector index",
          "src/zenosim/operators.py",
          "owner = np.repeat(np.array(order, dtype=int), [q.shape[1] for q in bases])",
          "owner = np.repeat(np.arange(len(order)), [q.shape[1] for q in bases])",
          (FRAME + "test_mixed_decomposition_has_ranks_out_of_order",
           FRAME + "test_perturbative_data_match_the_dense_resolvents")),
    Fault("frame without the rank sort",
          "src/zenosim/operators.py",
          "order = sorted(range(len(self)), key=lambda n: self.sectors[n].multiplicity)",
          "order = list(range(len(self)))",
          (FRAME + "test_frame_is_the_rank_sorted_stack_read_only_and_built_once[hermitian]",)),
    Fault("frame W left writable",
          "src/zenosim/operators.py",
          "        w.setflags(write=False)\n        owner.setflags(write=False)\n",
          "        owner.setflags(write=False)\n",
          (FRAME + "test_frame_is_the_rank_sorted_stack_read_only_and_built_once[empty]",)),
    Fault("nonselective off-block mask inverted",
          "src/zenosim/scenario.py",
          "offblock = owner[:, None] != owner",
          "offblock = owner[:, None] == owner",
          (FRAME + "test_nonselective_rows_read_the_off_blocks_of_the_frame",)),
    Fault("dfs rows in frame order",
          "src/zenosim/scenario.py",
          'cols = np.argsort(owner, kind="stable")',
          "cols = np.arange(owner.size)",
          (FRAME + "test_dfs_rows_list_each_sector_basis_in_sector_order",)),
    Fault("sweep-K blocks transposed",
          "src/zenosim/continuous.py",
          "blocks = [a + k * b for a, b in zip(hb, hmb)]",
          "blocks = [(a + k * b).transpose(0, 2, 1) for a, b in zip(hb, hmb)]",
          (FRAME + "test_zeno_propagator_matches_the_dense_exponential",
           GRIDS + "test_blocked_limits_match_zeno_propagator")),
    Fault("block chain one step short at large N",
          "src/zenosim/pulsed.py",
          "for k in range(n if project_final else n - 1):",
          "for k in range((n if project_final else n - 1) - (n > 100)):",
          (FRAME + "test_nonselective_evolve_matches_the_dense_chain",)),
    Fault("kept chain one step short at large N",
          "src/zenosim/pulsed.py",
          "steps = n if project_final else n - 1",
          "steps = (n if project_final else n - 1) - (n > 100)",
          (GOLDEN + "test_shipped_scenario_matches_reference[nonselective_three_level]",)),
    Fault("last unprojected step without the conjugate",
          "src/zenosim/pulsed.py",
          "    y = _sector_columns(u, sizes, blocks) @ u.conj().T",
          "    y = _sector_columns(u, sizes, blocks) @ u.T",
          (FRAME + "test_nonselective_evolve_matches_the_dense_chain",)),
    Fault("chain trace rule at 1e-6",
          "src/zenosim/pulsed.py",
          "delta > 1e-12 * np.maximum",
          "delta > 1e-6 * np.maximum",
          (GRIDS + "test_kept_chain_reports_the_dense_chains_trace_error",)),
    Fault("frame block positivity 1000x lax",
          "src/zenosim/pulsed.py",
          "    _check_positive(x, blocks)",
          "    _check_positive(x, [1e-3 * b for b in blocks])",
          (GRIDS + "test_a_frame_block_with_a_negative_eigenvalue_is_refused",)),
    # selective chains
    Fault("one 64-step block too many from N = 128",
          "src/zenosim/pulsed.py",
          "for _ in range(n // _MONITOR_STRIDE):",
          "for _ in range(n // _MONITOR_STRIDE + (n >= 128)):",
          (GRIDS + "test_selective_power_blocks_match_the_stepwise_chain",)),
    Fault("no renormalization in _enforce_contraction",
          "src/zenosim/pulsed.py",
          "    if s > 1.0:\n        v = v / s\n",
          "",
          (GRIDS + "test_power_blocks_renormalize_a_roundoff_gain_silently",)),
    Fault("contraction slack 1e-3",
          "src/zenosim/pulsed.py",
          "_CONTRACTION_SLACK = 1e-12",
          "_CONTRACTION_SLACK = 1e-3",
          (GRIDS + "test_power_blocks_refuse_a_gain_at_the_first_monitor",)),
    # the survival amplitude
    Fault("survival weights not squared",
          "src/zenosim/pulsed.py",
          "@ np.abs(vecs.conj().T @ v) ** 2",
          "@ np.abs(vecs.conj().T @ v)",
          (PULSED + "test_survival_grid_matches_per_sample_oracle",)),
    # |A|^2 cannot see a conjugated amplitude: the complex-amplitude test must
    Fault("survival amplitude conjugated",
          "src/zenosim/pulsed.py",
          "return np.exp(-1j * np.multiply.outer(ts, w))",
          "return np.exp(1j * np.multiply.outer(ts, w))",
          (PULSED + "test_survival_amplitude_is_the_propagated_overlap",)),
    # one state-vector rule
    Fault("state vector norm taken unscaled",
          "src/zenosim/operators.py",
          "    nrm = np.linalg.norm(parts.view(complex))\n",
          "    nrm = np.linalg.norm(v)\n",
          (OPS + "test_pure_of_a_huge_or_tiny_basis_state_is_that_basis_state[huge]",
           "tests/test_scenario.py::test_huge_and_tiny_initial_states_are_normalized_exactly")),
    Fault("unit scale without its 2**1023 cap",
          "src/zenosim/operators.py",
          "math.ldexp(1.0, min(1023, 1 - math.frexp(peak)[1]))",
          "math.ldexp(1.0, 1 - math.frexp(peak)[1])",
          (OPS + "test_pure_of_a_huge_or_tiny_basis_state_is_that_basis_state[subnormal-min]",)),
    Fault("state vector divided as complex",
          "src/zenosim/operators.py",
          "return (parts / nrm).view(complex) if normalize else v",
          "return parts.view(complex) / nrm if normalize else v",
          ("tests/test_scenario.py::test_huge_and_tiny_initial_states_are_normalized_exactly",)),
    Fault("Zeno time of the scaled moments left unscaled",
          "src/zenosim/pulsed.py",
          "    return s / math.sqrt(var)\n",
          "    return 1.0 / math.sqrt(var)\n",
          (PULSED + "test_zeno_time_of_a_huge_hamiltonian_takes_its_moments_scaled",)),
    Fault("eigenstate floor of the Zeno time back at s * s",
          "src/zenosim/pulsed.py",
          "if var <= 16 * np.finfo(float).eps * max(m2, 1.0):",
          "if var <= 16 * np.finfo(float).eps * max(m2, s * s):",
          (PULSED + "test_zeno_time_is_covariant_under_powers_of_two",)),
    Fault("nonselective initial state normalized twice",
          "src/zenosim/scenario.py",
          "        v[0] = 1.0\n    return v\n",
          "        v[0] = 1.0\n    return _state_vector(v, dim, normalize=True)\n",
          ("tests/test_scenario.py::test_nonselective_normalizes_its_initial_state_once",)),
    Fault("Hermitian deficits by subtraction",
          "src/zenosim/pulsed.py",
          "deficits = 2 * (np.sin(x[:, :, None] - x[:, None, :]) ** 2 @ p) @ p",
          "deficits = 1.0 - np.abs(_survival_amplitudes(hop, v, taus)) ** 2",
          (PULSED + "test_zeno_time_fitted_reads_cancellation_free_deficits",)),
    Fault("pulsed propagator takes any record",
          "src/zenosim/pulsed.py",
          "_check_dimension(hop.matrix, _record(p, Projector, _PROJECTOR).dim)",
          "_check_dimension(hop.matrix, p.dim)",
          (BOUNDARY + "pulsed_propagator-p-str]",)),
    Fault("projector residual overflows with a warning",
          "src/zenosim/operators.py",
          'with np.errstate(over="ignore", invalid="ignore"):    # an overflow is not idempotent',
          "if True:",
          (OPS + "test_a_projector_whose_square_overflows_is_not_idempotent",
           BOUNDARY + "Projector-matrix-square-overflow]")),
    Fault("amplitude hook returns unchecked",
          "src/zenosim/pulsed.py",
          'amp = _number(amplitude(tau), "amplitude must be a finite number, got {!r}", '
          "complex_ok=True)",
          "amp = amplitude(tau)",
          (BOUNDARY + "effective_rate_from_amplitude-amplitude-str]",)),
    Fault("closed-form survival takes NaN times",
          "src/zenosim/models.py",
          'if t.dtype.kind not in "iuf" or not np.isfinite(t).all():',
          'if t.dtype.kind not in "iuf":',
          (BOUNDARY + "three_level_survival-t-nan]",)),
    # computed arrays against arguments
    Fault("snorm, offblock_norm and save_matrix take NaN",
          "src/zenosim/operators.py",
          'return _array(as_matrix(a), "expected a square matrix, got shape {}", finite="matrix")',
          "return as_matrix(a)",
          (BOUNDARY + "snorm-a-nan]", BOUNDARY + "offblock_norm-a-nan]",
           BOUNDARY + "save_matrix-a-inf]")),
    Fault("chain norm taken through the argument guard",
          "src/zenosim/pulsed.py",
          "    s = _snorm(v)\n",
          "    s = snorm(v)\n",
          ("tests/test_boundary.py::"
           "test_an_overflowed_chain_exits_two_though_snorm_refuses_non_finite_arguments",)),
    Fault("overflowed spectral projector measured through the argument guard",
          "src/zenosim/operators.py",
          "condition = snorm(product) if np.isfinite(product).all() else math.inf",
          "condition = snorm(product)",
          (OPS + "test_an_overflowed_spectral_projector_drops_its_cluster",)),
    Fault("non-finite residual handed to the SVD",
          "src/zenosim/operators.py",
          "return not math.isfinite(f) or snorm(r) > bound",
          "return snorm(r) > bound",
          (OPS + "test_a_projector_whose_square_overflows_is_not_idempotent",)),
    # sector transport
    Fault("chunk stack read through the caching Projector.matrix",
          "src/zenosim/adiabatic.py",
          "pt = np.array([[_projector_matrix(p) for p in here.projectors]",
          "pt = np.array([[p.matrix for p in here.projectors]",
          (GRIDS + "test_intertwining_defect_holds_one_chunk_of_projectors",)),
    Fault("every coupling measured on the first coupling's run",
          "src/zenosim/adiabatic.py",
          "_midpoint_checkpoints(bundle.with_coupling(k), t, n, samples)",
          "_midpoint_checkpoints(bundle.with_coupling(ks[0]), t, plans[0], samples)",
          (ADIA + "test_chunked_checkpoints_give_the_per_checkpoint_reports",)),
    Fault("integrator drops the factor K on the sampled h_meas",
          "src/zenosim/adiabatic.py",
          'gens = _sampled(bundle, "h", ts) + bundle.coupling * _sampled(bundle, "h_meas", ts)',
          'gens = _sampled(bundle, "h", ts) + _sampled(bundle, "h_meas", ts)',
          (ADIA + "test_batched_steps_are_the_per_step_loop",)),
    # sectors
    Fault("tracking floor 0.05",
          "src/zenosim/adiabatic.py",
          "_TRACK_OVERLAP_FLOOR = 0.5",
          "_TRACK_OVERLAP_FLOOR = 0.05",
          (GRIDS + "test_tracking_matches_the_optimal_assignment",)),
    Fault("resolution's Frobenius block decision 100x lax",
          "src/zenosim/operators.py",
          "for k in np.flatnonzero(f * (1 + _ROUNDING) > ORTHOGONALITY_TOL)):",
          "for k in np.flatnonzero(f * (1 + _ROUNDING) > 100 * ORTHOGONALITY_TOL)):",
          (OPS + "test_gram_resolution_decides_as_the_dense_pairwise_check",)),
    Fault("a pair block skipped: only sectors two apart are paired",
          "src/zenosim/operators.py",
          "i, j = np.triu_indices(len(self), 1)",
          "i, j = np.triu_indices(len(self), 2)",
          (OPS + "test_gram_resolution_reads_every_pair_block",)),
    Fault("completeness reads the caching Projector.matrix",
          "src/zenosim/operators.py",
          "total = sum((_projector_matrix(s.projector) for s in self.sectors),",
          "total = sum((s.projector.matrix for s in self.sectors),",
          (OPS + "test_certified_resolution_needs_no_svd",
           OPS + "test_resolution_of_a_gue_decomposition_forms_no_projector_matrix[200]")),
    Fault("ambiguous cluster raised only past 2 tol",
          "src/zenosim/operators.py",
          "        if diameter > tol:",
          "        if diameter > 2 * tol:",
          (OPS + "test_eig_ambiguous_spectrum_carries_gap_histogram",)),
    Fault("one round of label propagation",
          "src/zenosim/operators.py",
          "        if np.array_equal(reached, label):\n            break\n"
          "        label = reached\n",
          "        label = reached\n        break\n",
          (OPS + "test_cluster_values_follows_a_chain_to_its_far_end[real]",)),
    Fault("cluster diagonal not set",
          "src/zenosim/operators.py",
          "    np.fill_diagonal(close, True)",
          "    pass",
          (OPS + "test_cluster_values_unions_the_pairs_the_all_pairs_loop_does",)),
    # the tolerance decision and the shared exponential
    Fault("overflowed norm decided unscaled",
          "src/zenosim/operators.py",
          "        s = _overflow_scale(ms[k])\n",
          "        s = 1.0\n",
          (OPS + "test_hermitian_check_of_an_overflowing_norm_decides_on_the_scaled_matrix",)),
    Fault("NaN slice decided Hermitian",
          "src/zenosim/operators.py",
          "              ) & np.isfinite(f)\n",
          "              ) & np.isfinite(f) | np.isnan(devs)\n",
          (OPS + "test_hermitian_slices_of_non_finite_and_overflowing_matrices",)),
    Fault("shared exponential without its conjugate",
          "src/zenosim/operators.py",
          "@ v.conj().swapaxes(-1, -2)",
          "@ v.swapaxes(-1, -2)",
          (OPS + "test_expm_unitarity_and_group_law",)),
    # perturbation theory
    Fault("reduced resolvent takes a bool index",
          "src/zenosim/operators.py",
          "isinstance(n, (int, np.integer)) and not isinstance(n, bool) and low",
          "isinstance(n, (int, np.integer)) and low",
          (PERT + "test_reduced_resolvent_refuses_an_index_outside_the_sectors",)),
    Fault("generator takes a non-finite lam",
          "src/zenosim/continuous.py",
          '        _number(lam, "lam must be finite, got {!r}")\n        w, owner, diags',
          "        w, owner, diags",
          (PERT + "test_generator_and_predicted_eigenvalues_refuse_a_non_finite_lam",)),
    # the argument guards
    Fault("finite-number guard lets a bool through",
          "src/zenosim/operators.py",
          "if (isinstance(x, _COMPLEX if complex_ok else _REAL) and not isinstance(x, bool)\n",
          "if (isinstance(x, _COMPLEX if complex_ok else _REAL)\n",
          (BOUNDARY + "three_level-omega-bool]",)),
    Fault("finite-number guard lets NaN through",
          "src/zenosim/operators.py",
          "and abs(x) <= _FLOAT_MAX and",
          "and abs(x) != math.inf and",
          (BOUNDARY + "FourLevelModel-omega-nan]",)),
    Fault("conversion guard catches only TypeError, so a string escapes as a ValueError",
          "src/zenosim/operators.py",
          "except (TypeError, ValueError, OverflowError) as exc:",
          "except TypeError as exc:",
          (BOUNDARY + "snorm-a-str]",)),
    Fault("vector guard skips its dimension test",
          "src/zenosim/operators.py",
          "if dim is not None and v.size != dim:",
          "if False:",
          (BOUNDARY + "zeno_time-a-dim2]",)),
    Fault("integer guard accepts 2.0",
          "src/zenosim/operators.py",
          "if isinstance(n, (int, np.integer)) and not",
          "if (isinstance(n, (int, np.integer)) or isinstance(n, float) and n.is_integer()) and not",
          (BOUNDARY + "cavity-n_max-float]",)),
    # matrix files
    Fault("matrix file ASCII check dropped",
          "src/zenosim/operators.py",
          "plain = raw.isascii() and not",
          "plain = not",
          (OPS + "test_matrix_file_reads_as_the_whole_text_reference",)),
    Fault("matrix file byte guard dropped",
          "src/zenosim/operators.py",
          'plain = raw.isascii() and not any(c in raw for c in b"\\v\\f\\x1c\\x1d\\x1e")',
          "plain = raw.isascii()",
          (OPS + r"test_matrix_file_decisions[dim 2\n0 0\x0c1 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n-"
           r":2: expected 'row col re im', got '0 0']",)),
    Fault("matrix file blanks without the unit separator",
          "src/zenosim/operators.py",
          r'_BLANK = b" \t\n\r\x1f"',
          r'_BLANK = b" \t\n\r"',
          (OPS + r"test_matrix_file_decisions[\x1f\ndim 2\n0 0 1 0\n0 1 0 0\n1 0 0 0\n1 1 1 0\n"
           r"-outcome29]",)),
    Fault("matrix file fast path refusals narrowed to OSError and ValueError",
          "src/zenosim/operators.py",
          "    except Exception:     # a refusal",
          "    except (OSError, ValueError):     # a refusal",
          (OPS + "test_matrix_file_with_a_compression_suffix_is_read_as_text[m.xz]",)),
    Fault("matrix file no-data guard dropped",
          "src/zenosim/operators.py",
          "if nl >= 0 and len(raw.rstrip(_BLANK)) > nl else None",
          "if nl >= 0 else None",
          (OPS + "test_header_without_entries_is_refused_without_a_warning",)),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")
    for part in ("src", "tests", "scenarios", "demos", "benchmarks", "pyproject.toml"):
        path = ROOT / part
        if path.is_dir():
            shutil.copytree(path, dest / part, ignore=ignore)
        elif path.exists():
            shutil.copy2(path, dest / part)


def _run(fault: Fault, tree: Path) -> str:
    """``caught``, ``SURVIVED`` or why the entry is broken, for ``fault``
    applied to the copy ``tree`` (restored afterwards)."""
    target = tree / fault.file
    text = target.read_text()
    if text.count(fault.old) != 1:
        return f"BROKEN: old text found {text.count(fault.old)} times in {fault.file}"
    target.write_text(text.replace(fault.old, fault.new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *fault.tests], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"BROKEN: the tests ran past {TIMEOUT:g} s"
    finally:
        target.write_text(text)
    if proc.returncode == 1:            # the tests ran and one of them failed
        return "caught"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"BROKEN: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main() -> int:
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trees = queue.SimpleQueue()
        for k in range(JOBS):
            _copy_tree(Path(tmp, str(k)))
            trees.put(Path(tmp, str(k)))

        def run(fault):
            tree, start = trees.get(), time.perf_counter()
            try:
                return _run(fault, tree), time.perf_counter() - start
            finally:
                trees.put(tree)

        failed = 0
        with ThreadPoolExecutor(JOBS) as pool:
            for fault, (verdict, seconds) in zip(FAULTS, pool.map(run, FAULTS)):
                print(f"{verdict.split(':')[0]:>8}  {seconds:5.1f} s  {fault.name}", flush=True)
                if verdict != "caught":
                    failed += 1
                    print(verdict, file=sys.stderr)
    print(f"{len(FAULTS) - failed} of {len(FAULTS)} faults caught, "
          f"{time.perf_counter() - begin:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
