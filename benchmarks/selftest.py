#!/usr/bin/env python3
"""Self-test of the benchmark's output check and tracer.

Run from the repository root:

    python3 benchmarks/selftest.py

* The output check accepts each scenario's real output and rejects a
  corrupted copy of it (one number changed, a vector dropped, a slope
  moved, a rank changed).
* One traced desk survival pass makes exactly 1001 ``exact_propagator``
  and 1001 ``survival_probability`` calls, its top-level spans add up to
  the traced pass time, and uninstalling the tracer restores every name.

Exits 0 when every case holds, 1 otherwise.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run  # first: pins the BLAS threads before numpy loads
import check
import workloads

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def edit_cell(text: str, row: int, column: str, change) -> str:
    """Apply ``change`` to one cell of a result CSV's data rows."""
    lines = text.split("\n")
    header = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = change(cells[col])
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines)


def set_meta(text: str, key: str, value: str) -> str:
    return "\n".join(f"# {key}: {value}" if ln.startswith(f"# {key}:") else ln
                     for ln in text.split("\n"))


def drop_vector(text: str, vector: int) -> str:
    lines = text.split("\n")
    header = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
    col = lines[header].split(",").index("vector")
    return "\n".join(ln for k, ln in enumerate(lines)
                     if k <= header or not ln or int(ln.split(",")[col]) != vector)


# job key -> (what the corruption does, corruption)
CORRUPTIONS = {
    "survival_three_level": ("p0 of one row off by 1e-6",
                             lambda t: edit_cell(t, 500, "p0", lambda c: repr(float(c) + 1e-6))),
    "pulsed_limit_three_level": ("one error 1% high",
                                 lambda t: edit_cell(t, 2, "error", lambda c: repr(float(c) * 1.01))),
    "sweep_K_three_level": ("slope metadata moved to -0.5",
                            lambda t: set_meta(t, "slope", "-0.5")),
    "nonselective_three_level": ("trace of one row 0.99",
                                 lambda t: edit_cell(t, 3, "trace", lambda c: "0.99")),
    "intertwine_rotating": ("last defect doubled",
                            lambda t: edit_cell(t, 2, "defect", lambda c: repr(float(c) * 2))),
    "dfs_cavity": ("one protected vector dropped", lambda t: drop_vector(t, 4)),
    "sweep_n200": ("one error 1e-4 relative high",
                   lambda t: edit_cell(t, 1, "error", lambda c: repr(float(c) * (1 + 1e-4)))),
    "nonselective200": ("one off-block norm 1e-4 relative low",
                        lambda t: edit_cell(t, 4, "offblock_norm",
                                            lambda c: repr(float(c) * (1 - 1e-4)))),
    "sweep_k200": ("one defect 1e-4 relative high",
                   lambda t: edit_cell(t, 0, "defect", lambda c: repr(float(c) * (1 + 1e-4)))),
    "survival200": ("p0 of one row off by 1e-7",
                    lambda t: edit_cell(t, 20, "p0", lambda c: repr(float(c) + 1e-7))),
    "sectors4_200": ("one rank 49 instead of 50",
                     lambda t: edit_cell(t, 1, "rank", lambda c: "49")),
    "sectors_gue200": ("one eigenvalue off by 1e-6",
                       lambda t: edit_cell(t, 100, "eta_re", lambda c: repr(float(c) + 1e-6))),
    "dfs200": ("one component off by 1e-4",
               lambda t: edit_cell(t, 7, "re", lambda c: repr(float(c) + 1e-4))),
}


def check_rejects_corruption(session, jobs, work: Path) -> None:
    for job in jobs:
        if job.key not in CORRUPTIONS:
            continue
        _, ok = session.run_job(job)
        expect(ok, f"{job.key}: real output passes the check")
        what, corrupt = CORRUPTIONS[job.key]
        bad = work / f"{job.key}.corrupt.csv"
        bad.write_text(corrupt((work / f"{job.key}.csv").read_text()))
        problems = job.check(check.read_table(bad))
        expect(bool(problems), f"{job.key}: rejects {what} ({'; '.join(problems)[:100]})")


def check_trace_counts(session, jobs) -> None:
    import tracing
    import zenosim.operators
    import zenosim.pulsed
    original = zenosim.pulsed.snorm
    survival = [j for j in jobs if j.key == "survival_three_level"]
    session.jobs = survival
    session.one_pass(record=False)                 # warm-up, untraced
    with tracing.Tracer() as tracer:
        traced_s = session.one_pass(record=False)
    calls, _ = tracing.self_times(tracer.spans)
    expect(calls["continuous.exact_propagator"] == 1001,
           f"survival pass: {calls['continuous.exact_propagator']} exact_propagator calls (1001)")
    expect(calls["pulsed.survival_probability"] == 1001,
           f"survival pass: {calls['pulsed.survival_probability']} survival_probability "
           "calls (1001)")
    top = sum(end - start for _, start, end, _ in tracer.top_level())
    expect(abs(top / traced_s - 1) < 0.01,
           f"top-level spans cover {top / traced_s:.4f} of the traced pass")
    expect(zenosim.pulsed.snorm is original and zenosim.operators.snorm is original
           and "__wrapped__" not in vars(zenosim.operators.Operator.__post_init__),
           "uninstall restores the traced names")


def main() -> int:
    run.import_program()
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build(workload, 0, run.ROOT, work)
            check_rejects_corruption(run.Session(jobs, work), jobs, work)
        desk = workloads.build("desk", 0, run.ROOT, work)
        check_trace_counts(run.Session(desk, work), desk)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
