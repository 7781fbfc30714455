#!/usr/bin/env python3
"""Record the desk reference outputs the benchmark's check compares against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 benchmarks/record_reference.py

Each shipped ``scenarios/*.yaml`` of the desk workload is run through
``load_scenario -> run -> export_csv(reproducible=True)`` and its CSV is
written to ``benchmarks/reference/desk/``.
"""

import sys

import run
import workloads

if __name__ == "__main__":
    run.import_program()
    from zenosim.scenario import export_csv, load_scenario
    from zenosim.scenario import run as run_scenario

    workloads.DESK_REFERENCE.mkdir(parents=True, exist_ok=True)
    for key in workloads.DESK:
        series = run_scenario(load_scenario(run.ROOT / "scenarios" / f"{key}.yaml"))
        export_csv(series, workloads.DESK_REFERENCE / f"{key}.csv", reproducible=True)
        print(f"{key}: {len(series.rows)} rows")
    sys.exit(0)
