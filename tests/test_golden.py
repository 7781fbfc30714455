"""The six shipped scenarios against their recorded outputs.

``benchmarks/reference/desk/`` holds the CSV each ``scenarios/*.yaml``
produced when the benchmark was defined; this test only reads it.  Every
value must agree to ``1e-10 + 1e-7 |ref|``, the benchmark's tolerance, and
the ``intertwine`` and ``dfs`` rows must be equal as written.  Metadata
must be equal as written, except the fitted slope, which takes the same
tolerance.
"""

from pathlib import Path

import numpy as np
import pytest

from zenosim.scenario import export_csv, load_scenario, run

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "benchmarks" / "reference" / "desk"
SCENARIOS = ("survival_three_level", "pulsed_limit_three_level", "sweep_K_three_level",
             "nonselective_three_level", "intertwine_rotating", "dfs_cavity")
EXACT_ROWS = ("intertwine_rotating", "dfs_cavity")


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= 1e-10 + 1e-7 * np.abs(want)))


def _parts(text):
    metadata, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif line:
            body.append(line)
    return metadata, body[0], body[1:]


@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_scenario_matches_reference(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    export_csv(run(load_scenario(ROOT / "scenarios" / f"{name}.yaml")), out,
               reproducible=True)
    meta, header, rows = _parts(out.read_text(encoding="ascii"))
    ref_meta, ref_header, ref_rows = _parts(
        (REFERENCE / f"{name}.csv").read_text(encoding="ascii"))

    assert header == ref_header
    assert meta.keys() == ref_meta.keys()
    for key, value in ref_meta.items():
        if key == "slope":
            assert _close(float(meta[key]), float(value))
        else:
            assert meta[key] == value, key
    assert len(rows) == len(ref_rows)
    if name in EXACT_ROWS:
        assert rows == ref_rows
    else:
        got = [[float(c) for c in r.split(",")] for r in rows]
        want = [[float(c) for c in r.split(",")] for r in ref_rows]
        assert _close(got, want)
