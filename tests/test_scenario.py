import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from zenosim import (
    NumericalError,
    ValidationError,
    save_matrix,
    three_level,
    three_level_survival,
)
from zenosim.scenario import (
    ResultSeries,
    _PURE_YAML_LOADER,
    _format_column,
    _format_value,
    _yaml_load,
    export_csv,
    load_scenario,
    parse_scenario,
    read_result_csv,
    run,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
MINIMAL = """
model:
  kind: three_level
  params: {omega: 1.0, K: 10.0}
task: survival
"""


# --------------------------------------------------------------------------
# parsing


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_libyaml_and_pure_loaders_read_equal_documents(path):
    text = path.read_text()
    doc = yaml.load(text, Loader=yaml.SafeLoader)
    assert _yaml_load(text) == yaml.load(text, Loader=_PURE_YAML_LOADER) == doc


def test_minimal_scenario_gets_documented_defaults():
    s = parse_scenario(MINIMAL)
    assert s.t_max == 10.0
    assert s.samples == 1001
    assert set(s.defaults_used) == {"time.t_max", "time.samples"}


def test_sweep_grid_echoed_verbatim():
    s = parse_scenario(MINIMAL.replace("task: survival",
                                       "task: sweep-K\nsweep: {K: [10, 20, 40, 80, 160]}"))
    assert s.sweep_key == "K"
    assert s.sweep_values == (10, 20, 40, 80, 160)


def test_negative_coupling_names_the_parameter():
    bad = MINIMAL.replace("K: 10.0", "K: -3.0")
    with pytest.raises(ValidationError, match=r"model\.params\.K"):
        parse_scenario(bad)


def test_unknown_task_and_model_rejected():
    with pytest.raises(ValidationError, match="task"):
        parse_scenario(MINIMAL.replace("task: survival", "task: explode"))
    with pytest.raises(ValidationError, match=r"model\.kind"):
        parse_scenario(MINIMAL.replace("three_level", "five_level"))


def test_unknown_fields_rejected():
    with pytest.raises(ValidationError, match="banana"):
        parse_scenario(MINIMAL + "banana: 1\n")
    with pytest.raises(ValidationError, match=r"model\.params\.tau"):
        parse_scenario(MINIMAL.replace("K: 10.0", "K: 10.0, tau: 2"))


def test_yaml_syntax_error_reports_line():
    with pytest.raises(ValidationError, match="line"):
        parse_scenario("model: [unclosed\ntask: survival")


def test_grid_must_increase():
    text = MINIMAL.replace("task: survival",
                           "task: sweep-K\nsweep: {K: [10, 10, 20]}")
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_scenario(text)


def test_task_grid_compatibility():
    with pytest.raises(ValidationError, match=r"sweep\.K"):
        parse_scenario(MINIMAL.replace("task: survival", "task: sweep-K"))
    with pytest.raises(ValidationError, match=r"sweep\.N"):
        parse_scenario(MINIMAL.replace("task: survival",
                                       "task: nonselective\nsweep: {K: [1, 2]}"))
    with pytest.raises(ValidationError, match="rotation"):
        parse_scenario(MINIMAL.replace("task: survival",
                                       "task: intertwine\nsweep: {K: [10, 40]}"))


def test_bad_time_grid():
    with pytest.raises(ValidationError, match=r"time\.samples"):
        parse_scenario(MINIMAL + "time: {samples: 1}\n")
    with pytest.raises(ValidationError, match=r"time\.t_max"):
        parse_scenario(MINIMAL + "time: {t_max: -1.0}\n")


def test_initial_state_validation():
    with pytest.raises(ValidationError, match="initial_state"):
        parse_scenario(MINIMAL + "initial_state: []\n")
    with pytest.raises(ValidationError, match="zero vector"):
        parse_scenario(MINIMAL + "initial_state: [0, 0, 0]\n")
    s = parse_scenario(MINIMAL + "initial_state: [[0, 1], 1, 0]\n")
    assert s.initial_state == (1j, 1 + 0j, 0j)


# --------------------------------------------------------------------------
# running


def test_survival_matches_closed_form_through_runner():
    s = parse_scenario(MINIMAL + "time: {t_max: 10.0, samples: 501}\n")
    series = run(s)
    assert series.columns == ("t", "p0", "p0_analytic")
    dev = np.abs(series.column("p0") - series.column("p0_analytic")).max()
    assert dev <= 1e-10
    expected = three_level_survival(1.0, 10.0, series.column("t"))
    assert np.abs(series.column("p0_analytic") - expected).max() == 0.0


def test_sectors_task_lists_three_sectors():
    series = run(parse_scenario(MINIMAL.replace("task: survival", "task: sectors")))
    assert series.columns == ("sector", "eta_re", "eta_im", "rank", "condition")
    assert sorted(series.column("eta_re")) == pytest.approx([-1.0, 0.0, 1.0])
    assert list(series.column("rank")) == [1, 1, 1]


def test_sweep_k_slope_metadata():
    text = MINIMAL.replace("task: survival",
                           "task: sweep-K\nsweep: {K: [10, 20, 40, 80, 160]}\n"
                           "time: {t_max: 1.0, samples: 2}")
    series = run(parse_scenario(text))
    assert -1.1 <= series.metadata["slope"] <= -0.9
    assert len(series.rows) == 5


def test_limit_compare_aliases_by_grid():
    base = MINIMAL.replace("task: survival", "task: limit-compare\n"
                           "time: {t_max: 1.0, samples: 2}")
    with_k = run(parse_scenario(base + "\nsweep: {K: [10, 20, 40]}"))
    assert with_k.columns == ("K", "defect")
    with_n = run(parse_scenario(base + "\nsweep: {N: [64, 128, 256]}"))
    assert with_n.columns == ("N", "error")
    assert -1.2 <= with_n.metadata["slope"] <= -0.8


def test_nonselective_task_offblock_slope():
    text = MINIMAL.replace(
        "task: survival",
        "task: nonselective\nsweep: {N: [16, 32, 64, 128, 256]}\n"
        "time: {t_max: 3.0, samples: 2}")
    series = run(parse_scenario(text))
    assert series.columns == ("N", "offblock_norm", "trace")
    assert -1.15 <= series.metadata["slope"] <= -0.85
    assert np.abs(series.column("trace") - 1.0).max() <= 1e-10


def test_dfs_task_reports_dimension():
    text = """
model: {kind: cavity, params: {g: 1.0, kappa: 1.0, n_max: 2}}
task: dfs
"""
    series = run(parse_scenario(text))
    assert series.metadata["dfs_dimension"] == 5
    assert len(series.rows) == 5 * 27


def test_intertwine_task_decreasing_defect():
    text = """
model: {kind: three_level, params: {omega: 1.0, K: 1.0}}
task: intertwine
time: {t_max: 1.0, samples: 2}
sweep: {K: [10, 40]}
rotation: {kind: phase, levels: [2, 3], rate: 0.2}
"""
    series = run(parse_scenario(text))
    d = series.column("defect")
    assert d[1] <= 0.35 * d[0]


def test_matrix_model_scenario(tmp_path):
    hm = three_level(1.0, 1.0).h_meas
    save_matrix(tmp_path / "hm.txt", hm)
    text = """
model: {kind: matrix, hmeas_file: hm.txt}
task: sectors
"""
    (tmp_path / "scn.yaml").write_text(text)
    series = run(load_scenario(tmp_path / "scn.yaml"))
    assert sorted(series.column("eta_re")) == pytest.approx([-1.0, 0.0, 1.0])


def test_initial_state_dimension_checked():
    s = parse_scenario(MINIMAL + "initial_state: [1, 0]\n")
    with pytest.raises(ValidationError, match="initial_state"):
        run(s)


# --------------------------------------------------------------------------
# CSV export


def test_csv_roundtrip_bit_exact(tmp_path):
    s = parse_scenario(MINIMAL + "time: {t_max: 7.3, samples: 64}\n")
    series = run(s)
    path = tmp_path / "out.csv"
    export_csv(series, path, reproducible=True)
    back = read_result_csv(path)
    assert back.columns == series.columns
    for a, b in zip(series.rows, back.rows):
        for x, y in zip(a, b):
            assert float(x) == float(y)  # bit-exact after the 17-digit trip


def test_csv_empty_rows_header_only(tmp_path):
    series = ResultSeries(("a", "b"), ([], []), {"note": "empty"})
    path = tmp_path / "empty.csv"
    export_csv(series, path, reproducible=True)
    lines = path.read_text().splitlines()
    assert lines == ["# note: empty", "a,b"]


def test_csv_determinism_under_reproducible_flag(tmp_path):
    s = parse_scenario(MINIMAL + "time: {t_max: 2.0, samples: 32}\n")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(run(s), p1, reproducible=True)
    export_csv(run(s), p2, reproducible=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_timestamp_present_by_default(tmp_path):
    s = parse_scenario(MINIMAL + "time: {t_max: 1.0, samples: 8}\n")
    path = tmp_path / "t.csv"
    export_csv(run(s), path)
    assert any(ln.startswith("# timestamp:") for ln in path.read_text().splitlines())


def test_result_series_validation():
    with pytest.raises(ValidationError, match="not rectangular"):
        ResultSeries(("a",), ([1.0], [2.0]), {})
    with pytest.raises(NumericalError, match="non-finite"):
        ResultSeries(("a",), ([float("nan")],), {})


def test_non_numeric_or_ragged_csv_names_file_line_and_column(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("# task: x\n\na,b\n1,2.5\n3,abc\n")
    with pytest.raises(ValidationError, match=r"cells\.csv: line 5, column 'b': 'abc' is not a number"):
        read_result_csv(path)
    path.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(ValidationError, match=r"cells\.csv: line 4: result rows are not rectangular"):
        read_result_csv(path)


def test_result_series_refuses_ragged_or_non_numeric_columns(tmp_path):
    for values in (([1.0, 2.0], [1.0]), ([1, 2], []), ([[1.0], [2.0]], [1.0, 2.0])):
        with pytest.raises(ValidationError, match="result rows are not rectangular"):
            ResultSeries(("a", "b"), values, {})
    with pytest.raises(ValidationError, match="'b' is neither integer nor float"):
        ResultSeries(("a", "b"), ([1.0], [1j]), {})
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValidationError, match="result rows are not rectangular"):
        read_result_csv(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_result_series_refuses_non_finite_values(tmp_path, bad):
    with pytest.raises(NumericalError, match="result table contains non-finite values"):
        ResultSeries(("N", "x"), ([1, 2, 3], [0.5, bad, 1.5]), {})
    path = tmp_path / "bad.csv"
    path.write_text(f"N,x\n1,{bad}\n")
    with pytest.raises(NumericalError, match="non-finite"):
        read_result_csv(path)


def test_result_series_holds_read_only_columns_with_a_row_view():
    n = np.array([1, 2, 3])
    series = ResultSeries(("N", "x"), (n, [0.5, -0.0, 2.0]), {})
    assert series.column("N").dtype == np.int64 and series.column("x").dtype == np.float64
    assert not series.column("x").flags.writeable
    n[0] = 7                                    # the table keeps its own copy
    assert len(series.rows) == 3
    assert list(series.rows) == [(1, 0.5), (2, -0.0), (3, 2.0)]
    assert series.rows[-1] == (3, 2.0) and type(series.rows[0][0]) is int
    assert math.copysign(1.0, series.rows[1][1]) == -1.0
    empty = ResultSeries(("a",), ([],), {})
    assert len(empty.rows) == 0 and list(empty.rows) == []


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                  1e308, -1e308, 1.7976931348623157e308, 1.0, 1e16, 1e17, 0.1, 1 / 3]
SPECIAL_INTS = [0, -1, 1, 2**53 + 1, 2**63 - 1, -2**63, 10**17]


@st.composite
def column_tables(draw):
    rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pool = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(SPECIAL_INTS))
            dtype = np.int64
        else:
            pool = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                             st.sampled_from(SPECIAL_FLOATS))
            dtype = np.float64
        values = draw(st.lists(pool, min_size=1, max_size=4))       # repeated values
        columns.append(np.array(draw(st.lists(st.sampled_from(values), min_size=rows,
                                              max_size=rows)), dtype=dtype))
    return columns


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(column_tables())
@example([np.array([-0.0, 0.0, 1.0, 1e16]), np.array([0, -1, 2**63 - 1, -2**63])])
@example([np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.0])])
def test_csv_round_trip_of_column_tables_is_byte_and_bit_exact(tmp_path_factory, columns):
    names = tuple(f"c{k}" for k in range(len(columns)))
    tmp = tmp_path_factory.mktemp("csv")
    series = ResultSeries(names, columns, {"note": "round trip", "n": 3})
    export_csv(series, tmp / "a.csv", reproducible=True)
    back = read_result_csv(tmp / "a.csv")
    export_csv(back, tmp / "b.csv", reproducible=True)
    assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
    assert back.columns == names and len(back.rows) == len(series.rows)
    for name, col in zip(names, columns):
        got = back.column(name)
        if col.dtype == np.int64:
            assert got.dtype == np.int64 and np.array_equal(got, col)
        else:       # integral floats may read back as int64 columns, exactly
            assert np.array_equal(got.astype(np.float64).view(np.int64), col.view(np.int64))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(column_tables())
@example([np.array([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 1e308, 0.1, 0.1])])
def test_column_formatter_is_format_value_cell_by_cell(columns):
    for col in columns:
        assert _format_column(col) == [_format_value(v) for v in col]
        assert _format_column(col) == [_format_value(v) for v in col.tolist()]


def test_exponent_numbers_without_dot_are_numbers():
    # YAML 1.1 leaves 1e3 and 1e-3 as strings; the loader reads them as floats
    s = parse_scenario(MINIMAL.replace("task: survival",
                                       "task: sweep-K\nsweep: {K: [1e3, 2.5e+3]}\n"
                                       "time: {t_max: 1e-3, samples: 3}"))
    assert s.sweep_values == (1000.0, 2500.0)
    assert s.t_max == 1e-3
    with pytest.raises(ValidationError, match=r"model\.params\.K: must be >= 0"):
        parse_scenario(MINIMAL.replace("K: 10.0", "K: -1e2"))


@pytest.mark.parametrize("text", ["'ten'", "1e", "e3", "1_000e1", "inf", ".nan", "1e400", "'0x10'"])
def test_non_numeric_strings_still_rejected(text):
    with pytest.raises(ValidationError, match=r"model\.params\.K: (expected a number|must be finite)"):
        parse_scenario(MINIMAL.replace("K: 10.0", f"K: {text}"))
