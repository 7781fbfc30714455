import numpy as np
import pytest

from zenosim import ValidationError, save_matrix, three_level, three_level_survival
from zenosim.scenario import (
    ResultSeries,
    export_csv,
    load_scenario,
    parse_scenario,
    read_result_csv,
    run,
)

MINIMAL = """
model:
  kind: three_level
  params: {omega: 1.0, K: 10.0}
task: survival
"""


# --------------------------------------------------------------------------
# parsing


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
    series = ResultSeries(("a", "b"), (), {"note": "empty"})
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
    with pytest.raises(ValidationError):
        ResultSeries(("a",), ((1.0, 2.0),), {})
    with pytest.raises(ValidationError):
        ResultSeries(("a",), ((float("nan"),),), {})


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
