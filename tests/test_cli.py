import warnings
from pathlib import Path

import numpy as np
import pytest

from zenosim import ValidationError, save_matrix, three_level
from zenosim.cli import main
from zenosim.scenario import parse_scenario, read_result_csv

SURVIVAL = """
model: {kind: three_level, params: {omega: 1.0, K: 10.0}}
task: survival
time: {t_max: 5.0, samples: 101}
"""


def test_run_writes_csv_and_exits_zero(tmp_path, capsys):
    scn = tmp_path / "s.yaml"
    scn.write_text(SURVIVAL + f"output: {tmp_path / 'out.csv'}\n")
    assert main(["run", str(scn), "--reproducible"]) == 0
    series = read_result_csv(tmp_path / "out.csv")
    assert series.columns == ("t", "p0", "p0_analytic")
    assert len(series.rows) == 101


def test_run_out_flag_overrides_scenario(tmp_path):
    scn = tmp_path / "s.yaml"
    scn.write_text(SURVIVAL)
    out = tmp_path / "elsewhere.csv"
    assert main(["run", str(scn), "--out", str(out), "--reproducible"]) == 0
    assert out.exists()


def test_run_reproducible_byte_identical(tmp_path):
    scn = tmp_path / "s.yaml"
    scn.write_text(SURVIVAL)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(scn), "--out", str(a), "--reproducible"]) == 0
    assert main(["run", str(scn), "--out", str(b), "--reproducible"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_validation_errors_exit_one(tmp_path, capsys):
    scn = tmp_path / "bad.yaml"
    scn.write_text(SURVIVAL.replace("K: 10.0", "K: -1.0"))
    assert main(["run", str(scn), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "model.params.K" in err
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1


def test_numerical_errors_exit_two(tmp_path, capsys):
    # eigenvalue gaps straddling the clustering tolerance
    m = np.diag([0.0, 0.9e-6, 1.8e-6]).astype(complex)
    save_matrix(tmp_path / "m.txt", m)
    code = main(["sectors", "--matrix-file", str(tmp_path / "m.txt"),
                 "--tol", "1e-6"])
    assert code == 2
    assert "cluster" in capsys.readouterr().err


def test_sectors_named_model(capsys):
    assert main(["sectors", "--model", "three_level",
                 "--params", "omega=1,K=10"]) == 0
    out = capsys.readouterr().out
    assert "3 sector(s)" in out
    assert "complete" in out


def test_sectors_cavity_reports_incomplete(capsys):
    assert main(["sectors", "--model", "cavity", "--params",
                 "g=1,kappa=1,n_max=2"]) == 0
    out = capsys.readouterr().out
    assert "incomplete" in out
    assert "1 sector(s)" in out


def test_sectors_matrix_file(tmp_path, capsys):
    save_matrix(tmp_path / "hm.txt", three_level(1.0, 1.0).h_meas)
    assert main(["sectors", "--matrix-file", str(tmp_path / "hm.txt")]) == 0
    assert "3 sector(s)" in capsys.readouterr().out


def test_sectors_bad_params_exit_one(capsys):
    assert main(["sectors", "--model", "three_level", "--params", "omega=1"]) == 1
    assert "missing parameter" in capsys.readouterr().err
    assert main(["sectors", "--model", "three_level",
                 "--params", "omega=1,K=1,zeta=2"]) == 1


def test_impossible_yaml_dates_exit_one(tmp_path, capsys):
    # PyYAML's timestamp constructor raises a bare ValueError for these
    scn = tmp_path / "s.yaml"
    scn.write_text(SURVIVAL + "note: 2001-13-45\n")
    assert main(["run", str(scn), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: scenario document: invalid YAML (unreadable value: " \
                  "month must be in 1..12)\n"
    assert main(["sectors", "--model", "three_level",
                 "--params", "omega=2001-13-45,K=1"]) == 1
    assert capsys.readouterr().err == "error: --params: omega: unreadable value '2001-13-45'\n"


@pytest.mark.parametrize("old, new, message", [
    ("omega: 1.0", "omega: 1:30", "model.params.omega: expected a number, got '1:30'"),
    ("t_max: 5.0", "t_max: 1:30.5", "time.t_max: expected a number, got '1:30.5'"),
    ("samples: 101", "samples: 1:40", "time.samples: expected an integer, got '1:40'"),
])
def test_base_60_numbers_exit_one(tmp_path, capsys, old, new, message):
    # YAML 1.1 would read 1:30 as the base-60 integer 90
    scn = tmp_path / "s.yaml"
    scn.write_text(SURVIVAL.replace(old, new))
    assert main(["run", str(scn), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_base_60_params_exit_one(capsys):
    assert main(["sectors", "--model", "three_level", "--params", "omega=1:30,K=1"]) == 1
    assert capsys.readouterr().err == "error: --params: omega: expected a number, got '1:30'\n"


def test_linalg_failure_exits_two_without_traceback(monkeypatch, capsys):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert main(["sectors", "--model", "three_level", "--params", "omega=1,K=10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: Eigenvalues did not converge")
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cluster_tol_must_be_finite_and_nonnegative(tmp_path, capsys, tol):
    assert main(["sectors", "--model", "four_level", "--params", "omega=1,K=1,Kp=1",
                 "--tol", tol]) == 1
    assert "cluster tolerance" in capsys.readouterr().err
    scn = tmp_path / "s.yaml"
    scn.write_text("model: {kind: four_level, params: {omega: 1, K: 1, Kp: 1}}\n"
                   "task: sweep-K\nsweep: {K: [10, 20, 40]}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out), "--tol", tol]) == 1
    assert not out.exists()


# The same model parameters, as `zeno sectors --params` text and as a
# scenario's model.params: (kind, params, accepted).
REGISTRY_CASES = [
    ("three_level", "omega=1,K=10", True),
    ("four_level", "omega=1,K=1,Kp=1", True),
    ("cavity", "g=1,kappa=1", True),
    ("decay", "tau_z=1,gamma=1,K=1", True),
    ("cavity", "g=1,kappa=1,n_max=2.5", False),
    ("cavity", "g=1,kappa=1,n_max=1", False),
    ("cavity", "g=1,kappa=1,n_max=3", True),
    ("three_level", "omega=1,K=-1", False),
    ("three_level", "omega=1,K=1e3", True),
    ("four_level", "omega=1,K=1,Kp=1,regime=sideways", False),
    ("four_level", "omega=1,K=1,Kp=1,regime=outer", True),
    ("three_level", "omega=1,K=1,zeta=2", False),
    ("three_level", "omega=1", False),
    ("decay", "tau_z=0,gamma=1,K=1", False),
    ("decay", "tau_z=1,gamma=yes,K=1", False),
    ("decay", "tau_z=inf,gamma=1,K=1", False),
]


@pytest.mark.parametrize("kind,params,accepted", REGISTRY_CASES)
def test_cli_and_scenario_take_the_same_model_decisions(capsys, kind, params, accepted):
    mapping = ", ".join(item.replace("=", ": ") for item in params.split(","))
    try:
        parse_scenario(f"model: {{kind: {kind}, params: {{{mapping}}}}}\ntask: sectors\n")
        scenario_accepts = True
    except ValidationError:
        scenario_accepts = False
    code = main(["sectors", "--model", kind, "--params", params])
    assert code in (0, 1)
    assert scenario_accepts == (code == 0) == accepted


def test_overflowing_rotation_reports_only_the_error(tmp_path, capsys):
    shipped = Path(__file__).resolve().parents[1] / "scenarios" / "intertwine_rotating.yaml"
    scn = tmp_path / "s.yaml"
    scn.write_text(shipped.read_text().replace("rate: 0.2", "rate: 1e308")
                   .replace("t_max: 1.5", "t_max: 10"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(scn), "--out", str(tmp_path / "x.csv")]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == "error: bundle h_meas has NaN or Inf entries at t = 2.5\n"
