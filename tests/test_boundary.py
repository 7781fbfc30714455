"""Input boundary: every malformed scenario, parameter or file ends as a
ValidationError (exit 1), every uncertified sector as exit 2, never as a
traceback."""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from zenosim import (
    DensityMatrix,
    ValidationError,
    basis_projector,
    constant_bundle,
    eig,
    intertwining_defect,
    load_matrix,
    nonselective_evolve,
    propagate_td,
    pulsed_propagator,
    save_matrix,
    three_level,
)
from zenosim.cli import main
from zenosim.scenario import MODEL_KINDS, TASKS, Scenario, parse_scenario, read_result_csv

SURVIVAL = """
model: {kind: three_level, params: {omega: 1.0, K: 10.0}}
task: survival
time: {t_max: 5.0, samples: 11}
"""

JORDAN = np.array([[0, 1], [0, 0]], dtype=complex)
NILPOTENT = np.diag([1.0, 1.0], 1).astype(complex)


# --------------------------------------------------------------------------
# files


def test_unreadable_matrix_files_exit_one(tmp_path, capsys):
    bad_bytes = tmp_path / "latin1.txt"
    bad_bytes.write_bytes(b"dim 1\n0 0 \xe9 0\n")
    for path in (tmp_path / "nope.txt", tmp_path, bad_bytes):
        with pytest.raises(ValidationError, match="cannot read matrix file"):
            load_matrix(path)
        assert main(["sectors", "--matrix-file", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


def test_scenario_with_missing_matrix_file_exits_one(tmp_path, capsys):
    scn = tmp_path / "s.yaml"
    scn.write_text("model: {kind: matrix, hmeas_file: absent.txt}\ntask: sectors\n")
    assert main(["run", str(scn), "--out", str(tmp_path / "o.csv")]) == 1
    assert "absent.txt" in capsys.readouterr().err


def test_scenario_bytes_must_be_utf8(tmp_path):
    with pytest.raises(ValidationError, match="UTF-8"):
        parse_scenario(SURVIVAL.encode() + b"# \xff\xfe\n")
    scn = tmp_path / "s.yaml"
    scn.write_bytes(b"task: survival\n\xff\n")
    assert main(["run", str(scn), "--out", str(tmp_path / "o.csv")]) == 1


@pytest.mark.parametrize("field,value", [
    ("hmeas_file", "[a, b]"), ("hmeas_file", "''"), ("hmeas_file", "3"),
    ("h_file", "{x: 1}"), ("h_file", "null"),
])
def test_file_fields_are_nonempty_strings(field, value):
    files = {"hmeas_file": "hm.txt", field: value}
    text = "model: {kind: matrix, " + ", ".join(f"{k}: {v}" for k, v in files.items())
    with pytest.raises(ValidationError, match=rf"^model\.{field}: "):
        parse_scenario(text + "}\ntask: sectors\n")


def test_sweep_with_mixed_key_types_names_the_sweep():
    with pytest.raises(ValidationError, match=r"^sweep: "):
        parse_scenario(SURVIVAL.replace("task: survival", "task: sweep-K\nsweep: {K: [1], 3: [1]}"))


# --------------------------------------------------------------------------
# run-time options and results


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("text", [
    SURVIVAL,
    "model: {kind: three_level, params: {omega: 1.0, K: 1.0}}\ntask: intertwine\n"
    "time: {t_max: 0.5}\nsweep: {K: [10]}\nrotation: {levels: [2, 3], rate: 0.2}\n",
])
def test_tol_is_validated_for_every_task(tmp_path, capsys, tol, text):
    scn = tmp_path / "s.yaml"
    scn.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out), "--tol", tol]) == 1
    assert "cluster tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_k_grid_with_zero_runs_without_slope(tmp_path):
    scn = tmp_path / "s.yaml"
    scn.write_text("model: {kind: three_level, params: {omega: 1.0, K: 1.0}}\n"
                   "task: sweep-K\nsweep: {K: [0, 10, 20]}\ntime: {t_max: 1.0, samples: 2}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out), "--reproducible"]) == 0
    series = read_result_csv(out)
    assert len(series.rows) == 3
    assert "slope" not in series.metadata


@pytest.mark.parametrize("task,message", [
    ("sweep-N", "no real eigenvalue"), ("limit-compare", "no real eigenvalue"),
    ("nonselective", "decomposition is marked incomplete"),
])
def test_n_grids_on_a_coupling_without_real_sectors_exit_one(tmp_path, capsys, task, message):
    save_matrix(tmp_path / "hm.txt", np.diag([-1j, -1j]))
    scn = tmp_path / "s.yaml"
    scn.write_text(f"model: {{kind: matrix, hmeas_file: hm.txt}}\ntask: {task}\n"
                   "sweep: {N: [4, 8]}\ntime: {t_max: 1.0}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("task", ["sweep-K", "limit-compare"])
def test_k_grids_on_a_coupling_without_real_sectors_give_one_row_per_k(tmp_path, capsys, task):
    save_matrix(tmp_path / "hm.txt", np.diag([-1j, -1j]))
    scn = tmp_path / "s.yaml"
    scn.write_text(f"model: {{kind: matrix, hmeas_file: hm.txt}}\ntask: {task}\n"
                   "sweep: {K: [1, 2, 4]}\ntime: {t_max: 1.0}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out), "--reproducible"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert read_result_csv(out).values[0].tolist() == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("task,columns", [
    ("sectors", "sector,eta_re,eta_im,rank,condition"),
    ("dfs", "sector,eta_re,eta_im,vector,component,re,im"),
])
def test_coupling_without_real_sectors_gives_an_empty_table(tmp_path, task, columns):
    save_matrix(tmp_path / "hm.txt", np.diag([-1j, -1j]))
    scn = tmp_path / "s.yaml"
    scn.write_text(f"model: {{kind: matrix, hmeas_file: hm.txt}}\ntask: {task}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out), "--reproducible"]) == 0
    assert out.read_text().splitlines()[-1] == columns
    assert len(read_result_csv(out).rows) == 0


@pytest.mark.parametrize("coupling", [JORDAN, NILPOTENT], ids=["jordan", "nilpotent"])
def test_defective_couplings_exit_two(tmp_path, capsys, coupling):
    save_matrix(tmp_path / "hm.txt", coupling)
    assert main(["sectors", "--matrix-file", str(tmp_path / "hm.txt")]) == 2
    err = capsys.readouterr().err
    assert "not certified" in err and "eta = 0" in err
    for task in ("sectors", "dfs"):
        scn = tmp_path / f"{task}.yaml"
        scn.write_text(f"model: {{kind: matrix, hmeas_file: hm.txt}}\ntask: {task}\n")
        out = tmp_path / f"{task}.csv"
        assert main(["run", str(scn), "--out", str(out)]) == 2
        assert "not certified" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model, t_max, message", [
    # the propagated survival overflows to NaN
    ("four_level, params: {omega: 1e300, K: 1e300, Kp: 1.0}", "1e300",
     "survival probability nan outside [0, 1]"),
    # the propagated survival is fine, the closed form overflows
    ("three_level, params: {omega: 1e200, K: 1e200}", "1e-300",
     "result table contains non-finite values"),
])
def test_overflowed_results_exit_two(tmp_path, capsys, model, t_max, message):
    scn = tmp_path / "s.yaml"
    scn.write_text(f"model: {{kind: {model}}}\ntask: survival\n"
                   f"time: {{t_max: {t_max}, samples: 5}}\n")
    out = tmp_path / "out.csv"
    assert main(["run", str(scn), "--out", str(out)]) == 2
    assert f"numerical error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_diagonalizable_matrix_file_still_exits_zero(tmp_path):
    save_matrix(tmp_path / "hm.txt", three_level(1.0, 1.0).h_meas)
    assert main(["sectors", "--matrix-file", str(tmp_path / "hm.txt")]) == 0


# --------------------------------------------------------------------------
# counts: a bool is not an integer count, though bool subclasses int


@pytest.mark.parametrize("call, what", [
    (lambda hk: pulsed_propagator(hk.h, basis_projector(3, 0), True, 0.01), "pulse count"),
    (lambda hk: nonselective_evolve(hk.h, eig(hk.h_meas), True, 0.01,
                                    DensityMatrix.pure(np.eye(3)[0])), "measurement count"),
    (lambda hk: propagate_td(constant_bundle(hk), 0.01, True), "step count"),
    (lambda hk: intertwining_defect(constant_bundle(hk), 0.01, [1.0], samples=True),
     "checkpoint count"),
], ids=["pulsed_propagator", "nonselective_evolve", "propagate_td", "intertwining_defect"])
def test_a_bool_count_is_refused(call, what):
    with pytest.raises(ValidationError, match=f"^{what} must be an integer >= 1$"):
        call(three_level(1.0, 1.0))


# --------------------------------------------------------------------------
# property: parsing never raises anything but ValidationError

FIELDS = ["kind", "params", "K", "N", "t_max", "samples", "levels", "rate", "hmeas_file",
          "h_file", "omega", "Kp", "g", "kappa", "gamma", "tau_z", "regime", "n_max"]

scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["three_level", "matrix", "phase", "inner", "1e3", ""])
           | st.text(max_size=4))
junk = st.text(max_size=3) | st.integers(-2, 2) | st.none()
keys = st.sampled_from(FIELDS) | junk
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(keys, inner, max_size=3), max_leaves=6)
sections = st.dictionaries(keys, values, max_size=3) | values
def mostly(usual, rare):
    """``usual`` three times in four, else ``rare``."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda strategy: strategy)


models = mostly(st.sampled_from([
    {"kind": "three_level", "params": {"omega": 1, "K": 1}},
    {"kind": "cavity", "params": {"g": 1, "kappa": 1}},
    {"kind": "matrix", "hmeas_file": "hm.txt"},
]), st.fixed_dictionaries({"kind": mostly(st.sampled_from(MODEL_KINDS), scalars)},
                          optional={"params": sections, "hmeas_file": values, "K": values}))
grids = st.lists(st.integers(0, 9) | st.floats(0, 9) | scalars, max_size=3)
sweeps = st.dictionaries(st.sampled_from(["K", "N", 3, None]) | junk, grids, max_size=3) | values
documents = st.tuples(
    st.fixed_dictionaries({"task": mostly(st.sampled_from(TASKS), scalars), "model": models},
                          optional={"time": sections, "sweep": sweeps, "initial_state": values,
                                    "rotation": sections, "output": values}),
    mostly(st.just({}), st.dictionaries(junk, values, min_size=1, max_size=1)),
).map(lambda parts: {**parts[1], **parts[0]})


def _parses_or_rejects(data):
    try:
        assert isinstance(parse_scenario(data), Scenario)
    except ValidationError:
        pass


@settings(max_examples=120, deadline=None, derandomize=True)
@given(documents)
def test_random_documents_parse_or_raise_validation_error(doc):
    _parses_or_rejects(yaml.safe_dump(doc))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.binary(max_size=64))
def test_random_bytes_parse_or_raise_validation_error(data):
    _parses_or_rejects(data)


@pytest.mark.parametrize("data", [
    SURVIVAL + "sweep: {K: [1], 3: [1]}\n",             # TypeError from sorting keys
    b"\xff",                                            # UnicodeDecodeError
    SURVIVAL.replace("K: 10.0", "K: " + "9" * 400),    # OverflowError from float()
])
def test_known_boundary_failures_are_validation_errors(data):
    with pytest.raises(ValidationError):
        parse_scenario(data)
