"""Input boundary: every malformed scenario, parameter or file ends as a
ValidationError (exit 1), every uncertified sector as exit 2, never as a
traceback."""

import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from zenosim import (
    DensityMatrix,
    Operator,
    Sector,
    SectorDecomposition,
    ValidationError,
    basis_projector,
    constant_bundle,
    eig,
    intertwining_defect,
    load_matrix,
    nonselective_evolve,
    projector_from_columns,
    propagate_td,
    pulsed_propagator,
    rotating_bundle,
    save_matrix,
    three_level,
    zeno_time,
    zeno_time_fitted,
)
from zenosim.cli import main
from zenosim.fitting import loglog_fit
from zenosim.scenario import (
    MODEL_KINDS,
    TASKS,
    ResultSeries,
    Scenario,
    export_csv,
    parse_scenario,
    read_result_csv,
)

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


# --------------------------------------------------------------------------
# one row per boundary no other test reaches: each call raises its
# ValidationError (a str row, the message) or returns a value the row checks

A, B = np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 2.0])
P = basis_projector(3, 0, 2)
RHO = DensityMatrix.pure(np.eye(3)[1])


def _file(tmp_path, text, name="f.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _exit_message(capsys, args):
    code = main(args)
    return code, capsys.readouterr().err


UNREACHED = {
    "Operator @ Operator": (lambda tmp, cap: Operator(A) @ Operator(B),
                            lambda got: np.array_equal(got, A @ B)),
    "list @ Operator": (lambda tmp, cap: A.tolist() @ Operator(B),
                        lambda got: np.array_equal(got, A @ B)),
    "asarray of a Projector": (lambda tmp, cap: np.asarray(P),
                               lambda got: np.array_equal(got, np.diag([1, 0, 1]))),
    "Projector @ Projector": (lambda tmp, cap: P @ basis_projector(3, 2),
                              lambda got: np.array_equal(got, np.diag([0, 0, 1]))),
    "list @ Projector": (lambda tmp, cap: A.tolist() @ P,
                         lambda got: np.array_equal(got, np.diag([1, 0, 3]))),
    "asarray of a DensityMatrix": (lambda tmp, cap: np.asarray(RHO),
                                   lambda got: np.array_equal(got, np.diag([0, 1, 0]))),
    "projector of zero columns": (lambda tmp, cap: projector_from_columns(np.zeros((3, 0))),
                                  "cannot build a projector from zero columns"),
    "sector of another dimension": (
        lambda tmp, cap: SectorDecomposition((Sector(1.0, basis_projector(2, 0)),), 1e-9, 3),
        "sector projector dimension mismatch"),
    "empty matrix file": (lambda tmp, cap: load_matrix(_file(tmp, " \n\n")), "empty matrix file"),
    "matrix file dimension x": (lambda tmp, cap: load_matrix(_file(tmp, "dim x\n")),
                                "dimension is not an integer"),
    "matrix file dimension 0": (lambda tmp, cap: load_matrix(_file(tmp, "dim 0\n")),
                                "dimension must be >= 1"),
    "zeno_time of a non-Hermitian matrix": (
        lambda tmp, cap: zeno_time(JORDAN, [1.0, 0.0]),
        "the quadratic decay scale requires a Hermitian Hamiltonian"),
    "zeno_time_fitted of a zero Hamiltonian": (
        lambda tmp, cap: zeno_time_fitted(np.zeros((2, 2)), [1.0, 0.0]),
        lambda got: got == math.inf),
    "zeno_time_fitted of an eigenstate": (lambda tmp, cap: zeno_time_fitted(A, [0.0, 1.0, 0.0]),
                                          lambda got: got == math.inf),
    "rotating_bundle of a non-Hermitian generator": (
        lambda tmp, cap: rotating_bundle(A, B, np.triu(np.ones((3, 3))), 0.1, 1.0),
        "rotation generator must be Hermitian"),
    "loglog_fit of a zero": (lambda tmp, cap: loglog_fit([1, 2], [0, 1]),
                             "log-log fit requires strictly positive data"),
    "column of another name": (
        lambda tmp, cap: ResultSeries(("a",), ([1.0],), {}).column("b"), "no column named 'b'"),
    "empty K sweep": (lambda tmp, cap: parse_scenario(SURVIVAL + "sweep: {K: []}\n"),
                      "sweep.K: must be a non-empty list"),
    "amplitude of three parts": (
        lambda tmp, cap: parse_scenario(SURVIVAL + "initial_state: [[1, 0, 0]]\n"),
        "initial_state[0]: expected [re, im]"),
    "rotation about one level": (
        lambda tmp, cap: parse_scenario(SURVIVAL + "rotation: {levels: [2, 2]}\n"),
        "expected two distinct 1-based level indices"),
    "CSV into a missing directory": (
        lambda tmp, cap: export_csv(ResultSeries(("a",), ([1.0],), {}), tmp / "no" / "o.csv"),
        "cannot write"),
    "missing CSV": (lambda tmp, cap: read_result_csv(tmp / "absent.csv"), "cannot read"),
    "CSV of metadata only": (lambda tmp, cap: read_result_csv(_file(tmp, "# a: 1\n", "m.csv")),
                             "no header row"),
    "--params without =": (
        lambda tmp, cap: _exit_message(cap, ["sectors", "--model", "three_level",
                                             "--params", "K"]),
        lambda got: got[0] == 1 and "--params: expected k=v" in got[1]),
    "run without an output path": (
        lambda tmp, cap: _exit_message(cap, ["run", str(_file(tmp, SURVIVAL, "s.yaml"))]),
        lambda got: got[0] == 1 and "no output path" in got[1]),
    "sectors of no coupling": (
        lambda tmp, cap: _exit_message(cap, ["sectors"]),
        lambda got: got[0] == 1 and "pass exactly one of --model or --matrix-file" in got[1]),
}


@pytest.mark.parametrize("name", UNREACHED)
def test_each_boundary_raises_its_message_or_returns_its_value(tmp_path, capsys, name):
    call, outcome = UNREACHED[name]
    if isinstance(outcome, str):
        with pytest.raises(ValidationError, match=re.escape(outcome)):
            call(tmp_path, capsys)
    else:
        assert outcome(call(tmp_path, capsys))
