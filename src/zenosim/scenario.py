"""Scenario files and the experiment runner behind the ``zeno`` CLI.

A scenario is a single YAML document naming a model, a task, a time grid
and (for sweeps) a grid of pulse counts N or coupling strengths K.  The
runner dispatches to the library and returns a rectangular result table
that exports to CSV with full-precision floats, so identical scenarios
reproduce byte-identical files (modulo an optional timestamp line).
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .adiabatic import intertwining_defect, rotating_bundle
from .continuous import (
    CoupledHamiltonian,
    nonadiabatic_defect,
    zeno_sectors,
)
from .errors import ValidationError
from .fitting import loglog_slope
from .models import (
    cavity,
    decay_model,
    dfs_extract,
    four_level,
    rotation_generator,
    three_level,
    three_level_survival,
)
from .operators import (
    DensityMatrix,
    load_matrix,
    offblock_norm,
    projector_from_columns,
    snorm,
)
from .pulsed import (
    _survival_grid,
    nonselective_evolve,
    pulsed_limit,
    pulsed_propagator,
)

TASKS = ("survival", "sectors", "limit-compare", "nonselective",
         "sweep-K", "sweep-N", "dfs", "intertwine")
MODEL_KINDS = ("three_level", "four_level", "cavity", "decay", "matrix")

_MODEL_PARAMS = {
    # kind -> {param: (required, validator description)}
    "three_level": {"omega": True, "K": True},
    "four_level": {"omega": True, "K": True, "Kp": True, "regime": False},
    "cavity": {"g": True, "kappa": True, "n_max": False},
    "decay": {"tau_z": True, "gamma": True, "K": True},
    "matrix": {},
}

_DEFAULT_T_MAX = 10.0
_DEFAULT_SAMPLES = 1001


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: model + task + grids, ready to run."""

    task: str
    model_kind: str
    model_params: dict
    hmeas_file: str | None = None
    h_file: str | None = None
    matrix_coupling: float = 1.0
    t_max: float = _DEFAULT_T_MAX
    samples: int = _DEFAULT_SAMPLES
    sweep_key: str | None = None           # "K" or "N"
    sweep_values: tuple = ()
    initial_state: tuple | None = None     # complex amplitudes
    rotation: dict | None = None
    output: str | None = None
    defaults_used: tuple[str, ...] = ()


@dataclass(frozen=True)
class ResultSeries:
    """Rectangular result table plus a metadata block."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValidationError("result rows are not rectangular")
            for v in r:
                if isinstance(v, (int, float)) and not math.isfinite(float(v)):
                    raise ValidationError("result table contains non-finite values")

    def column(self, name: str) -> np.ndarray:
        try:
            k = self.columns.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None
        return np.array([r[k] for r in self.rows])


# ---------------------------------------------------------------------------
# parsing


def _err(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def _need_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise _err(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


# PyYAML resolves floats by the YAML 1.1 rule, which requires a dot and a
# signed exponent, so plain spellings such as 1e3 or -1e-2 arrive as strings.
_FLOAT_TEXT = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _need_number(obj, path: str) -> float:
    if isinstance(obj, str) and _FLOAT_TEXT.fullmatch(obj):
        obj = float(obj)
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _err(path, f"expected a number, got {obj!r}")
    v = float(obj)
    if not math.isfinite(v):
        raise _err(path, "must be finite")
    return v


def _need_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _err(path, f"expected an integer, got {obj!r}")
    return obj


def parse_scenario(data, base_dir: str | Path = ".") -> Scenario:
    """Parse and validate scenario text (str or bytes).

    Relative file references resolve against ``base_dir``.  Every
    malformed field raises a :class:`ValidationError` naming the field
    (or the line, for YAML syntax errors); nothing is silently defaulted
    except the documented time grid, which is echoed in the metadata.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = yaml.safe_load(data)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "document"
        raise ValidationError(f"scenario {where}: invalid YAML ({exc})") from None
    doc = _need_map(doc, "scenario")

    known = {"task", "model", "time", "sweep", "initial_state", "rotation", "output"}
    for key in doc:
        if key not in known:
            raise _err(str(key), "unknown scenario field")

    if "task" not in doc:
        raise _err("task", "missing required field")
    task = doc["task"]
    if task not in TASKS:
        raise _err("task", f"unknown task {task!r}; expected one of {', '.join(TASKS)}")

    model = _need_map(doc.get("model"), "model") if "model" in doc else None
    if model is None:
        raise _err("model", "missing required field")
    kind = model.get("kind")
    if kind not in MODEL_KINDS:
        raise _err("model.kind",
                   f"unknown model {kind!r}; expected one of {', '.join(MODEL_KINDS)}")

    hmeas_file = h_file = None
    matrix_coupling = 1.0
    params: dict = {}
    if kind == "matrix":
        for key in model:
            if key not in ("kind", "hmeas_file", "h_file", "K"):
                raise _err(f"model.{key}", "unknown field for a matrix model")
        if "hmeas_file" not in model:
            raise _err("model.hmeas_file", "missing required field")
        hmeas_file = str(Path(base_dir) / str(model["hmeas_file"]))
        if "h_file" in model:
            h_file = str(Path(base_dir) / str(model["h_file"]))
        if "K" in model:
            matrix_coupling = _need_number(model["K"], "model.K")
            if matrix_coupling < 0:
                raise _err("model.K", "must be >= 0")
    else:
        for key in model:
            if key not in ("kind", "params"):
                raise _err(f"model.{key}", "unknown field")
        raw = _need_map(model.get("params", {}), "model.params")
        allowed = _MODEL_PARAMS[kind]
        for key in raw:
            if key not in allowed:
                raise _err(f"model.params.{key}", f"unknown parameter for {kind}")
        for key, required in allowed.items():
            if required and key not in raw:
                raise _err(f"model.params.{key}", "missing required parameter")
        for key, value in raw.items():
            if key == "regime":
                if value not in ("inner", "outer"):
                    raise _err("model.params.regime", "must be 'inner' or 'outer'")
                params[key] = value
            elif key == "n_max":
                n = _need_int(value, "model.params.n_max")
                if n < 2:
                    raise _err("model.params.n_max", "must be >= 2")
                params[key] = n
            else:
                v = _need_number(value, f"model.params.{key}")
                if key in ("K", "Kp", "omega", "g", "kappa") and v < 0:
                    raise _err(f"model.params.{key}", "must be >= 0")
                if key in ("tau_z", "gamma") and v <= 0:
                    raise _err(f"model.params.{key}", "must be > 0")
                params[key] = v

    defaults_used = []
    t_max, samples = _DEFAULT_T_MAX, _DEFAULT_SAMPLES
    if "time" in doc:
        tsec = _need_map(doc["time"], "time")
        for key in tsec:
            if key not in ("t_max", "samples"):
                raise _err(f"time.{key}", "unknown field")
        if "t_max" in tsec:
            t_max = _need_number(tsec["t_max"], "time.t_max")
            if t_max <= 0:
                raise _err("time.t_max", "must be > 0")
        else:
            defaults_used.append("time.t_max")
        if "samples" in tsec:
            samples = _need_int(tsec["samples"], "time.samples")
            if samples < 2:
                raise _err("time.samples", "must be >= 2")
        else:
            defaults_used.append("time.samples")
    else:
        defaults_used += ["time.t_max", "time.samples"]

    sweep_key, sweep_values = None, ()
    if "sweep" in doc:
        sw = _need_map(doc["sweep"], "sweep")
        keys = sorted(sw)
        if keys not in (["K"], ["N"]):
            raise _err("sweep", "must contain exactly one grid, K or N")
        sweep_key = keys[0]
        grid = sw[sweep_key]
        if not isinstance(grid, list) or not grid:
            raise _err(f"sweep.{sweep_key}", "must be a non-empty list")
        vals = []
        for i, v in enumerate(grid):
            path = f"sweep.{sweep_key}[{i}]"
            if sweep_key == "N":
                n = _need_int(v, path)
                if n < 1:
                    raise _err(path, "must be >= 1")
                vals.append(n)
            else:
                x = _need_number(v, path)
                if x < 0:
                    raise _err(path, "must be >= 0")
                vals.append(x)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise _err(f"sweep.{sweep_key}", "grid must be strictly increasing")
        sweep_values = tuple(vals)

    initial_state = None
    if "initial_state" in doc:
        raw = doc["initial_state"]
        if not isinstance(raw, list) or not raw:
            raise _err("initial_state", "must be a non-empty list of amplitudes")
        amps = []
        for i, entry in enumerate(raw):
            path = f"initial_state[{i}]"
            if isinstance(entry, list):
                if len(entry) != 2:
                    raise _err(path, "expected [re, im]")
                amps.append(complex(_need_number(entry[0], path),
                                    _need_number(entry[1], path)))
            else:
                amps.append(complex(_need_number(entry, path)))
        if not any(abs(a) > 0 for a in amps):
            raise _err("initial_state", "must not be the zero vector")
        initial_state = tuple(amps)

    rotation = None
    if "rotation" in doc:
        rot = _need_map(doc["rotation"], "rotation")
        for key in rot:
            if key not in ("kind", "levels", "rate"):
                raise _err(f"rotation.{key}", "unknown field")
        rkind = rot.get("kind", "phase")
        if rkind not in ("phase", "plane"):
            raise _err("rotation.kind", "must be 'phase' or 'plane'")
        levels = rot.get("levels")
        if (not isinstance(levels, list) or len(levels) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in levels)
                or levels[0] == levels[1]):
            raise _err("rotation.levels", "expected two distinct 1-based level indices")
        rate = _need_number(rot.get("rate", 0.0), "rotation.rate")
        rotation = {"kind": rkind, "levels": tuple(levels), "rate": rate}

    output = None
    if "output" in doc:
        if not isinstance(doc["output"], str) or not doc["output"]:
            raise _err("output", "must be a non-empty path string")
        output = doc["output"]

    # task/parameter compatibility
    if task in ("sweep-K", "intertwine") and sweep_key != "K":
        raise _err("sweep.K", f"task {task!r} requires a K grid")
    if task in ("sweep-N", "nonselective") and sweep_key != "N":
        raise _err("sweep.N", f"task {task!r} requires an N grid")
    if task == "limit-compare" and sweep_key is None:
        raise _err("sweep", "task 'limit-compare' requires a K or N grid")
    if task == "intertwine":
        if rotation is None:
            raise _err("rotation", "task 'intertwine' requires a rotation section")
        if kind in ("cavity", "decay"):
            raise _err("model.kind", "task 'intertwine' requires Hermitian models")
    if task == "dfs" and kind not in ("cavity", "matrix"):
        raise _err("model.kind", "task 'dfs' requires the cavity model or a matrix file")

    return Scenario(task=task, model_kind=kind, model_params=params,
                    hmeas_file=hmeas_file, h_file=h_file,
                    matrix_coupling=matrix_coupling,
                    t_max=t_max, samples=samples,
                    sweep_key=sweep_key, sweep_values=sweep_values,
                    initial_state=initial_state, rotation=rotation,
                    output=output, defaults_used=tuple(defaults_used))


def load_scenario(path) -> Scenario:
    """Parse a scenario file; relative references resolve next to it."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario(data, base_dir=p.parent)


# ---------------------------------------------------------------------------
# running


def _build_hk(s: Scenario) -> CoupledHamiltonian:
    if s.model_kind == "three_level":
        return three_level(s.model_params["omega"], s.model_params["K"])
    if s.model_kind == "four_level":
        m = four_level(s.model_params["omega"], s.model_params["K"],
                       s.model_params["Kp"])
        regime = s.model_params.get("regime", "inner")
        return m.inner_regime() if regime == "inner" else m.outer_regime()
    if s.model_kind == "cavity":
        return cavity(s.model_params["g"], s.model_params["kappa"],
                      s.model_params.get("n_max", 2)).hk
    if s.model_kind == "decay":
        return decay_model(s.model_params["tau_z"], s.model_params["gamma"],
                           s.model_params["K"])
    hm = load_matrix(s.hmeas_file)
    if s.h_file is not None:
        h = load_matrix(s.h_file)
    else:
        from .operators import Operator
        h = Operator(np.zeros((hm.dim, hm.dim), dtype=complex), hermitian=True)
    return CoupledHamiltonian(h, hm, s.matrix_coupling)


def _initial_vector(s: Scenario, dim: int, uniform: bool = False) -> np.ndarray:
    if s.initial_state is not None:
        v = np.array(s.initial_state, dtype=complex)
        if v.size != dim:
            raise ValidationError(
                f"initial_state: has {v.size} amplitudes, model dimension is {dim}")
    elif uniform:
        v = np.ones(dim, dtype=complex)
    else:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
    return v / np.linalg.norm(v)


def _base_metadata(s: Scenario, cluster_tol) -> dict:
    md = {
        "zenosim": __version__,
        "task": s.task,
        "model": s.model_kind,
    }
    for k, v in sorted(s.model_params.items()):
        md[f"param.{k}"] = v
    if s.hmeas_file:
        md["param.hmeas_file"] = s.hmeas_file
    if s.h_file:
        md["param.h_file"] = s.h_file
    if s.model_kind == "matrix":
        md["param.K"] = s.matrix_coupling
    md["time.t_max"] = s.t_max
    md["time.samples"] = s.samples
    if s.sweep_key:
        md[f"sweep.{s.sweep_key}"] = " ".join(
            str(v) for v in s.sweep_values)
    if cluster_tol is not None:
        md["cluster_tol"] = cluster_tol
    if s.defaults_used:
        md["defaults"] = " ".join(s.defaults_used)
    return md


def run(s: Scenario, cluster_tol: float | None = None) -> ResultSeries:
    """Execute a scenario and return its result table.

    Deterministic for a fixed scenario: grid order fixes row order, and no
    randomness enters anywhere.
    """
    md = _base_metadata(s, cluster_tol)
    hk = _build_hk(s)
    ts = np.linspace(0.0, s.t_max, s.samples)

    if s.task == "survival":
        v0 = _initial_vector(s, hk.dim)
        rho0 = DensityMatrix.pure(v0)
        proj = projector_from_columns(v0.reshape(-1, 1))
        columns = ("t", "p0")
        series = [ts.tolist(), _survival_grid(hk.total(), ts, rho0, proj)]
        if s.model_kind == "three_level" and s.initial_state is None:
            columns += ("p0_analytic",)
            series.append(three_level_survival(s.model_params["omega"],
                                               s.model_params["K"], ts).tolist())
        return ResultSeries(columns, tuple(zip(*series)), md)

    if s.task == "sectors":
        dec = zeno_sectors(hk, cluster_tol=cluster_tol)
        rows = tuple(
            (n, s_.eigenvalue.real, s_.eigenvalue.imag, s_.multiplicity, s_.condition)
            for n, s_ in enumerate(dec))
        md["complete"] = int(dec.complete)
        return ResultSeries(("sector", "eta_re", "eta_im", "rank", "condition"),
                            rows, md)

    if s.task in ("sweep-K", "limit-compare") and s.sweep_key == "K":
        sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
        rows = []
        for k in s.sweep_values:
            d = nonadiabatic_defect(hk.with_coupling(k), s.t_max, sectors=sectors)
            rows.append((float(k), d))
        ks = [r[0] for r in rows]
        ds = [r[1] for r in rows]
        if len(rows) >= 2 and all(d > 0 for d in ds):
            md["slope"] = loglog_slope(ks, ds)
        return ResultSeries(("K", "defect"), tuple(rows), md)

    if s.task in ("sweep-N", "limit-compare"):
        sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
        v0 = _initial_vector(s, hk.dim)
        proj = _sector_projector(sectors, v0)
        h = hk.total()
        lim = pulsed_limit(h, proj, s.t_max).matrix
        rows = []
        for n in s.sweep_values:
            err = snorm(pulsed_propagator(h, proj, int(n), s.t_max).matrix - lim)
            rows.append((int(n), err))
        ns = [r[0] for r in rows]
        es = [r[1] for r in rows]
        if len(rows) >= 2 and all(e > 0 for e in es):
            md["slope"] = loglog_slope(ns, es)
        return ResultSeries(("N", "error"), tuple(rows), md)

    if s.task == "nonselective":
        sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
        v0 = _initial_vector(s, hk.dim, uniform=True)
        rho0 = DensityMatrix.pure(v0)
        h = hk.total()
        rows = []
        for n in s.sweep_values:
            rho = nonselective_evolve(h, sectors, int(n), s.t_max, rho0,
                                      project_final=False)
            rows.append((int(n), offblock_norm(rho, sectors), rho.trace))
        ns = [r[0] for r in rows]
        obs = [r[1] for r in rows]
        if len(rows) >= 2 and all(o > 0 for o in obs):
            md["slope"] = loglog_slope(ns, obs)
        return ResultSeries(("N", "offblock_norm", "trace"), tuple(rows), md)

    if s.task == "dfs":
        dec = dfs_extract(hk, cluster_tol=cluster_tol)
        md["dfs_dimension"] = dec.total_rank()
        rows = []
        for n, sec in enumerate(dec):
            basis = sec.projector.basis
            for j in range(basis.shape[1]):
                for comp in range(dec.dim):
                    amp = basis[comp, j]
                    rows.append((n, sec.eigenvalue.real, sec.eigenvalue.imag,
                                 j, comp, amp.real, amp.imag))
        return ResultSeries(
            ("sector", "eta_re", "eta_im", "vector", "component", "re", "im"),
            tuple(rows), md)

    if s.task == "intertwine":
        rot = s.rotation
        gen = rotation_generator(hk.dim, rot["levels"][0], rot["levels"][1],
                                 rot["kind"])
        bundle = rotating_bundle(hk.h.matrix, hk.h_meas, gen, rot["rate"],
                                 hk.coupling)
        reports = intertwining_defect(bundle, s.t_max, list(s.sweep_values))
        rows = tuple((float(r.coupling), r.max_defect, r.max_drift)
                     for r in reports)
        return ResultSeries(("K", "defect", "drift"), rows, md)

    raise ValidationError(f"task {s.task!r} is not runnable")  # unreachable


def _sector_projector(sectors, v0: np.ndarray):
    """Projector of the sector with the largest overlap with ``v0``."""
    best = max(sectors, key=lambda s_: float(
        np.vdot(v0, s_.projector.matrix @ v0).real))
    return best.projector


# ---------------------------------------------------------------------------
# CSV export


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return format(float(v), ".17g")


def export_csv(series: ResultSeries, path, reproducible: bool = False) -> None:
    """Write the series as CSV with '#'-prefixed metadata lines.

    Floats carry 17 significant digits, so re-parsing reproduces them
    bit-exactly.  A timestamp line is included unless ``reproducible``.
    """
    lines = []
    for k, v in series.metadata.items():
        lines.append(f"# {k}: {v if isinstance(v, str) else _format_value(v)}")
    if not reproducible:
        lines.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.append(",".join(series.columns))
    for row in series.rows:
        lines.append(",".join(_format_value(v) for v in row))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def read_result_csv(path) -> ResultSeries:
    """Re-parse a CSV produced by :func:`export_csv` (bit-exact floats)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    metadata: dict = {}
    body = []
    for ln in lines:
        if ln.startswith("#"):
            key, _, value = ln[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif ln:
            body.append(ln)
    if not body:
        raise ValidationError(f"{path}: no header row")
    columns = tuple(body[0].split(","))
    rows = []
    for ln in body[1:]:
        cells = ln.split(",")
        parsed = []
        for c in cells:
            try:
                parsed.append(int(c))
            except ValueError:
                parsed.append(float(c))
        rows.append(tuple(parsed))
    return ResultSeries(columns, tuple(rows), metadata)
