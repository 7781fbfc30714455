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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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
    Operator,
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

_DEFAULT_T_MAX = 10.0
_DEFAULT_SAMPLES = 1001


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: model + task + grids, ready to run."""

    task: str
    model_kind: str
    model_params: dict
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


def _nonnegative(obj, path: str) -> float:
    v = _need_number(obj, path)
    if v < 0:
        raise _err(path, "must be >= 0")
    return v


def _positive(obj, path: str) -> float:
    v = _need_number(obj, path)
    if v <= 0:
        raise _err(path, "must be > 0")
    return v


def _truncation(obj, path: str) -> int:
    n = _need_int(obj, path)
    if n < 2:
        raise _err(path, "must be >= 2")
    return n


def _regime(obj, path: str) -> str:
    if obj not in ("inner", "outer"):
        raise _err(path, "must be 'inner' or 'outer'")
    return obj


def _file(obj, path: str) -> str:
    return str(obj)


def _four_level(K, Kp, omega, regime="inner") -> CoupledHamiltonian:
    m = four_level(omega, K, Kp)
    return m.inner_regime() if regime == "inner" else m.outer_regime()


def _matrix_model(hmeas_file, h_file=None, K=1.0) -> CoupledHamiltonian:
    hm = load_matrix(hmeas_file)
    h = (load_matrix(h_file) if h_file is not None
         else Operator(np.zeros((hm.dim, hm.dim), dtype=complex), hermitian=True))
    return CoupledHamiltonian(h, hm, K)


class _Model(NamedTuple):
    required: dict                            # parameter -> validator(value, path)
    optional: dict
    build: Callable[..., CoupledHamiltonian]  # called with the parameters as keywords


# The model registry of scenario files and ``zeno sectors``.  CSV metadata
# echoes the parameters in table order, required ones first.
_MODELS = {
    "three_level": _Model({"K": _nonnegative, "omega": _nonnegative}, {},
                          lambda K, omega: three_level(omega, K)),
    "four_level": _Model({"K": _nonnegative, "Kp": _nonnegative, "omega": _nonnegative},
                         {"regime": _regime}, _four_level),
    "cavity": _Model({"g": _nonnegative, "kappa": _nonnegative}, {"n_max": _truncation},
                     lambda g, kappa, n_max=2: cavity(g, kappa, n_max).hk),
    "decay": _Model({"K": _nonnegative, "gamma": _positive, "tau_z": _positive}, {},
                    lambda K, gamma, tau_z: decay_model(tau_z, gamma, K)),
    "matrix": _Model({"hmeas_file": _file}, {"h_file": _file, "K": _nonnegative},
                     _matrix_model),
}
MODEL_KINDS = tuple(_MODELS)


def _model_params(kind: str, raw: dict, prefix: str) -> dict:
    """Validated parameters of a ``kind`` model, in table order; errors
    name the field ``prefix + key``."""
    model = _MODELS[kind]
    checks = {**model.required, **model.optional}
    for key in raw:
        if key not in checks:
            raise _err(f"{prefix}{key}", f"unknown parameter for {kind}")
    for key in model.required:
        if key not in raw:
            raise _err(f"{prefix}{key}", "missing parameter")
    return {key: check(raw[key], f"{prefix}{key}")
            for key, check in checks.items() if key in raw}


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

    if kind == "matrix":
        fields, prefix = {k: v for k, v in model.items() if k != "kind"}, "model."
    else:
        for key in model:
            if key not in ("kind", "params"):
                raise _err(f"model.{key}", "unknown field")
        fields, prefix = _need_map(model.get("params", {}), "model.params"), "model.params."
    params = _model_params(kind, fields, prefix)
    if kind == "matrix":
        for key in ("hmeas_file", "h_file"):
            if key in params:
                params[key] = str(Path(base_dir) / params[key])
        params.setdefault("K", 1.0)

    defaults_used = []
    t_max, samples = _DEFAULT_T_MAX, _DEFAULT_SAMPLES
    if "time" in doc:
        tsec = _need_map(doc["time"], "time")
        for key in tsec:
            if key not in ("t_max", "samples"):
                raise _err(f"time.{key}", "unknown field")
        if "t_max" in tsec:
            t_max = _positive(tsec["t_max"], "time.t_max")
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
                vals.append(_nonnegative(v, path))
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

    grids = _TASKS[task].grids
    if grids and sweep_key not in grids:
        raise _err("sweep" if len(grids) > 1 else f"sweep.{grids[0]}",
                   f"task {task!r} requires a sweep over {' or '.join(grids)}")
    if task == "intertwine":
        if rotation is None:
            raise _err("rotation", "task 'intertwine' requires a rotation section")
        if kind in ("cavity", "decay"):
            raise _err("model.kind", "task 'intertwine' requires Hermitian models")
    if task == "dfs" and kind not in ("cavity", "matrix"):
        raise _err("model.kind", "task 'dfs' requires the cavity model or a matrix file")

    return Scenario(task=task, model_kind=kind, model_params=params,
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
    for k, v in s.model_params.items():
        md[f"param.{k}"] = v
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
    hk = _MODELS[s.model_kind].build(**s.model_params)
    return _TASKS[s.task].runner(s, hk, cluster_tol, md)


def _with_slope(columns, rows, md) -> ResultSeries:
    """The table, with the log-log slope of its second column against its
    first in ``md`` when there are two or more rows, all positive."""
    xs = [r[0] for r in rows]
    ys = [r[1] for r in rows]
    if len(rows) >= 2 and all(y > 0 for y in ys):
        md["slope"] = loglog_slope(xs, ys)
    return ResultSeries(columns, tuple(rows), md)


def _survival(s, hk, cluster_tol, md) -> ResultSeries:
    ts = np.linspace(0.0, s.t_max, s.samples)
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


def _sectors(s, hk, cluster_tol, md) -> ResultSeries:
    dec = zeno_sectors(hk, cluster_tol=cluster_tol)
    rows = tuple(
        (n, s_.eigenvalue.real, s_.eigenvalue.imag, s_.multiplicity, s_.condition)
        for n, s_ in enumerate(dec))
    md["complete"] = int(dec.complete)
    return ResultSeries(("sector", "eta_re", "eta_im", "rank", "condition"), rows, md)


def _sweep_k(s, hk, cluster_tol, md) -> ResultSeries:
    sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
    rows = [(float(k), nonadiabatic_defect(hk.with_coupling(k), s.t_max, sectors=sectors))
            for k in s.sweep_values]
    return _with_slope(("K", "defect"), rows, md)


def _sweep_n(s, hk, cluster_tol, md) -> ResultSeries:
    sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
    v0 = _initial_vector(s, hk.dim)
    proj = _sector_projector(sectors, v0)
    h = hk.total()
    lim = pulsed_limit(h, proj, s.t_max).matrix
    rows = [(int(n), snorm(pulsed_propagator(h, proj, int(n), s.t_max).matrix - lim))
            for n in s.sweep_values]
    return _with_slope(("N", "error"), rows, md)


def _limit_compare(s, hk, cluster_tol, md) -> ResultSeries:
    runner = _sweep_k if s.sweep_key == "K" else _sweep_n
    return runner(s, hk, cluster_tol, md)


def _nonselective(s, hk, cluster_tol, md) -> ResultSeries:
    sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
    v0 = _initial_vector(s, hk.dim, uniform=True)
    rho0 = DensityMatrix.pure(v0)
    h = hk.total()
    rows = []
    for n in s.sweep_values:
        rho = nonselective_evolve(h, sectors, int(n), s.t_max, rho0, project_final=False)
        rows.append((int(n), offblock_norm(rho, sectors), rho.trace))
    return _with_slope(("N", "offblock_norm", "trace"), rows, md)


def _dfs(s, hk, cluster_tol, md) -> ResultSeries:
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


def _intertwine(s, hk, cluster_tol, md) -> ResultSeries:
    rot = s.rotation
    gen = rotation_generator(hk.dim, rot["levels"][0], rot["levels"][1], rot["kind"])
    bundle = rotating_bundle(hk.h.matrix, hk.h_meas, gen, rot["rate"], hk.coupling)
    reports = intertwining_defect(bundle, s.t_max, list(s.sweep_values))
    rows = tuple((float(r.coupling), r.max_defect, r.max_drift) for r in reports)
    return ResultSeries(("K", "defect", "drift"), rows, md)


class _Task(NamedTuple):
    runner: Callable[..., ResultSeries]   # (scenario, model, cluster_tol, metadata)
    grids: tuple[str, ...]                # sweep grids the task accepts; () needs none


_TASKS = {
    "survival": _Task(_survival, ()),
    "sectors": _Task(_sectors, ()),
    "limit-compare": _Task(_limit_compare, ("K", "N")),
    "nonselective": _Task(_nonselective, ("N",)),
    "sweep-K": _Task(_sweep_k, ("K",)),
    "sweep-N": _Task(_sweep_n, ("N",)),
    "dfs": _Task(_dfs, ()),
    "intertwine": _Task(_intertwine, ("K",)),
}
TASKS = tuple(_TASKS)


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
