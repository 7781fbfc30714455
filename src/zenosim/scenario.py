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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__
from .adiabatic import intertwining_defect, rotating_bundle
from .continuous import (
    CoupledHamiltonian,
    _defect_sweep,
    zeno_sectors,
)
from .errors import NumericalError, ValidationError
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
    _cluster_tol,
    load_matrix,
    projector_from_columns,
)
from .pulsed import (
    _nonselective_grid,
    _pulsed_errors,
    _survival_grid,
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


def _column_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only ``int64`` (integer input) or ``float64`` copy."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"result column {name!r} is neither integer nor float")
    a = a.astype(np.int64 if a.dtype.kind in "iu" else np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)     # arrays have no truth value to compare by
class ResultSeries:
    """Rectangular result table plus a metadata block.

    The table is held by column: ``values[k]`` is the read-only 1-D array
    of ``columns[k]``, ``int64`` for integer input (index columns such as
    ``sector`` or ``N``) and ``float64`` otherwise.  Construction checks
    the table once per column: equal lengths, then finite floats.
    """

    columns: tuple[str, ...]
    values: tuple[np.ndarray, ...]
    metadata: dict

    def __post_init__(self):
        if len(self.values) != len(self.columns):
            raise ValidationError("result rows are not rectangular")
        values = tuple(_column_array(v, c) for v, c in zip(self.values, self.columns))
        if len({v.size for v in values}) > 1 or any(v.ndim != 1 for v in values):
            raise ValidationError("result rows are not rectangular")
        if not all(np.isfinite(v).all() for v in values if v.dtype.kind == "f"):
            raise NumericalError("result table contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table as row tuples of Python numbers, derived from the columns."""
        return tuple(zip(*(v.tolist() for v in self.values)))

    def column(self, name: str) -> np.ndarray:
        try:
            k = self.columns.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None
        return self.values[k]


# ---------------------------------------------------------------------------
# parsing


def _err(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def _need_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise _err(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _fields(obj, path: str, table: dict, required=(), what: str = "field",
            prefix: str | None = None) -> dict:
    """Validated values of the mapping ``obj`` found at ``path``, in table
    order.

    ``table`` maps every accepted key to its validator ``(value, path) ->
    value``; other keys and absent ``required`` ones are rejected.  The
    path of a field is ``prefix + key``, by default ``path + "." + key``.
    """
    _need_map(obj, path)
    prefix = f"{path}." if prefix is None else prefix
    for key in obj:
        if key not in table:
            raise _err(f"{prefix}{key}", f"unknown {what}")
    for key in required:
        if key not in obj:
            raise _err(f"{prefix}{key}", f"missing {what}")
    return {key: check(obj[key], f"{prefix}{key}")
            for key, check in table.items() if key in obj}


def _keep(obj, path: str):
    return obj


# PyYAML resolves floats by the YAML 1.1 rule, which requires a dot and a
# signed exponent, so plain spellings such as 1e3 or -1e-2 arrive as strings.
_FLOAT_TEXT = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _need_number(obj, path: str) -> float:
    if isinstance(obj, str) and _FLOAT_TEXT.fullmatch(obj):
        obj = float(obj)
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _err(path, f"expected a number, got {obj!r}")
    try:
        v = float(obj)
    except OverflowError:       # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise _err(path, "must be finite")
    return v


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


def _int_at_least(low: int):
    def check(obj, path: str) -> int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise _err(path, f"expected an integer, got {obj!r}")
        if obj < low:
            raise _err(path, f"must be >= {low}")
        return obj
    return check


def _one_of(*choices: str):
    def check(obj, path: str) -> str:
        if obj not in choices:
            raise _err(path, f"expected one of {', '.join(choices)}, got {obj!r}")
        return obj
    return check


def _path_string(obj, path: str) -> str:
    if not isinstance(obj, str) or not obj:
        raise _err(path, "must be a non-empty path string")
    return obj


def _grid(item):
    """Validator of a non-empty, strictly increasing list of ``item`` values."""
    def check(obj, path: str) -> tuple:
        if not isinstance(obj, list) or not obj:
            raise _err(path, "must be a non-empty list")
        values = [item(v, f"{path}[{i}]") for i, v in enumerate(obj)]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise _err(path, "grid must be strictly increasing")
        return tuple(values)
    return check


_GRIDS = {"K": _grid(_nonnegative), "N": _grid(_int_at_least(1))}


def _sweep(obj, path: str) -> tuple:
    """``(key, values)`` of a sweep section, which holds exactly one grid."""
    if isinstance(obj, dict) and list(obj) not in (["K"], ["N"]):
        raise _err(path, "must contain exactly one grid, K or N")
    [(key, values)] = _fields(obj, path, _GRIDS).items()
    return key, values


def _initial_state(obj, path: str) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise _err(path, "must be a non-empty list of amplitudes")
    amps = []
    for i, entry in enumerate(obj):
        where = f"{path}[{i}]"
        if isinstance(entry, list):
            if len(entry) != 2:
                raise _err(where, "expected [re, im]")
            amps.append(complex(_need_number(entry[0], where),
                                _need_number(entry[1], where)))
        else:
            amps.append(complex(_need_number(entry, where)))
    if not any(abs(a) > 0 for a in amps):
        raise _err(path, "must not be the zero vector")
    return tuple(amps)


def _levels(obj, path: str) -> tuple:
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in obj)
            or obj[0] == obj[1]):
        raise _err(path, "expected two distinct 1-based level indices")
    return tuple(obj)


_TIME = {"t_max": _positive, "samples": _int_at_least(2)}
_ROTATION = {"kind": _one_of("phase", "plane"), "levels": _levels, "rate": _need_number}


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

    @property
    def fields(self) -> dict:
        return {**self.required, **self.optional}


# The model registry of scenario files and ``zeno sectors``.  CSV metadata
# echoes the parameters in table order, required ones first.
_MODELS = {
    "three_level": _Model({"K": _nonnegative, "omega": _nonnegative}, {},
                          lambda K, omega: three_level(omega, K)),
    "four_level": _Model({"K": _nonnegative, "Kp": _nonnegative, "omega": _nonnegative},
                         {"regime": _one_of("inner", "outer")}, _four_level),
    "cavity": _Model({"g": _nonnegative, "kappa": _nonnegative}, {"n_max": _int_at_least(2)},
                     lambda g, kappa, n_max=2: cavity(g, kappa, n_max).hk),
    "decay": _Model({"K": _nonnegative, "gamma": _positive, "tau_z": _positive}, {},
                    lambda K, gamma, tau_z: decay_model(tau_z, gamma, K)),
    "matrix": _Model({"hmeas_file": _path_string}, {"h_file": _path_string, "K": _nonnegative},
                     _matrix_model),
}
MODEL_KINDS = tuple(_MODELS)


def _model(obj, path: str, base_dir) -> tuple[str, dict]:
    """``(kind, parameters)`` of a model section.  A ``matrix`` model gives
    its parameters in the section itself, and its file paths resolve
    against ``base_dir``."""
    kind = _one_of(*MODEL_KINDS)(_need_map(obj, path).get("kind"), f"{path}.kind")
    model = _MODELS[kind]
    what = f"parameter for {kind}"
    if kind != "matrix":
        section = _fields(obj, path, {"kind": _keep, "params": _keep})
        return kind, _fields(section.get("params", {}), f"{path}.params",
                             model.fields, model.required, what)
    params = _fields(obj, path, {"kind": _keep, **model.fields}, model.required, what)
    del params["kind"]
    params.update({key: str(Path(base_dir) / params[key])
                   for key in ("hmeas_file", "h_file") if key in params})
    params.setdefault("K", 1.0)
    return kind, params


# The YAML 1.1 int and float patterns of PyYAML without their base-60
# spellings, which would read 1:30 as 90: such a value stays a string,
# which every number field refuses.
_NUMBER_PATTERNS = {
    "tag:yaml.org,2002:int": re.compile(r"""^(?:[-+]?0b[0-1_]+
        |[-+]?0[0-7_]+
        |[-+]?(?:0|[1-9][0-9_]*)
        |[-+]?0x[0-9a-fA-F_]+)$""", re.X),
    "tag:yaml.org,2002:float": re.compile(r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
        |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
        |[-+]?\.(?:inf|Inf|INF)
        |\.(?:nan|NaN|NAN))$""", re.X),
}
_RESOLVERS = {first: [(tag, _NUMBER_PATTERNS.get(tag, pattern)) for tag, pattern in rules]
              for first, rules in yaml.SafeLoader.yaml_implicit_resolvers.items()}
_YAML_LOADER = type("_YamlLoader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),),
                    {"yaml_implicit_resolvers": _RESOLVERS})
_PURE_YAML_LOADER = type("_PureYamlLoader", (yaml.SafeLoader,),
                         {"yaml_implicit_resolvers": _RESOLVERS})


def _yaml_load(text: str):
    """``yaml.safe_load(text)`` without base-60 numbers, parsed by libyaml
    when PyYAML has it.  A document libyaml refuses (a ``YAMLError``, or a
    ``ValueError`` such as its ``UnicodeEncodeError`` on a lone surrogate)
    is parsed again by the pure-Python loader with the same resolvers, so
    every error, with its message and line number, is that loader's."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError):
        try:
            return yaml.load(text, Loader=_PURE_YAML_LOADER)
        except ValueError as exc:       # a value its tag cannot build, as the date 2001-13-45
            raise yaml.YAMLError(f"unreadable value: {exc}") from None


def parse_scenario(data, base_dir: str | Path = ".") -> Scenario:
    """Parse and validate scenario text (str or bytes).

    Relative file references resolve against ``base_dir``.  Every
    malformed field raises a :class:`ValidationError` naming the field
    (or the line, for YAML syntax errors); nothing is silently defaulted
    except the documented time grid, which is echoed in the metadata.
    """
    try:
        doc = _yaml_load(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"scenario: not UTF-8 text ({exc})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "document"
        raise ValidationError(f"scenario {where}: invalid YAML ({exc})") from None

    doc = _fields(doc, "scenario", {
        "task": _one_of(*TASKS),
        "model": lambda obj, path: _model(obj, path, base_dir),
        "time": partial(_fields, table=_TIME),
        "sweep": _sweep,
        "initial_state": _initial_state,
        "rotation": partial(_fields, table=_ROTATION, required=("levels",)),
        "output": _path_string,
    }, required=("task", "model"), prefix="")
    task = doc["task"]
    kind, params = doc["model"]
    sweep_key, sweep_values = doc.get("sweep", (None, ()))
    rotation = {"kind": "phase", "rate": 0.0, **doc["rotation"]} if "rotation" in doc else None
    times = doc.get("time", {})

    rule = _TASKS[task]
    if rule.grids and sweep_key not in rule.grids:
        raise _err("sweep" if len(rule.grids) > 1 else f"sweep.{rule.grids[0]}",
                   f"task {task!r} requires a sweep over {' or '.join(rule.grids)}")
    if rule.rotation and rotation is None:
        raise _err("rotation", f"task {task!r} requires a rotation section")
    if kind not in rule.models:
        raise _err("model.kind", f"task {task!r} requires a model of kind "
                   f"{' or '.join(rule.models)}")

    return Scenario(task=task, model_kind=kind, model_params=params,
                    t_max=times.get("t_max", _DEFAULT_T_MAX),
                    samples=times.get("samples", _DEFAULT_SAMPLES),
                    sweep_key=sweep_key, sweep_values=sweep_values,
                    initial_state=doc.get("initial_state"), rotation=rotation,
                    output=doc.get("output"),
                    defaults_used=tuple(f"time.{name}" for name in _TIME if name not in times))


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
    if cluster_tol is not None:
        _cluster_tol(None, cluster_tol)     # the operator only supplies the default
    hk = _MODELS[s.model_kind].build(**s.model_params)
    return _TASKS[s.task].runner(s, hk, cluster_tol, md)


def _with_slope(columns, values, md) -> ResultSeries:
    """The table, with the log-log slope of its second column against its
    first in ``md`` when there are two or more rows, all positive."""
    xs, ys = values[0], values[1]
    if len(xs) >= 2 and all(v > 0 for v in [*xs, *ys]):
        md["slope"] = loglog_slope(xs, ys)
    return ResultSeries(columns, values, md)


def _survival(s, hk, cluster_tol, md) -> ResultSeries:
    ts = np.linspace(0.0, s.t_max, s.samples)
    v0 = _initial_vector(s, hk.dim)
    rho0 = DensityMatrix.pure(v0)
    proj = projector_from_columns(v0)
    columns = ("t", "p0")
    values = [ts, _survival_grid(hk.total(), ts, rho0, proj)]
    if s.model_kind == "three_level" and s.initial_state is None:
        columns += ("p0_analytic",)
        values.append(three_level_survival(s.model_params["omega"],
                                           s.model_params["K"], ts))
    return ResultSeries(columns, tuple(values), md)


def _certified(dec):
    """``dec``, refused when it dropped clusters that are not certified
    eigenspaces (ill-conditioned spectral projector or eigenvector basis)."""
    if dec.dropped:
        raise NumericalError("cluster(s) not certified as eigenspaces: " + ", ".join(
            f"eta = {eta:.6g} (condition {condition:.3g})" for eta, condition in dec.dropped))
    return dec


def _sectors(s, hk, cluster_tol, md) -> ResultSeries:
    dec = _certified(zeno_sectors(hk, cluster_tol=cluster_tol))
    etas = dec.eigenvalues.astype(complex)
    md["complete"] = int(dec.complete)
    return ResultSeries(
        ("sector", "eta_re", "eta_im", "rank", "condition"),
        (np.arange(len(dec)), etas.real, etas.imag,
         np.array([s_.multiplicity for s_ in dec], dtype=np.int64),
         [s_.condition for s_ in dec]), md)


def _sweep_k(s, hk, cluster_tol, md) -> ResultSeries:
    sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
    ks = [float(k) for k in s.sweep_values]
    return _with_slope(("K", "defect"), (ks, _defect_sweep(hk, s.t_max, ks, sectors)), md)


def _sweep_n(s, hk, cluster_tol, md) -> ResultSeries:
    sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
    if len(sectors) == 0:
        raise ValidationError("the coupling has no real eigenvalue: no sector to measure")
    v0 = _initial_vector(s, hk.dim)
    proj = max(sectors, key=lambda s_: np.linalg.norm(s_.projector.basis.conj().T @ v0)).projector
    ns = [int(n) for n in s.sweep_values]
    return _with_slope(("N", "error"), (ns, _pulsed_errors(hk.total(), proj, ns, s.t_max)), md)


def _limit_compare(s, hk, cluster_tol, md) -> ResultSeries:
    runner = _sweep_k if s.sweep_key == "K" else _sweep_n
    return runner(s, hk, cluster_tol, md)


def _nonselective(s, hk, cluster_tol, md) -> ResultSeries:
    sectors = zeno_sectors(hk, cluster_tol=cluster_tol)
    rho0 = DensityMatrix.pure(_initial_vector(s, hk.dim, uniform=True))
    ns = [int(n) for n in s.sweep_values]
    # W is unitary: offblock_norm(rho) is the norm of Y = W^dag rho W off its blocks
    owner = sectors._frame[2]
    offblock = owner[:, None] != owner
    norms, traces = [], []
    for y in _nonselective_grid(hk.total(), sectors, ns, s.t_max, rho0, project_final=False):
        norms.append(float(np.linalg.norm(y[offblock])))
        traces.append(float(y.trace().real))
    return _with_slope(("N", "offblock_norm", "trace"), (ns, norms, traces), md)


def _dfs(s, hk, cluster_tol, md) -> ResultSeries:
    dec = _certified(dfs_extract(hk, cluster_tol=cluster_tol))
    md["dfs_dimension"] = dec.total_rank()
    d = dec.dim
    w, _, owner = dec._frame
    cols = np.argsort(owner, kind="stable")             # the frame's vectors in sector order
    # one row per (vector, component): vector j is rows j*d ... j*d + d - 1
    owner, amps = owner[cols], w[:, cols].T.ravel()
    vector = np.arange(owner.size) - np.searchsorted(owner, owner)
    etas = dec.eigenvalues.astype(complex)[owner]
    return ResultSeries(
        ("sector", "eta_re", "eta_im", "vector", "component", "re", "im"),
        (np.repeat(owner, d), np.repeat(etas.real, d), np.repeat(etas.imag, d),
         np.repeat(vector, d), np.tile(np.arange(d), owner.size), amps.real, amps.imag),
        md)


def _intertwine(s, hk, cluster_tol, md) -> ResultSeries:
    rot = s.rotation
    gen = rotation_generator(hk.dim, rot["levels"][0], rot["levels"][1], rot["kind"])
    bundle = rotating_bundle(hk.h.matrix, hk.h_meas, gen, rot["rate"], hk.coupling)
    reports = intertwining_defect(bundle, s.t_max, list(s.sweep_values))
    return ResultSeries(("K", "defect", "drift"),
                        ([float(r.coupling) for r in reports], [r.max_defect for r in reports],
                         [r.max_drift for r in reports]), md)


class _Task(NamedTuple):
    runner: Callable[..., ResultSeries]   # (scenario, model, cluster_tol, metadata)
    grids: tuple[str, ...] = ()           # sweep grids the task accepts; () needs none
    rotation: bool = False                # needs a rotation section
    models: tuple[str, ...] = MODEL_KINDS  # model kinds the task accepts


_TASKS = {
    "survival": _Task(_survival),
    "sectors": _Task(_sectors),
    "limit-compare": _Task(_limit_compare, ("K", "N")),
    "nonselective": _Task(_nonselective, ("N",)),
    "sweep-K": _Task(_sweep_k, ("K",)),
    "sweep-N": _Task(_sweep_n, ("N",)),
    "dfs": _Task(_dfs, models=("cavity", "matrix")),
    # the rotating bundle needs Hermitian models
    "intertwine": _Task(_intertwine, ("K",), rotation=True,
                        models=("three_level", "four_level", "matrix")),
}
TASKS = tuple(_TASKS)


# ---------------------------------------------------------------------------
# CSV export


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return format(float(v), ".17g")


def _format_column(values: np.ndarray) -> list[str]:
    """``_format_value`` of every entry of an ``int64`` or ``float64`` column.

    Each distinct value is formatted once, keyed on the ``int64`` view (so
    ``-0.0`` and ``0.0`` stay apart): integers through ``str``, floats with
    17 significant digits.
    """
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = (list(map(str, keys.tolist())) if values.dtype.kind == "i"
             else [format(x, ".17g") for x in keys.view(np.float64).tolist()])
    return list(map(texts.__getitem__, inverse.tolist()))


def export_csv(series: ResultSeries, path, reproducible: bool = False) -> None:
    """Write the series as CSV with '#'-prefixed metadata lines.

    The table is formatted column by column: integers as decimal integers,
    floats with 17 significant digits (each distinct value formatted once),
    so re-parsing reproduces them bit-exactly; the rows are joined at the
    end.  A timestamp line is included unless ``reproducible``.
    """
    lines = []
    for k, v in series.metadata.items():
        lines.append(f"# {k}: {v if isinstance(v, str) else _format_value(v)}")
    if not reproducible:
        lines.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.append(",".join(series.columns))
    lines.extend(map(",".join, zip(*map(_format_column, series.values))))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _parse_column(cells) -> np.ndarray:
    """The column of CSV ``cells``: ``int64`` when every cell is an integer
    as ``str`` writes it (so ``-0`` stays the float ``-0.0``), else
    ``float64``.  A cell that is neither raises ``ValueError``."""
    try:
        ints = [int(c) for c in cells]
        if all(str(i) == c for i, c in zip(ints, cells)):
            return np.array(ints, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    return np.array([float(c) for c in cells], dtype=np.float64)


def read_result_csv(path) -> ResultSeries:
    """Re-parse a CSV produced by :func:`export_csv` (bit-exact floats).

    A ragged row or a cell that is not a number raises a
    :class:`ValidationError` naming the file and the line (and the column).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    metadata: dict = {}
    body = []                           # (line number, cells)
    for number, ln in enumerate(lines, 1):
        if ln.startswith("#"):
            key, _, value = ln[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif ln:
            body.append((number, ln.split(",")))
    if not body:
        raise ValidationError(f"{path}: no header row")
    columns = tuple(body[0][1])
    numbers, rows = zip(*body[1:]) if len(body) > 1 else ((), ())
    for number, r in zip(numbers, rows):
        if len(r) != len(columns):
            raise ValidationError(f"{path}: line {number}: result rows are not rectangular "
                                  f"({len(r)} cells, {len(columns)} columns)")
    values = []
    for name, cells in zip(columns, zip(*rows) if rows else [()] * len(columns)):
        try:
            values.append(_parse_column(cells))
        except ValueError:
            row = next(i for i, c in enumerate(cells) if not _is_float(c))
            raise ValidationError(f"{path}: line {numbers[row]}, column {name!r}: "
                                  f"{cells[row]!r} is not a number") from None
    return ResultSeries(columns, tuple(values), metadata)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
