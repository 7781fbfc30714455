"""``zeno`` command line: run scenario files, inspect sector structure.

Exit codes: 0 success, 1 validation error (bad scenario, bad parameters),
2 numerical error (ambiguous spectrum, lost sector tracking, a failed
LAPACK routine, ...).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .continuous import zeno_sectors
from .errors import NumericalError, ValidationError
from .models import cavity, decay_model, four_level, three_level
from .operators import load_matrix
from .scenario import export_csv, load_scenario, run


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValidationError(f"--params: expected k=v, got {item!r}")
        value = value.strip()
        if key == "regime":
            out[key] = value
            continue
        try:
            out[key] = int(value) if key == "n_max" else float(value)
        except ValueError:
            raise ValidationError(f"--params: {key}: not a number: {value!r}") from None
    return out


_MODEL_ARGS = {
    "three_level": ({"omega", "K"}, set()),
    "four_level": ({"omega", "K", "Kp"}, {"regime"}),
    "cavity": ({"g", "kappa"}, {"n_max"}),
    "decay": ({"tau_z", "gamma", "K"}, set()),
}


def _build_named_model(name: str, params: dict):
    if name not in _MODEL_ARGS:
        raise ValidationError(f"--model: unknown model {name!r}")
    required, optional = _MODEL_ARGS[name]
    unknown = sorted(set(params) - required - optional)
    if unknown:
        raise ValidationError(f"--params: unknown parameter(s): {', '.join(unknown)}")
    missing = sorted(required - set(params))
    if missing:
        raise ValidationError(f"--params: missing parameter {missing[0]!r}")
    if name == "three_level":
        return three_level(params["omega"], params["K"])
    if name == "four_level":
        m = four_level(params["omega"], params["K"], params["Kp"])
        regime = params.get("regime", "inner")
        if regime not in ("inner", "outer"):
            raise ValidationError("--params: regime must be 'inner' or 'outer'")
        return m.inner_regime() if regime == "inner" else m.outer_regime()
    if name == "cavity":
        return cavity(params["g"], params["kappa"], int(params.get("n_max", 2))).hk
    return decay_model(params["tau_z"], params["gamma"], params["K"])


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    series = run(scenario, cluster_tol=args.tol)
    out = args.out or scenario.output
    if out is None:
        raise ValidationError("no output path: set 'output' in the scenario or pass --out")
    export_csv(series, out, reproducible=args.reproducible)
    slope = series.metadata.get("slope")
    extra = f", slope {slope:.4f}" if isinstance(slope, float) else ""
    print(f"{scenario.task}: {len(series.rows)} rows -> {out}{extra}")
    return 0


def _cmd_sectors(args) -> int:
    if (args.model is None) == (args.matrix_file is None):
        raise ValidationError("pass exactly one of --model or --matrix-file")
    if args.model is not None:
        hk = _build_named_model(args.model, _parse_params(args.params or ""))
        dec = zeno_sectors(hk, cluster_tol=args.tol)
    else:
        from .continuous import CoupledHamiltonian
        from .operators import Operator

        hm = load_matrix(args.matrix_file)
        zero = Operator(np.zeros((hm.dim, hm.dim), dtype=complex), hermitian=True)
        dec = zeno_sectors(CoupledHamiltonian(zero, hm, 1.0), cluster_tol=args.tol)
    print(f"{len(dec)} sector(s), dimension {dec.dim}, "
          f"{'complete' if dec.complete else 'incomplete (real eigenvalues only)'}")
    print(f"{'sector':>6} {'eta_re':>24} {'eta_im':>24} {'rank':>5} {'condition':>10}")
    for n, s in enumerate(dec):
        print(f"{n:>6} {s.eigenvalue.real:>24.16g} {s.eigenvalue.imag:>24.16g} "
              f"{s.multiplicity:>5} {s.condition:>10.3g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeno",
        description="Run measurement-freezing experiments from scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and export CSV")
    p_run.add_argument("scenario", help="path to a YAML scenario file")
    p_run.add_argument("--out", help="output CSV path (overrides the scenario)")
    p_run.add_argument("--reproducible", action="store_true",
                       help="suppress the timestamp metadata line")
    p_run.add_argument("--tol", type=float, default=None,
                       help="eigenvalue clustering tolerance override")
    p_run.set_defaults(func=_cmd_run)

    p_sec = sub.add_parser("sectors", help="print the sector decomposition of a model")
    p_sec.add_argument("--model", choices=("three_level", "four_level", "cavity", "decay"))
    p_sec.add_argument("--params", help="comma-separated k=v model parameters")
    p_sec.add_argument("--matrix-file", help="matrix literal file with the coupling")
    p_sec.add_argument("--tol", type=float, default=None,
                       help="eigenvalue clustering tolerance override")
    p_sec.set_defaults(func=_cmd_sectors)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
