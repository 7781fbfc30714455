"""``zeno`` command line: run scenario files, inspect sector structure.

Exit codes: 0 success, 1 validation error (bad scenario, bad parameters),
2 numerical error (ambiguous spectrum, lost sector tracking, a failed
LAPACK routine, ...).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
import yaml

from .continuous import zeno_sectors
from .errors import NumericalError, ValidationError
from .scenario import _MODELS, _model_params, export_csv, load_scenario, run


def _params(text: str) -> dict:
    """``k=v,...`` pairs, each value read as a YAML scalar as in ``model.params``."""
    out = {}
    for item in text.split(",") if text else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValidationError(f"--params: expected k=v, got {item!r}")
        try:
            out[key] = yaml.safe_load(value)
        except yaml.YAMLError:
            raise ValidationError(f"--params: {key}: unreadable value {value!r}") from None
    return out


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
        params = _model_params(args.model, _params(args.params), "--params: ")
        hk = _MODELS[args.model].build(**params)
    else:
        hk = _MODELS["matrix"].build(hmeas_file=args.matrix_file)
    dec = zeno_sectors(hk, cluster_tol=args.tol)
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
                       help="eigenvalue clustering tolerance override (finite, >= 0)")
    p_run.set_defaults(func=_cmd_run)

    p_sec = sub.add_parser("sectors", help="print the sector decomposition of a model")
    p_sec.add_argument("--model", choices=[k for k in _MODELS if k != "matrix"])
    p_sec.add_argument("--params", help="comma-separated k=v model parameters, "
                       "with the values and rules of a scenario's model.params")
    p_sec.add_argument("--matrix-file", help="matrix literal file with the coupling")
    p_sec.add_argument("--tol", type=float, default=None,
                       help="eigenvalue clustering tolerance override (finite, >= 0)")
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
