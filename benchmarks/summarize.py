#!/usr/bin/env python3
"""Summarize the runs recorded in ``benchmarks/out/`` as one table.

Run from the repository root after some runs of ``benchmarks/run.py``:

    python3 benchmarks/summarize.py                       # markdown to stdout
    python3 benchmarks/summarize.py --save benchmarks/results/baseline

For each workload and metric the table gives the median over runs of the
runs' values, the quartiles, and the spread (interquartile distance over
the median, as the regression bounds in ``BENCHMARK.json`` use it).
``--save PREFIX`` also writes ``PREFIX.md`` and ``PREFIX.json``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def collect() -> dict:
    """(workload, trace) -> {"runs": [...], "metrics": {name: [values]}}"""
    groups = {}
    for path in sorted(OUT.glob("result-*.json")):
        record = json.loads(path.read_text())
        group = groups.setdefault(f"{record['workload']} trace {record['trace']}",
                                  {"runs": [], "metrics": {}})
        group["runs"].append({"seed": record["seed"], "seconds": record["seconds"],
                              "attempted": record["result"]["attempted"],
                              "failed": record["result"]["failed"],
                              "environment": record["environment"]})
        for name, s in record["stats"].items():
            group["metrics"].setdefault(name, []).append(s["median"])
    return groups


def spread(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n_runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def markdown(groups: dict) -> str:
    lines = ["# Benchmark runs", "",
             "Made by `python3 benchmarks/summarize.py` from the runs of `benchmarks/run.py` "
             "in `benchmarks/out/`; a metric's spread is (q3 - q1) / median over the runs.", ""]
    for key, group in groups.items():
        seeds = sorted(r["seed"] for r in group["runs"])
        failed = sum(r["failed"] for r in group["runs"])
        attempted = sum(r["attempted"] for r in group["runs"])
        env = dict(group["runs"][0]["environment"])
        env.pop("seed")
        lines += [f"## {key}", "",
                  f"{len(seeds)} runs, seeds {seeds}; {failed} of {attempted} scenario runs failed.",
                  "", f"Environment: `{json.dumps(env, sort_keys=True)}`",
                  "", "| metric | median | q1 | q3 | spread |", "| --- | --- | --- | --- | --- |"]
        for name, values in group["metrics"].items():
            s = spread(values)
            lines.append(f"| `{name}` | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                         f"| {s['spread']:.3f} |")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", help="write PREFIX.md and PREFIX.json")
    args = parser.parse_args()
    groups = collect()
    if not groups:
        print(f"no results in {OUT}", file=sys.stderr)
        return 1
    text = markdown(groups)
    print(text)
    if args.save:
        prefix = Path(args.save)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        prefix.with_suffix(".md").write_text(text)
        summary = {key: {"environment": g["runs"][0]["environment"],
                         "seeds": [r["seed"] for r in g["runs"]],
                         "attempted": sum(r["attempted"] for r in g["runs"]),
                         "failed": sum(r["failed"] for r in g["runs"]),
                         "metrics": {n: spread(v) for n, v in g["metrics"].items()}}
                   for key, g in groups.items()}
        prefix.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
