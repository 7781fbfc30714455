#!/usr/bin/env python3
"""zenosim benchmark: one workload, measured end to end or traced by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload desk --seed 0 --seconds 20 --trace 0

Each workload is a list of scenarios run in-process through the public
path ``load_scenario -> run -> export_csv(reproducible=True)``, with CSVs
written to a temporary directory.  After one untimed warm-up pass, passes
repeat until ``--seconds`` have been measured; every output is checked
(``check.py``) and a failed check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
``import zenosim`` in fresh interpreters), ``pass_s`` (median pass),
``scenario_gmean_s`` (geometric mean of the scenarios' median latencies)
and ``peak_rss_mb``.  The per-scenario latencies (``survival_s`` ...
``sectors4_s``) and ``failed_frac`` are printed with them.  ``--trace 1``
alternates untraced and traced passes and reports per-layer calls, self
time and work counts (``tracing.py``), plus ``trace.overhead_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment record, goes to ``benchmarks/out/``, and a traced run also
writes its spans there.
"""

import os

# One BLAS thread, fixed before numpy loads: the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# The gated end-to-end metrics, in BENCHMARK.json's order.
END_TO_END = ("setup_s", "pass_s", "scenario_gmean_s", "peak_rss_mb")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import zenosim from this checkout's ``src``, and from nowhere else."""
    package = SRC / "zenosim"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no zenosim package at {package}")
    sys.path.insert(0, str(SRC))
    import zenosim
    if Path(zenosim.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"zenosim resolved to {zenosim.__file__}, not {package}")
    return zenosim


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked from the library."""
    import ctypes
    out = {}
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return out
    libs = {ln.split()[-1] for ln in maps.read_text().splitlines() if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                out[Path(lib).name] = int(fn())
                break
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import yaml
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> list[float]:
    """``import zenosim`` in fresh interpreters, timed inside each child."""
    code = ("import time; t0 = time.perf_counter(); import zenosim; "
            "print(time.perf_counter() - t0); print(zenosim.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, where = done.stdout.split("\n")[:2]
        if Path(where).resolve().parent != (SRC / "zenosim").resolve():
            raise ProgramMissing(f"child imported zenosim from {where}")
        times.append(float(seconds))
    return times


class Session:
    """Runs passes over a workload's jobs and keeps the tallies."""

    def __init__(self, jobs, work: Path):
        import zenosim.scenario
        self.scenario = zenosim.scenario
        self.jobs = jobs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latency = {job.metric: [] for job in jobs}

    def run_job(self, job) -> tuple[float, bool]:
        out = self.work / f"{job.key}.csv"
        sc = self.scenario
        start = perf_counter()
        try:
            series = sc.run(sc.load_scenario(job.path))
            sc.export_csv(series, out, reproducible=True)
        except Exception as exc:  # a failing scenario is counted; the run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = None
        latency = perf_counter() - start
        if problems is None:
            try:
                problems = job.check(check.read_table(out))
            except Exception as exc:  # an unreadable output fails its check
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{job.key}: {p}" for p in problems]
        return latency, not problems

    def one_pass(self, record: bool = True) -> float:
        total = 0.0
        for job in self.jobs:
            latency, ok = self.run_job(job)
            total += latency
            if record and ok:
                self.latency[job.metric].append(latency)
        return total


def summary(values, unit: str = "s") -> dict:
    """Median, quartiles, sample count, and the highest tail percentile
    with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n >= 2 else (values[0],) * 3
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "unit": unit}
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def end_to_end(args, session: Session) -> dict:
    setup = measure_setup()
    session.one_pass(record=False)                    # warm-up
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(session.one_pass())
    stats = {"setup_s": summary(setup), "pass_s": summary(passes)}
    for metric, samples in session.latency.items():
        if samples:
            stats[metric] = summary(samples)
    # over the scenarios with a passing sample; a scenario that never
    # passed shows in failed_frac instead
    medians = [stats[m]["median"] for m in session.latency if m in stats] \
        or [stats["pass_s"]["median"]]
    gmean = math.exp(sum(math.log(m) for m in medians) / len(medians))
    stats["scenario_gmean_s"] = {"median": gmean, "n": len(medians), "unit": "s"}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats["peak_rss_mb"] = {"median": rss, "n": 1, "unit": "MiB"}
    stats["failed_frac"] = {"median": session.failed / session.attempted,
                            "n": session.attempted, "unit": "1"}
    return stats


def traced(args, session: Session) -> tuple[dict, dict]:
    import tracing
    session.one_pass(record=False)                    # warm-up
    tracer = tracing.Tracer()
    plain, timed, layers, coverage = [], [], [], []
    start = perf_counter()
    while not timed or perf_counter() - start < args.seconds:
        plain.append(session.one_pass(record=False))
        offset, before = len(tracer.spans), tracer.counts.copy()
        with tracer:
            timed.append(session.one_pass(record=False))
        calls, own = tracing.self_times(tracer.spans[offset:], offset)
        counts = tracer.counts - before
        layers.append((calls, own, counts))
        top = sum(end - begin for _, begin, end, _ in tracer.top_level(offset))
        coverage.append(top / timed[-1])

    stats = {}
    for name in tracing.span_names():
        stats[f"{name}.calls"] = {"median": int(statistics.median(c[name] for c, _, _ in layers)),
                                  "unit": "count"}
        stats[f"{name}.self_s"] = {"median": statistics.median(o.get(name, 0.0)
                                                               for _, o, _ in layers),
                                   "unit": "s"}
    for name in tracing.counter_names():
        stats[name] = {"median": int(statistics.median(k[name] for _, _, k in layers)),
                       "unit": "count"}
    stats["trace.overhead_s"] = {"median": statistics.median(timed) - statistics.median(plain),
                                 "unit": "s"}
    extra = {"traced_pass_s": summary(timed), "untraced_pass_s": summary(plain),
             "top_level_share": summary(coverage)}
    spans = write_spans(args, tracer.spans)
    extra["spans_file"] = str(spans.relative_to(ROOT))
    return stats, extra


def write_spans(args, spans) -> Path:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names,
                   "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in spans]}, fh)
    return path


# ---------------------------------------------------------------------------
# reporting


def report(args, env, stats, session, extra=None) -> dict:
    print(f"zenosim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>6}")
    for name, s in stats.items():
        q1, q3 = (f"{s[k]:>12.6g}" if k in s else f"{'':>12}" for k in ("q1", "q3"))
        tail = "".join(f"  {k} {s[k]:.6g}" for k in s if k.startswith("p") and k[1:].isdigit())
        print(f"{name:<40} {s['unit']:<6} {s['median']:>12.6g} {q1} {q3} {s.get('n', ''):>6}{tail}")
    for name, s in (extra or {}).items():
        print(f"{name}: {s if isinstance(s, str) else json.dumps(s)}")
    for problem in session.problems[:20]:
        print(f"FAILED {problem}")
    gated = stats if args.trace else END_TO_END
    metrics = {k: {"value": stats[k]["median"], "unit": stats[k]["unit"]} for k in gated}
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        jobs = workloads.build(args.workload, args.seed, ROOT, work)
        session = Session(jobs, work)
        if args.trace:
            stats, extra = traced(args, session)
        else:
            stats, extra = end_to_end(args, session), None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    result = report(args, env, stats, session, extra)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "stats": stats, "extra": extra,
              "problems": session.problems, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
