"""cssfhe benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the run first times ops untraced for half of --seconds, then
installs span wrappers on the library, replays the same ops traced,
checks both phases gave identical results, removes the wrappers and
prints the per-layer metrics. The line before the result describes the
run: seed, versions, machine, the tail latency, the failure ratio and the
largest infidelity seen (a check, not a metric).

Exit codes: 0 all checks passed, 1 a check failed, 2 the library or the
arguments are unusable (no result is printed then).
"""

import time

START = time.perf_counter()

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # single-threaded; must precede the numpy import

import numpy
import layers
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = BENCH / ".run"
SETUP_REPS = 3     # setup_s is the median of this many set-ups
TAIL_BEYOND = 10   # the tail percentile keeps this many samples above it


def _unusable(message: str):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _import_library() -> dict:
    src = ROOT / "src"
    if not (src / "cssfhe" / "__init__.py").is_file():
        _unusable(f"no library source under {src}")
    sys.path.insert(0, str(src))
    lib = {m: importlib.import_module(f"cssfhe.{m}") for m in layers.LIBRARY}
    if Path(lib["sim"].__file__).resolve().parent != src / "cssfhe":
        _unusable(f"cssfhe was imported from {lib['sim'].__file__}, not {src}")
    return lib


def _machine() -> dict:
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], check=True,
                                capture_output=True, text=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        l3 = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "l3_bytes": l3,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def _run_ops(wl, *, seconds=None, count=None, tracer=None):
    """Run ops 0, 1, ... until `seconds` have passed or `count` ops ran.
    Returns (per-op seconds, records, first failure message)."""
    times, records, error = [], [], None
    begin = time.perf_counter()
    i = 0
    while (count is None and time.perf_counter() - begin < seconds) or \
            (count is not None and i < count):
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.op_span(i):
                    rec = wl.op(i)
            else:
                rec = wl.op(i)
        except Exception as exc:  # a failing op is counted, not fatal
            rec = workloads.OpRecord(False, float("nan"), 0,
                                     ("error", repr(exc)), stratum=None)
            error = error or repr(exc)
        times.append(time.perf_counter() - t0)
        records.append(rec)
        i += 1
    return times, records, error


def _tail(times: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples above it, or the
    maximum when there are not that many samples."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "beyond": len(ordered) - k - 1, "samples": len(ordered)}


def _stratified(stat, times, records, strata: dict) -> float:
    """Sum over strata of probability x stat(op times of the stratum), which
    removes the noise of how often a run happened to hit each stratum. The
    plain stat over all ops when some stratum has no op."""
    groups = {s: [t for t, r in zip(times, records) if r.stratum == s]
              for s in strata}
    if not all(groups.values()):
        return stat(times)
    return sum(p * stat(groups[s]) for s, p in strata.items())


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS or args.seed < 0 \
            or args.seconds <= 0:
        _unusable(f"need one of {sorted(workloads.WORKLOADS)}, a seed >= 0 "
                  f"and seconds > 0")
    lib = _import_library()
    imported = time.perf_counter() - START

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        wl.warm_up()
        reps.append(time.perf_counter() - t0)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **_machine(),
            "setup_reps_s": reps, "import_s": imported}
    checks = {}
    if args.trace == 0:
        times, records, error = _run_ops(wl, seconds=args.seconds)
    else:
        times, records, error = _run_ops(wl, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(layers.targets(lib), lib["sim"].StateVector)
        wl.tracer = tracer
        try:
            t_times, t_records, t_error = _run_ops(
                wl, count=len(times), tracer=tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None
        error = error or t_error
        checks["traced_matches_untraced"] = (
            [r.fingerprint for r in t_records] == [r.fingerprint for r in records])
        checks["no_wrapper_left"] = not spans.leftover_wrappers(lib.values())
        RUN_DIR.mkdir(exist_ok=True)
        dump = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump)
        info["span_dump"] = str(dump.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
        per_layer = layers.aggregate(tracer.spans)
        per_layer["peak_register_qubits"] = tracer.max_qubits
        per_layer["keyholder_calls_per_op"] = (
            sum(r.keyholder_calls for r in t_records) / len(t_records))
        per_layer["trace.overhead_ratio"] = sum(t_times) / sum(times) - 1.0
        times, records = times + t_times, records + t_records
    shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    infidelities = [r.infidelity for r in records if not math.isnan(r.infidelity)]
    info.update({
        "ops": len(records), "fail_ratio": failed / len(records),
        "ops_per_stratum": {str(k): sum(r.stratum == k for r in records)
                            for k in wl.STRATA},
        "max_infidelity": max(infidelities, default=None),
        "op_s.tail": _tail(times), "first_error": error, "checks": checks,
    })
    if args.trace == 0:
        metrics = {
            "setup_s": _metric(imported + statistics.median(reps), "s"),
            "op_s.p50": _metric(_stratified(
                statistics.median, times, records, wl.STRATA), "s"),
            "ops_per_s": _metric((1 - failed / len(records)) / _stratified(
                statistics.fmean, times, records, wl.STRATA), "1/s"),
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = {name: _metric(per_layer[name], unit)
                   for name, unit in layers.catalogue()}
    correct = failed == 0 and all(checks.values())
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
