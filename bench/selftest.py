"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and per-layer
metrics the code defines; runs every workload at smoke size, untraced and
traced, and checks each named metric is present with its unit, that the
traced ops reproduced the untraced ones and that no wrapper was left
installed; and checks the run refuses a directory without the library.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SECONDS = "1"
SMOKE_SEED = "5"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", SMOKE_SEED, "--seconds", SMOKE_SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
          "BENCHMARK.json workloads match workloads.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == layers.catalogue(), "BENCHMARK.json per_layer matches layers.py")

    sys.path.insert(0, str(ROOT / "src"))
    lib = {m: importlib.import_module(f"cssfhe.{m}") for m in layers.LIBRARY}
    tracer = spans.Tracer()
    targets = layers.targets(lib)
    tracer.install(targets, lib["sim"].StateVector)
    found = spans.leftover_wrappers(lib.values())
    tracer.uninstall()
    check(len(found) == len(targets) + 1,
          "the leftover scan sees every installed wrapper")
    check(not spans.leftover_wrappers(lib.values()),
          "uninstall removes every wrapper")

    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, trace)
            check(proc.returncode == 0, f"{name} trace={trace} exits 0 "
                  f"(stderr: {proc.stderr.strip()[-300:]})")
            info, result = (json.loads(x)
                            for x in proc.stdout.strip().splitlines()[-2:])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace={trace} result is correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace} reports every "
                  f"{section} metric with its unit")
            if trace:
                check(info["checks"] == {"traced_matches_untraced": True,
                                         "no_wrapper_left": True},
                      f"{name} traced ops match untraced ops, wrappers removed")
                shares = sum(result["metrics"][f"{m}.self_share"]["value"]
                             for m in layers.MODULES)
                check(abs(shares - 1.0) < 1e-9,
                      f"{name} self times account for the traced op time")

    bare = BENCH / ".run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("asym-session", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode not in (0, None) and not proc.stdout.strip(),
          "without the library the run exits non-zero and prints no result")


if __name__ == "__main__":
    main()
