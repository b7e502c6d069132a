"""latentscore benchmark: one workload, its metrics, and a correctness verdict.

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` wraps the library's functions
and reports per-layer metrics instead.  Set-up time is the wall time from
starting a fresh interpreter to the end of the workload's set-up (imports,
data generation and, on score-n32, the fit), taken as the median of
3 to 9 processes, the last of which goes on to the measured run.

Every metric is printed with its unit, and ratios with their base.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every call ran and
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-n8", "score-n32", "oracle-n20")
# Set-up samples: at least 3, more while they are cheap.
SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES, SETUP_BUDGET_S = 3, 9, 4.0
DEADLINE_S = 170.0

# Sweep workers times BLAS threads stays within nproc: one BLAS thread each.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def benchmark_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child(args, deadline, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "LATENT_SCORE_THREADS"}
    env.update(THREAD_ENV)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: workload process exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def show(name, entry) -> str:
    base = f"  ({entry['base']})" if "base" in entry else ""
    return f"  {name:<40} {entry['value']!r:>24} {entry['unit']}{base}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    samples = []
    if not args.trace:
        while len(samples) < SETUP_MIN_SAMPLES - 1 or (
                len(samples) < SETUP_MAX_SAMPLES - 1
                and sum(samples) < SETUP_BUDGET_S):
            samples.append(child(args, deadline, True)["setup_s"])
    doc = child(args, deadline, False)
    samples.append(doc["setup_s"])
    metrics = doc["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": median(samples), "unit": "s",
                              "base": f"median of {len(samples)} processes"}

    env = ", ".join(f"{k}={v}" for k, v in doc["environment"].items())
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  {env}")
    if doc["notes"]:
        print("notes: " + json.dumps(doc["notes"], sort_keys=True))
    names = [m["name"] for m in wanted]
    for name in names + [n for n in metrics if n not in names]:
        if name in metrics:
            print(show(name, metrics[name]))
    for name in doc["absent"]:
        print(f"  {name:<40} {'absent':>24}")
    if not args.trace and "call_tail_s" not in metrics:
        print(f"  {'call_tail_s':<40} {'absent':>24} (fewer than 11 calls)")
    for err in doc["errors"]:
        print(f"  check failed: {err}", file=sys.stderr)

    correct = doc["failed"] == 0
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics and m["name"] not in doc["absent"]]
    if missing and correct:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
