"""Run every workload over several seeds and judge the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-10 --against perfbench/baseline.json

For each workload of BENCHMARK.json this runs ``run.py --trace 0`` once per
seed and ``run.py --trace 1`` once on the first seed, all one after another.
It prints, per end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of the median, next to
the metric's bound; a spread above a third of the bound is flagged.
``--against`` compares each median with the one in an earlier summary.

The exit code is 1 when a spread exceeds its metric's bound, or a median is
worse than the earlier one by more than the bound.  These are the rules a
set of runs is held to; the spread of ``setup_s`` is printed but not judged,
since it is the median of a few process starts per run and only its drift
from one set to the next is held to its bound.

``--out`` writes the medians, spreads, the traced per-layer metrics, what
each run noted (``notes_by_seed``; score-n32 reads the laplace outcome of its
seed back from here) and, under ``reason``, the figures that justify each
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

# The figures that show why each workload was chosen: the layer that
# dominates it, from the traced run, or an end-to-end median.
REASONS = {
    "sweep-n8": ("share.fit", "share.tournament_init",
                 "experiment.worker_busy_ratio"),
    "score-n32": ("share.neg_hessian",),
    "oracle-n20": ("share.oracle_exact", "peak_rss_mib"),
}


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run(workload, seed, seconds, trace) -> tuple[str, dict, dict]:
    """One run: its header line, what it noted, and its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=CHECKOUT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stdout}")
    notes = {}
    for line in lines:
        if line.startswith("notes: "):
            notes = json.loads(line[len("notes: "):])
    return lines[0], notes, json.loads(lines[-1])


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def worse_by(metric: dict, median: float, earlier: float) -> float:
    """How much worse ``median`` is than ``earlier``, as a share of it."""
    change = (median - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    p.add_argument("--out")
    p.add_argument("--against",
                   help="an earlier --out file whose medians to compare")
    p.add_argument("--label", default="",
                   help="what was measured, e.g. a commit, kept in --out")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    earlier = (json.loads(Path(args.against).read_text())["workloads"]
               if args.against else {})

    seconds = spec["run_seconds"]
    summary = {"label": args.label, "seeds": seeds,
               "run_seconds": seconds, "workloads": {}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs, notes = [], {}
        for seed in seeds:
            header, notes[str(seed)], doc = run(workload, seed, seconds, 0)
            runs.append(doc)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()),
                flush=True)
        entry = {"environment": header, "end_to_end": {}}
        if any(notes.values()):
            entry["notes_by_seed"] = notes
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            line = (f"  {name:<18} median {s['median']:.6g}  spread "
                    f"{s['spread']:.4f}  bound {bound}")
            if s["spread"] > bound / 3:
                line += "  <-- spread above bound/3"
            if name != "setup_s" and s["spread"] > bound:
                problems.append(f"{workload} {name}: spread {s['spread']:.4f}"
                                f" above its bound {bound}")
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before:
                w = worse_by(metric, s["median"], before["median"])
                line += f"  worse by {w:+.4f} than --against"
                if w > bound:
                    problems.append(f"{workload} {name}: median worse by "
                                    f"{w:.4f} than --against, bound {bound}")
            print(line)
        _, _, doc = run(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in doc["metrics"].items()}
        entry["reason"] = {
            name: entry["per_layer"][name] if name in entry["per_layer"]
            else entry["end_to_end"][name]["median"]
            for name in REASONS.get(workload, ())}
        print(f"  reason {entry['reason']}  trace_overhead_ratio "
              f"{entry['per_layer'].get('trace_overhead_ratio')}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    for problem in problems:
        print(f"not steady: {problem}")
    if not problems:
        print("steady: every spread and drift is within its bound")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
