"""Steadiness check: run every workload over ten seeds, round-robin.

Usage (from the repository root):

    python3 perfbench/sweep.py
    python3 perfbench/sweep.py --trace-seed 1

The first form runs BENCHMARK.json's command with --trace 0 once per seed
(1 to 10) and workload, interleaving workloads (seed 1 on every workload, then
seed 2, ...) so that slow drift of the host hits all workloads alike. For each
workload and end-to-end metric it prints the median and the quartile spread
(q3 - q1) / median, next to the metric's bound. It does the same for two
figures that are printed by run.py but not gated: the raw median solve_s and
the reference kernel's median time, whose ratio is solve_rel. The table goes
to perfbench/baseline.json.

The second form runs --trace 1 twice per workload on one seed and reports any
per-layer count that differs between the two runs; counts must repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
OUT = os.path.join(HERE, "baseline.json")
# ungated figures, read from run.py's text lines: name -> (pattern, unit)
UNGATED = {
    "solve_s": (re.compile(r"^  solve_s = (\S+) s"), "s"),
    "reference_s": (re.compile(r"^  reference kernel median (\S+) s"), "s"),
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def invoke(bench, workload, seed, trace):
    """Run the benchmark once; return its JSON result and its text lines."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result, lines[:-1]


def ungated_values(lines):
    values = {}
    for name, (pattern, _unit) in UNGATED.items():
        found = [m.group(1) for m in map(pattern.match, lines) if m]
        if len(found) != 1:
            raise SystemExit(f"run.py printed {len(found)} {name} lines, expected 1")
        values[name] = float(found[0])
    return values


def spread_table(bench, workloads):
    metrics = [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(name, unit, None) for name, (_pattern, unit) in UNGATED.items()]
    values = {w: {name: [] for name, _unit, _bound in metrics} for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            result, lines = invoke(bench, workload, seed, 0)
            status = "ok" if result["correct"] else f"FAILED {result['failed']}"
            seen = {name: entry["value"] for name, entry in result["metrics"].items()}
            seen.update(ungated_values(lines))
            for name, series in values[workload].items():
                series.append(seen[name])
            shown = " ".join(f"{name}={seen[name]:.4f}" for name in values[workload])
            print(f"seed {seed} {workload}: {status} {shown}", flush=True)
    summary = {}
    for workload in workloads:
        for name, unit, bound in metrics:
            series = values[workload][name]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            summary.setdefault(workload, {})[name] = {
                "values": series, "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound}
            if bound is None:
                flag = "  (not gated)"
            else:
                flag = "" if spread < bound / 3 else "  ABOVE bound/3"
            print(f"{workload:10s} {name:12s} median {median:.4f} {unit}"
                  f" spread {spread:.3f} (bound {bound}){flag}")
    return summary


def trace_check(bench, workloads, seed):
    bad = 0
    for workload in workloads:
        first, second = (invoke(bench, workload, seed, 1)[0]["metrics"] for _ in range(2))
        for name, entry in first.items():
            if entry["unit"] != "s" and entry["value"] != second[name]["value"]:
                bad += 1
                print(f"{workload}: {name} {entry['value']} != {second[name]['value']}")
        print(f"{workload}: per-layer counts compared", flush=True)
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="compare per-layer counts of two traced runs instead")
    args = parser.parse_args()
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.trace_seed is not None:
        return 1 if trace_check(bench, workloads, args.trace_seed) else 0
    summary = spread_table(bench, workloads)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
