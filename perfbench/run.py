"""The toricsyz benchmark: one workload, timed passes, checked outputs, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload harvest --seed 1 --seconds 25 --trace 0

Each pass runs the workload's fixed command sequence once, through
toricsyz.cli.main, in a fresh single-threaded child process (closed loop, one
client: each command waits for the previous one). Passes run one at a time
until the next one would end after --seconds, with at least MIN_PASSES.

--trace 0 reports the end-to-end metrics over all passes (medians).
solve_rel is the median over passes of a pass's solve time divided by the
median time of a fixed pure-Python reference kernel that the pass process
runs every 0.1 s of its CPU time, in the middle of its commands
(child.Sampler): on a shared host the speed drifts by tens of percent within
seconds, and the ratio cancels much of that drift where raw seconds cannot.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced pass with the median solve time, plus the tracing
overhead (median traced minus median untraced solve time).

Every command is checked against perfbench/expected.json (exit code and
SHA-256 of stdout); harvest's verify must report "passed": true, and every
validate certificate is checked from outside. The last stdout line is the
JSON result; the lines before it spell out every metric with its unit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
MIN_PASSES = 3  # traced runs need 2 untraced-traced pairs
EXPECTED = os.path.join(HERE, "expected.json")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Invocation:
    """One benchmark invocation: a work directory, its inputs and its passes."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(self.src, "toricsyz", "cli.py")):
            raise BenchError(f"no toricsyz sources under {self.src}")
        self.workdir = os.path.join(HERE, "work", f"{workload}-s{seed}-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.commands = workloads.write_inputs(workload, seed, self.workdir)
        self.passes = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, commands, trace=False):
        """Run one pass in a new process; return its result and set-up time."""
        self.passes += 1
        tag = f"pass{self.passes}"
        job = {
            "src": self.src,
            "workdir": self.workdir,
            "commands": commands,
            "trace": trace,
            "result": os.path.join(self.workdir, f"{tag}.result.json"),
            "spans": os.path.join(self.workdir, f"{tag}.spans"),
        }
        job_path = os.path.join(self.workdir, f"{tag}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        limit = sum(c["timeout"] for c in commands) + 60
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job_path],
                cwd=self.workdir, capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass process exceeded {limit} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(job["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        result["solve_s"] = sum(c["seconds"] for c in result["commands"])
        result["spans_path"] = job["spans"]
        return result

    def prepare(self):
        """Untimed: compile bytecode, and fill rescan's cache in its own process."""
        warm = [{"argv": ["validate", os.path.join("inputs", "example.json")],
                 "timeout": 60.0}]
        self._require_ok(self.child(warm), warm, "warm-up")
        if self.workload == "rescan":
            self._require_ok(self.child(self.commands), self.commands, "cache fill")

    def _require_ok(self, result, commands, what):
        for command, record in zip(commands, result["commands"]):
            if record["status"] != "ok" or record["exit"] != 0:
                raise BenchError(f"{what} failed on {command['argv']}: {record['stderr']}")

    def fresh_pass(self, trace=False):
        """One pass with nothing left over from an earlier one to read or check."""
        if self.workload == "scan":
            shutil.rmtree(os.path.join(self.workdir, "cache"), ignore_errors=True)
        if self.workload == "harvest":
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, workloads.HARVEST_FRAGMENT))
        return self.child(self.commands, trace)


def load_expected(workload, seed):
    """Expected (exit, sha256) per command, or None where no digests apply."""
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        entry = json.load(fh)[workload]
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return entry["commands"]


def command_problems(commands, result, expected):
    """One (index, reason) per failed command of a pass."""
    problems = []
    for i, (command, record) in enumerate(zip(commands, result["commands"])):
        reason = None
        if record["status"] != "ok":
            reason = record["status"]
        elif expected is not None and expected[i]["argv"] != command["argv"]:
            reason = "expected.json lists another command here"
        elif record["exit"] != (expected[i]["exit"] if expected else 0):
            reason = f"exit {record['exit']}"
        elif expected is not None and record["sha256"] != expected[i]["sha256"]:
            reason = f"stdout sha256 {record['sha256']} != {expected[i]['sha256']}"
        elif command["argv"][0] == "verify":
            reason = workloads.verify_problem(record.get("stdout", ""))
        elif command["argv"][0] == "validate":
            reason = workloads.certificate_problem(command["generators"], record["stdout"])
        if reason is not None:
            problems.append((i, reason))
    return problems


def run_passes(inv, seconds, trace):
    """Timed passes; with trace, untraced and traced passes alternate in pairs.

    Returns the untraced and traced pass results.
    """
    untraced, traced = [], []
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        if trace:
            order = (False, True) if len(durations) % 2 == 0 else (True, False)
            for flag in order:
                (traced if flag else untraced).append(inv.fresh_pass(trace=flag))
        else:
            untraced.append(inv.fresh_pass())
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        enough = len(durations) >= (2 if trace else MIN_PASSES)
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed > 3 * seconds:  # a far slower program still ends in time
            break
    return untraced, traced


def end_to_end(untraced):
    return {
        "solve_rel": (statistics.median(r["solve_s"] / r["reference_s"] for r in untraced),
                      "ref"),
        "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def per_layer(untraced, traced):
    by_solve = sorted(traced, key=lambda r: r["solve_s"])
    chosen = by_solve[(len(by_solve) - 1) // 2]
    try:
        metrics = tracer.layer_metrics(chosen["spans_path"], chosen["trace"], chosen["solve_s"])
    except ValueError as exc:
        raise BenchError(f"traced pass: {exc}") from exc
    metrics["trace.solve_s"] = (chosen["solve_s"], "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["solve_s"] for r in traced)
        - statistics.median(r["solve_s"] for r in untraced), "s")
    return metrics


def report(args, inv, untraced, traced, failures, attempted):
    lines = [f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced"
             f" and {len(traced)} traced passes, {attempted} commands"]
    for pass_no, i, reason in failures:
        lines.append(f"  FAILED pass {pass_no} command {i} {inv.commands[i]['argv']}: {reason}")
    lines.append(f"  failed_frac = {len(failures) / attempted} ratio"
                 f" ({len(failures)} of {attempted})")
    solve = [r["solve_s"] for r in untraced]
    q1, q3 = quartiles(solve)
    lines.append(f"  solve_s = {statistics.median(solve)} s, quartiles {q1:.4f} .. {q3:.4f} s"
                 f" over {len(solve)} passes")
    lines.append("  per-pass solve_s " + " ".join(f"{v:.4f}" for v in solve))
    lines.append("  per-pass setup_s " + " ".join(f"{r['setup_s']:.4f}" for r in untraced))
    latencies = sorted(c["seconds"] * 1000 for r in untraced for c in r["commands"])
    if len(latencies) >= 100:
        cuts = statistics.quantiles(latencies, n=10)
        lines.append(f"  cmd_p50_ms = {statistics.median(latencies)} ms,"
                     f" cmd_p90_ms = {cuts[8]} ms over {len(latencies)} commands")
    else:
        lines.append(f"  cmd_p50_ms, cmd_p90_ms: not reported, {len(latencies)} commands < 100")
    if not traced:
        reference = statistics.median(r["reference_s"] for r in untraced)
        samples = sum(r["reference_samples"] for r in untraced)
        lines.append(f"  reference kernel median {reference} s,"
                     f" median of per-pass medians over {samples} samples")
        lines.append("  per-pass reference_s "
                     + " ".join(f"{r['reference_s']:.6f}" for r in untraced))
    metrics = per_layer(untraced, traced) if traced else end_to_end(untraced)
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name} = {value} {unit}")
    if traced:
        total = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
        untracked, solve = metrics["trace.untracked_s"][0], metrics["trace.solve_s"][0]
        lines.append(f"  layer self times {total:.4f} s + trace.untracked_s {untracked:.4f} s"
                     f" against trace.solve_s {solve:.4f} s (untracked share"
                     f" {untracked / solve:.4f}, gap {total + untracked - solve:.3g} s)")
    return lines, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so a running pass process is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        inv = Invocation(args.workload, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        inv.prepare()
        expected = load_expected(args.workload, args.seed)
        untraced, traced = run_passes(inv, args.seconds, bool(args.trace))
        failures, attempted = [], 0
        for pass_no, result in enumerate(untraced + traced, 1):
            attempted += len(result["commands"])
            failures += [(pass_no, i, reason) for i, reason in
                         command_problems(inv.commands, result, expected)]
        lines, metrics = report(args, inv, untraced, traced, failures, attempted)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        inv.close()
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
