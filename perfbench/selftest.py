"""Self-test of the benchmark at tiny sizes (a few seconds).

Usage (from the repository root): python3 perfbench/selftest.py

Runs run.main on a cut-down validate workload and checks that:
- correct digests give failed = 0 and every end-to-end metric of BENCHMARK.json;
- one corrupted expected digest makes failed_frac > 0 and correct false;
- a command over its time limit is recorded as a failure, not dropped;
- a traced run prints every per-layer metric, its layer self times plus
  trace.untracked_s add up to trace.solve_s, and trace.untracked_s is under
  UNTRACKED_SHARE of it (no command step escapes the wrappers);
- a span filed under the wrong parent, or as an overlapping root, is caught;
- other validate seeds, which have no digests, pass the certificate check;
- a level-1 harvest passes its digests and its verify check.
Exits 0 when all checks hold.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

import capture
import run
import tracer
import workloads


UNTRACKED_SHARE = 0.05  # 0.1-1.5% on the full workloads


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.main({argv}) returned {code}")
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def capture_expected(path, workload):
    """Write an expected.json for the patched (tiny) workload at the default seed."""
    commands = capture.record(workload)
    write_expected(path, workload, commands)
    return commands


def write_expected(path, workload, commands):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({workload: {"seed": run.DEFAULT_SEED, "commands": commands}}, fh)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    workdir = os.path.join(run.HERE, "work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        check_span_tree(workdir)
        check(bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def check_span_tree(workdir):
    """layer_metrics accepts nested spans and refuses a span tree that does not nest."""
    trace = tracer.Tracer()
    inner = trace._wrap(lambda: sum(range(20000)), "homology.gauss", None)
    outer = trace._wrap(lambda: [inner() for _ in range(3)], "cli.main", None)
    t0 = time.perf_counter()
    outer()
    solve = time.perf_counter() - t0
    path = os.path.join(workdir, "toy.spans")
    summary = trace.write(path)
    metrics = tracer.layer_metrics(path, summary, solve)
    assert metrics["homology.gauss_s"][0] > 0 and metrics["trace.untracked_s"][0] > 0, metrics
    for parent in (1, -1):  # third call filed under the second, or as a second root
        trace.parent[2] = parent
        trace.write(path)
        try:
            tracer.layer_metrics(path, summary, solve)
        except ValueError:
            continue
        raise AssertionError(f"span filed under parent {parent} was not caught")
    print("ok: nested spans are accepted, misnested ones refused")


def check(bench, workdir):
    run.MIN_PASSES = 1
    workloads.VALIDATE_PER_STRATUM = 1  # 24 presentations instead of 192
    run.EXPECTED = os.path.join(workdir, "expected.json")
    args = ["--workload", "validate", "--seconds", "0"]

    commands = capture_expected(run.EXPECTED, "validate")
    _, result = invoke(args)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] == len(commands), result
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}, result
    print("ok: matching digests, every end-to-end metric reported")

    commands[3]["sha256"] = "0" * 64
    write_expected(run.EXPECTED, "validate", commands)
    lines, result = invoke(args)
    assert not result["correct"] and result["failed"] == 1, result
    frac = next(line for line in lines if "failed_frac" in line)
    assert float(frac.split("=")[1].split()[0]) > 0, frac
    assert any("FAILED" in line and "sha256" in line for line in lines), lines
    print("ok: a corrupted digest gives failed_frac > 0")

    saved = dict(workloads.TIMEOUTS)
    workloads.TIMEOUTS["validate"] = 1e-6
    try:
        lines, result = invoke(["--workload", "validate", "--seconds", "0", "--seed", "5"])
    finally:
        workloads.TIMEOUTS.update(saved)
    assert result["failed"] == result["attempted"], result
    assert any("timeout" in line for line in lines), lines
    print("ok: commands over their limit are recorded as timeouts")

    lines, result = invoke(args + ["--trace", "1", "--seed", "7"])
    assert result["correct"], lines
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}, result
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    untracked, solve = metrics["trace.untracked_s"]["value"], metrics["trace.solve_s"]["value"]
    assert abs(total + untracked - solve) < 1e-6, (total, untracked, solve)
    assert 0 < untracked < UNTRACKED_SHARE * solve, (untracked, solve)
    assert metrics["semigroup.certificate_calls"]["value"] == 24, metrics
    print("ok: seed without digests passes the certificate check;"
          " traced run reports every per-layer metric and its times add up")

    workloads.HARVEST_LEVEL = 1
    capture_expected(run.EXPECTED, "harvest")
    _, result = invoke(["--workload", "harvest", "--seconds", "0"])
    assert result["correct"] and result["attempted"] == 2, result
    print("ok: harvest and verify pass")


if __name__ == "__main__":
    sys.exit(main())
