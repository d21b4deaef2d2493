"""Record the expected output of every benchmark command in expected.json.

Usage (from the repository root): python3 perfbench/capture.py

Runs each workload's commands once and stores, per command, its argv, exit
code and the SHA-256 of its stdout. Validate inputs depend on the seed, so its
digests are stored for run.DEFAULT_SEED only; other seeds are checked by the
certificate test alone. Run it only on a commit whose outputs are known good.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def record(name):
    """Run workload name once at run.DEFAULT_SEED; return its expected.json commands."""
    inv = run.Invocation(name, run.DEFAULT_SEED)
    try:
        inv.prepare()
        result = inv.fresh_pass()
    finally:
        inv.close()
    commands = []
    for command, outcome in zip(inv.commands, result["commands"]):
        if outcome["status"] != "ok":
            sys.exit(f"{name}: {command['argv']} ended with {outcome['status']}")
        commands.append({"argv": command["argv"], "exit": outcome["exit"],
                         "sha256": outcome["sha256"]})
    print(f"{name}: {len(commands)} commands, {result['solve_s']:.2f} s")
    return commands


def main():
    expected = {}
    for name in workloads.WORKLOADS:
        expected[name] = {"seed": run.DEFAULT_SEED if name == "validate" else None,
                          "commands": record(name)}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
