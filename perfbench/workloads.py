"""Workload definitions: the inputs each workload writes and the CLI commands it runs.

Every workload is a fixed sequence of ``toricsyz`` command lines. A pass runs
the whole sequence once in a fresh child process. Paths in the command lines
are relative to the invocation's work directory, which is the child's cwd.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# The paper's running example <(4,1),(5,1),(7,1),(8,1)> and the numerical
# semigroup <3,5> whose large fibers give huge, sparse 1-skeleta.
EXAMPLE = {"dim": 2, "generators": [[4, 1], [5, 1], [7, 1], [8, 1]]}
NUMERICAL_3_5 = {"dim": 1, "generators": [[3], [5]]}

# The validate batch is one fixed set of presentations (drawn once from
# VALIDATE_BASE_SEED); --seed only rescales coordinates by positive factors and
# shuffles the generators. Both maps keep every Fourier-Motzkin row count the
# same, so each seed costs about the same while the printed certificate
# changes. Drawing a new batch per seed would not be steady: the certificate's
# cost is heavy-tailed (one presentation of a fresh 192-draw took 3.2 s while
# the whole batch otherwise takes about 0.3 s), so one draw decides a seed's
# total.
VALIDATE_BASE_SEED = 0
VALIDATE_PER_STRATUM = 8  # presentations for each (d, r), d in 3..5, d < r <= 12

HARVEST_DEGREE = "60,10"
HARVEST_LEVEL = 3
HARVEST_FRAGMENT = "fragment.json"
SCAN_ARGS = ["--w-bound", "10", "--jmax", "2", "--field", "32003", "--format", "json"]

WORKLOADS = ("harvest", "minimalize", "scan", "rescan", "validate")

# Per-command time limits in seconds; a command over its limit is a failure.
TIMEOUTS = {
    "harvest": 60.0,
    "verify": 20.0,
    "minimalize": 30.0,
    "scan": 60.0,
    "validate": 10.0,
}


def _base_presentation(rng, d, r):
    """Mixed-sign generator columns that admit a positive grading.

    A hidden positive weight w makes every accepted column satisfy w.n >= 1,
    so the presentation is always combinatorially finite.
    """
    w = [rng.randint(1, 3) for _ in range(d)]
    cols = []
    while len(cols) < r:
        n = [-rng.randint(1, 3) if rng.random() < 0.3 else rng.randint(0, 4)
             for _ in range(d)]
        if sum(a * b for a, b in zip(w, n)) >= 1:
            cols.append(n)
    return cols


def validate_presentations(seed):
    """The seeded validate batch: a list of {"dim", "generators"} documents."""
    base = random.Random(VALIDATE_BASE_SEED)
    rng = random.Random(seed)
    batch = []
    for d in (3, 4, 5):
        for r in range(d + 1, 13):
            for _ in range(VALIDATE_PER_STRATUM):
                cols = _base_presentation(base, d, r)
                scale = [rng.randint(1, 3) for _ in range(d)]
                cols = [[s * x for s, x in zip(scale, col)] for col in cols]
                rng.shuffle(cols)
                batch.append({"dim": d, "generators": cols})
    return batch


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def write_inputs(workload, seed, workdir):
    """Write the workload's input files under workdir; return its commands.

    Each command is a dict with the argv, the time limit, and for scan-like
    commands the cache directory it uses.
    """
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    example = os.path.join("inputs", "example.json")
    _write_json(os.path.join(workdir, example), EXAMPLE)
    if workload == "harvest":
        return [
            {"argv": ["harvest", example, "-m", HARVEST_DEGREE, "--max-level", str(HARVEST_LEVEL),
                      "--format", "json", "--output", HARVEST_FRAGMENT],
             "timeout": TIMEOUTS["harvest"]},
            {"argv": ["verify", example, HARVEST_FRAGMENT, "--format", "json"],
             "timeout": TIMEOUTS["verify"]},
        ]
    if workload == "minimalize":
        s35 = os.path.join("inputs", "s35.json")
        _write_json(os.path.join(workdir, s35), NUMERICAL_3_5)
        commands = [
            {"argv": ["minimalize", s35, "--lead", f"{k},0", "--trail", f"0,{3 * k // 5}",
                      "--format", "json"],
             "timeout": TIMEOUTS["minimalize"]}
            for k in (100, 150, 200, 250, 300)
        ]
        # the paper's binomial x2^2 x3^6 - x1^3 x4^5 of degree (52, 8)
        commands.append(
            {"argv": ["minimalize", example, "--lead", "0,2,6,0", "--trail", "3,0,0,5",
                      "--format", "json"],
             "timeout": TIMEOUTS["minimalize"]})
        return commands
    if workload in ("scan", "rescan"):
        return [{"argv": ["scan", example, *SCAN_ARGS, "--cache", "cache"],
                 "timeout": TIMEOUTS["scan"], "cache": "cache"}]
    if workload == "validate":
        os.makedirs(os.path.join(inputs, "validate"), exist_ok=True)
        commands = []
        for i, doc in enumerate(validate_presentations(seed)):
            path = os.path.join("inputs", "validate", f"p{i:03d}.json")
            _write_json(os.path.join(workdir, path), doc)
            commands.append({"argv": ["validate", path, "--format", "json"],
                             "timeout": TIMEOUTS["validate"],
                             "generators": doc["generators"]})
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def verify_problem(stdout):
    """None when a verify output reports "passed": true, else what is wrong."""
    try:
        passed = json.loads(stdout)["report"]["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify report: {exc}"
    return None if passed is True else "verify did not pass"


def certificate_problem(generators, stdout):
    """Check a validate output from outside: w.n_i >= 1 for all i, minimum 1.

    Returns None when the printed grading is a valid certificate, else a
    one-line description of what is wrong.
    """
    try:
        w = [Fraction(x) for x in json.loads(stdout)["grading"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable grading: {exc}"
    dots = [sum(a * b for a, b in zip(w, col)) for col in generators]
    if min(dots) != 1:
        return f"min w.n_i is {min(dots)}, expected 1"
    return None
