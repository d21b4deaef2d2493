"""One benchmark pass: run a workload's commands through toricsyz.cli.main.

Usage: python3 child.py JOB_JSON

The job file names the commands, the directory to run them in and where to
write the result. The process is single-threaded; a command over its time
limit is interrupted by SIGALRM, recorded as "timeout" and the pass goes on.
The process reports the monotonic time at which it was ready, so the parent
can measure set-up from the moment it spawned it.

Untraced passes also time a small fixed reference kernel every
SAMPLE_EVERY_S of process CPU time (SIGPROF), in the middle of whatever
command is running. The samples see the host at the same moments as the
commands do, so the solve time divided by their median drops most of the
host's speed drift. Their time is taken out of each command's seconds.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

KEEP_STDOUT_BYTES = 4096
SAMPLE_EVERY_S = 0.1  # process CPU time between two reference samples
WARM_SAMPLES = 3  # taken before the first command, so that no pass has none


class CommandTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so the CLI cannot catch it."""


class Deadline:
    """Per-command wall-clock limit implemented with ITIMER_REAL."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise CommandTimeout()

    def arm(self, seconds):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_kernel():
    """Fixed pure-Python work of the engine's kind: exact rational sums, small
    list and dict updates; about 1 ms. It never changes, so its time tracks
    the host."""
    total, rows = Fraction(0), {}
    for i in range(300):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        row = [j * i for j in range(16)]
        rows[i % 64] = sum(row)
    return total


class Sampler:
    """Times reference_kernel on every SIGPROF tick of the ITIMER_PROF timer."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in samples, taken out of command times
        self.busy = False
        for _ in range(WARM_SAMPLES):
            self._sample(signal.SIGPROF, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        try:
            reference_kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:  # a command timeout can land inside a sample
            self.spent += time.perf_counter() - t0
            self.busy = False

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def _dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def run_command(cli, argv, timeout, deadline, sampler):
    """Run one command; return (status, exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    spent = sampler.spent if sampler else 0.0
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            deadline.arm(timeout)
            try:
                code = cli.main(argv)
            finally:
                deadline.disarm()
        except CommandTimeout:
            status = "timeout"
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any crash of the CLI is a failed command
            status = "exception"
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
    if sampler:
        seconds -= sampler.spent - spent
    return status, code, out.getvalue(), err.getvalue(), seconds


def main(job_path):
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)
    import toricsyz.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported toricsyz from {cli.__file__}, not from {src}")
    os.chdir(job["workdir"])
    tracer = None
    if job["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    deadline = Deadline()
    ready = time.monotonic()
    sampler = None if tracer else Sampler()

    records = []
    for command in job["commands"]:
        cache = command.get("cache")
        before = _dir_bytes(cache) if tracer and cache else 0
        if tracer:
            tracer.begin_command()
        status, code, stdout, stderr, seconds = run_command(
            cli, command["argv"], command["timeout"], deadline, sampler)
        record = {
            "status": status,
            "exit": code,
            "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            "seconds": seconds,
            "stderr": stderr[-2000:],
        }
        if len(stdout) <= KEEP_STDOUT_BYTES:
            record["stdout"] = stdout
        if tracer:
            tracer.end_command(cache_bytes=(_dir_bytes(cache) - before) if cache else 0)
        records.append(record)

    result = {
        "ready": ready,
        "commands": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if sampler:
        sampler.stop()
        result["reference_s"] = statistics.median(sampler.samples)
        result["reference_samples"] = len(sampler.samples)
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.write(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
