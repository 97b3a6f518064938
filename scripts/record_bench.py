#!/usr/bin/env python3
"""Record the benchmark of this checkout into one JSON file.

For each workload that ``BENCHMARK.json`` names, runs
``perfbench/run.py --workload W --seed 1`` twice, each in its own
process: untraced for 8 seconds and traced for 6. It keeps each run's
three JSON lines (environment, report and result) and stops with a
non-zero exit if a run's last line is not a result, or reports
``correct: false`` or a failed operation. It then runs
``scripts/scale_probe.py`` at 1,000 and at 10,000 users of 64 bits,
each in a fresh process, and keeps each probe's line. The document is
written with sorted keys; it has no timing gate.

The document also records ``head_source_sha256``, the hash that
``perfbench/run.py`` gives for the ``src/`` of ``HEAD`` (read with
``git ls-tree`` and ``git show``), and ``source_matches_head``: whether
every run's ``source_sha256`` equals it. A record made on an
uncommitted tree thus says that its sources differ from ``HEAD``.

Every child runs with ``PYTHONDONTWRITEBYTECODE=1``, so no run leaves a
bytecode cache for the next, and each entry's ``pycache`` records
whether ``src/acshare/__pycache__`` existed as its run started: a
cache skips the package's compile step, which ``setup_s`` times.

Usage, from any directory:

    python3 scripts/record_bench.py OUT.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parent.parent
PYCACHE = ROOT / "src" / "acshare" / "__pycache__"

#: (key, arguments after ``--workload W --seed 1``) of each perfbench run
RUNS = (("trace0", ("--seconds", "8", "--trace", "0")), ("trace1", ("--seconds", "6", "--trace", "1")))

#: (key, arguments) of each scale probe
PROBES = (
    ("users1000_bits64", ("--users", "1000", "--bits", "64")),
    ("users10000_bits64", ("--users", "10000", "--bits", "64")),
)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class RecordError(Exception):
    """A run whose output is not a correct, complete benchmark record."""


def parse_run(stdout: str) -> dict:
    """The environment, report and result lines of one perfbench run's output."""
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        raise RecordError("a line is not JSON") from None
    if len(lines) != 3 or not isinstance(lines[-1], dict) or not RESULT_KEYS <= lines[-1].keys():
        raise RecordError("the last line is not a result")
    environment, report, result = lines
    if result["correct"] is not True or result["failed"] > 0:
        raise RecordError(f"correct: {result['correct']}, failed: {result['failed']}")
    return {"environment": environment, "report": report, "result": result}


def output(args: list[str]) -> str:
    """Standard output of the script and arguments ``args``, run from the checkout's root."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RecordError(f"{' '.join(args)}: exit {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def git(*args: str) -> bytes:
    """Standard output of ``git args`` in the checkout."""
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if done.returncode != 0:
        stderr = done.stderr.decode(errors="replace").strip()
        raise RecordError(f"git {' '.join(args)}: exit {done.returncode}: {stderr}")
    return done.stdout


def head_source_sha256() -> str:
    """The hash ``perfbench/run.py``'s ``_source_sha256`` gives for ``HEAD``'s ``src/``."""
    names = git("ls-tree", "-r", "-z", "--name-only", "HEAD", "--", "src").decode().split("\0")
    # relative to src/ and sorted as paths, as the tree walk sorts them
    paths = sorted(PurePosixPath(name).relative_to("src") for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path).encode() + b"\0" + git("show", f"HEAD:src/{path}"))
    return digest.hexdigest()


def perfbench_run(workload: str, extra: tuple[str, ...]) -> dict:
    args = ["perfbench/run.py", "--workload", workload, "--seed", "1", *extra]
    pycache = PYCACHE.is_dir()
    stdout = output(args)
    try:
        return {"args": args, "pycache": pycache, **parse_run(stdout)}
    except RecordError as exc:
        raise RecordError(f"{' '.join(args)}: {exc}") from None


def record() -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {
        entry["name"]: {key: perfbench_run(entry["name"], extra) for key, extra in RUNS}
        for entry in benchmark["workloads"]
    }
    probes = {}
    for key, extra in PROBES:
        args = ["scripts/scale_probe.py", *extra]
        pycache = PYCACHE.is_dir()
        probes[key] = {"args": args, "pycache": pycache, "line": json.loads(output(args))}
    head = head_source_sha256()
    sources = {
        run["environment"]["environment"].get("source_sha256")
        for entry in runs.values() for run in entry.values()
    }
    return {
        "perfbench": runs,
        "scale_probe": probes,
        "head_source_sha256": head,
        "source_matches_head": sources == {head},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="path of the JSON file to write")
    args = parser.parse_args(argv)
    try:
        document = record()
    except RecordError as exc:
        print(f"record_bench: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
