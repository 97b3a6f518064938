"""Run one acshare benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload share-heavy --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it record the environment, the deterministic counters
and every raw sample. Workloads are defined in ``workloads.py``; the
metric names and bounds in ``BENCHMARK.json``.

End-to-end metrics, from untraced passes:

- ``wall_s``: wall time of a pass (protocol runs plus writing the
  JSONL or CSV), at the reference machine speed (see below).
- ``messages_per_s``: transcript messages of a pass over ``wall_s``.
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which ran only the
  one workload.
- ``setup_s``: median time a fresh interpreter takes to import acshare,
  parse the datasets and serialize the payloads, at the reference speed.

The host's speed switches between a fast and a slow level, up to 2x
apart, as other tenants share its cores. Each timing is therefore
scaled by ``REFERENCE_CALIBRATION_S`` over a gauge: a fixed loop timed
between passes (``measure.calibration_seconds``). ``wall_s`` is the
mean of the middle half of the passes over that of the gauges; each
set-up probe is scaled by the two gauges around it. The raw
samples are in the report line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = (SRC / "acshare" / "__init__.py", ROOT / "data" / "cleveland.csv")


def locate_package() -> None:
    """Put the checkout's ``src`` first on the import path, or stop."""
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a checkout of acshare, missing {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import acshare

    if not Path(acshare.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported acshare from {acshare.__file__}, not {SRC}")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_sha256() -> str:
    """Hash of the package sources, which identifies the tree without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(bench_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "bench_seed": bench_seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    locate_package()
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"workload": workload.name, "environment": environment(args.seed)}))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        result, report = measure.measure(workload, args.seed, args.seconds, bool(args.trace), Path(work_dir))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
