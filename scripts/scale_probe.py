#!/usr/bin/env python3
"""Time one genuine-only Cleveland run and report its peak memory.

Runs ``run_scenario`` once over all 303 Cleveland records with ``--users``
genuine principals at ``--bits`` and seed 1, then hashes the transcript with
``content_hash``. Prints one JSON line: ``users``, ``bits``,
``messages``, ``run_s`` and ``hash_s`` (wall seconds of the run and of
the hash, which carry the host's speed and are for orientation only),
and ``peak_rss_mib`` (``ru_maxrss`` of this process, which ran only
this). Run it in a fresh process for each measurement; it has no
timing gate.

Usage, from any directory:

    python3 scripts/scale_probe.py --users 1000 --bits 64
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from acshare.netsim import (  # noqa: E402  (needs src on the path first)
    KEY_LENGTH_BITS,
    ConfigError,
    ScenarioConfig,
    load_payloads,
    run_scenario,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True, help="genuine principals")
    parser.add_argument("--bits", type=int, required=True, choices=KEY_LENGTH_BITS)
    args = parser.parse_args(argv)
    try:
        config = ScenarioConfig(
            n_genuine=args.users, adversaries=(), dataset="cleveland",
            key_length_bits=args.bits, seed=1,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    payloads = load_payloads("cleveland", ROOT / "data" / "cleveland.csv", None)

    start = time.perf_counter()
    transcript, _ = run_scenario(config, payloads=payloads)  # by keyword: older checkouts need it
    run_s = time.perf_counter() - start
    start = time.perf_counter()
    transcript.content_hash()
    hash_s = time.perf_counter() - start

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "users": args.users,
        "bits": args.bits,
        "messages": len(transcript.messages),
        "run_s": round(run_s, 4),
        "hash_s": round(hash_s, 4),
        "peak_rss_mib": round(peak_kib / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
