"""Command line front end.

Subcommands:

    demo            run one principal through all six stages and print
                    the transcript, stage by stage
    run             execute a scenario file and write a JSON-lines
                    transcript
    bench           sweep datasets and key lengths into a CSV report
    parse-dataset   load a dataset file and report record counts

Exit codes: 0 success, 2 configuration problem, 3 protocol rejection,
4 I/O or data problem. Failures print one ``error[TOKEN]: message``
line to stderr. Output depends only on flags and seeds, never on the
clock or the process, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .bench import BenchRow, genuine_detection_rate, run_sweep, write_csv
from .dataset import (
    ATTRIBUTES,
    DatasetParseError,
    SAMPLE_RECORD,
    load_dataset,
    missing_counts,
    record_to_payload,
    resolve_dataset,
)
from .entities import DuplicateIdentityError, PhaseOrderError, UnknownPrincipalError, run_protocol
from .netsim import (
    KEY_LENGTH_BITS,
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    ScenarioConfig,
    principal_roster,
    run_scenario,
    summarize,
)
from .protocol import EmptyPayloadError
from .wire import ACCEPTED, Transcript

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_IO = 4

_PREVIEW_HEX = 16


def _fail(token: str, message: object, code: int) -> int:
    print(f"error[{token}]: {message}", file=sys.stderr)
    return code


def _check_seed(seed: int) -> int:
    """Reject a bench seed before any dataset is read."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _parse_adversary(token: str) -> AdversarySpec:
    """Parse CLASS or CLASS=COUNT into a spec with one flip."""
    name, _, count_text = token.partition("=")
    cls = AdversaryClass.parse(name)
    if not count_text:
        return AdversarySpec(cls=cls, count=1)
    try:
        count = int(count_text)
    except ValueError:
        raise ConfigError(f"adversary count must be an integer, got {count_text!r}") from None
    return AdversarySpec(cls=cls, count=count)


def _preview(value: bytes) -> str:
    text = value.hex()
    if len(text) > _PREVIEW_HEX:
        return text[:_PREVIEW_HEX] + ".."
    return text


def _print_transcript(transcript: Transcript) -> None:
    stage = None
    for message in transcript.messages:
        if message.stage != stage:
            stage = message.stage
            print(f"=== {stage} ===")
        rendered = " ".join(
            f"{name}={_preview(value)}" for name, value in message.fields.items()
        )
        line = (
            f"[{message.step:3d}] {message.channel:7s} "
            f"{message.sender} -> {message.recipient} {message.kind} {rendered}"
        )
        if message.annotation is not None:
            line += f"  !{message.annotation}"
        print(line)


def cmd_demo(args: argparse.Namespace) -> int:
    adversaries = [_parse_adversary(token) for token in args.adversary]
    if sum(spec.count for spec in adversaries) > 1:
        raise ConfigError("the demo runs at most one adversary; use 'run' for populations")
    replaying = any(spec.cls is AdversaryClass.REPLAY_QUERY for spec in adversaries)
    n_genuine = 1 if (replaying or not adversaries) else 0
    config = ScenarioConfig(
        n_genuine=n_genuine,
        adversaries=tuple(adversaries),
        dataset="sample",
        key_length_bits=args.key_length,
        seed=args.seed,
    )
    payloads = [record_to_payload(SAMPLE_RECORD)]
    transcript = run_protocol(config, payloads)
    _print_transcript(transcript)
    all_accepted = True
    for name, _, _ in principal_roster(config):
        outcome = transcript.outcomes[name]
        if outcome.status == ACCEPTED:
            noun = "payload" if outcome.recovered == 1 else "payloads"
            print(f"outcome[{name}]: ACCEPTED ({outcome.recovered} {noun} recovered)")
        else:
            all_accepted = False
            print(f"outcome[{name}]: {outcome.status} at {outcome.stage} ({outcome.reason})")
    return EXIT_OK if all_accepted else EXIT_PROTOCOL


def cmd_run(args: argparse.Namespace) -> int:
    config = ScenarioConfig.from_file(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    transcript, summary = run_scenario(config, data_dir=args.data_dir)
    out = Path(args.out)
    transcript.write(out)
    print(f"wrote {len(transcript.messages)} messages to {out}")
    print(f"transcript sha256: {transcript.content_hash()}")
    for line in summary.format_lines():
        print(line)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    key_lengths = args.key_length or list(KEY_LENGTH_BITS)
    for bits in key_lengths:
        if bits not in KEY_LENGTH_BITS:
            raise ConfigError(f"key length must be one of {KEY_LENGTH_BITS}, got {bits}")
    seeds = [_check_seed(seed) for seed in (args.seed or [0])]
    datasets = args.dataset or ["cleveland", "hungarian", "swiss"]
    adversaries = [_parse_adversary(token) for token in args.adversary]
    rows = run_sweep(
        datasets,
        key_lengths=key_lengths,
        seeds=seeds,
        n_genuine=args.genuine,
        adversaries=adversaries,
        max_records=args.max_records,
        data_dir=args.data_dir,
    )
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_parse_dataset(args: argparse.Namespace) -> int:
    name, path = resolve_dataset(args.dataset, args.data_dir)
    records = load_dataset(path, variant=name)
    print(f"{name}: {len(records)} records")
    counts = missing_counts(records)
    gaps = [f"{attr}={counts[attr]}" for attr in ATTRIBUTES if counts[attr]]
    print("missing values: " + (", ".join(gaps) if gaps else "none"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acshare",
        description="deterministic simulation of a cloud data-sharing protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="single-principal walkthrough of all six stages")
    demo.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    demo.add_argument(
        "--key-length",
        type=int,
        default=256,
        choices=KEY_LENGTH_BITS,
        help="key length in bits",
    )
    demo.add_argument(
        "--adversary",
        action="append",
        default=[],
        metavar="CLASS",
        help="run the principal as this adversary class instead",
    )
    demo.set_defaults(func=cmd_demo)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run.add_argument("--out", default="transcript.jsonl", help="transcript output path")
    run.add_argument("--data-dir", default="data", help="directory holding dataset files")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="sweep datasets and key lengths into a CSV")
    bench.add_argument("--out", default="bench.csv", help="CSV output path")
    bench.add_argument("--data-dir", default="data", help="directory holding dataset files")
    bench.add_argument(
        "--dataset",
        action="append",
        default=[],
        metavar="NAME",
        help="dataset name, path, or name=path (repeatable; default: all three variants)",
    )
    bench.add_argument(
        "--key-length",
        action="append",
        type=int,
        default=[],
        metavar="BITS",
        help="key length in bits (repeatable; default: the full sweep)",
    )
    bench.add_argument(
        "--seed", action="append", type=int, default=[], metavar="SEED", help="run seed (repeatable)"
    )
    bench.add_argument("--genuine", type=int, default=1, help="genuine principals per run")
    bench.add_argument(
        "--adversary",
        action="append",
        default=[],
        metavar="CLASS[=N]",
        help="adversary class and count (repeatable)",
    )
    bench.add_argument(
        "--max-records", type=int, default=None, help="truncate each dataset to this many records"
    )
    bench.set_defaults(func=cmd_bench)

    parse = sub.add_parser("parse-dataset", help="load a dataset file and report counts")
    parse.add_argument("--dataset", required=True, help="dataset name, path, or name=path")
    parse.add_argument("--data-dir", default="data", help="directory holding dataset files")
    parse.set_defaults(func=cmd_parse_dataset)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("CONFIG", exc, EXIT_CONFIG)
    except DatasetParseError as exc:
        return _fail("DATASET", exc, EXIT_IO)
    except OSError as exc:
        return _fail("IO", exc, EXIT_IO)
    except (
        PhaseOrderError,
        DuplicateIdentityError,
        UnknownPrincipalError,
        EmptyPayloadError,
    ) as exc:
        return _fail("PROTOCOL", exc, EXIT_PROTOCOL)


if __name__ == "__main__":
    sys.exit(main())
