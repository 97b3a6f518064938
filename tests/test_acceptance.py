"""Acceptance gate: one test per advertised guarantee.

Each test prints a single summary line so a verbose run reads as a
checklist. They exercise the package only through its public surface.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

from acshare.bench import expected_memory_bytes, genuine_detection_rate, run_sweep
from acshare.cli import main as cli_main
from acshare.dataset import load_dataset, payload_to_record, record_to_payload
from acshare.entities import Phase, run_protocol
from acshare.netsim import KEY_LENGTH_BITS, AdversaryClass, AdversarySpec, ScenarioConfig, summarize
from acshare.primitives import effective_modulus, mod_reduce, to_int
from acshare.protocol import (
    access_query,
    derive_private_key,
    registration_digest,
    validation_messages,
)
from acshare.wire import ACCEPTED, INTEGRITY_FAILURE

from reference import (
    ref_access_query,
    ref_effective_modulus,
    ref_mod_reduce,
    ref_private_key,
    ref_registration_digest,
    ref_validation_pair,
)

WIDTHS = (8, 16, 32, 64)


def test_criterion_1_end_to_end_fidelity_under_ten_seconds(data_dir):
    records = load_dataset(data_dir / "cleveland.csv", variant="cleveland")
    assert len(records) == 303
    payloads = [record_to_payload(record) for record in records]
    config = ScenarioConfig(
        n_genuine=1, adversaries=(), dataset="cleveland", key_length_bits=256, seed=0
    )
    started = time.perf_counter()
    transcript = run_protocol(config, payloads)
    elapsed = time.perf_counter() - started
    user = transcript.world.user("user-000")
    assert user.phase is Phase.COMPLETE
    assert user.recovered == payloads
    assert elapsed < 10.0
    print(f"PASS criterion 1: 303 payloads bit-identical in {elapsed:.2f}s at 256-bit keys")


def test_criterion_2_honest_completeness_across_twenty_seeds(sample_payload):
    for seed in range(20):
        config = ScenarioConfig(
            n_genuine=3, adversaries=(), dataset="sample", key_length_bits=128, seed=seed
        )
        transcript = run_protocol(config, [sample_payload])
        rate = genuine_detection_rate(summarize(transcript, config))
        assert rate == 1.0
    print("PASS criterion 2: rate == 1.0 exactly on all 20 adversary-free seeds")


@pytest.mark.parametrize(
    "cls",
    [
        AdversaryClass.WRONG_PASSWORD,
        AdversaryClass.FORGED_PRIVATE_KEY,
        AdversaryClass.TAMPER_VALIDATION,
        AdversaryClass.TAMPER_CIPHERTEXT,
    ],
)
def test_criterion_3_adversary_soundness_thousand_trials(cls, sample_payload):
    trials = 0
    accepted = 0
    silent_corruption = 0
    for seed in range(50):
        config = ScenarioConfig(
            n_genuine=1,
            adversaries=(AdversarySpec(cls=cls, count=20),),
            dataset="sample",
            key_length_bits=64,
            seed=seed,
        )
        transcript = run_protocol(config, [sample_payload])
        for name, who, _ in [
            entry for entry in _roster(config) if entry[1] is not AdversaryClass.NONE
        ]:
            trials += 1
            outcome = transcript.outcomes[name]
            if outcome.status == ACCEPTED:
                accepted += 1
            if cls is AdversaryClass.TAMPER_CIPHERTEXT:
                agent = transcript.world.user(name)
                if outcome.status != INTEGRITY_FAILURE or agent.recovered:
                    silent_corruption += 1
        # the genuine control user is never collateral damage
        assert transcript.outcomes["user-000"].status == ACCEPTED
    assert trials == 1000
    assert accepted == 0
    assert silent_corruption == 0
    print(f"PASS criterion 3: {cls.name} 1000 trials, 0 accepted, 0 silent corruptions")


def _roster(config):
    from acshare.netsim import principal_roster

    return principal_roster(config)


def test_criterion_4_replay_reaches_grant_and_is_annotated(sample_payload):
    granted = 0
    trials = 100
    for seed in range(trials):
        config = ScenarioConfig(
            n_genuine=1,
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            dataset="sample",
            key_length_bits=64,
            seed=seed,
        )
        transcript = run_protocol(config, [sample_payload])
        injected = [
            m
            for m in transcript.by_kind("ACCESS_QUERY")
            if m.annotation and m.annotation.get("adversary") == "REPLAY_QUERY"
        ]
        assert len(injected) == 1
        assert "replayed_from_step" in injected[0].annotation
        grants = [
            m
            for m in transcript.by_kind("ACCESS_ACCEPTED")
            if m.annotation and "granted_for_replay_of_step" in m.annotation
        ]
        if grants:
            granted += 1
        # the hijack is caught one stage later, at validation
        outcome = transcript.outcomes["adv-replay_query-000"]
        assert outcome.status != ACCEPTED
        assert outcome.stage == "validation"
    assert granted == trials
    print(f"PASS criterion 4: replayed query granted access in {granted}/{trials} trials, annotated")


def test_criterion_5_byte_identical_reruns(tmp_path, data_dir):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "n_genuine": 2,
                "adversaries": [{"class": "TAMPER_CIPHERTEXT", "count": 1}],
                "dataset": "swiss",
                "key_length_bits": 128,
                "seed": 31,
                "max_records": 10,
            }
        )
    )
    hashes = {"transcript": [], "csv": []}
    for attempt in ("first", "second"):
        transcript_path = tmp_path / f"{attempt}.jsonl"
        csv_path = tmp_path / f"{attempt}.csv"
        assert (
            cli_main(
                [
                    "run",
                    "--scenario",
                    str(scenario),
                    "--out",
                    str(transcript_path),
                    "--data-dir",
                    str(data_dir),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "bench",
                    "--out",
                    str(csv_path),
                    "--data-dir",
                    str(data_dir),
                    "--dataset",
                    "swiss",
                    "--key-length",
                    "64",
                    "--max-records",
                    "5",
                ]
            )
            == 0
        )
        hashes["transcript"].append(hashlib.sha256(transcript_path.read_bytes()).hexdigest())
        hashes["csv"].append(hashlib.sha256(csv_path.read_bytes()).hexdigest())
    assert hashes["transcript"][0] == hashes["transcript"][1]
    assert hashes["csv"][0] == hashes["csv"][1]
    print("PASS criterion 5: transcript and CSV hashes identical across consecutive runs")


def test_criterion_6_oracle_equivalence_hundred_tuples():
    rnd = random.Random(0xACCE55)
    for trial in range(100):
        width = rnd.choice(WIDTHS)
        user_id = rnd.randbytes(rnd.randint(1, 40))
        password = rnd.randbytes(width)
        s = rnd.randbytes(width)
        m = rnd.randbytes(width)
        public_param = rnd.randbytes(width)
        attribute = rnd.randbytes(width)
        nonce = rnd.randbytes(width)
        session_key = rnd.randbytes(width)

        reg = registration_digest(user_id, password, s, width)
        assert reg == ref_registration_digest(user_id, password, s, width)
        key = derive_private_key(m, public_param, s, attribute, width)
        assert key == ref_private_key(m, public_param, s, attribute, width)
        assert access_query(reg, user_id, key, width) == ref_access_query(
            reg, user_id, key, width
        )
        pair = validation_messages(
            user_id, session_key, s, nonce, key, m, attribute, width
        )
        assert (pair.v1, pair.v2) == ref_validation_pair(
            user_id, session_key, s, nonce, key, m, attribute, width
        )
    print("PASS criterion 6: four derivations byte-exact against the oracle on 100 tuples")


def test_criterion_7_mod_reduce_property_suite():
    rnd = random.Random(0x0D0)
    checked = 0
    for width in WIDTHS:
        for trial in range(2500):
            x = rnd.randbytes(width)
            if trial % 25 == 0:
                # force a degenerate modulus source: an encoding of 0 or 1
                src = (trial // 25 % 2).to_bytes(width, "big")
            else:
                src = rnd.randbytes(width)
            out = mod_reduce(x, src)
            modulus = effective_modulus(src)
            assert modulus > 1
            assert to_int(out) < modulus
            assert out == ref_mod_reduce(x, src)
            assert modulus == ref_effective_modulus(src)
            checked += 1
    assert checked == 10_000
    print("PASS criterion 7: 10,000 reductions below their effective moduli, oracle-exact")


def test_criterion_8_bench_grid_and_closed_form(data_dir):
    datasets = ("cleveland", "hungarian", "swiss")
    rows = run_sweep(datasets, data_dir=data_dir)
    assert len(rows) == 12
    payload_sizes = {}
    for name in datasets:
        records = load_dataset(data_dir / f"{name}.csv", variant=name)
        payload_sizes[name] = [len(record_to_payload(r)) for r in records]
    for name in datasets:
        series = [r.memory_bytes for r in rows if r.dataset == name]
        assert len(series) == len(KEY_LENGTH_BITS)
        assert all(a < b for a, b in zip(series, series[1:]))
    for row in rows:
        config = ScenarioConfig(
            n_genuine=1,
            adversaries=(),
            dataset=row.dataset,
            key_length_bits=row.key_length_bits,
            seed=row.seed,
        )
        assert row.memory_bytes == expected_memory_bytes(config, payload_sizes[row.dataset])
    print("PASS criterion 8: 12-row grid, memory strictly increasing, closed form exact")


def test_criterion_9_dataset_ingestion_round_trip(data_dir):
    counts = {"cleveland": 303, "hungarian": 294, "swiss": 123}
    for name, expected in counts.items():
        records = load_dataset(data_dir / f"{name}.csv", variant=name)
        assert len(records) == expected
        for record in records:
            assert payload_to_record(record_to_payload(record)) == record
    print("PASS criterion 9: 303/294/123 records parsed, 100% round-trip on all three files")
