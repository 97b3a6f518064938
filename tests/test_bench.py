from __future__ import annotations

import json
import subprocess
import sys

import pytest

from acshare.bench import (
    BenchRow,
    HEADER,
    expected_memory_bytes,
    measure_memory,
    plan_sweep,
    render_csv,
    run_sweep,
    write_csv,
)
from acshare.entities import run_protocol
from acshare.netsim import (
    KEY_LENGTH_BITS,
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    ScenarioConfig,
    load_payloads,
    run_scenario,
    summarize,
)

from conftest import ADVERSARY_CLASSES, REPO_ROOT, by_kind

MIXED = tuple(AdversarySpec(cls=cls, count=1) for cls in ADVERSARY_CLASSES)


def config_for(bits, adversaries=(), n_genuine=1, seed=0):
    return ScenarioConfig(
        n_genuine=n_genuine,
        adversaries=adversaries,
        dataset="sample",
        key_length_bits=bits,
        seed=seed,
    )


class TestRate:
    def test_honest_rate_is_one(self, honest_transcript, honest_config):
        summary = summarize(honest_transcript)
        assert summary.genuine_rate == 1.0

    def test_zero_genuine_sweep_is_refused(self, data_dir):
        # the rate over no genuine principals is undefined, so no cell is planned
        with pytest.raises(ConfigError, match="^no genuine principals in the scenario$"):
            plan_sweep(["swiss"], n_genuine=0, data_dir=data_dir)


class TestMemoryAccounting:
    @pytest.mark.parametrize("bits", KEY_LENGTH_BITS)
    def test_closed_form_matches_measurement(self, bits, sample_payload):
        payloads = [sample_payload, b"short", b"x" * 200]
        config = config_for(bits, adversaries=MIXED, n_genuine=2, seed=3)
        transcript = run_protocol(config, payloads)
        measured = measure_memory(config, transcript)
        predicted = expected_memory_bytes(config, [len(p) for p in payloads])
        assert measured == predicted

    @pytest.mark.parametrize("bits", KEY_LENGTH_BITS)
    def test_matches_store_plus_centre(self, bits, sample_payload):
        config = config_for(bits, seed=9)
        transcript = run_protocol(config, [sample_payload])
        store_bytes = transcript.world.cloud.store.accounted_bytes()
        assert measure_memory(config, transcript) == store_bytes + 2 * (bits // 8)

    def test_strictly_increasing_in_key_length(self, sample_payload):
        sizes = []
        for bits in KEY_LENGTH_BITS:
            config = config_for(bits, seed=1)
            transcript = run_protocol(config, [sample_payload])
            sizes.append(measure_memory(config, transcript))
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_replaying_outsider_stores_nothing(self, sample_payload):
        replay = tuple([AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=3)])
        with_replay = config_for(128, adversaries=replay, seed=2)
        without = config_for(128, seed=2)
        mem_with = measure_memory(with_replay, run_protocol(with_replay, [sample_payload]))
        mem_without = measure_memory(without, run_protocol(without, [sample_payload]))
        assert mem_with == mem_without

    def test_session_grants_overwrite_not_accumulate(self, sample_payload):
        replay = tuple([AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1)])
        config = config_for(128, adversaries=replay, seed=2)
        transcript = run_protocol(config, [sample_payload])
        # two SESSION_STORE messages, one stored key
        assert len(by_kind(transcript, "SESSION_STORE")) == 2
        predicted = expected_memory_bytes(config, [len(sample_payload)])
        assert measure_memory(config, transcript) == predicted

    def test_empty_roster_counts_only_the_centre_and_the_bundle(self, data_dir):
        # the owner's own PROVISION is the one message the server never stores
        config = ScenarioConfig(
            n_genuine=0, adversaries=(), dataset="cleveland", key_length_bits=64, seed=0
        )
        payloads = load_payloads("cleveland", data_dir / "cleveland.csv", 1)
        transcript, summary = run_scenario(config, payloads)
        store_bytes = transcript.world.cloud.store.accounted_bytes()
        assert measure_memory(config, transcript) == 169
        assert expected_memory_bytes(config, [len(payloads[0])]) == 169
        assert store_bytes + 2 * config.width == 169
        assert summary.format_lines() == []


class TestSweep:
    def test_row_grid_and_order(self, data_dir):
        rows = run_sweep(
            ["swiss"], key_lengths=(64, 128), seeds=(0, 1), data_dir=data_dir, max_records=3
        )
        grid = [(r.dataset, r.key_length_bits, r.seed) for r in rows]
        assert grid == [
            ("swiss", 64, 0),
            ("swiss", 64, 1),
            ("swiss", 128, 0),
            ("swiss", 128, 1),
        ]
        assert all(r.genuine_detection_rate == 1.0 for r in rows)

    @pytest.mark.parametrize(
        "cell",
        [{"seeds": [-1]}, {"key_lengths": [100]}, {"n_genuine": 0}],
        ids=["bad_seed", "bad_key_length", "no_genuine"],
    )
    def test_bad_cell_rejected_before_data_is_read(self, tmp_path, cell):
        with pytest.raises(ConfigError):
            run_sweep(["cleveland"], data_dir=tmp_path / "missing", **cell)

    def test_empty_dataset_rejected_before_any_run(self, data_dir, tmp_path, monkeypatch):
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")

        def no_run(*_args):
            raise AssertionError("a protocol run started")

        monkeypatch.setattr("acshare.entities.run_protocol", no_run)
        with pytest.raises(ConfigError, match="has no records"):
            run_sweep(["swiss", str(empty)], key_lengths=(64,), data_dir=data_dir)

    def test_csv_format(self, tmp_path):
        rows = [
            BenchRow("swiss", 64, 12345, 1.0, 0),
            BenchRow("swiss", 128, 23456, 0.9153, 7),
        ]
        text = render_csv(rows)
        lines = text.splitlines()
        assert lines[0] == HEADER
        assert lines[1] == "swiss,64,12345,1.0000,0"
        assert lines[2] == "swiss,128,23456,0.9153,7"
        out = tmp_path / "bench.csv"
        write_csv(rows, out)
        raw = out.read_bytes()
        assert raw.endswith(b"\n")
        assert b"\r" not in raw

    def test_sweep_is_deterministic(self, data_dir):
        first = run_sweep(["swiss"], key_lengths=(64,), data_dir=data_dir, max_records=2)
        second = run_sweep(["swiss"], key_lengths=(64,), data_dir=data_dir, max_records=2)
        assert render_csv(first) == render_csv(second)


def test_scale_probe_counts_the_run(data_dir):
    script = REPO_ROOT / "scripts" / "scale_probe.py"
    done = subprocess.run(
        [sys.executable, str(script), "--users", "2", "--bits", "64"],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout)
    assert set(report) == {"users", "bits", "messages", "run_s", "hash_s", "peak_rss_mib"}
    assert (report["users"], report["bits"]) == (2, 64)
    config = ScenarioConfig(
        n_genuine=2, adversaries=(), dataset="cleveland", key_length_bits=64, seed=1
    )
    transcript, _ = run_scenario(config, load_payloads("cleveland", data_dir / "cleveland.csv", None))
    assert report["messages"] == len(transcript.messages)
