from __future__ import annotations

import json

import pytest

from acshare.entities import run_protocol
from acshare.netsim import (
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    KEY_LENGTH_BITS,
    Network,
    ScenarioConfig,
    apply_adversary,
    principal_roster,
    run_scenario,
    summarize,
)
from acshare.primitives import Rng
from acshare.wire import (
    ACCEPTED,
    INTEGRITY_FAILURE,
    OUTCOME_STATUSES,
    PRIVATE,
    PUBLIC,
    REJECTED,
    Transcript,
)

ALL_CLASSES = (
    AdversaryClass.WRONG_PASSWORD,
    AdversaryClass.FORGED_PRIVATE_KEY,
    AdversaryClass.TAMPER_VALIDATION,
    AdversaryClass.TAMPER_CIPHERTEXT,
    AdversaryClass.REPLAY_QUERY,
)

EXPECTED_TERMINUS = {
    AdversaryClass.WRONG_PASSWORD: (REJECTED, "setup"),
    AdversaryClass.FORGED_PRIVATE_KEY: (REJECTED, "access"),
    AdversaryClass.TAMPER_VALIDATION: (REJECTED, "validation"),
    AdversaryClass.TAMPER_CIPHERTEXT: (INTEGRITY_FAILURE, "sharing"),
    AdversaryClass.REPLAY_QUERY: (REJECTED, "validation"),
}


def scenario(**overrides):
    base = dict(
        n_genuine=1, adversaries=(), dataset="sample", key_length_bits=128, seed=5
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestChannel:
    def test_unknown_kind_rejected(self):
        net = Network(transcript=Transcript(), rng=Rng(0))
        with pytest.raises(ValueError):
            net.transmit("access", "user-000", "cloud", "CARRIER_PIGEON", "ACCESS_QUERY", {})
        assert net.transcript.messages == []


class TestScenarioConfig:
    def test_key_length_checked(self):
        with pytest.raises(ConfigError):
            scenario(key_length_bits=100)

    def test_negative_population_checked(self):
        with pytest.raises(ConfigError):
            scenario(n_genuine=-1)

    def test_seed_range_checked(self):
        with pytest.raises(ConfigError):
            scenario(seed=2**64)

    def test_replay_needs_a_victim(self):
        with pytest.raises(ConfigError):
            scenario(
                n_genuine=0,
                adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            )

    def test_none_is_not_an_adversary(self):
        with pytest.raises(ConfigError):
            scenario(adversaries=(AdversarySpec(cls=AdversaryClass.NONE, count=1),))

    def test_flip_budget_positive(self):
        with pytest.raises(ConfigError):
            scenario(
                adversaries=(
                    AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=1, flips=0),
                )
            )

    def test_from_json_round_trip(self):
        doc = {
            "n_genuine": 2,
            "adversaries": [{"class": "tamper_ciphertext", "count": 3, "flips": 2}],
            "dataset": "swiss",
            "key_length_bits": 64,
            "seed": 9,
            "max_records": 10,
        }
        config = ScenarioConfig.from_json(doc)
        assert config.n_genuine == 2
        assert config.adversaries == (
            AdversarySpec(cls=AdversaryClass.TAMPER_CIPHERTEXT, count=3, flips=2),
        )
        assert config.max_records == 10
        assert config.width == 8

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(
                {
                    "n_genuine": 1,
                    "adversaries": [],
                    "dataset": "swiss",
                    "key_length_bits": 64,
                    "seed": 0,
                    "surprise": True,
                }
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json({"n_genuine": 1})

    def test_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "n_genuine": 1,
                    "adversaries": [],
                    "dataset": "cleveland",
                    "key_length_bits": 256,
                    "seed": 3,
                }
            )
        )
        assert ScenarioConfig.from_file(path).seed == 3

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_file(path)

    def test_roster_shape(self):
        config = scenario(
            n_genuine=2,
            adversaries=(AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=2),),
        )
        names = [name for name, _, _ in principal_roster(config)]
        assert names == [
            "user-000",
            "user-001",
            "adv-wrong_password-000",
            "adv-wrong_password-001",
        ]


class TestApplyAdversary:
    def test_none_is_identity(self):
        fields = {"user_id": b"user-000", "q": bytes(16)}
        mutated, annotation = apply_adversary(AdversaryClass.NONE, fields, Rng(0))
        assert mutated is fields and annotation is None

    def test_wrong_password_flips_one_byte(self):
        fields = {"user_id": b"u", "password": bytes(16)}
        mutated, annotation = apply_adversary(AdversaryClass.WRONG_PASSWORD, fields, Rng(1))
        diff = [
            i
            for i, (a, b) in enumerate(zip(fields["password"], mutated["password"]))
            if a != b
        ]
        assert len(diff) == 1
        note = annotation["flips"][0]
        assert note["field"] == "password"
        assert note["byte_index"] == diff[0]
        assert fields["password"] == bytes(16)  # input untouched

    def test_forged_key_substitutes_width_bytes(self):
        fields = {"public_param": bytes(16), "attribute": bytes(16), "private_key": bytes(16)}
        mutated, annotation = apply_adversary(
            AdversaryClass.FORGED_PRIVATE_KEY, fields, Rng(2), width=16
        )
        assert mutated["private_key"] != fields["private_key"]
        assert len(mutated["private_key"]) == 16
        assert mutated["public_param"] == fields["public_param"]
        assert annotation["adversary"] == "FORGED_PRIVATE_KEY"

    def test_tamper_validation_hits_the_pair(self):
        fields = {"user_id": b"u", "v1": bytes(16), "v2": bytes(16), "nonce": bytes(16)}
        mutated, _ = apply_adversary(AdversaryClass.TAMPER_VALIDATION, fields, Rng(3))
        changed = (fields["v1"] != mutated["v1"]) + (fields["v2"] != mutated["v2"])
        assert changed == 1
        assert mutated["nonce"] == fields["nonce"]

    def test_tamper_ciphertext_stays_in_payload_span(self):
        width = 16
        wrapped = bytes(100)
        fields = {"wrapped": wrapped, "payload_digest": bytes(32)}
        for seed in range(40):
            mutated, annotation = apply_adversary(
                AdversaryClass.TAMPER_CIPHERTEXT, fields, Rng(seed), width=width
            )
            note = annotation["flips"][0]
            assert note["byte_index"] < len(wrapped) - width - 4
            assert mutated["wrapped"] != wrapped
            assert mutated["payload_digest"] == bytes(32)

    def test_replay_preserves_fields(self, sample_payload):
        # a replay re-sends a whole observed message, outside apply_adversary
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            seed=4,
        )
        transcript = run_protocol(config, [sample_payload])
        observed, injected = transcript.by_kind("ACCESS_QUERY")
        assert injected.fields == observed.fields
        assert injected.sender == observed.sender
        assert injected.annotation == {
            "adversary": "REPLAY_QUERY",
            "replayed_from_step": observed.step,
            "injected_by": "adv-replay_query-000",
        }


class TestPopulationOutcomes:
    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_each_class_terminates_where_expected(self, cls, sample_payload):
        config = scenario(adversaries=(AdversarySpec(cls=cls, count=1),), seed=21)
        transcript = run_protocol(config, [sample_payload])
        name = f"adv-{cls.name.lower()}-000"
        outcome = transcript.outcomes[name]
        status, stage = EXPECTED_TERMINUS[cls]
        assert (outcome.status, outcome.stage) == (status, stage)
        assert transcript.outcomes["user-000"].status == ACCEPTED

    def test_mixed_population_counts(self, sample_payload):
        config = scenario(
            n_genuine=10,
            adversaries=(AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=5),),
            seed=33,
        )
        transcript = run_protocol(config, [sample_payload])
        summary = summarize(transcript, config)
        assert summary.per_class["genuine"][ACCEPTED] == 10
        assert summary.per_class["WRONG_PASSWORD"][REJECTED] == 5
        assert summary.genuine_complete == 10

    def test_outcome_partition_is_total(self, sample_payload):
        config = scenario(
            n_genuine=2,
            adversaries=tuple(AdversarySpec(cls=cls, count=1) for cls in ALL_CLASSES),
            seed=8,
        )
        transcript = run_protocol(config, [sample_payload])
        roster = principal_roster(config)
        assert set(transcript.outcomes) == {name for name, _, _ in roster}
        for name, _, _ in roster:
            outcome = transcript.outcomes[name]
            assert outcome.status in OUTCOME_STATUSES
            if outcome.status != ACCEPTED:
                assert outcome.reason
                assert outcome.stage
            if outcome.status == REJECTED:
                assert outcome.mismatch is not None
                left, right = outcome.mismatch
                assert left != right

    def test_rejection_mismatch_is_recheckable(self, sample_payload):
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=1),),
            seed=13,
        )
        transcript = run_protocol(config, [sample_payload])
        outcome = transcript.outcomes["adv-wrong_password-000"]
        presented, expected = outcome.mismatch
        digest_msg = [
            m
            for m in transcript.by_kind("REGISTER_DIGEST")
            if m.sender == "adv-wrong_password-000"
        ][0]
        assert digest_msg.fields["digest"].hex() == presented
        rejection = transcript.by_kind("REGISTER_REJECTED")[0]
        assert rejection.fields["expected"].hex() == expected


class TestChannelDiscipline:
    def test_private_lines_never_observed_or_tampered(self, sample_payload):
        config = scenario(
            n_genuine=2,
            adversaries=tuple(AdversarySpec(cls=cls, count=1) for cls in ALL_CLASSES),
            seed=17,
        )
        transcript = run_protocol(config, [sample_payload])
        for message in transcript.messages:
            if message.channel == PRIVATE and message.annotation:
                assert "observed_by" not in message.annotation
                assert "tampered_in_flight" not in message.annotation
                assert "tampered_copy_of_step" not in message.annotation

    def test_honest_validation_is_private_replay_is_public(self, sample_payload):
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            seed=18,
        )
        transcript = run_protocol(config, [sample_payload])
        validates = transcript.by_kind("VALIDATE")
        by_sender = {m.sender: m.channel for m in validates}
        assert by_sender["user-000"] == PRIVATE
        assert by_sender["adv-replay_query-000"] == PUBLIC


class TestTamperedDeliveryLogging:
    def test_two_lines_original_then_copy(self, sample_payload):
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.TAMPER_CIPHERTEXT, count=1),),
            seed=19,
        )
        transcript = run_protocol(config, [sample_payload])
        shares = [
            m for m in transcript.by_kind("DATA_SHARE") if m.recipient != "user-000"
        ]
        assert len(shares) == 2
        original, copy = shares
        assert original.annotation["tampered_in_flight"] is True
        assert copy.annotation["tampered_copy_of_step"] == original.step
        assert copy.step == original.step + 1
        assert copy.fields["wrapped"] != original.fields["wrapped"]
        assert copy.fields["payload_digest"] == original.fields["payload_digest"]
        # the honest user's share stayed untouched
        honest = [m for m in transcript.by_kind("DATA_SHARE") if m.recipient == "user-000"]
        assert all(m.annotation is None for m in honest)


class TestReplayFlow:
    def test_injected_query_matches_observed(self, sample_payload):
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            seed=20,
        )
        transcript = run_protocol(config, [sample_payload])
        queries = transcript.by_kind("ACCESS_QUERY")
        assert len(queries) == 2
        observed, injected = queries
        assert observed.annotation == {"observed_by": ["adv-replay_query-000"]}
        assert injected.fields == observed.fields
        assert injected.sender == observed.sender
        assert injected.annotation == {
            "adversary": "REPLAY_QUERY",
            "replayed_from_step": observed.step,
            "injected_by": "adv-replay_query-000",
        }
        grants = transcript.by_kind("ACCESS_ACCEPTED")
        assert len(grants) == 2
        assert grants[1].annotation == {"granted_for_replay_of_step": observed.step}


class TestDeterminism:
    def test_same_seed_same_bytes(self, sample_payload):
        config = scenario(
            n_genuine=3,
            adversaries=(AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=2),),
            seed=77,
        )
        first = run_protocol(config, [sample_payload])
        second = run_protocol(config, [sample_payload])
        assert first.to_jsonl() == second.to_jsonl()

    def test_different_seed_different_bytes(self, sample_payload):
        first = run_protocol(scenario(seed=1), [sample_payload])
        second = run_protocol(scenario(seed=2), [sample_payload])
        assert first.to_jsonl() != second.to_jsonl()

    @pytest.mark.parametrize("bits", KEY_LENGTH_BITS)
    def test_every_key_length_completes(self, bits, sample_payload):
        config = scenario(key_length_bits=bits, seed=6)
        transcript = run_protocol(config, [sample_payload])
        assert transcript.outcomes["user-000"].status == ACCEPTED


class TestRunScenario:
    def test_payload_override(self, sample_payload):
        transcript, summary = run_scenario(scenario(seed=2), payloads=[sample_payload])
        assert summary.genuine_complete == 1
        assert len(transcript.by_kind("CIPHER_UPLOAD")) == 1

    def test_loads_dataset_files(self, data_dir):
        config = scenario(dataset="swiss", seed=2, max_records=4)
        transcript, summary = run_scenario(config, data_dir=data_dir)
        assert len(transcript.by_kind("CIPHER_UPLOAD")) == 4
        assert summary.genuine_complete == 1

    def test_summary_lines_mention_rate(self, sample_payload):
        _, summary = run_scenario(scenario(seed=2), payloads=[sample_payload])
        assert summary.format_lines()[-1].startswith("genuine detection rate: 1.0000")
