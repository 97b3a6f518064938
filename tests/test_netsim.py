from __future__ import annotations

import json
import re

import pytest

from acshare import entities, netsim
from acshare.entities import run_protocol
from acshare.netsim import (
    CORRUPTS,
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    KEY_LENGTH_BITS,
    MAX_FLIPS,
    MAX_PRINCIPALS,
    Network,
    ScenarioConfig,
    apply_adversary,
    load_payloads,
    principal_roster,
    run_scenario,
    summarize,
)
from acshare.primitives import Rng
from acshare.protocol import make_cipher_bundle
from acshare.wire import (
    ACCEPTED,
    KIND_DATA_SHARE,
    KIND_KEY_ISSUE,
    KIND_REGISTER,
    KIND_VALIDATE,
    OUTCOME_STATUSES,
    PRIVATE,
    PUBLIC,
    REJECTED,
)

from conftest import ADVERSARY_CLASSES, EXPECTED_END, StubRng, by_kind


def scenario(**overrides):
    base = dict(
        n_genuine=1, adversaries=(), dataset="sample", key_length_bits=128, seed=5
    )
    base.update(overrides)
    return ScenarioConfig(**base)


#: how run_protocol sends each corrupted kind: (sent by the adversary, peer, channel, fields)
SENDS = {
    KIND_REGISTER: (True, "cloud", PRIVATE, {"user_id": b"adv-x", "password": bytes(8)}),
    KIND_KEY_ISSUE: (
        False, "kgc", PRIVATE, {"public_param": bytes(8), "attribute": bytes(8), "private_key": bytes(8)}
    ),
    KIND_VALIDATE: (
        True, "cloud", PRIVATE, {"user_id": b"adv-x", "v1": bytes(8), "v2": bytes(8), "nonce": bytes(8)}
    ),
    KIND_DATA_SHARE: (False, "cloud", PUBLIC, {"wrapped": bytes(64), "payload_digest": bytes(32)}),
}


def send(net, kind):
    """Send ``kind`` between ``adv-x`` and its peer as run_protocol does."""
    outbound, peer, channel, fields = SENDS[kind]
    sender, recipient = ("adv-x", peer) if outbound else (peer, "adv-x")
    return net.transmit("stage", sender, recipient, channel, kind, fields)


class TestChannel:
    def test_unknown_kind_rejected(self):
        # a corrupting kind bound for an adversary is refused before any draw,
        # as is a query from a replayer, which the network never alters
        for adversaries, sender, recipient, kind, fields in (
            ({}, "user-000", "cloud", "ACCESS_QUERY", {}),
            (
                {"adv-x": (AdversaryClass.TAMPER_CIPHERTEXT, 1)}, "cloud", "adv-x", KIND_DATA_SHARE,
                SENDS[KIND_DATA_SHARE][3],
            ),
            ({"adv-x": (AdversaryClass.REPLAY_QUERY, 1)}, "adv-x", "cloud", "ACCESS_QUERY", {}),
        ):
            net = Network(rng=Rng(0), adversaries=adversaries, width=8)
            with pytest.raises(ValueError):
                net.transmit("access", sender, recipient, "CARRIER_PIGEON", kind, fields)
            assert list(net.transcript.messages) == []
            assert net.rng.take(8) == Rng(0).take(8)


class TestCorrupts:
    @pytest.mark.parametrize("cls", list(CORRUPTS), ids=lambda cls: cls.name)
    def test_class_corrupts_only_its_kind(self, cls):
        kind, names = CORRUPTS[cls]
        net = Network(rng=Rng(0), adversaries={"adv-x": (cls, 1)}, width=8)
        _, _, channel, sent = SENDS[kind]
        delivered = send(net, kind)
        lines = list(net.transcript.messages)
        assert delivered is lines[-1] and delivered.fields != sent
        assert delivered.fields.keys() == sent.keys()
        assert {name for name in sent if delivered.fields[name] != sent[name]} <= set(names)
        assert delivered.annotation["adversary"] == cls.name
        if channel == PRIVATE:
            assert len(lines) == 1
        else:
            original = lines[0]
            assert len(lines) == 2
            assert (original.fields, original.annotation) == (sent, {"tampered_in_flight": True})
            assert delivered.annotation["tampered_copy_of_step"] == original.step
        for other in SENDS.keys() - {kind}:
            untouched = send(net, other)
            assert (untouched.fields, untouched.annotation) == (SENDS[other][3], None)
        assert len(net.transcript.messages) == len(lines) + len(SENDS) - 1


class TestHonestPath:
    @pytest.mark.parametrize(
        "adversaries", [{}, {"adv-x": (AdversaryClass.REPLAY_QUERY, 1)}], ids=["none", "replay-only"]
    )
    @pytest.mark.parametrize("kind", list(SENDS))
    def test_send_is_recorded_untouched(self, kind, adversaries, monkeypatch):
        # a network with no corrupting principal never reaches the tamper path
        def refuse(*args, **kwargs):
            raise AssertionError("apply_adversary called on an honest message")

        monkeypatch.setattr(netsim, "apply_adversary", refuse)
        net = Network(rng=Rng(0), adversaries=adversaries, width=8)
        assert net.corrupting == {}
        delivered = send(net, kind)
        assert delivered.fields is SENDS[kind][3] and delivered.annotation is None
        assert len(net.transcript.messages) == 1
        assert net.rng.take(8) == Rng(0).take(8)

    def test_table_holds_exactly_the_corrupting_principals(self, monkeypatch):
        nets = []

        class RecordedNetwork(Network):
            def __init__(self, *args):
                super().__init__(*args)
                nets.append(self)

        monkeypatch.setattr(entities, "Network", RecordedNetwork)
        config = scenario(
            n_genuine=2, adversaries=tuple(AdversarySpec(cls, 1, flips=2) for cls in ADVERSARY_CLASSES)
        )
        run_protocol(config, [b"alpha"])
        (net,) = nets
        assert net.corrupting == {
            name: (CORRUPTS[cls][0], cls, 2)
            for name, cls, _ in principal_roster(config)
            if cls in CORRUPTS
        }
        assert {cls for _, cls, _ in net.corrupting.values()} == set(CORRUPTS)


class TestScenarioConfig:
    def test_key_length_checked(self):
        with pytest.raises(ConfigError):
            scenario(key_length_bits=100)

    def test_negative_population_checked(self):
        with pytest.raises(ConfigError, match=">= 0"):
            scenario(n_genuine=-1)
        with pytest.raises(ConfigError, match=">= 0"):
            AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=-1)

    @pytest.mark.parametrize("value", [True, 64.0])
    def test_integer_fields_refuse_bools_and_floats(self, value):
        # a Python caller gets the type checks a scenario file gets
        for build in (
            lambda: AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=value),
            lambda: AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=1, flips=value),
            lambda: scenario(n_genuine=value),
            lambda: scenario(key_length_bits=value),
            lambda: scenario(seed=value),
            lambda: scenario(max_records=value),
        ):
            with pytest.raises(ConfigError, match="must be an integer"):
                build()

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
            AdversarySpec(cls=AdversaryClass.NONE, count=1)

    def test_flip_budget_positive(self):
        with pytest.raises(ConfigError):
            AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=1, flips=0)

    def test_flip_budget_bounded(self):
        # each flip adds a note to its line, so a budget of 10**12 would
        # not finish and would exhaust memory on the way
        def tamperer(flips):
            return (AdversarySpec(cls=AdversaryClass.TAMPER_CIPHERTEXT, count=1, flips=flips),)

        for flips in (MAX_FLIPS + 1, 10**12):
            with pytest.raises(ConfigError):
                scenario(adversaries=tamperer(flips))
        scenario(adversaries=tamperer(MAX_FLIPS))

    def test_population_bounded(self):
        # the roster is built whole, so an unbounded population would
        # allocate until memory runs out instead of failing as config
        adversaries = (AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=1),)
        scenario(n_genuine=MAX_PRINCIPALS - 1, adversaries=adversaries)
        for n_genuine, adversaries in (
            (MAX_PRINCIPALS + 1, ()),
            (MAX_PRINCIPALS, adversaries),
            (10**12, ()),
            (1, (AdversarySpec(cls=AdversaryClass.TAMPER_CIPHERTEXT, count=10**12),)),
        ):
            with pytest.raises(ConfigError, match="principals"):
                scenario(n_genuine=n_genuine, adversaries=adversaries)

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

    def test_non_string_class_rejected(self):
        for value in (None, True, 5, ["WRONG_PASSWORD"]):
            doc = {
                "n_genuine": 1,
                "adversaries": [{"class": value, "count": 1}],
                "dataset": "swiss",
                "key_length_bits": 64,
                "seed": 0,
            }
            message = f"^adversary class must be a string, got {re.escape(repr(value))}$"
            with pytest.raises(ConfigError, match=message):
                ScenarioConfig.from_json(doc)

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

    def test_roster_numbers_a_repeated_class_on(self):
        config = scenario(
            adversaries=(
                AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=1),
                AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=1),
                AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=0, flips=3),
                AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=2, flips=2),
                AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=1),
            ),
        )
        assert principal_roster(config)[1:] == [
            ("adv-tamper_validation-000", AdversaryClass.TAMPER_VALIDATION, 1),
            ("adv-wrong_password-000", AdversaryClass.WRONG_PASSWORD, 1),
            ("adv-tamper_validation-001", AdversaryClass.TAMPER_VALIDATION, 2),
            ("adv-tamper_validation-002", AdversaryClass.TAMPER_VALIDATION, 2),
            ("adv-wrong_password-001", AdversaryClass.WRONG_PASSWORD, 1),
        ]


class TestApplyAdversary:
    def test_wrong_password_flips_one_byte(self):
        fields = {"user_id": b"u", "password": bytes(16)}
        mutated, annotation = apply_adversary(
            AdversaryClass.WRONG_PASSWORD, fields, Rng(1), width=16
        )
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

    @pytest.mark.parametrize("cls", list(CORRUPTS), ids=lambda cls: cls.name)
    def test_input_untouched_and_key_order_kept(self, cls):
        kind, names = CORRUPTS[cls]
        sent = SENDS[kind][3]
        # both orders, so the altered fields sit first, between and last
        for fields in (dict(sent), dict(reversed(sent.items()))):
            snapshot = list(fields.items())
            mutated, _ = apply_adversary(cls, fields, Rng(7), width=8, flips=3)
            assert list(fields.items()) == snapshot
            assert list(mutated) == list(fields)
            altered = {name for name in fields if mutated[name] != fields[name]}
            assert altered and altered <= set(names)

    def test_tamper_ciphertext_span_clamps_to_one_byte(self):
        # 3 bytes minus the owner-key frame (16 + 4) leaves no prefix, so
        # every flip lands on byte 0
        fields = {"wrapped": bytes(3), "payload_digest": bytes(32)}
        for seed in range(20):
            mutated, annotation = apply_adversary(
                AdversaryClass.TAMPER_CIPHERTEXT, fields, Rng(seed), width=16, flips=3
            )
            assert [note["byte_index"] for note in annotation["flips"]] == [0, 0, 0]
            assert mutated["wrapped"][0] != 0 and mutated["wrapped"][1:] == bytes(2)
            assert mutated["payload_digest"] == bytes(32)

    def test_tamper_validation_hits_the_pair(self):
        fields = {"user_id": b"u", "v1": bytes(16), "v2": bytes(16), "nonce": bytes(16)}
        mutated, _ = apply_adversary(AdversaryClass.TAMPER_VALIDATION, fields, Rng(3), width=16)
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

    @pytest.mark.parametrize("flips", [2, 3, 8])
    def test_flips_on_one_byte_never_cancel(self, flips):
        # every flip lands on the same byte, so a repeated or completing
        # XOR would hand back the original value
        for seed in range(300):
            mutated, annotation = apply_adversary(
                AdversaryClass.WRONG_PASSWORD, {"password": b"\x00"}, Rng(seed), width=1,
                flips=flips,
            )
            running = 0
            for note in annotation["flips"]:
                running ^= note["xor"]
                assert running != 0
            assert mutated["password"] == bytes([running])

    def test_delta_is_redrawn_until_the_byte_moves(self):
        # both flips land on v1[0]; the second draws the first's delta
        # twice, so one redraw would hand the byte back unchanged
        rng = StubRng({4: [bytes(4)] * 2, 1: [b"\x04", b"\x04", b"\x04", b"\x09"]})
        fields = {"user_id": b"u", "v1": bytes(16), "v2": bytes(16), "nonce": bytes(16)}
        mutated, annotation = apply_adversary(
            AdversaryClass.TAMPER_VALIDATION, fields, rng, width=16, flips=2
        )
        assert [note["xor"] for note in annotation["flips"]] == [5, 10]
        assert mutated["v1"] == b"\x0f" + bytes(15)
        assert mutated["v2"] == fields["v2"]

    def test_replay_preserves_fields(self, sample_payload):
        # a replay re-sends a whole observed message, outside apply_adversary
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            seed=4,
        )
        transcript = run_protocol(config, [sample_payload])
        observed, injected = by_kind(transcript, "ACCESS_QUERY")
        assert injected.fields == observed.fields
        assert injected.sender == observed.sender
        assert injected.annotation == {
            "adversary": "REPLAY_QUERY",
            "replayed_from_step": observed.step,
            "injected_by": "adv-replay_query-000",
        }


class TestPopulationOutcomes:
    @pytest.mark.parametrize("cls", ADVERSARY_CLASSES)
    def test_each_class_terminates_where_expected(self, cls, sample_payload):
        config = scenario(adversaries=(AdversarySpec(cls=cls, count=1),), seed=21)
        transcript = run_protocol(config, [sample_payload])
        name = f"adv-{cls.name.lower()}-000"
        outcome = transcript.outcomes[name]
        status, stage = EXPECTED_END[cls]
        assert (outcome.status, outcome.stage) == (status, stage)
        assert transcript.outcomes["user-000"].status == ACCEPTED

    @pytest.mark.parametrize(
        "cls, seed",
        [
            (AdversaryClass.WRONG_PASSWORD, 3949),
            (AdversaryClass.TAMPER_VALIDATION, 3190),
            (AdversaryClass.TAMPER_CIPHERTEXT, 8254),
        ],
        ids=lambda value: value.name if isinstance(value, AdversaryClass) else str(value),
    )
    def test_two_flips_never_cancel(self, cls, seed, sample_payload):
        # these seeds once drew the same byte and XOR twice, which let
        # the adversary's value through unchanged
        config = scenario(
            adversaries=(AdversarySpec(cls=cls, count=1, flips=2),), key_length_bits=64, seed=seed
        )
        transcript = run_protocol(config, [sample_payload])
        outcome = transcript.outcomes[f"adv-{cls.name.lower()}-000"]
        assert (outcome.status, outcome.stage) == EXPECTED_END[cls]
        assert transcript.outcomes["user-000"].status == ACCEPTED

    def test_mixed_population_counts(self, sample_payload):
        config = scenario(
            n_genuine=10,
            adversaries=(AdversarySpec(cls=AdversaryClass.WRONG_PASSWORD, count=5),),
            seed=33,
        )
        transcript = run_protocol(config, [sample_payload])
        summary = summarize(transcript)
        assert summary.per_class["genuine"][ACCEPTED] == 10
        assert summary.per_class["WRONG_PASSWORD"][REJECTED] == 5
        assert summary.genuine_complete == 10

    def test_outcome_partition_is_total(self, sample_payload):
        config = scenario(
            n_genuine=2,
            adversaries=tuple(AdversarySpec(cls=cls, count=1) for cls in ADVERSARY_CLASSES),
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

    @pytest.mark.parametrize(
        "cls, seed, flipped",
        [
            (AdversaryClass.WRONG_PASSWORD, 13, None),
            (AdversaryClass.FORGED_PRIVATE_KEY, 13, None),
            (AdversaryClass.TAMPER_VALIDATION, 3, "v1"),
            (AdversaryClass.TAMPER_VALIDATION, 0, "v2"),
        ],
        ids=["WRONG_PASSWORD", "FORGED_PRIVATE_KEY", "TAMPER_VALIDATION-v1", "TAMPER_VALIDATION-v2"],
    )
    def test_rejection_mismatch_is_recheckable(self, cls, seed, flipped, sample_payload):
        config = scenario(
            n_genuine=0,
            adversaries=(AdversarySpec(cls=cls, count=1),),
            key_length_bits=64,
            seed=seed,
        )
        transcript = run_protocol(config, [sample_payload])
        name = f"adv-{cls.name.lower()}-000"
        if flipped is not None:
            (validate,) = [m for m in by_kind(transcript, "VALIDATE") if m.sender == name]
            assert [note["field"] for note in validate.annotation["flips"]] == [flipped]
        (rejection,) = [
            m for m in transcript.messages
            if m.kind.endswith("_REJECTED") and m.recipient == name
        ]
        fields = rejection.fields
        pairs = [
            (fields[key], fields["expected" if "expected" in fields else f"{key}_expected"])
            for key in fields
            if key != "expected" and not key.endswith("_expected")
        ]
        first = next(pair for pair in pairs if pair[0] != pair[1])
        assert transcript.outcomes[name].mismatch == (first[0].hex(), first[1].hex())


class TestChannelDiscipline:
    def test_private_lines_never_observed_or_tampered(self, sample_payload):
        config = scenario(
            n_genuine=2,
            adversaries=tuple(AdversarySpec(cls=cls, count=1) for cls in ADVERSARY_CLASSES),
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
        validates = by_kind(transcript, "VALIDATE")
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
            m for m in by_kind(transcript, "DATA_SHARE") if m.recipient != "user-000"
        ]
        assert len(shares) == 2
        original, copy = shares
        assert original.annotation["tampered_in_flight"] is True
        assert copy.annotation["tampered_copy_of_step"] == original.step
        assert copy.step == original.step + 1
        assert copy.fields["wrapped"] != original.fields["wrapped"]
        assert copy.fields["payload_digest"] == original.fields["payload_digest"]
        # the honest user's share stayed untouched
        honest = [m for m in by_kind(transcript, "DATA_SHARE") if m.recipient == "user-000"]
        assert all(m.annotation is None for m in honest)

    def test_shares_resend_the_stored_upload(self, data_dir):
        payloads = load_payloads("cleveland", data_dir / "cleveland.csv", 4)
        config = scenario(
            n_genuine=3,
            adversaries=(AdversarySpec(cls=AdversaryClass.TAMPER_CIPHERTEXT, count=2, flips=2),),
            key_length_bits=64,
        )
        transcript = run_protocol(config, payloads)
        world = transcript.world
        bundles = world.cloud.store.bundles
        uploads = by_kind(transcript, "CIPHER_UPLOAD")
        assert len(bundles) == len(uploads) == 4
        assert all(bundle is upload.fields for bundle, upload in zip(bundles, uploads))

        shares = by_kind(transcript, "DATA_SHARE")
        copies = [m for m in shares if "tampered_copy_of_step" in (m.annotation or {})]
        originals = [m for m in shares if "tampered_copy_of_step" not in (m.annotation or {})]
        assert len(copies) == 2  # each tamperer stops at its first altered share
        for name, _, _ in principal_roster(config):
            sent = [m for m in originals if m.recipient == name]
            assert len(sent) == (4 if name.startswith("user-") else 1)
            assert all(m.fields is bundle for m, bundle in zip(sent, bundles))
        assert all(m.fields is not bundle for m in copies for bundle in bundles)

        owner = world.owner
        for bundle, payload in zip(bundles, payloads, strict=True):
            sealed = make_cipher_bundle(payload, owner.params, owner.private_key)
            assert (bundle["wrapped"], bundle["payload_digest"]) == sealed


class TestReplayFlow:
    def test_injected_query_matches_observed(self, sample_payload):
        config = scenario(
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            seed=20,
        )
        transcript = run_protocol(config, [sample_payload])
        queries = by_kind(transcript, "ACCESS_QUERY")
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
        grants = by_kind(transcript, "ACCESS_ACCEPTED")
        assert len(grants) == 2
        assert grants[1].annotation == {"granted_for_replay_of_step": observed.step}

    def test_every_replayer_resends_the_first_query(self, sample_payload):
        config = scenario(
            n_genuine=2,
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=2),),
            key_length_bits=64,
        )
        transcript = run_protocol(config, [sample_payload])
        first = by_kind(transcript, "ACCESS_QUERY")[0]
        assert first.sender == "user-000"
        injected = [
            m for m in by_kind(transcript, "ACCESS_QUERY") if m.annotation.get("adversary")
        ]
        assert [m.annotation["injected_by"] for m in injected] == [
            "adv-replay_query-000",
            "adv-replay_query-001",
        ]
        for message in injected:
            assert message.annotation["replayed_from_step"] == first.step
            assert (message.stage, message.sender, message.recipient, message.channel) == (
                first.stage, first.sender, first.recipient, first.channel
            )
            assert message.fields == first.fields


class TestDeterminism:
    def test_same_seed_same_bytes(self, sample_payload):
        config = scenario(
            n_genuine=3,
            adversaries=(AdversarySpec(cls=AdversaryClass.TAMPER_VALIDATION, count=2),),
            seed=77,
        )
        first = run_protocol(config, [sample_payload])
        second = run_protocol(config, [sample_payload])
        assert first.content_hash() == second.content_hash()

    def test_different_seed_different_bytes(self, sample_payload):
        first = run_protocol(scenario(seed=1), [sample_payload])
        second = run_protocol(scenario(seed=2), [sample_payload])
        assert first.content_hash() != second.content_hash()

    @pytest.mark.parametrize("bits", KEY_LENGTH_BITS)
    def test_every_key_length_completes(self, bits, sample_payload):
        config = scenario(key_length_bits=bits, seed=6)
        transcript = run_protocol(config, [sample_payload])
        assert transcript.outcomes["user-000"].status == ACCEPTED


class TestRunScenario:
    def test_payload_override(self, sample_payload):
        transcript, summary = run_scenario(scenario(seed=2), payloads=[sample_payload])
        assert summary.genuine_complete == 1
        assert len(by_kind(transcript, "CIPHER_UPLOAD")) == 1

    def test_loads_dataset_files(self, data_dir):
        config = scenario(dataset="swiss", seed=2, max_records=4)
        payloads = load_payloads("swiss", data_dir / "swiss.csv", config.max_records)
        transcript, summary = run_scenario(config, payloads)
        assert len(by_kind(transcript, "CIPHER_UPLOAD")) == 4
        assert summary.genuine_complete == 1

    def test_summary_lines_mention_rate(self, sample_payload):
        _, summary = run_scenario(scenario(seed=2), payloads=[sample_payload])
        assert summary.format_lines()[-1].startswith("genuine detection rate: 1.0000")
