from __future__ import annotations

import json

import pytest

from acshare.entities import (
    CLOUD_NAME,
    CloudAgent,
    CloudStore,
    DuplicateIdentityError,
    KgcAgent,
    OwnerAgent,
    Phase,
    PhaseOrderError,
    STAGES,
    UnknownPrincipalError,
    UserAgent,
    data_sharing_phase,
    encryption_phase,
    run_protocol,
    setup_phase,
    validation_phase,
)
from acshare.netsim import AdversaryClass, AdversarySpec, Network, ScenarioConfig
from acshare.primitives import Rng
from acshare.protocol import Credentials, new_system_params
from acshare.wire import ACCEPTED, PUBLIC, Message, Transcript


def fresh_net(width=8, seed=0):
    return Network(transcript=Transcript(), rng=Rng(seed), adversaries={}, width=width)


def fresh_user(name="user-000", width=8, adversary=AdversaryClass.NONE):
    creds = Credentials(user_id=name.encode("ascii"), password=bytes(width))
    return UserAgent(name=name, credentials=creds, adversary=adversary)


class TestHonestRun:
    def test_message_count_and_steps(self, honest_transcript):
        steps = [m.step for m in honest_transcript.messages]
        assert steps == list(range(1, len(steps) + 1))
        assert len(steps) == 19

    def test_stage_order_is_monotonic(self, honest_transcript):
        order = {stage: index for index, stage in enumerate(STAGES)}
        indices = [order[m.stage] for m in honest_transcript.messages]
        assert indices == sorted(indices)
        assert set(indices) == set(range(6))

    def test_outcome_and_payload_fidelity(self, honest_transcript, sample_payload):
        outcome = honest_transcript.outcomes["user-000"]
        assert outcome.status == ACCEPTED
        assert outcome.recovered == 1
        user = honest_transcript.world.user("user-000")
        assert user.phase is Phase.COMPLETE
        assert user.recovered == [sample_payload]

    def test_store_mirrors_issued_material(self, honest_transcript):
        world = honest_transcript.world
        slot = world.cloud.store.slot(b"user-000")
        user = world.user("user-000")
        assert slot.private_key == user.keys.private_key
        assert slot.session_key == user.session_key
        assert slot.password == user.credentials.password
        assert len(world.cloud.store.bundles) == 1

    def test_multiple_payloads_keep_order(self, honest_config):
        payloads = [b"alpha", b"beta", b"gamma"]
        transcript = run_protocol(honest_config, payloads)
        assert transcript.world.user("user-000").recovered == payloads

    def test_world_lookup_unknown_name(self, honest_transcript):
        with pytest.raises(UnknownPrincipalError):
            honest_transcript.world.user("nobody")


class TestTranscriptSerialization:
    def test_json_shape(self, honest_transcript):
        doc = json.loads(honest_transcript.messages[0].to_json())
        assert list(doc) == ["step", "phase", "from", "to", "channel", "kind", "fields"]
        assert doc["step"] == 1
        assert doc["phase"] == "setup"
        for value in doc["fields"].values():
            assert value == value.lower()
            bytes.fromhex(value)

    def test_annotation_key_only_when_present(self):
        plain = Message(1, "setup", "a", "b", PUBLIC, "REGISTER_DIGEST", {"x": b"\x01"})
        noted = Message(
            1, "setup", "a", "b", PUBLIC, "REGISTER_DIGEST", {"x": b"\x01"}, {"k": 1}
        )
        assert "annotation" not in json.loads(plain.to_json())
        assert json.loads(noted.to_json())["annotation"] == {"k": 1}

    def test_compact_separators(self, honest_transcript):
        line = honest_transcript.messages[0].to_json()
        assert ", " not in line and ": " not in line

    def test_jsonl_has_lf_endings_only(self, honest_transcript, tmp_path):
        out = tmp_path / "t.jsonl"
        honest_transcript.write(out)
        raw = out.read_bytes()
        assert raw.count(b"\n") == len(honest_transcript.messages)
        assert b"\r" not in raw

    def test_content_hash_matches_reruns(self, honest_config, sample_payload, honest_transcript):
        again = run_protocol(honest_config, [sample_payload])
        assert again.content_hash() == honest_transcript.content_hash()


class TestCloudStore:
    def test_duplicate_identity(self):
        store = CloudStore()
        store.register(b"u", b"p")
        with pytest.raises(DuplicateIdentityError):
            store.register(b"u", b"other")

    def test_unknown_principal(self):
        with pytest.raises(UnknownPrincipalError):
            CloudStore().slot(b"ghost")

    def test_empty_store_accounts_zero(self):
        assert CloudStore().accounted_bytes() == 0

    def test_accounting_adds_up(self):
        store = CloudStore()
        store.s = bytes(8)
        store.register(b"uid", bytes(8))
        store.slot(b"uid").private_key = bytes(8)
        store.slot(b"uid").session_key = bytes(8)
        store.add_bundle(b"w" * 20, b"d" * 32)
        assert store.accounted_bytes() == 8 + (3 + 8) + 8 + 8 + 20 + 32


class TestPhaseOrder:
    def test_registration_needs_system_params(self):
        net = fresh_net()
        with pytest.raises(PhaseOrderError):
            setup_phase(fresh_user(), CloudAgent(), KgcAgent(), net, 8)

    def test_registration_runs_once(self):
        net = fresh_net()
        kgc = KgcAgent()
        kgc.params = new_system_params(net.rng, 8)
        cloud = CloudAgent()
        user = fresh_user()
        setup_phase(user, cloud, kgc, net, 8)
        assert user.phase is Phase.REGISTERED
        with pytest.raises(PhaseOrderError):
            setup_phase(user, cloud, kgc, net, 8)

    def test_encryption_requires_keys(self):
        owner = OwnerAgent()
        with pytest.raises(PhaseOrderError):
            encryption_phase(owner, CloudAgent(), [b"x"], fresh_net())

    def test_validation_requires_grant(self):
        with pytest.raises(PhaseOrderError):
            validation_phase(fresh_user(), CloudAgent(), fresh_net(), 8)

    def test_sharing_requires_verification(self):
        with pytest.raises(PhaseOrderError):
            data_sharing_phase(CloudAgent(), fresh_user(), fresh_net())


class TestAccounting:
    def test_zero_user_run_never_provisions_the_server(self, sample_payload):
        config = ScenarioConfig(
            n_genuine=0, adversaries=(), dataset="sample", key_length_bits=256, seed=4
        )
        transcript = run_protocol(config, [sample_payload])
        store = transcript.world.cloud.store
        assert store.s is None
        assert store.users == {}
        # one bundle: payload, stripped owner key, framing, digest
        assert store.accounted_bytes() == len(sample_payload) + 32 + 8 + 32

    def test_store_accounting_matches_slots(self, honest_transcript):
        store = honest_transcript.world.cloud.store
        slot = store.slot(b"user-000")
        expected = (
            len(store.s)
            + len(b"user-000")
            + len(slot.password)
            + len(slot.private_key)
            + len(slot.session_key)
            + sum(len(w) + len(d) for w, d in store.bundles)
        )
        assert store.accounted_bytes() == expected


class TestReplaySideEffects:
    def test_no_desync_and_no_key_leak(self, sample_payload):
        config = ScenarioConfig(
            n_genuine=1,
            adversaries=(AdversarySpec(cls=AdversaryClass.REPLAY_QUERY, count=1),),
            dataset="sample",
            key_length_bits=128,
            seed=12,
        )
        transcript = run_protocol(config, [sample_payload])
        world = transcript.world
        victim = world.user("user-000")
        injector = world.user("adv-replay_query-000")
        slot = world.cloud.store.slot(b"user-000")
        assert victim.session_key == slot.session_key
        assert victim.phase is Phase.COMPLETE
        assert injector.session_key is None
        assert injector.phase is Phase.REJECTED
        assert injector.claimed_id == b"user-000"
        # the grant was re-stored once per query, same bytes both times
        grants = transcript.by_kind("SESSION_STORE")
        assert len(grants) == 2
        assert grants[0].fields["session_key"] == grants[1].fields["session_key"]
