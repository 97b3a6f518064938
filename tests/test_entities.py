from __future__ import annotations

import gc
import hashlib
import io
import json
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from acshare import entities, wire
from acshare.entities import (
    CloudAgent,
    CloudStore,
    KgcAgent,
    OwnerAgent,
    Phase,
    PhaseOrderError,
    STAGE_ACCESS,
    STAGE_SETUP,
    STAGE_VALIDATION,
    STAGES,
    UserAgent,
    access_control_phase,
    data_sharing_phase,
    encryption_phase,
    keygen_phase,
    replay_access,
    run_protocol,
    setup_phase,
    validation_phase,
)
from acshare.netsim import AdversaryClass, AdversarySpec, Network, ScenarioConfig, load_payloads
from acshare.primitives import Rng
from acshare.protocol import (
    access_query,
    derive_session_key,
    new_system_params,
    registration_digest,
    validation_messages,
)
from acshare.wire import ACCEPTED, PUBLIC, RENDER_CHUNK, Message, Transcript

from conftest import ADVERSARY_CLASSES, EXPECTED_END, by_kind
from reference import ref_recover_payload


# names that need JSON escaping turn up in every run, not only by chance
NAMES = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8,
)


def share_transcript(count, width=2):
    """A transcript of ``count`` DATA_SHARE messages, each with its own payload."""
    transcript = Transcript()
    for i in range(count):
        wrapped = i.to_bytes(width, "big")
        transcript.append(
            "sharing", "cloud", "user-000", PUBLIC, "DATA_SHARE", {"wrapped": wrapped}
        )
    return transcript


def shared_transcript(count, dicts):
    """A transcript of ``count`` DATA_SHARE messages cycling through ``dicts``."""
    transcript = Transcript()
    for i in range(count):
        note = {"share": i} if i % 5 == 0 else None  # plain and annotated lines share a dict
        transcript.append(
            "sharing", "cloud", "user-000", PUBLIC, "DATA_SHARE", dicts[i % len(dicts)], note
        )
    return transcript


def dumps_line(message):
    """The JSON line of ``message`` through ``json.dumps``, independent of the package."""
    doc = {
        "step": message.step,
        "phase": message.stage,
        "from": message.sender,
        "to": message.recipient,
        "channel": message.channel,
        "kind": message.kind,
        "fields": {name: value.hex() for name, value in message.fields.items()},
    }
    if message.annotation is not None:
        doc["annotation"] = message.annotation
    return json.dumps(doc, separators=(",", ":"))


def written_lines(transcript):
    """The lines ``to_jsonl`` writes for ``transcript``, without their newlines."""
    sink = io.BytesIO()
    transcript.to_jsonl(sink)
    return sink.getvalue().decode("ascii").splitlines()


def fresh_net(width=8, seed=0):
    return Network(rng=Rng(seed), adversaries={}, width=width)


def fresh_kgc(net):
    return KgcAgent(new_system_params(net.rng, net.width))


def fresh_user(name="user-000", width=8, adversary=AdversaryClass.NONE):
    return UserAgent(name, name.encode("ascii"), bytes(width), adversary=adversary)


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
        user = honest_transcript.world.user("user-000")
        assert user.phase is Phase.COMPLETE
        assert user.recovered == [sample_payload]

    def test_store_mirrors_issued_material(self, honest_transcript):
        world = honest_transcript.world
        slot = world.cloud.store.slot(b"user-000")
        user = world.user("user-000")
        assert slot.private_key == user.private_key
        assert slot.attribute == user.attribute
        assert slot.session_key == user.session_key
        assert slot.password == user.password
        assert len(world.cloud.store.bundles) == 1

    def test_multiple_payloads_keep_order(self, honest_config):
        payloads = [b"alpha", b"beta", b"gamma"]
        transcript = run_protocol(honest_config, payloads)
        assert transcript.world.user("user-000").recovered == payloads

    def test_world_lookup_unknown_name(self, honest_transcript):
        with pytest.raises(KeyError, match="^'nobody'$"):
            honest_transcript.world.user("nobody")

    def test_one_cipher_context_per_run(self, data_dir):
        config = ScenarioConfig(
            n_genuine=3, adversaries=(), dataset="cleveland", key_length_bits=256, seed=0
        )
        payloads = load_payloads("cleveland", data_dir / "cleveland.csv", None)
        with mock.patch("acshare.entities.KgcAgent", wraps=KgcAgent) as make_kgc:
            world = run_protocol(config, payloads).world
        # the KGC, the owner and every user hold the one drawn SystemParams
        (params,) = make_kgc.call_args.args
        assert world.owner.params is params
        assert all(user.params is params for user in world.users)
        # the owner's seals and every user's opens share one pad per length pair
        pads = {(len(payload) + config.width + 8, len(payload)) for payload in payloads}
        assert set(params._pads) == pads
        assert len(pads) == 4
        # every record is distinct, and each stored bundle is opened once a run
        bundles = world.cloud.store.bundles
        assert set(params._opened) == {(b["wrapped"], b["payload_digest"]) for b in bundles}
        assert len(params._opened) == len(bundles) == len(payloads)
        first, *others = world.users
        assert first.recovered == payloads
        assert all(
            mine is theirs
            for user in others
            for mine, theirs in zip(user.recovered, first.recovered, strict=True)
        )

    def test_memo_keeps_only_verified_opens(self, data_dir):
        # the genuine user opens every bundle before a tamperer's copies
        # arrive, and a tampered copy is opened afresh under its own bytes
        config = ScenarioConfig(
            n_genuine=1,
            adversaries=(AdversarySpec(AdversaryClass.TAMPER_CIPHERTEXT, 3, flips=2),),
            dataset="swiss",
            key_length_bits=64,
            seed=5,
        )
        payloads = load_payloads("swiss", data_dir / "swiss.csv", 6)
        transcript = run_protocol(config, payloads)
        world = transcript.world
        bundles = world.cloud.store.bundles
        by_digest = {b["payload_digest"]: payload for b, payload in zip(bundles, payloads)}
        stored = {b["wrapped"] for b in bundles}
        tampered = {
            m.fields["wrapped"]
            for m in by_kind(transcript, "DATA_SHARE")
            if m.annotation and "tampered_copy_of_step" in m.annotation
        }
        assert tampered and not tampered & stored
        opened = world.owner.params._opened
        assert {(b["wrapped"], b["payload_digest"]) for b in bundles} <= set(opened)
        for (wrapped, payload_digest), payload in opened.items():
            assert wrapped in stored or wrapped in tampered
            assert payload == by_digest[payload_digest]
        statuses = [transcript.outcomes[user.name].status for user in world.users]
        assert statuses == ["ACCEPTED"] + ["INTEGRITY_FAILURE"] * 3

    def test_sharing_failure_carries_the_digest_pair_only_when_framing_holds(self, data_dir):
        # user-000's first share has its first payload byte flipped, so it
        # opens to another payload; user-001's second share has its first
        # length prefix flipped, so its framing breaks
        config = ScenarioConfig(
            n_genuine=3, adversaries=(), dataset="swiss", key_length_bits=64, seed=2
        )
        payloads = load_payloads("swiss", data_dir / "swiss.csv", 3)
        flipped_byte = {("user-000", 0): 4, ("user-001", 1): 0}
        shares_sent = {}
        transmit = Network.transmit

        def tamper(net, stage, sender, recipient, channel, kind, fields, annotation=None):
            if kind == "DATA_SHARE":
                nth = shares_sent[recipient] = shares_sent.get(recipient, -1) + 1
                index = flipped_byte.get((recipient, nth))
                if index is not None:
                    wrapped = bytearray(fields["wrapped"])
                    wrapped[index] ^= 0x80
                    fields = {**fields, "wrapped": bytes(wrapped)}
            return transmit(net, stage, sender, recipient, channel, kind, fields, annotation)

        with mock.patch.object(Network, "transmit", tamper):
            transcript = run_protocol(config, payloads)
        shares = {}
        for message in by_kind(transcript, "DATA_SHARE"):
            shares.setdefault(message.recipient, []).append(message.fields)
        assert [len(shares[f"user-00{i}"]) for i in range(3)] == [1, 2, 3]
        outcomes = transcript.outcomes

        (digest_share,) = shares["user-000"]
        opened = bytes([payloads[0][0] ^ 0x80]) + payloads[0][1:]
        outcome = outcomes["user-000"]
        assert (outcome.status, outcome.stage) == ("INTEGRITY_FAILURE", "sharing")
        assert outcome.reason == "recovered payload does not match its advertised digest"
        assert outcome.mismatch == (
            hashlib.sha256(opened).hexdigest(),
            digest_share["payload_digest"].hex(),
        )
        assert outcome.mismatch[1] == hashlib.sha256(payloads[0]).hexdigest()

        framing_share = shares["user-001"][1]
        params = transcript.world.owner.params
        verdict = ref_recover_payload(
            framing_share["wrapped"], framing_share["payload_digest"], params.s, params.m
        )
        outcome = outcomes["user-001"]
        assert (outcome.status, outcome.stage) == ("INTEGRITY_FAILURE", "sharing")
        assert outcome.mismatch is None
        assert ("IntegrityError", outcome.reason) == verdict
        assert outcome.reason.startswith("field of ")
        assert outcomes["user-002"].status == "ACCEPTED"


class TestTranscriptSerialization:
    def test_json_shape(self, honest_transcript):
        line = written_lines(honest_transcript)[0]
        assert line == dumps_line(list(honest_transcript.messages)[0])
        doc = json.loads(line)
        assert list(doc) == ["step", "phase", "from", "to", "channel", "kind", "fields"]
        assert doc["step"] == 1
        assert doc["phase"] == "setup"
        for value in doc["fields"].values():
            assert value == value.lower()
            bytes.fromhex(value)

    def test_annotation_key_only_when_present(self):
        transcript = Transcript()
        transcript.append("setup", "a", "b", PUBLIC, "REGISTER_DIGEST", {"x": b"\x01"})
        transcript.append("setup", "a", "b", PUBLIC, "REGISTER_DIGEST", {"x": b"\x01"}, {"k": 1})
        plain, noted = written_lines(transcript)
        assert [plain, noted] == [dumps_line(m) for m in transcript.messages]
        assert "annotation" not in json.loads(plain)
        assert json.loads(noted)["annotation"] == {"k": 1}

    def test_compact_separators(self, honest_transcript):
        line = written_lines(honest_transcript)[0]
        assert line == dumps_line(list(honest_transcript.messages)[0])
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

    def test_jsonl_render_follows_appends(self, honest_transcript, tmp_path, monkeypatch):
        def copy_into(transcript, messages):
            for m in messages:
                transcript.append(
                    m.stage, m.sender, m.recipient, m.channel, m.kind, m.fields, m.annotation
                )

        messages = list(honest_transcript.messages)
        half = len(messages) // 2
        grown, fresh = Transcript(), Transcript()
        copy_into(grown, messages[:half])
        first = grown.content_hash()
        copy_into(grown, messages[half:])
        copy_into(fresh, messages)
        renders = []
        to_jsonl = Transcript.to_jsonl
        monkeypatch.setattr(
            Transcript, "to_jsonl", lambda self, sink: renders.append(self) or to_jsonl(self, sink)
        )
        out = tmp_path / "t.jsonl"
        grown.write(out)
        assert grown.content_hash() == hashlib.sha256(out.read_bytes()).hexdigest() != first
        # write renders each message once, and content_hash reuses its digest
        assert renders == [grown]
        steps = [json.loads(line)["step"] for line in out.read_text("ascii").splitlines()]
        assert steps == list(range(1, len(messages) + 1))
        monkeypatch.undo()
        fresh.write(tmp_path / "fresh.jsonl")
        assert out.read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    def test_hash_and_write_copy_no_text(self, tmp_path):
        # many chunks, so that one chunk's text is a small share of the file
        transcript = share_transcript(64 * RENDER_CHUNK, width=64)
        out = tmp_path / "t.jsonl"
        tracemalloc.start()
        try:
            transcript.write(out)
            transcript.content_hash()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size >= 1 << 20
        # the first render holds one chunk of text at a time and keeps none
        assert peak < size / 10

    @pytest.mark.parametrize(
        "distinct", [RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1, 2 * RENDER_CHUNK + 1]
    )
    def test_shared_field_dicts_render_once_per_line(self, distinct, monkeypatch):
        dicts = [{"wrapped": i.to_bytes(2, "big"), "odd": bytes([i % 2])} for i in range(distinct)]
        dicts[1] = dict(dicts[0])  # two distinct dicts with equal values
        # at least three chunks, and every dict recurs
        transcript = shared_transcript(max(3 * RENDER_CHUNK, 2 * distinct) + 1, dicts)
        rendered = []
        render_fields = wire.render_fields
        monkeypatch.setattr(
            wire, "render_fields", lambda fields: rendered.append(fields) or render_fields(fields)
        )
        sink = io.BytesIO()
        transcript.to_jsonl(sink)
        monkeypatch.undo()
        messages = transcript.messages
        assert sink.getvalue() == "".join(dumps_line(m) + "\n" for m in messages).encode("ascii")
        # each kept line renders its own field text, shared dict or not
        assert len(rendered) == len(transcript.kept_messages()) == len(messages)

    def test_reused_field_dict_ids_render_fresh_text(self):
        # every dict fits one chunk, so text kept by id past a write would still be found
        dicts = [{"a": i.to_bytes(2, "big")} for i in range(RENDER_CHUNK // 4)]
        first = shared_transcript(2 * len(dicts), dicts)
        del dicts
        first_ids = {id(m.fields) for m in first.messages}
        first.content_hash()
        del first
        gc.collect()
        # fresh dicts with other bytes, kept only where a freed dict's id is reused
        fresh = [{"b": i.to_bytes(2, "big")} for i in range(16 * RENDER_CHUNK)]
        reused = [fields for fields in fresh if id(fields) in first_ids]
        assert reused, "no id was reused, so the test shows nothing"
        second = shared_transcript(2 * len(reused), reused)
        sink = io.BytesIO()
        second.to_jsonl(sink)
        assert sink.getvalue().decode("ascii").splitlines() == [
            dumps_line(m) for m in second.messages
        ]

    def test_shared_annotation_encodes_once_per_write(self, monkeypatch):
        note = {"observed_by": ["adv-replay_query-000", "adv-replay_query-001"]}
        transcript = Transcript()
        for i in range(2 * RENDER_CHUNK + 1):  # kept lines, more than one memo holds
            fields = {"user_id": b"u", "q": i.to_bytes(2, "big")}
            transcript.append("access", "user-000", "cloud", PUBLIC, "ACCESS_QUERY", fields, note)
            if i % 3 == 0:
                transcript.append("access", "cloud", "user-000", PUBLIC, "ACCESS_ACCEPTED", fields)
        encoded = []
        encode = wire._encode
        monkeypatch.setattr(wire, "_encode", lambda doc: encoded.append(doc) or encode(doc))
        first, second = io.BytesIO(), io.BytesIO()
        transcript.to_jsonl(first)
        transcript.to_jsonl(second)
        monkeypatch.undo()
        assert len(encoded) == 2 and all(doc is note for doc in encoded)
        expected = "".join(dumps_line(m) + "\n" for m in transcript.messages).encode("ascii")
        assert first.getvalue() == second.getvalue() == expected

    def test_note_memo_lives_for_one_write(self):
        # every note fits one memo, so a memo that outlived the write would still hold its id
        def noted(notes):
            transcript = Transcript()
            for note in notes * 2:
                transcript.append("access", "a", "b", PUBLIC, "ACCESS_QUERY", {"x": b"1"}, note)
            return transcript

        notes = [{"a": i} for i in range(RENDER_CHUNK // 4)]
        first = noted(notes)
        del notes
        first_ids = {id(m.annotation) for m in first.messages}
        first.content_hash()
        del first
        gc.collect()
        # fresh notes with other values, kept only where a freed note's id is reused
        fresh = [{"b": i} for i in range(16 * RENDER_CHUNK)]
        reused = [note for note in fresh if id(note) in first_ids]
        assert reused, "no id was reused, so the test shows nothing"
        second = noted(reused)
        assert written_lines(second) == [dumps_line(m) for m in second.messages]

    @pytest.mark.parametrize("replayers", [0, 2])
    def test_access_queries_carry_the_network_note(self, replayers, sample_payload, monkeypatch):
        nets = []

        class RecordedNetwork(Network):
            def __init__(self, *args):
                super().__init__(*args)
                nets.append(self)

        monkeypatch.setattr(entities, "Network", RecordedNetwork)
        adversaries = (AdversarySpec(AdversaryClass.REPLAY_QUERY, replayers),) if replayers else ()
        config = ScenarioConfig(
            n_genuine=3, adversaries=adversaries, dataset="sample", key_length_bits=64, seed=0
        )
        transcript = run_protocol(config, [sample_payload])
        (net,) = nets
        assert net.observed_note == ({"observed_by": net.replayers} if replayers else None)
        queries = by_kind(transcript, "ACCESS_QUERY")
        # every query a user sends carries the one note; only a replay has its own
        replays = [m for m in queries if m.annotation is not net.observed_note]
        assert len(queries) - len(replays) == 3
        assert [m.annotation["injected_by"] for m in replays] == net.replayers

    def test_shared_hash_and_write_copy_no_text(self, tmp_path):
        # each dict is sent twice, so a memo that kept every text would outgrow a chunk
        transcript = Transcript()
        for i in range(64 * RENDER_CHUNK):
            if i % 2 == 0:
                fields = {"wrapped": i.to_bytes(64, "big")}
            transcript.append("sharing", "cloud", "user-000", PUBLIC, "DATA_SHARE", fields)
        out = tmp_path / "t.jsonl"
        tracemalloc.start()
        try:
            transcript.write(out)
            transcript.content_hash()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size >= 1 << 20
        assert peak < size / 10

    @pytest.mark.parametrize("count", [0, 1, RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1])
    def test_render_across_chunk_edges(self, count, tmp_path):
        transcript = share_transcript(count)
        out = tmp_path / "t.jsonl"
        transcript.write(out)
        expected = "".join(dumps_line(m) + "\n" for m in transcript.messages).encode("ascii")
        assert out.read_bytes() == expected  # empty for 0 messages
        written = transcript.content_hash()
        assert written == hashlib.sha256(expected).hexdigest()
        wrapped = count.to_bytes(2, "big")
        transcript.append(
            "sharing", "cloud", "user-000", PUBLIC, "DATA_SHARE", {"wrapped": wrapped}
        )
        # an append makes the recorded digest stale
        assert transcript.content_hash() != written
        assert transcript.content_hash() == share_transcript(count + 1).content_hash()

    @settings(max_examples=100, deadline=None)
    @given(
        step=st.integers(min_value=1),
        names=st.tuples(NAMES, NAMES, NAMES, NAMES, NAMES),
        fields=st.dictionaries(NAMES, st.binary(max_size=8), max_size=4),
        annotation=st.none() | st.just({}) | st.dictionaries(NAMES, JSON_VALUES, max_size=3),
    )
    @example(step=1, names=("", "", "", "", ""), fields={}, annotation={})
    @example(step=1, names=('"', "\\", "\x00", "\u00e9", "\U0001f600"), fields={}, annotation=None)
    def test_line_equals_json_dumps(self, step, names, fields, annotation):
        stage, sender, recipient, channel, kind = names
        doc = {
            "step": step,
            "phase": stage,
            "from": sender,
            "to": recipient,
            "channel": channel,
            "kind": kind,
            "fields": {name: value.hex() for name, value in fields.items()},
        }
        if annotation is not None:
            doc["annotation"] = annotation
        message = Message(step, stage, sender, recipient, channel, kind, fields, annotation)
        line = wire.format_line(
            message, wire.render_fields(message.fields), wire.render_note(message.annotation)
        )
        assert line == json.dumps(doc, separators=(",", ":"))

    @settings(max_examples=100, deadline=None)
    @given(
        dicts=st.lists(
            st.dictionaries(NAMES, st.binary(max_size=8), max_size=3), min_size=1, max_size=4
        ),
        sends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.tuples(NAMES, NAMES, NAMES, NAMES, NAMES),
                st.none() | st.dictionaries(NAMES, JSON_VALUES, max_size=2),
            ),
            max_size=12,
        ),
        chunk=st.integers(min_value=1, max_value=4),
    )
    def test_to_jsonl_equals_json_dumps(self, dicts, sends, chunk):
        transcript = Transcript()
        for pick, (stage, sender, recipient, channel, kind), annotation in sends:
            fields = dicts[pick % len(dicts)]  # some messages share one dict
            transcript.append(stage, sender, recipient, channel, kind, fields, annotation)
        sink = io.BytesIO()
        with mock.patch.object(wire, "RENDER_CHUNK", chunk):  # small chunks fill the memo
            digest = transcript.to_jsonl(sink)
        lines = sink.getvalue().split(b"\n")
        assert lines.pop() == b""
        assert [line.decode("ascii") for line in lines] == [
            dumps_line(m) for m in transcript.messages
        ]
        assert digest == hashlib.sha256(sink.getvalue()).hexdigest()

# (op, pick, header, annotation) of one append; see TestShareRuns.build
APPENDS = st.lists(
    st.tuples(
        st.sampled_from(["upload", "next", "share", "other"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.none() | st.just({}) | st.dictionaries(NAMES, JSON_VALUES, max_size=2),
    ),
    max_size=40,
)


class TestShareRuns:
    """A transcript that keeps untampered shares as runs reads as one that keeps messages."""

    @staticmethod
    def build(appends, headers, copy):
        """Replay ``appends`` into a new transcript, each dict copied when ``copy`` is set.

        ``upload`` sends a new CIPHER_UPLOAD; ``next`` shares the upload
        after the last one shared, ``share`` the upload ``pick`` names
        (out of order or again), and ``other`` sends it as another kind;
        with no upload yet, the message carries a dict of its own.
        """
        transcript, uploads, returned = Transcript(), [], []
        last = -1
        for i, (op, pick, header, annotation) in enumerate(appends):
            stage, sender, recipient, channel = headers[header % len(headers)]
            kind = "DATA_SHARE"
            if op == "upload":
                kind, fields = "CIPHER_UPLOAD", {"wrapped": i.to_bytes(2, "big"), "digest": b"d"}
                uploads.append(fields)
            elif not uploads:
                fields = {"wrapped": i.to_bytes(2, "big")}
            else:
                last = (last + 1 if op == "next" else pick) % len(uploads)
                fields = uploads[last]
            if op == "other":
                kind = "KEY_STORE"
            if copy:
                fields = dict(fields)
            message = transcript.append(stage, sender, recipient, channel, kind, fields, annotation)
            returned.append(message)
        return transcript, returned

    @settings(max_examples=200, deadline=None)
    @given(
        appends=APPENDS,
        headers=st.lists(st.tuples(NAMES, NAMES, NAMES, NAMES), min_size=1, max_size=3),
        chunk=st.sampled_from([1, 2, 3, RENDER_CHUNK]),
    )
    @example(
        appends=[("upload", 0, 0, None)] * 3 + [("next", 0, 0, None)] * 7 + [("next", 0, 1, None)],
        headers=[("sharing", "cloud", name, PUBLIC) for name in ("user-000", "user-001")],
        chunk=2,
    )
    @example(  # a message between two shares in upload order closes the run
        appends=[("upload", 0, 0, None)] * 3 + [("next", 0, 0, None), ("other", 0, 0, None)]
        + [("next", 0, 0, None)] * 2,
        headers=[("sharing", "cloud", "user-000", PUBLIC)],
        chunk=RENDER_CHUNK,
    )
    def test_runs_read_as_kept_messages(self, appends, headers, chunk):
        runs, returned = self.build(appends, headers, copy=False)
        plain, _ = self.build(appends, headers, copy=True)
        assert len(list(plain.kept_messages())) == len(plain.messages)  # no dict is an upload's
        sinks = io.BytesIO(), io.BytesIO()
        with mock.patch.object(wire, "RENDER_CHUNK", chunk):
            digests = [t.to_jsonl(sink) for t, sink in zip((runs, plain), sinks)]
        assert sinks[0].getvalue() == sinks[1].getvalue()
        assert digests[0] == digests[1] == runs.content_hash() == plain.content_hash()
        expected = list(plain.messages)
        assert sinks[0].getvalue() == "".join(dumps_line(m) + "\n" for m in expected).encode()
        assert len(runs.messages) == len(expected) == len(appends)
        assert list(runs.messages) == expected == returned
        assert all(m.fields is sent.fields for m, sent in zip(runs.messages, returned))

    def test_in_order_shares_are_one_run(self):
        appends = [("upload", 0, 0, None)] * 4 + [("next", 0, 0, None)] * 8
        appends[8:8] = [("share", 1, 0, None), ("next", 0, 1, None), ("next", 0, 1, {})]
        headers = [("a", "b", "c", "d"), ("a", "b", "e", "d")]
        transcript, _ = self.build(appends, headers, copy=False)
        kept = [(m.step, m.kind) for m in transcript.kept_messages()]
        # steps 5-8 and 12-15 are each one run; the resend of upload 1 at
        # step 9 opens a run, the header change at step 10 opens another,
        # and step 11 is annotated
        assert kept == [(1, "CIPHER_UPLOAD"), (2, "CIPHER_UPLOAD"), (3, "CIPHER_UPLOAD"),
                        (4, "CIPHER_UPLOAD"), (11, "DATA_SHARE")]
        assert len(transcript._entries) == len(kept) + 4

    def test_runs_grow_by_runs_not_shares(self):
        users, records = 100, 303
        transcript = Transcript()
        for i in range(records):
            fields = {"wrapped": i.to_bytes(32, "big")}
            transcript.append("encryption", "owner", "cloud", PUBLIC, "CIPHER_UPLOAD", fields)
        uploads = [m.fields for m in transcript.messages]
        names = [f"user-{i:03d}" for i in range(users)]
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for name in names:
                for fields in uploads:
                    transcript.append("sharing", "cloud", name, PUBLIC, "DATA_SHARE", fields)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(transcript.messages) == records * (users + 1)
        assert len(transcript._entries) == records + users
        assert (after - before) / (users * records) < 2


class TestCloudStore:
    def test_duplicate_identity(self):
        store = CloudStore()
        store.register(b"u", b"p")
        with pytest.raises(PhaseOrderError, match="^user id b'u' is already registered$"):
            store.register(b"u", b"other")

    def test_unknown_principal(self):
        with pytest.raises(PhaseOrderError, match="^no registered user with id b'ghost'$"):
            CloudStore().slot(b"ghost")

    def test_empty_store_accounts_zero(self):
        assert CloudStore().accounted_bytes() == 0

    def test_accounting_adds_up(self):
        store = CloudStore()
        store.s = bytes(8)
        store.register(b"uid", bytes(8))
        store.slot(b"uid").private_key = bytes(8)
        store.slot(b"uid").session_key = bytes(8)
        store.bundles.append({"wrapped": b"w" * 20, "payload_digest": b"d" * 32})
        assert store.accounted_bytes() == 8 + (3 + 8) + 8 + 8 + 20 + 32

    def test_kept_digest_is_not_accounted(self):
        store = CloudStore()
        store.register(b"uid", bytes(8))
        store.slot(b"uid").digest = bytes(8)
        assert store.accounted_bytes() == 3 + 8


#: each gate derivation, which keeps its last call, with its arity
DERIVED = {
    registration_digest: 3,
    access_query: 3,
    derive_session_key: 3,
    validation_messages: 7,
}

#: one call: (derivation, None or a flip (input, byte, xor) of the base inputs)
DERIVE_CALLS = st.tuples(
    st.sampled_from(list(DERIVED)),
    st.none() | st.tuples(st.integers(0, 6), st.integers(0, 7), st.integers(1, 255)),
)


class TestDerive:
    def test_each_derivation_keeps_one_call(self):
        # a cache that kept more would grow with the roster
        assert [derivation.cache_info().maxsize for derivation in DERIVED] == [1] * len(DERIVED)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.lists(st.binary(min_size=8, max_size=8), min_size=7, max_size=7),
        calls=st.lists(DERIVE_CALLS, max_size=16),
    )
    # a differing ``s``, the last input of a registration digest
    @example(
        base=[bytes(range(i, i + 8)) for i in range(7)],
        calls=[(registration_digest, None), (registration_digest, (2, 7, 1))],
    )
    def test_derive_is_the_direct_call_computed_once_per_distinct_input(self, base, calls):
        # a miss is a computation, so a reuse shows as a miss not counted
        for derivation in DERIVED:
            derivation.cache_clear()
        last = {}  # each derivation's last inputs, kept by the test
        for derivation, flip in calls:
            inputs = base[: DERIVED[derivation]]
            if flip is not None:
                position, index, xor = flip
                position %= len(inputs)
                changed = bytearray(inputs[position])
                changed[index] ^= xor
                inputs[position] = bytes(changed)
            inputs = tuple(inputs)
            misses = derivation.cache_info().misses
            assert derivation(*inputs) == derivation.__wrapped__(*inputs)
            assert derivation.cache_info().misses == misses + (last.get(derivation) != inputs)
            last[derivation] = inputs


class TestPhaseOrder:
    def test_registration_runs_once(self):
        net = fresh_net()
        kgc = fresh_kgc(net)
        cloud = CloudAgent()
        user = fresh_user()
        setup_phase(user, cloud, kgc, net)
        assert user.phase is Phase.REGISTERED
        with pytest.raises(
            PhaseOrderError, match="^user-000 cannot register from phase REGISTERED$"
        ):
            setup_phase(user, cloud, kgc, net)

    def test_user_keygen_needs_registration(self):
        net = fresh_net()
        kgc = fresh_kgc(net)
        with pytest.raises(
            PhaseOrderError, match="^user-000 cannot receive keys from phase INIT$"
        ):
            keygen_phase(kgc, CloudAgent(), fresh_user(), net)

    def test_owner_keygen_runs_once(self):
        net = fresh_net()
        kgc = fresh_kgc(net)
        owner = OwnerAgent()
        keygen_phase(kgc, CloudAgent(), owner, net)
        assert owner.phase is Phase.KEYED
        with pytest.raises(
            PhaseOrderError, match="^owner-000 cannot receive keys from phase KEYED$"
        ):
            keygen_phase(kgc, CloudAgent(), owner, net)

    def test_encryption_requires_keys(self):
        owner = OwnerAgent()
        with pytest.raises(PhaseOrderError, match="^owner-000 cannot encrypt from phase INIT$"):
            encryption_phase(owner, CloudAgent(), [b"x"], fresh_net())

    def test_access_requires_keys(self):
        net = fresh_net()
        with pytest.raises(
            PhaseOrderError, match="^user-000 cannot request access from phase INIT$"
        ):
            access_control_phase(fresh_user(), CloudAgent(), fresh_kgc(net), net)

    def test_replay_only_from_outside(self):
        replayer = fresh_user("adv-replay_query-000", adversary=AdversaryClass.REPLAY_QUERY)
        replayer.phase = Phase.REGISTERED
        net = fresh_net()
        with pytest.raises(
            PhaseOrderError, match="^adv-replay_query-000 cannot replay from phase REGISTERED$"
        ):
            replay_access(replayer, CloudAgent(), fresh_kgc(net), net)

    def test_replay_needs_an_observed_query(self):
        replayer = fresh_user("adv-replay_query-000", adversary=AdversaryClass.REPLAY_QUERY)
        net = fresh_net()
        with pytest.raises(
            PhaseOrderError, match="^no access query was observed, nothing to replay$"
        ):
            replay_access(replayer, CloudAgent(), fresh_kgc(net), net)

    def test_validation_requires_grant(self):
        with pytest.raises(PhaseOrderError, match="^user-000 cannot validate from phase INIT$"):
            validation_phase(fresh_user(), CloudAgent(), fresh_net())

    def test_sharing_requires_verification(self):
        with pytest.raises(
            PhaseOrderError, match="^user-000 cannot receive data from phase INIT$"
        ):
            data_sharing_phase(CloudAgent(), fresh_user(), fresh_net())

    def test_genuine_replay_guesses_at_validation(self):
        # a replayed grant sends its key to the query's sender, so a genuine
        # principal that replays holds none and can only guess its pair
        net = Network(Rng(0), {"adv-replay_query-000": (AdversaryClass.REPLAY_QUERY, 1)}, 8)
        kgc, cloud = fresh_kgc(net), CloudAgent()
        sender, replayer = fresh_user("user-000"), fresh_user("user-001")
        setup_phase(sender, cloud, kgc, net)
        keygen_phase(kgc, cloud, sender, net)
        access_control_phase(sender, cloud, kgc, net)
        replay_access(replayer, cloud, kgc, net)
        assert replayer.phase is Phase.ACCESS_GRANTED and replayer.session_key is None
        validation_phase(replayer, cloud, net)
        assert replayer.phase is Phase.REJECTED
        outcome = net.transcript.outcomes["user-001"]
        assert (outcome.stage, outcome.reason) == ("validation", "validation pair mismatch")
        (guess,) = [m for m in by_kind(net.transcript, "VALIDATE") if m.sender == "user-001"]
        assert guess.annotation["adversary"] == "NONE"
        notes = [m.annotation for m in by_kind(net.transcript, "ACCESS_QUERY")]
        assert [n["adversary"] for n in notes if n and "replayed_from_step" in n] == ["NONE"]

    def test_keyless_principal_verified_without_a_gate_is_rejected_at_sharing(self, data_dir):
        # with the validation gate knocked out, a replayer passes it holding
        # no system parameters, and must stop before it asks for shares
        decide = entities._decide

        def accept_validation(stage, message, expected, *args, **kwargs):
            if stage == STAGE_VALIDATION:
                expected = {name: message.fields[name] for name in expected}
            return decide(stage, message, expected, *args, **kwargs)

        config = ScenarioConfig(
            n_genuine=2,
            adversaries=tuple(AdversarySpec(cls, 1) for cls in ADVERSARY_CLASSES),
            dataset="swiss",
            key_length_bits=64,
            seed=3,
        )
        payloads = load_payloads("swiss", data_dir / "swiss.csv", 4)
        with mock.patch.object(entities, "_decide", accept_validation):
            transcript = run_protocol(config, payloads)
        requesters = {m.sender for m in by_kind(transcript, "DATA_REQUEST")}
        for user in transcript.world.users:
            outcome = transcript.outcomes[user.name]
            end = (outcome.status, outcome.stage)
            if user.adversary is AdversaryClass.REPLAY_QUERY:
                assert (*end, outcome.reason) == (
                    "REJECTED", "sharing", "no system parameters to open shares"
                )
                assert user.name not in requesters
            elif user.adversary is AdversaryClass.TAMPER_VALIDATION:
                assert end == ("ACCEPTED", "sharing")  # validation has no backstop
            else:
                assert end == EXPECTED_END[user.adversary]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bits", [64, 128])
    @pytest.mark.parametrize(
        "gate, cls, end",
        [
            (STAGE_SETUP, AdversaryClass.WRONG_PASSWORD, ("REJECTED", "access")),
            (STAGE_ACCESS, AdversaryClass.FORGED_PRIVATE_KEY, ("REJECTED", "validation")),
        ],
        ids=["setup", "access"],
    )
    def test_setup_and_access_knockouts_have_a_later_backstop(
        self, gate, cls, end, bits, seed, data_dir
    ):
        # with one gate forced to accept, the class it stops is caught one
        # gate later, and every other class ends as with all gates standing
        decide = entities._decide

        def accept_at_gate(stage, message, expected, *args, **kwargs):
            if stage == gate:
                expected = {name: message.fields[name] for name in expected}
            return decide(stage, message, expected, *args, **kwargs)

        config = ScenarioConfig(
            n_genuine=2,
            adversaries=tuple(AdversarySpec(c, 1) for c in ADVERSARY_CLASSES),
            dataset="swiss",
            key_length_bits=bits,
            seed=seed,
        )
        payloads = load_payloads("swiss", data_dir / "swiss.csv", 4)
        with mock.patch.object(entities, "_decide", accept_at_gate):
            transcript = run_protocol(config, payloads)
        users = transcript.world.users
        for user in users:
            outcome = transcript.outcomes[user.name]
            expected = end if user.adversary is cls else EXPECTED_END[user.adversary]
            assert (outcome.status, outcome.stage) == expected, user.name
        if gate == STAGE_ACCESS:
            # the forger validates against the session key its grant stored
            (forger,) = [user for user in users if user.adversary is cls]
            assert forger.name in {m.sender for m in by_kind(transcript, "VALIDATE")}
            assert transcript.world.cloud.store.slot(forger.user_id).session_key is not None

    def test_a_principal_left_without_an_outcome_is_refused(self, sample_payload):
        config = ScenarioConfig(
            n_genuine=1, adversaries=(), dataset="sample", key_length_bits=64, seed=0
        )
        with mock.patch.object(entities, "data_sharing_phase", lambda *args: None):
            with pytest.raises(
                PhaseOrderError, match="^user-000 finished in phase VERIFIED without an outcome$"
            ):
                run_protocol(config, [sample_payload])


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
            + sum(len(b["wrapped"]) + len(b["payload_digest"]) for b in store.bundles)
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
        # the injector claims the identity of the query it resent
        (guess,) = [m for m in by_kind(transcript, "VALIDATE") if m.sender == injector.name]
        assert guess.fields["user_id"] == b"user-000"
        # the replay's re-issue leaves the victim's key as first granted
        assert victim.session_key is by_kind(transcript, "SESSION_KEY")[0].fields["session_key"]
        # the grant was re-stored once per query, same bytes both times
        grants = by_kind(transcript, "SESSION_STORE")
        assert len(grants) == 2
        assert grants[0].fields["session_key"] == grants[1].fields["session_key"]


#: user index of each call; it wraps round the 2-3 users, and keygen
#: reads an index past them as the owner
INDEX = st.integers(0, 3)

#: the messages of the stage guards, the only errors a call out of order may raise
STAGE_GUARD = re.compile(
    r"\S+ cannot [a-z ]+ from phase [A-Z_]+|no access query was observed, nothing to replay"
)

#: the next stage of a user in run order, by phase; an outsider replays
#: where others register
RUN_ORDER = {
    Phase.INIT: "setup",
    Phase.REGISTERED: "keygen",
    Phase.KEYED: "access",
    Phase.ACCESS_GRANTED: "validation",
    Phase.VERIFIED: "sharing",
}


class StageOrderMachine(RuleBasedStateMachine):
    """The seven stage functions, called on random principals in random order.

    Principals of random classes are built as ``run_protocol`` builds
    them, with the replayers in the network's roster. Every call must
    return or raise a stage guard's ``PhaseOrderError``, and a principal
    holds an outcome exactly when its phase is COMPLETE or REJECTED.
    """

    @initialize(
        classes=st.lists(st.sampled_from(AdversaryClass), min_size=2, max_size=3),
        seed=st.integers(0, 2**64 - 1),
    )
    def build(self, classes, seed):
        rng, width = Rng(seed), 8
        names = [f"p-{i}" for i in range(len(classes))]
        roster = {n: (cls, 1) for n, cls in zip(names, classes) if cls is not AdversaryClass.NONE}
        self.net = Network(rng, roster, width)
        self.kgc = KgcAgent(new_system_params(rng, width))
        self.cloud = CloudAgent()
        self.owner = OwnerAgent()
        self.users = [
            UserAgent(n, n.encode("ascii"), rng.take(width), adversary=cls)
            for n, cls in zip(names, classes)
        ]

    # One rule draws the stage. Hypothesis switches whole rules off for an
    # example (swarm testing), and with a rule per stage most examples
    # lacked the replay or the advance that the stage-order defects need.
    @rule(stage=st.sampled_from(STAGES + ("replay", "advance")), i=INDEX)
    def call(self, stage, i):
        """Run ``stage`` on user ``i``; "advance" runs the user's next stage in run order."""
        if stage == "advance":  # without it, random calls seldom get past access
            i %= len(self.users)
            user = self.users[i]
            if user.phase not in RUN_ORDER:
                return
            stage = RUN_ORDER[user.phase]
            if stage == "setup" and user.adversary is AdversaryClass.REPLAY_QUERY:
                stage = "replay"
        user, cloud, kgc, net = self.users[i % len(self.users)], self.cloud, self.kgc, self.net
        principal = self.users[i] if i < len(self.users) else self.owner
        function, *args = {
            "setup": (setup_phase, user, cloud, kgc, net),
            "keygen": (keygen_phase, kgc, cloud, principal, net),
            "encryption": (encryption_phase, self.owner, cloud, [b"record"], net),
            "access": (access_control_phase, user, cloud, kgc, net),
            "replay": (replay_access, user, cloud, kgc, net),
            "validation": (validation_phase, user, cloud, net),
            "sharing": (data_sharing_phase, cloud, user, net),
        }[stage]
        try:
            function(*args)
        except PhaseOrderError as exc:
            if not STAGE_GUARD.fullmatch(str(exc)):
                raise

    @invariant()
    def outcome_exactly_when_done(self):
        for user in self.users:
            done = user.phase in (Phase.COMPLETE, Phase.REJECTED)
            assert (user.name in self.net.transcript.outcomes) == done, user

    @invariant()
    def validation_finds_a_granted_slot(self):
        # validation reads the session and private keys of the id it sends
        # without a check of its own, so every grant must have stored both
        for user in self.users:
            if user.phase is not Phase.ACCESS_GRANTED:
                continue
            if user.session_key is None:
                user_id = self.net.observed_query.fields["user_id"]
            else:
                user_id = user.user_id
            slot = self.cloud.store.users.get(user_id)
            assert slot is not None, (user, user_id)
            assert slot.session_key is not None and slot.private_key is not None, (user, slot)


StageOrderMachine.TestCase.settings = settings(max_examples=150, deadline=None)
TestStageOrder = StageOrderMachine.TestCase
