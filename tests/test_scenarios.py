"""Generated scenarios: the run invariants over drawn configurations.

Each drawn scenario has every adversary class in a small roster, a flip
budget of 1-3 per class, one of the four key lengths and 1-3 Cleveland
records. Seven invariants must hold for all of them: one outcome per
principal, ACCEPTED exactly for the genuine ones, a summary of the
run's own principals whose buckets match the configured counts, each
gate verdict sent by the cloud to the sender of the message it judges
on that message's channel, one memory figure from the closed form, the
transcript and the store ledger, each stored bundle still the owner's
seal of its payload, so no tamperer alters what later users receive,
and each principal holding the key material its KEY_ISSUE line records.
One fixed all-class scenario also hashes alike in two interpreters with
different string hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from acshare.bench import expected_memory_bytes, measure_memory
from acshare.entities import CLOUD_NAME, run_protocol
from acshare.netsim import (
    KEY_LENGTH_BITS,
    AdversaryClass,
    AdversarySpec,
    ScenarioConfig,
    load_payloads,
    principal_roster,
    summarize,
)
from acshare.protocol import make_cipher_bundle
from acshare.wire import ACCEPTED, KIND_KEY_ISSUE

from conftest import ADVERSARY_CLASSES, REPO_ROOT
RECORDS = load_payloads("cleveland", REPO_ROOT / "data" / "cleveland.csv", None)

# one swiss run with two genuine users and one principal of each class
HASH_SEED_RUN = """
import sys
sys.path.insert(0, {src!r})
from acshare.entities import run_protocol
from acshare.netsim import AdversaryClass, AdversarySpec, ScenarioConfig, load_payloads
adversaries = tuple(AdversarySpec(cls, 1) for cls in AdversaryClass if cls is not AdversaryClass.NONE)
config = ScenarioConfig(
    n_genuine=2, adversaries=adversaries, dataset="swiss", key_length_bits=64, seed=3
)
print(run_protocol(config, load_payloads("swiss", {path!r}, 4)).content_hash())
"""


@st.composite
def scenarios(draw) -> tuple[ScenarioConfig, list[bytes]]:
    adversaries = tuple(
        AdversarySpec(cls, count=draw(st.integers(1, 2)), flips=draw(st.integers(1, 3)))
        for cls in ADVERSARY_CLASSES
    )
    config = ScenarioConfig(
        n_genuine=draw(st.integers(1, 2)),  # a replaying outsider needs a genuine user
        adversaries=adversaries,
        dataset="cleveland",
        key_length_bits=draw(st.sampled_from(KEY_LENGTH_BITS)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return config, draw(st.lists(st.sampled_from(RECORDS), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_generated_scenario_invariants(scenario):
    config, payloads = scenario
    transcript = run_protocol(config, payloads)
    roster = principal_roster(config)

    assert sorted(transcript.outcomes) == sorted(name for name, _, _ in roster)
    for name, cls, _ in roster:
        accepted = transcript.outcomes[name].status == ACCEPTED
        assert accepted == (cls is AdversaryClass.NONE), (name, transcript.outcomes[name])

    # the summary reads the run's principals, which must be the configured roster
    assert [user.name for user in transcript.world.users] == [name for name, _, _ in roster]
    summary = summarize(transcript)
    assert summary.genuine_total == config.n_genuine
    for cls in ADVERSARY_CLASSES:
        configured = sum(spec.count for spec in config.adversaries if spec.cls is cls)
        assert sum(summary.per_class[cls.name].values()) == configured, cls

    # a verdict answers the line just before it: the message the gate judged
    messages = list(transcript.messages)
    for judged, verdict in zip(messages, messages[1:]):
        if verdict.kind.endswith(("_ACCEPTED", "_REJECTED")):
            assert (verdict.sender, verdict.recipient, verdict.channel) == (
                CLOUD_NAME, judged.sender, judged.channel
            ), verdict

    store = transcript.world.cloud.store
    measured = measure_memory(config, transcript)
    assert measured == expected_memory_bytes(config, [len(p) for p in payloads])
    assert measured == store.accounted_bytes() + 2 * config.width

    owner = transcript.world.owner
    for bundle, payload in zip(store.bundles, payloads, strict=True):
        sealed = make_cipher_bundle(payload, owner.params, owner.private_key)
        assert (bundle["wrapped"], bundle["payload_digest"]) == sealed

    # each principal holds what its KEY_ISSUE line records: for a forger
    # that is the fabricated key, not the one in its store slot
    issued = {m.recipient: m.fields for m in messages if m.kind == KIND_KEY_ISSUE}
    assert owner.private_key == issued[owner.name]["private_key"]
    unkeyed = (AdversaryClass.WRONG_PASSWORD, AdversaryClass.REPLAY_QUERY)
    for user in transcript.world.users:
        line = issued.get(user.name)
        assert (line is None) == (user.adversary in unkeyed), user.name
        if line is None:
            assert (user.private_key, user.attribute) == (None, None), user.name
            continue
        assert (user.private_key, user.attribute) == (line["private_key"], line["attribute"])
        forged = user.adversary is AdversaryClass.FORGED_PRIVATE_KEY
        assert (user.private_key != store.slot(user.user_id).private_key) == forged, user.name


def test_transcript_hash_is_independent_of_the_hash_seed():
    # str and bytes hashes change with PYTHONHASHSEED, so any set or
    # hash-keyed order that leaks into a transcript shows up here
    code = HASH_SEED_RUN.format(
        src=str(REPO_ROOT / "src"), path=str(REPO_ROOT / "data" / "swiss.csv")
    )
    hashes = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for seed in ("0", "1")
    ]
    assert hashes[0] == hashes[1]
    assert len(hashes[0]) == 64
