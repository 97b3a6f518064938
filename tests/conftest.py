from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from acshare.dataset import SAMPLE_RECORD, record_to_payload
from acshare.entities import run_protocol
from acshare.netsim import AdversaryClass, Network, ScenarioConfig
from acshare.wire import Message, Transcript

REPO_ROOT = Path(__file__).resolve().parent.parent

#: every adversary class, in declaration order
ADVERSARY_CLASSES = tuple(cls for cls in AdversaryClass if cls is not AdversaryClass.NONE)

#: the (status, stage) each principal class ends with when every gate stands
EXPECTED_END = {
    AdversaryClass.NONE: ("ACCEPTED", "sharing"),
    AdversaryClass.WRONG_PASSWORD: ("REJECTED", "setup"),
    AdversaryClass.FORGED_PRIVATE_KEY: ("REJECTED", "access"),
    AdversaryClass.TAMPER_VALIDATION: ("REJECTED", "validation"),
    AdversaryClass.TAMPER_CIPHERTEXT: ("INTEGRITY_FAILURE", "sharing"),
    AdversaryClass.REPLAY_QUERY: ("REJECTED", "validation"),
}


def by_kind(transcript: Transcript, kind: str) -> list[Message]:
    """Every message of ``kind``, in transcript order."""
    return [m for m in transcript.messages if m.kind == kind]


def run_with_patched_shares(payloads, monkeypatch, patch):
    """Cleveland x 2 genuine users at 256-bit, seed 0, with user-001's shares patched in flight.

    ``patch(index, uploads)`` gives the fields delivered as user-001's
    ``index``-th PUBLIC ``DATA_SHARE``, from the fields of every upload.
    """
    uploads, index = [], itertools.count()
    transmit = Network.transmit

    def patched(net, stage, sender, recipient, channel, kind, fields, annotation=None):
        if kind == "CIPHER_UPLOAD":
            uploads.append(fields)
        elif kind == "DATA_SHARE" and recipient == "user-001" and channel == "PUBLIC":
            fields = patch(next(index), uploads)
        return transmit(net, stage, sender, recipient, channel, kind, fields, annotation)

    monkeypatch.setattr(Network, "transmit", patched)
    config = ScenarioConfig(
        n_genuine=2, adversaries=(), dataset="cleveland", key_length_bits=256, seed=0
    )
    return run_protocol(config, payloads)


class StubRng:
    """A stand-in for ``Rng`` whose ``take(width)`` returns the next scripted draw of that width."""

    def __init__(self, draws: dict[int, list[bytes]]) -> None:
        self.draws = {width: iter(values) for width, values in draws.items()}

    def take(self, width: int) -> bytes:
        return next(self.draws[width])


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return REPO_ROOT / "data"


@pytest.fixture(scope="session")
def sample_payload() -> bytes:
    return record_to_payload(SAMPLE_RECORD)


@pytest.fixture(scope="session")
def honest_config() -> ScenarioConfig:
    return ScenarioConfig(
        n_genuine=1, adversaries=(), dataset="sample", key_length_bits=256, seed=0
    )


@pytest.fixture(scope="session")
def honest_transcript(honest_config, sample_payload):
    return run_protocol(honest_config, [sample_payload])
