from __future__ import annotations

from pathlib import Path

import pytest

from acshare.dataset import SAMPLE_RECORD, record_to_payload
from acshare.entities import run_protocol
from acshare.netsim import AdversaryClass, ScenarioConfig
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
