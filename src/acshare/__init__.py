"""Deterministic simulation of a cloud access-control and data-sharing protocol.

Everything in the protocol is a fixed-width byte string derived through
hashing, masking, and width-bounded modular arithmetic, so whole runs
reproduce byte for byte from a single seed. See the README for the
layout; the usual entry points are re-exported here.
"""

from .bench import (
    BenchRow,
    UndefinedRateError,
    expected_memory_bytes,
    genuine_detection_rate,
    measure_memory,
    run_sweep,
    write_csv,
)
from .dataset import HeartRecord, load_dataset, payload_to_record, record_to_payload
from .entities import run_protocol
from .netsim import (
    AdversaryClass,
    AdversarySpec,
    ConfigError,
    KEY_LENGTH_BITS,
    OutcomeSummary,
    ScenarioConfig,
    run_scenario,
    summarize,
)
from .protocol import (
    CipherBundle,
    Credentials,
    KeyMaterial,
    SystemParams,
    ValidationPair,
    new_system_params,
)
from .wire import Message, Outcome, Transcript

__all__ = [
    "AdversaryClass",
    "AdversarySpec",
    "BenchRow",
    "CipherBundle",
    "ConfigError",
    "Credentials",
    "HeartRecord",
    "KEY_LENGTH_BITS",
    "KeyMaterial",
    "Message",
    "Outcome",
    "OutcomeSummary",
    "ScenarioConfig",
    "SystemParams",
    "Transcript",
    "UndefinedRateError",
    "ValidationPair",
    "expected_memory_bytes",
    "genuine_detection_rate",
    "load_dataset",
    "measure_memory",
    "new_system_params",
    "payload_to_record",
    "record_to_payload",
    "run_protocol",
    "run_scenario",
    "run_sweep",
    "summarize",
    "write_csv",
]
