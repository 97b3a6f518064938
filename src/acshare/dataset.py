"""Heart-disease table ingestion and canonical payload serialization.

Records carry the 14 clinical attributes used throughout the
experiments: age, sex, chest pain type (cp), resting blood pressure
(trestbps), serum cholesterol (chol), fasting blood sugar (fbs),
resting ECG (restecg), maximum heart rate (thalach), exercise angina
(exang), ST depression (oldpeak), ST slope (slope), fluoroscopy vessel
count (ca), thallium result (thal), and the diagnosis field (num).

Input files are comma-separated with no header row. The literal token
"?" marks a missing value; it parses to None and is never folded into
zero, since zero is a legitimate reading for several columns.

``record_to_payload`` defines the canonical byte serialization used as
protocol payload: the 14 attributes rendered as decimal text (missing
as "?"), joined with length-prefixed framing. The mapping is invertible
and distinct records always produce distinct payloads.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .primitives import FramingError, frame_concat, frame_split

MISSING = "?"

#: named variants; each resolves to ``<name>.csv`` inside a data directory
VARIANTS = ("cleveland", "hungarian", "swiss")


class DatasetParseError(ValueError):
    """A row or payload did not parse; an error read from a file starts with ``path:line:``."""


class HeartRecord(NamedTuple):
    """One row of a heart-disease table; None marks a missing value."""

    age: float | None
    sex: float | None
    cp: float | None
    trestbps: float | None
    chol: float | None
    fbs: float | None
    restecg: float | None
    thalach: float | None
    exang: float | None
    oldpeak: float | None
    slope: float | None
    ca: float | None
    thal: float | None
    num: float | None


ATTRIBUTES = HeartRecord._fields


def _parse_token(token: str) -> float | None:
    token = token.strip()
    if token == MISSING:
        return None
    if "_" in token:  # float() reads "1_0" as 10.0
        raise ValueError(f"not a decimal number {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token!r}")
    return value


def parse_line(line: str) -> HeartRecord:
    """Parse one comma-separated row into a :class:`HeartRecord`."""
    tokens = line.strip().split(",")
    if len(tokens) != len(ATTRIBUTES):
        raise DatasetParseError(f"expected {len(ATTRIBUTES)} comma-separated fields, got {len(tokens)}")
    values = []
    for name, token in zip(ATTRIBUTES, tokens):
        try:
            values.append(_parse_token(token))
        except ValueError as exc:
            raise DatasetParseError(f"bad value for {name}: {exc}") from exc
    return HeartRecord(*values)


def load_dataset(path: str | Path, variant: str | None = None) -> list[HeartRecord]:
    """Read every record of a heart-disease file.

    ``variant`` is a label for error messages and reports; all variants
    share one format, so it does not change parsing. Lines end at LF,
    CRLF or CR, as ``bytes.splitlines`` splits them. Blank lines are
    skipped, anything else must parse.
    """
    path = Path(path)
    label = f"{variant} dataset at {path}" if variant else str(path)
    try:
        raw = path.read_bytes()
        raw.decode("ascii")
    except OSError as exc:
        raise OSError(f"cannot read {label}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # every byte before the bad one is ASCII; "?" stands in for it
        line_no = len((raw[: exc.start] + b"?").splitlines())
        raise DatasetParseError(f"{path}:{line_no}: non-ASCII byte {raw[exc.start]:#04x}") from exc
    records = []
    for line_no, line in enumerate(raw.splitlines(), start=1):
        text = line.decode("ascii")
        if text.strip():
            try:
                records.append(parse_line(text))
            except DatasetParseError as exc:
                raise DatasetParseError(f"{path}:{line_no}: {exc}") from exc
    return records


def _render(value: float | None) -> str:
    # repr() of a float is the shortest string that parses back exactly,
    # so render -> parse is the identity on every representable value.
    return MISSING if value is None else repr(value)


def record_to_payload(record: HeartRecord) -> bytes:
    """Canonical byte serialization of one record."""
    return frame_concat([_render(v).encode("ascii") for v in record])


def payload_to_record(payload: bytes) -> HeartRecord:
    """Invert :func:`record_to_payload`."""
    try:
        fields = frame_split(payload)
    except FramingError as exc:
        raise DatasetParseError(f"payload framing broken: {exc}") from exc
    if len(fields) != len(ATTRIBUTES):
        raise DatasetParseError(
            f"payload holds {len(fields)} fields, expected {len(ATTRIBUTES)}"
        )
    values = []
    for name, raw in zip(ATTRIBUTES, fields):
        try:
            values.append(_parse_token(raw.decode("ascii")))
        except (UnicodeDecodeError, ValueError) as exc:
            raise DatasetParseError(f"bad payload value for {name}: {exc}") from exc
    return HeartRecord(*values)


def missing_counts(records: list[HeartRecord]) -> dict[str, int]:
    """Per-attribute tally of missing values."""
    counts = dict.fromkeys(ATTRIBUTES, 0)
    for record in records:
        for name, value in zip(ATTRIBUTES, record):
            if value is None:
                counts[name] += 1
    return counts


def resolve_dataset(spec: str, data_dir: str | Path) -> tuple[str, Path]:
    """Map a dataset argument to ``(name, path)``.

    ``spec`` may be a known variant name (resolved inside ``data_dir``),
    a ``name=path`` pair, or a bare file path (named by its stem).
    """
    if "=" in spec:
        name, _, raw_path = spec.partition("=")
        name = name.strip().lower()
        return name or Path(raw_path).stem, Path(raw_path)
    lowered = spec.strip().lower()
    if lowered in VARIANTS:
        return lowered, Path(data_dir) / f"{lowered}.csv"
    return Path(spec).stem, Path(spec)


#: a representative record, used by demos; mirrors a classic first row
SAMPLE_RECORD = HeartRecord(
    age=63.0,
    sex=1.0,
    cp=1.0,
    trestbps=145.0,
    chol=233.0,
    fbs=1.0,
    restecg=2.0,
    thalach=150.0,
    exang=0.0,
    oldpeak=2.3,
    slope=3.0,
    ca=0.0,
    thal=6.0,
    num=0.0,
)
