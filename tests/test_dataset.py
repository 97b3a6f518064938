from __future__ import annotations

import re
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acshare.dataset import (
    DatasetParseError,
    HeartRecord,
    SAMPLE_RECORD,
    load_dataset,
    missing_counts,
    parse_line,
    payload_to_record,
    record_to_payload,
    resolve_dataset,
)
from acshare.primitives import frame_concat

from conftest import REPO_ROOT

# the classic first row of the cleveland collection, known by shape
FIRST_ROW = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0"

# canonical serialization of SAMPLE_RECORD, frozen as a literal
GOLDEN_PAYLOAD_HEX = (
    "0000000436332e3000000003312e3000000003312e30000000053134352e3000"
    "0000053233332e3000000003312e3000000003322e30000000053135302e3000"
    "000003302e3000000003322e3300000003332e3000000003302e300000000336"
    "2e3000000003302e30"
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
record_values = st.tuples(*([st.one_of(st.none(), finite_floats)] * 14))


class TestParsing:
    def test_first_row_literal(self):
        assert parse_line(FIRST_ROW) == SAMPLE_RECORD

    def test_missing_marker_becomes_none(self):
        record = parse_line("63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,?,?,0")
        assert record.ca is None and record.thal is None
        assert record.age == 63.0

    def test_wrong_field_count(self):
        with pytest.raises(DatasetParseError):
            parse_line("1.0,2.0,3.0")

    def test_bad_token_reports_position(self, tmp_path):
        # the row alone carries no location; the file reader prefixes it once
        row = "x" + FIRST_ROW[2:]
        message = "bad value for age: could not convert string to float: 'x.0'"
        path = tmp_path / "f.csv"
        path.write_text(FIRST_ROW + "\n" + row + "\n", encoding="ascii")
        with pytest.raises(DatasetParseError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            load_dataset(path)
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            parse_line(row)

    def test_non_finite_rejected(self):
        with pytest.raises(DatasetParseError):
            parse_line(FIRST_ROW.replace("63.0", "nan"))

    @pytest.mark.parametrize("token", ["1_0", "6_3.0", "0.0_1"])
    def test_digit_separator_rejected(self, token):
        # float() reads Python literals, where "_" groups digits; no table value holds one
        row = FIRST_ROW.replace("63.0", token, 1)
        with pytest.raises(DatasetParseError, match="not a decimal number"):
            parse_line(row)
        with pytest.raises(DatasetParseError, match="not a decimal number"):
            payload_to_record(frame_concat([value.encode() for value in row.split(",")]))

    def test_zero_is_not_missing(self):
        record = parse_line("0,0,0,0,0,0,0,0,0,0,0,0,0,0")
        assert all(value == 0.0 for value in record)

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        # str.splitlines would also break at \x0b, \x0c and \x1c-\x1e
        path = tmp_path / "ff.csv"
        path.write_bytes(FIRST_ROW.encode("ascii") + b"\x0c\n1,2\n")
        with pytest.raises(DatasetParseError, match=r":2: expected 14"):
            load_dataset(path)


class TestPayloadCodec:
    def test_golden_payload(self):
        assert record_to_payload(SAMPLE_RECORD).hex() == GOLDEN_PAYLOAD_HEX

    def test_golden_inverse(self):
        assert payload_to_record(bytes.fromhex(GOLDEN_PAYLOAD_HEX)) == SAMPLE_RECORD

    @given(record_values)
    def test_round_trip(self, values):
        record = HeartRecord(*values)
        assert payload_to_record(record_to_payload(record)) == record

    @given(record_values, record_values)
    def test_distinct_records_distinct_payloads(self, left, right):
        if left != right:
            assert record_to_payload(HeartRecord(*left)) != record_to_payload(
                HeartRecord(*right)
            )

    @given(record_values)
    @example((None,) * 14)
    def test_payload_is_never_shorter_than_70_bytes(self, values):
        # 14 fields of a 4-byte prefix and at least one byte each, so a run
        # never reaches make_cipher_bundle's empty-payload refusal
        payload = record_to_payload(HeartRecord(*values))
        assert len(payload) >= 70
        assert (len(payload) == 70) == (values == (None,) * 14)

    def test_wrong_field_count_rejected(self):
        payload = record_to_payload(SAMPLE_RECORD)
        with pytest.raises(DatasetParseError, match="^payload holds 15 fields, expected 14$"):
            payload_to_record(payload + b"\x00\x00\x00\x01x")

    def test_garbage_rejected(self):
        with pytest.raises(
            DatasetParseError, match="^payload framing broken: truncated length prefix at offset 0$"
        ):
            payload_to_record(b"\xff\xff")


class TestFiles:
    @pytest.mark.parametrize(
        "variant,count", [("cleveland", 303), ("hungarian", 294), ("swiss", 123)]
    )
    def test_record_counts(self, data_dir, variant, count):
        records = load_dataset(data_dir / f"{variant}.csv", variant=variant)
        assert len(records) == count

    def test_cleveland_missing_profile(self, data_dir):
        records = load_dataset(data_dir / "cleveland.csv", variant="cleveland")
        counts = missing_counts(records)
        assert counts["ca"] == 4
        assert counts["thal"] == 2
        assert sum(counts.values()) == 6

    @pytest.mark.parametrize("variant", ["cleveland", "hungarian", "swiss"])
    def test_every_record_round_trips(self, data_dir, variant):
        records = load_dataset(data_dir / f"{variant}.csv", variant=variant)
        for record in records:
            assert payload_to_record(record_to_payload(record)) == record

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.csv", variant="cleveland")

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(FIRST_ROW + "\n1,2,3\n", encoding="ascii")
        with pytest.raises(
            DatasetParseError, match=f"^{re.escape(str(path))}:2: expected 14 comma-separated fields, got 3$"
        ):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(FIRST_ROW + "\n\n" + FIRST_ROW + "\n", encoding="ascii")
        assert len(load_dataset(path)) == 2


class TestResolve:
    def test_known_variant(self, data_dir):
        name, path = resolve_dataset("cleveland", data_dir)
        assert name == "cleveland"
        assert path == data_dir / "cleveland.csv"

    def test_case_insensitive_variant(self, data_dir):
        name, _ = resolve_dataset("Swiss", data_dir)
        assert name == "swiss"

    def test_name_equals_path(self, data_dir):
        name, path = resolve_dataset("mine=/tmp/rows.csv", data_dir)
        assert name == "mine"
        assert str(path) == "/tmp/rows.csv"

    def test_bare_path(self, data_dir):
        name, path = resolve_dataset("/tmp/custom.csv", data_dir)
        assert name == "custom"
        assert str(path) == "/tmp/custom.csv"


def test_fixture_script_regenerates_data(tmp_path, data_dir):
    script = REPO_ROOT / "scripts" / "make_fixture_datasets.py"
    subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path)], check=True)
    for name in ("cleveland", "hungarian", "swiss"):
        csv = f"{name}.csv"
        assert (tmp_path / csv).read_bytes() == (data_dir / csv).read_bytes(), csv
