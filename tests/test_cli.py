from __future__ import annotations

import hashlib
import json

import pytest

from acshare.cli import main

from conftest import REPO_ROOT

DATA_DIR = str(REPO_ROOT / "data")


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_honest_walkthrough(self, capsys):
        code, out, err = invoke(capsys, "demo", "--seed", "1")
        assert code == 0
        assert err == ""
        for banner in ("setup", "keygen", "encryption", "access", "validation", "sharing"):
            assert f"=== {banner} ===" in out
        assert "ACCEPTED (1 payload recovered)" in out

    def test_wrong_password_rejected_at_setup(self, capsys):
        code, out, _ = invoke(capsys, "demo", "--adversary", "WRONG_PASSWORD")
        assert code == 3
        assert "REJECTED at setup" in out

    def test_unknown_adversary(self, capsys):
        code, _, err = invoke(capsys, "demo", "--adversary", "GREMLIN")
        assert code == 2
        assert err.startswith("error[CONFIG]:")

    def test_seed_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "demo", "--seed", str(2**64))
        assert code == 2
        assert "error[CONFIG]" in err

    def test_output_is_reproducible(self, capsys):
        code_a, out_a, _ = invoke(capsys, "demo", "--seed", "9")
        code_b, out_b, _ = invoke(capsys, "demo", "--seed", "9")
        assert (code_a, out_a) == (code_b, out_b)

    def test_adversary_count_other_than_one_is_config_error(self, capsys):
        for argv in (("WRONG_PASSWORD=0",), ("WRONG_PASSWORD=2",), ("TAMPER_VALIDATION", "REPLAY_QUERY")):
            flags = [arg for token in argv for arg in ("--adversary", token)]
            code, out, err = invoke(capsys, "demo", *flags)
            assert code == 2, argv
            assert out == "" and err.startswith("error[CONFIG]:")

    def test_replay_demo_shows_both_principals(self, capsys):
        code, out, _ = invoke(capsys, "demo", "--adversary", "REPLAY_QUERY")
        assert code == 3
        assert "outcome[user-000]: ACCEPTED" in out
        assert "outcome[adv-replay_query-000]: REJECTED at validation" in out

    def test_zero_replayers_add_no_genuine_user(self, capsys):
        code, out, _ = invoke(
            capsys, "demo", "--adversary", "REPLAY_QUERY=0", "--adversary", "WRONG_PASSWORD"
        )
        assert code == 3
        assert [line for line in out.splitlines() if line.startswith("outcome[")] == [
            "outcome[adv-wrong_password-000]: REJECTED at setup (registration digest mismatch)"
        ]


class TestRun:
    @pytest.fixture()
    def scenario_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "n_genuine": 1,
                    "adversaries": [{"class": "FORGED_PRIVATE_KEY", "count": 1}],
                    "dataset": "swiss",
                    "key_length_bits": 128,
                    "seed": 6,
                    "max_records": 3,
                }
            )
        )
        return path

    def test_writes_identical_transcripts(self, capsys, tmp_path, scenario_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        code_a, stdout_a, _ = invoke(
            capsys, "run", "--scenario", str(scenario_path),
            "--out", str(out_a), "--data-dir", DATA_DIR,
        )
        code_b, _, _ = invoke(
            capsys, "run", "--scenario", str(scenario_path),
            "--out", str(out_b), "--data-dir", DATA_DIR,
        )
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert f"transcript sha256: {hashlib.sha256(out_a.read_bytes()).hexdigest()}\n" in stdout_a
        assert "FORGED_PRIVATE_KEY: REJECTED 1/1" in stdout_a

    def test_seed_override_changes_bytes(self, capsys, tmp_path, scenario_path):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        invoke(capsys, "run", "--scenario", str(scenario_path), "--out", str(out_a), "--data-dir", DATA_DIR)
        invoke(
            capsys, "run", "--scenario", str(scenario_path), "--out", str(out_b),
            "--data-dir", DATA_DIR, "--seed", "7",
        )
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_missing_scenario_is_io_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "run", "--scenario", str(tmp_path / "absent.json"))
        assert code == 4
        assert err.startswith("error[IO]:")

    def test_malformed_scenario_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        # bad JSON, a file that is not UTF-8, nesting deeper than the parser
        # recurses, an integer longer than int() converts, a dataset that is
        # not a string
        dataset_list = (
            b'{"n_genuine": 1, "adversaries": [], "dataset": ["x"], '
            b'"key_length_bits": 64, "seed": 0}'
        )
        for content in (b"{not json", b'{"seed": "\xff"}', b"[" * 100000, b"1" * 5000, dataset_list):
            path.write_bytes(content)
            code, _, err = invoke(capsys, "run", "--scenario", str(path))
            assert code == 2, content[:20]
            assert err.startswith("error[CONFIG]:")

    def test_non_ascii_dataset_is_dataset_error(self, capsys, tmp_path, scenario_path):
        (tmp_path / "swiss.csv").write_bytes(b"63,1,1,145,233,1,2,150,0,2.3,3,0,6,0\n\xe9\n")
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path), "--out", str(tmp_path / "x.jsonl"),
            "--data-dir", str(tmp_path),
        )
        assert code == 4
        assert err.startswith("error[DATASET]:") and "swiss.csv:2:" in err

    def test_empty_dataset_is_config_error(self, capsys, tmp_path, scenario_path):
        (tmp_path / "swiss.csv").write_text("\n")
        out = tmp_path / "x.jsonl"
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path), "--out", str(out),
            "--data-dir", str(tmp_path),
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:") and "has no records" in err
        assert not out.exists()

    def test_bad_out_path_fails_before_the_run(self, capsys, tmp_path, scenario_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the protocol ran before --out was opened")

        monkeypatch.setattr("acshare.entities.run_protocol", no_run)
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path),
            "--out", str(tmp_path / "missing" / "x.jsonl"), "--data-dir", DATA_DIR,
        )
        assert code == 4
        assert err.startswith("error[IO]:")

    def test_seed_override_out_of_range(self, capsys, tmp_path, scenario_path):
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path), "--out", str(tmp_path / "x.jsonl"),
            "--data-dir", DATA_DIR, "--seed", str(2**64),
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")


class TestBench:
    def test_small_sweep(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, stdout, _ = invoke(
            capsys, "bench", "--out", str(out), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--key-length", "64", "--key-length", "256",
            "--max-records", "5",
        )
        assert code == 0
        assert "wrote 2 rows" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "dataset,key_length_bits,memory_bytes,genuine_detection_rate,seed"
        assert len(lines) == 3
        assert lines[1].startswith("swiss,64,")
        assert lines[2].startswith("swiss,256,")

    def test_rejects_bad_key_length(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = invoke(
            capsys, "bench", "--out", str(out), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--key-length", "100",
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")
        assert not out.exists()

    def test_bad_out_path_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr("acshare.bench.run_protocol", no_run)
        code, _, err = invoke(
            capsys, "bench", "--out", str(tmp_path / "missing" / "x.csv"), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--key-length", "64", "--max-records", "1",
        )
        assert code == 4
        assert err.startswith("error[IO]:")

    def test_missing_data_dir_is_io_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "bench", "--out", str(tmp_path / "x.csv"),
            "--data-dir", str(tmp_path / "no-data"),
        )
        assert code == 4
        assert err.startswith("error[IO]:")

    def test_bad_seed_reported_before_data_is_read(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "bench", "--out", str(tmp_path / "x.csv"),
            "--data-dir", str(tmp_path / "no-data"), "--seed", "-1",
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")

    def test_empty_dataset_is_config_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "x.csv"
        code, _, err = invoke(
            capsys, "bench", "--out", str(out), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--dataset", str(empty), "--key-length", "64",
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:") and "has no records" in err
        assert not out.exists()

    def test_non_ascii_dataset_is_dataset_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xe9\n")
        out = tmp_path / "x.csv"
        out.write_text("kept\n")
        code, _, err = invoke(
            capsys, "bench", "--out", str(out), "--dataset", str(bad), "--key-length", "64",
        )
        assert code == 4
        assert err.startswith("error[DATASET]:") and "bad.csv:1:" in err
        assert out.read_text() == "kept\n"  # not truncated

    def test_zero_genuine_is_config_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "bench", "--out", str(tmp_path / "x.csv"), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--key-length", "64", "--max-records", "1", "--genuine", "0",
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")


class TestParseDataset:
    def test_reports_record_count(self, capsys):
        code, out, _ = invoke(
            capsys, "parse-dataset", "--dataset", "cleveland", "--data-dir", DATA_DIR
        )
        assert code == 0
        assert "cleveland: 303 records" in out
        assert "missing values: ca=4, thal=2" in out

    def test_empty_file_reports_zero_records(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, _ = invoke(capsys, "parse-dataset", "--dataset", str(path))
        assert code == 0
        assert "empty: 0 records" in out

    def test_broken_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        # too few fields, and a byte that is not ASCII after two blank lines
        for content, line in ((b"1,2,3\n", 1), (b"\n\r\n63,1,1,145,233,1,2,150,0,2.3,3,0,6,\xe9\n", 3)):
            path.write_bytes(content)
            code, _, err = invoke(capsys, "parse-dataset", "--dataset", str(path))
            assert code == 4
            assert err.startswith("error[DATASET]:")
            assert f":{line}:" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "nonsense")[0] == 2

    def test_no_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
