from __future__ import annotations

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

    def test_replay_demo_shows_both_principals(self, capsys):
        code, out, _ = invoke(capsys, "demo", "--adversary", "REPLAY_QUERY")
        assert code == 3
        assert "outcome[user-000]: ACCEPTED" in out
        assert "outcome[adv-replay_query-000]: REJECTED at validation" in out


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
        assert "transcript sha256:" in stdout_a
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
        path.write_text("{not json")
        code, _, err = invoke(capsys, "run", "--scenario", str(path))
        assert code == 2
        assert err.startswith("error[CONFIG]:")

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
        code, _, err = invoke(
            capsys, "bench", "--out", str(tmp_path / "x.csv"), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--key-length", "100",
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")

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

    def test_broken_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        code, _, err = invoke(capsys, "parse-dataset", "--dataset", str(path))
        assert code == 4
        assert err.startswith("error[DATASET]:")
        assert ":1:" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "nonsense")[0] == 2

    def test_no_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
