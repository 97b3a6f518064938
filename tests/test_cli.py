from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from acshare.cli import main
from acshare.entities import PhaseOrderError
from acshare.netsim import KEY_LENGTH_BITS, MAX_FLIPS, MAX_PRINCIPALS, AdversaryClass, Network
from acshare.wire import KIND_REGISTER_DIGEST

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
        for argv in (
            ("WRONG_PASSWORD=0",),
            ("WRONG_PASSWORD=2",),
            ("WRONG_PASSWORD=",),
            ("WRONG_PASSWORD=x",),
            ("TAMPER_VALIDATION", "REPLAY_QUERY"),
        ):
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
        # not a string, a document that is not an object, and adversaries
        # given as one object or as a string instead of a list
        dataset_list = (
            b'{"n_genuine": 1, "adversaries": [], "dataset": ["x"], '
            b'"key_length_bits": 64, "seed": 0}'
        )
        base = {"n_genuine": 1, "dataset": "swiss", "key_length_bits": 64, "seed": 0}
        not_lists = [
            json.dumps({**base, "adversaries": value}).encode()
            for value in ({"class": "WRONG_PASSWORD", "count": 1}, "WRONG_PASSWORD")
        ]
        contents = (
            b"{not json", b'{"seed": "\xff"}', b"[" * 100000, b"1" * 5000, dataset_list, b"[]", *not_lists
        )
        for content in contents:
            path.write_bytes(content)
            code, _, err = invoke(capsys, "run", "--scenario", str(path))
            assert code == 2, content[:20]
            assert err.startswith("error[CONFIG]:")

    def test_nul_in_dataset_is_config_error(self, capsys, tmp_path, scenario_path):
        # no file name holds a NUL, and opening one raises ValueError
        doc = json.loads(scenario_path.read_text())
        scenario_path.write_text(json.dumps({**doc, "dataset": "a\0b"}))
        out = tmp_path / "x.jsonl"
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path), "--out", str(out), "--data-dir", DATA_DIR
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")
        assert not out.exists()

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

    def test_protocol_exception_exits_3(self, capsys, tmp_path, scenario_path, monkeypatch):
        def out_of_order(*args, **kwargs):
            raise PhaseOrderError("keygen before setup")

        monkeypatch.setattr("acshare.entities.run_protocol", out_of_order)
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path),
            "--out", str(tmp_path / "x.jsonl"), "--data-dir", DATA_DIR,
        )
        assert code == 3
        assert err == "error[PROTOCOL]: keygen before setup\n"

    def test_unknown_user_id_exits_3_with_one_clean_line(self, capsys, tmp_path, monkeypatch):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "n_genuine": 1,
                    "adversaries": [],
                    "dataset": "swiss",
                    "key_length_bits": 64,
                    "seed": 0,
                    "max_records": 2,
                }
            )
        )
        transmit = Network.transmit

        def rename_digest_sender(net, stage, sender, recipient, channel, kind, fields, annotation=None):
            # the server looks the renamed id up at once, so only the first digest is rewritten
            if kind == KIND_REGISTER_DIGEST:
                fields = {**fields, "user_id": b"nobody"}
            return transmit(net, stage, sender, recipient, channel, kind, fields, annotation)

        monkeypatch.setattr(Network, "transmit", rename_digest_sender)
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario),
            "--out", str(tmp_path / "x.jsonl"), "--data-dir", DATA_DIR,
        )
        assert code == 3
        assert err == "error[PROTOCOL]: no registered user with id b'nobody'\n"

    @pytest.mark.parametrize("cls", ["WRONG_PASSWORD", "REPLAY_QUERY"])
    def test_repeated_adversary_class_runs_each_principal(self, capsys, tmp_path, cls):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "n_genuine": 1,
                    "adversaries": [{"class": cls, "count": 1}, {"class": cls, "count": 1}],
                    "dataset": "swiss",
                    "key_length_bits": 64,
                    "seed": 0,
                    "max_records": 1,
                }
            )
        )
        out = tmp_path / "x.jsonl"
        code, stdout, _ = invoke(
            capsys, "run", "--scenario", str(scenario), "--out", str(out), "--data-dir", DATA_DIR
        )
        assert code == 0
        assert f"{cls}: REJECTED 2/2" in stdout
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        principals = {line["from"] for line in lines} | {line["to"] for line in lines}
        assert {f"adv-{cls.lower()}-000", f"adv-{cls.lower()}-001"} <= principals

    def test_seed_override_out_of_range(self, capsys, tmp_path, scenario_path):
        code, _, err = invoke(
            capsys, "run", "--scenario", str(scenario_path), "--out", str(tmp_path / "x.jsonl"),
            "--data-dir", DATA_DIR, "--seed", str(2**64),
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:")


def nested(text: str, depth: int) -> str:
    return "[" * depth + text + "]" * depth


#: JSON text of a value of the wrong type, or buried in nesting near the
#: parser's recursion limit
wrong_types = st.one_of(
    st.sampled_from(["true", "false", "1.5", "-0.0", "1e400", "NaN", '"2"', "{}", '{"a": 1}']),
    st.builds(json.dumps, st.text(max_size=6)),
    st.builds(nested, st.sampled_from(["", "1", '"cleveland"', "{}"]), st.integers(1, 3000)),
)
huge_ints = st.one_of(st.integers(min_value=2**64), st.integers(max_value=-(2**64))).map(str)
negative_ints = st.integers(max_value=-1).map(str)
not_positive = st.integers(max_value=0).map(str)
#: a population above the cap; the config check rejects it before any roster is built
overpopulated = st.integers(min_value=MAX_PRINCIPALS + 1).map(str)


def ints(low: int, high: int) -> st.SearchStrategy[str]:
    return st.integers(low, high).map(str)


def json_object(pairs: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs.items()) + "}"


@st.composite
def fields(draw, valid: dict, invalid: dict) -> str:
    """A JSON object of ``valid`` values with up to two replaced by ``invalid`` ones.

    A replaced key may also be dropped, or an unknown key added.
    """
    broken = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    doc = {key: draw(invalid[key] if key in broken else valid[key]) for key in valid}
    if broken and draw(st.booleans()):
        del doc[min(broken)]
    if draw(st.integers(0, 9)) == 0:
        doc["unknown"] = "0"
    return json_object(doc)


ADVERSARY_NAMES = [cls.name for cls in AdversaryClass if cls is not AdversaryClass.NONE]

#: n_genuine, counts and max_records stay at most 2, so that a valid
#: scenario runs in milliseconds
adversary_entries = fields(
    valid={
        "class": st.sampled_from(ADVERSARY_NAMES).map(json.dumps),
        "count": ints(0, 2),
        "flips": ints(1, 3),
    },
    invalid={
        "class": st.one_of(
            st.sampled_from(["NONE", "GREMLIN", "", " replay_query "]).map(json.dumps), wrong_types
        ),
        "count": st.one_of(negative_ints, overpopulated, wrong_types),
        # above the cap, but small enough to run in a second should it go
        "flips": st.one_of(ints(MAX_FLIPS + 1, 10**4), not_positive, wrong_types),
    },
)
scenario_documents = fields(
    valid={
        "n_genuine": ints(0, 2),
        "adversaries": st.lists(adversary_entries, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
        "dataset": st.sampled_from(["cleveland", "swiss", "hungarian"]).map(json.dumps),
        "key_length_bits": st.sampled_from(KEY_LENGTH_BITS).map(str),
        "seed": st.integers(0, 2**64 - 1).map(str),
        "max_records": ints(1, 2),
    },
    invalid={
        "n_genuine": st.one_of(negative_ints, overpopulated, wrong_types),
        "adversaries": wrong_types,
        "dataset": st.one_of(
            st.sampled_from(["", "SWISS ", "sample", "x=", "=", "absent.csv", "tests", "a\x00b"]),
            st.text(alphabet="abc.=\x00\u00e9 ", max_size=6),
        ).map(json.dumps)
        | wrong_types,
        "key_length_bits": st.one_of(huge_ints, ints(-512, 1024), wrong_types),
        "seed": st.one_of(huge_ints, negative_ints, wrong_types),
        "max_records": st.one_of(not_positive, wrong_types),
    },
)


@settings(max_examples=150, deadline=None)
@given(scenario_documents)
def test_run_survives_any_scenario_document(document):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(document, encoding="utf-8")
        out = Path(tmp) / "out.jsonl"
        code = main(["run", "--scenario", str(scenario), "--out", str(out), "--data-dir", DATA_DIR])
        assert code in (0, 2, 3, 4)
        if code in (2, 4):
            assert not out.exists()


#: in an argv, stands for the example's directory, which holds the
#: generated dataset ``swiss.csv``
HERE = "@dir"

#: command-line text; a real command line carries neither a NUL nor a
#: lone surrogate, so neither is drawn
arg_text = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\0"), max_size=8)
#: paths only an in-process caller can pass: no file name holds either
unnameable = st.builds("{}{}{}".format, arg_text, st.sampled_from(["\0", "\ud800", "\udfff"]), arg_text)
not_integers = st.one_of(
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "1" * 5000]), huge_ints, arg_text
)
bad_classes = st.sampled_from(["NONE", "GREMLIN", "", "=", " replay_query "]) | arg_text
good_classes = st.sampled_from(ADVERSARY_NAMES)
bad_counts = st.one_of(negative_ints, overpopulated, not_integers)
bad_adversaries = st.one_of(
    bad_classes,
    st.builds("{}={}".format, bad_classes, ints(0, 2)),
    st.builds("{}={}".format, good_classes, bad_counts),
)
good_datasets = st.sampled_from(
    ["cleveland", "swiss", "SWISS ", f"{HERE}/swiss.csv", f"mine={HERE}/swiss.csv"]
)
bad_datasets = st.one_of(
    st.sampled_from(["sample", "absent.csv", "x=", "=", "tests", f"{HERE}/absent.csv", HERE]),
    arg_text,
    unnameable,
    unnameable.map("x={}".format),
)
good_data_dirs = st.sampled_from([DATA_DIR, HERE])
bad_key_lengths = st.sampled_from(["100", "-64", "0"]) | not_integers


def once(values):
    return st.lists(values, min_size=1, max_size=1)


def up_to(n, values):
    return st.lists(values, max_size=n)


bad_data_dirs = once(st.just(f"{HERE}/absent") | unnameable)


STRAY = "stray"


@st.composite
def command_lines(draw, command: str, valid: dict, invalid: dict) -> list[str]:
    """``command`` with ``valid`` flag values, up to two of them broken.

    Each strategy draws the list of values its flag is given, one
    ``--flag value`` pair each. A broken flag draws from ``invalid``; a
    broken ``STRAY`` adds a stray token.
    """
    broken = draw(st.sets(st.sampled_from([STRAY, *valid]), max_size=2))
    argv = [command]
    for name in valid:
        for value in draw(invalid[name] if name in broken else valid[name]):
            argv += [name, value]
    if STRAY in broken:
        argv.insert(draw(st.integers(1, len(argv))), draw(arg_text))
    return argv


#: successful runs stay small: 64- or 128-bit keys, at most 2 records
#: and 2 genuine users
argvs = st.one_of(
    command_lines(
        "demo",
        valid={
            "--seed": up_to(1, ints(0, 2**64 - 1)),
            "--key-length": st.just(["64"]),
            "--adversary": up_to(1, good_classes | good_classes.map("{}=1".format)),
        },
        invalid={
            "--seed": once(st.one_of(negative_ints, huge_ints, not_integers)),
            "--key-length": once(bad_key_lengths),
            "--adversary": st.lists(bad_adversaries | good_classes, min_size=1, max_size=2),
        },
    ),
    command_lines(
        "bench",
        valid={
            "--dataset": up_to(2, good_datasets),
            "--data-dir": once(good_data_dirs),
            "--key-length": st.lists(st.sampled_from(["64", "128"]), min_size=1, max_size=2),
            "--seed": up_to(2, ints(0, 9)),
            "--genuine": up_to(1, ints(1, 2)),
            "--adversary": up_to(2, st.builds("{}={}".format, good_classes, ints(0, 2))),
            "--max-records": once(ints(1, 2)),
            "--out": st.just([f"{HERE}/out.csv"]),
        },
        invalid={
            "--dataset": st.lists(bad_datasets | good_datasets, min_size=1, max_size=2),
            "--data-dir": bad_data_dirs,
            "--key-length": st.lists(bad_key_lengths, min_size=1, max_size=2),
            "--seed": once(st.one_of(negative_ints, huge_ints, not_integers)),
            "--genuine": once(st.just("0") | bad_counts),
            "--adversary": st.lists(bad_adversaries, min_size=1, max_size=2),
            "--max-records": once(not_positive | not_integers),
            "--out": once(st.just(f"{HERE}/missing/out.csv") | unnameable),
        },
    ),
    command_lines(
        "parse-dataset",
        valid={"--dataset": once(good_datasets), "--data-dir": once(good_data_dirs)},
        invalid={"--dataset": up_to(1, bad_datasets), "--data-dir": bad_data_dirs},
    ),
)

VALID_ROW = "63,1,1,145,233,1,2,150,0,2.3,3,0,6,0"
tokens = st.sampled_from(["63", "0", "2.3", " 1 ", "?", "??", "", "nan", "inf", "-inf", "1e400", "1_0", "\u00e9"])
rows = st.one_of(
    st.just(VALID_ROW),
    st.just(",".join("?" * 14)),
    st.lists(tokens, max_size=16).map(",".join),
)
#: short rows, runs of "?", non-finite and non-ASCII values, empty files, CRLF
dataset_files = st.one_of(
    st.lists(st.tuples(rows, st.sampled_from(["\n", "\r\n", "\r"])), max_size=3).map(
        lambda lines: "".join(row + end for row, end in lines).encode("utf-8")
    ),
    st.binary(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(argvs, dataset_files)
def test_cli_survives_any_argv(argv, dataset):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "swiss.csv").write_bytes(dataset)
        code = main([arg.replace(HERE, tmp) for arg in argv])
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3, 4)
        if code in (2, 4):
            assert sorted(path.name for path in Path(tmp).iterdir()) == ["swiss.csv"]


#: one argv per path-taking flag; BAD marks the path no file can have
PATH_ARGVS = [
    ["run", "--scenario", "BAD", "--out", "OUT"],
    ["run", "--scenario", "SCENARIO", "--out", "BAD"],
    ["run", "--scenario", "SCENARIO", "--out", "OUT", "--data-dir", "BAD"],
    ["bench", "--out", "BAD", "--dataset", "swiss"],
    ["bench", "--out", "OUT", "--data-dir", "BAD"],
    ["bench", "--out", "OUT", "--dataset", "x=BAD"],
    ["parse-dataset", "--dataset", "BAD"],
    ["parse-dataset", "--dataset", "swiss", "--data-dir", "BAD"],
]


def flag_of(argv):
    """``command--flag`` for the flag given BAD."""
    return argv[0] + next(flag for flag, value in zip(argv, argv[1:]) if "BAD" in value)


@pytest.mark.parametrize("path", ["a\0b", "\ud800.csv"], ids=["nul", "surrogate"])
@pytest.mark.parametrize("argv", PATH_ARGVS, ids=flag_of)
def test_unencodable_path_argument_exits_2(capsys, tmp_path, argv, path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"n_genuine": 1, "dataset": "swiss", "key_length_bits": 64, "seed": 0}')
    values = {"BAD": path, "OUT": str(tmp_path / "out"), "SCENARIO": str(scenario)}
    for name, value in values.items():
        argv = [arg.replace(name, value) for arg in argv]
    code, _, err = invoke(capsys, *argv)
    assert code == 2
    assert "cannot name a file" in err
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["scenario.json"]


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

        monkeypatch.setattr("acshare.entities.run_protocol", no_run)
        code, _, err = invoke(
            capsys, "bench", "--out", str(tmp_path / "missing" / "x.csv"), "--data-dir", DATA_DIR,
            "--dataset", "swiss", "--key-length", "64", "--max-records", "1",
        )
        assert code == 4
        assert err.startswith("error[IO]:")

    @pytest.mark.parametrize("name", ["a,b", "\u00e9"])
    def test_dataset_name_that_breaks_the_csv_is_config_error(self, capsys, tmp_path, name):
        # the name is written unquoted into an ASCII file, so "a,b" would
        # read back as dataset "a", and a non-ASCII name fails at the write
        out = tmp_path / "x.csv"
        code, _, err = invoke(
            capsys, "bench", "--out", str(out), "--dataset", f"{name}={DATA_DIR}/swiss.csv",
            "--key-length", "64", "--max-records", "1",
        )
        assert code == 2
        assert err.startswith("error[CONFIG]:") and "NAME=PATH" in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "row,message",
        [
            (
                b"x.0,1,1,145,233,1,2,150,0,2.3,3,0,6,0",
                "bad value for age: could not convert string to float: 'x.0'",
            ),
            (b"1,2,3", "expected 14 comma-separated fields, got 3"),
            (b"\xe9", "non-ASCII byte 0xe9"),
        ],
        ids=["bad-value", "short-row", "non-ascii"],
    )
    def test_file_error_is_one_exact_line(self, capsys, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"63,1,1,145,233,1,2,150,0,2.3,3,0,6,0\n" + row + b"\n")
        code, out, err = invoke(capsys, "parse-dataset", "--dataset", str(path))
        assert (code, out) == (4, "")
        assert err == f"error[DATASET]: {path}:2: {message}\n"


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "nonsense")[0] == 2

    def test_no_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_module_entry_point(self):
        def module(*argv):
            return subprocess.run(
                [sys.executable, "-m", "acshare", *argv],
                cwd=REPO_ROOT, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            )

        parsed = module("parse-dataset", "--dataset", "swiss", "--data-dir", "data")
        assert parsed.returncode == 0
        assert "swiss: 123 records" in parsed.stdout
        assert module("bogus").returncode == 2
