"""Pinned output hashes: the byte-level behaviour contract across commits.

Criterion 5 only checks that two runs in one process agree. These cases
pin the sha256 of transcripts, the sweep CSV and demo output to literal
values, so a refactor that changes any byte fails here. A deliberate
behaviour change updates the affected values and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from acshare.bench import render_csv, run_sweep
from acshare.cli import main as cli_main
from acshare.netsim import KEY_LENGTH_BITS, AdversaryClass, AdversarySpec, ScenarioConfig, run_scenario

from conftest import REPO_ROOT

DATA_DIR = REPO_ROOT / "data"

ADVERSARY_CLASSES = (
    AdversaryClass.WRONG_PASSWORD,
    AdversaryClass.FORGED_PRIVATE_KEY,
    AdversaryClass.TAMPER_VALIDATION,
    AdversaryClass.TAMPER_CIPHERTEXT,
    AdversaryClass.REPLAY_QUERY,
)

#: scenario name -> (genuine users, adversary specs); seven per key length
POPULATIONS = {
    "honest": (2, ()),
    **{cls.name: (1, (AdversarySpec(cls=cls, count=1),)) for cls in ADVERSARY_CLASSES},
    "mixed-flips2": (3, tuple(AdversarySpec(cls=cls, count=2, flips=2) for cls in ADVERSARY_CLASSES)),
}

TRANSCRIPT_SHA256 = {
    "honest-64": "e1bf70a5dcd32f2a58a59a299d2c7f3c5c2ef758c4536c1125249bf33801f261",
    "honest-128": "fde9efb0f71de21db8e94bb38e2e250205d9f2f637395926f3d5918d16f15039",
    "honest-256": "9202c5768a74f0cbd4217193b79c5835a8b429761251b533ff640bf8f9e1c4ad",
    "honest-512": "44d067e66a773c8e8a90f81ecbfc66ff947cb4d5d2d51c0ab20a6be743bc3bec",
    "WRONG_PASSWORD-64": "742d9d9823830a0deba0ea50f90cd332972d68c4a575a1ec70b512d8cfb7e0da",
    "WRONG_PASSWORD-128": "1a82258d5100dc866140f4967e8f8b9790ba3e75fc0dc0ae3f944866957ff431",
    "WRONG_PASSWORD-256": "882b7f7b96f8ee71e72c415755977d49715b0cb952b43e524b789b3621f1d498",
    "WRONG_PASSWORD-512": "09fb4d0701b3cc1e749bba7d1b27c0f2e991d02e10794f3607a178ecd973caff",
    "FORGED_PRIVATE_KEY-64": "71611fcafcd4c5618c5018fff3a644b93fa679262a6977e870e8b10b9cd22202",
    "FORGED_PRIVATE_KEY-128": "56d2899e6ada7620a5ce7b82af2841161a228e60b191a0180ceebf81d236b391",
    "FORGED_PRIVATE_KEY-256": "e21379fba0b49d777bd7c1c56dabf60a64cf24e9e95f1de5f8433eb8665a9e7f",
    "FORGED_PRIVATE_KEY-512": "e5d3b49318b824b1a31dc1fed383d2d15760d2c9fa372066b75ae40aa7937133",
    "TAMPER_VALIDATION-64": "e9e1239b66b8cde6233074e358e75371a9d303104443907b79ed5d7572d32b10",
    "TAMPER_VALIDATION-128": "2f187bdb63316c73fa574907e4d7118bac2df4c01c081d5c40235a683013032a",
    "TAMPER_VALIDATION-256": "f94245cc9074e5fab24a950ad5e0f45b5fbdb66f87580b4e7c837e3dee8b16cc",
    "TAMPER_VALIDATION-512": "eba04cfecb53cd203bfcd873860e75e7a026d7598b0bcf88e0096eb565979cab",
    "TAMPER_CIPHERTEXT-64": "b3fb83ed434bcfaae6e799c964973834ec15ca80728583b85f656b8969c126cc",
    "TAMPER_CIPHERTEXT-128": "4d1cbc0d46261eab6874a9361821d5887e3ba82f1b5ea3ea502e2d8db25fa655",
    "TAMPER_CIPHERTEXT-256": "48311707a0173f1c66463274a4a36353313958b8f8bb7e80d1afaba475ae926e",
    "TAMPER_CIPHERTEXT-512": "4d4e9ce0df213dddadac7f022b148ecde73623056d06dbabcf3a3f83aeeb7670",
    "REPLAY_QUERY-64": "d862de38622e569e232880cf713a97fc1e3f30410e420fc508b066a87c9cae8d",
    "REPLAY_QUERY-128": "68ae047dad6fb1f7bf430ffa91e1d40ad3f5a6711b834209f9877b185f118fdf",
    "REPLAY_QUERY-256": "4fcf5fdb3a61653e5594011ec2c6a9a64f7edf6fbda1ad3e3f8e1901268f58b3",
    "REPLAY_QUERY-512": "8f6081faeb45f8bf639adb04401680f1b599ffc2b0bae92035913ac40c35eece",
    "mixed-flips2-64": "b4985a5b469f0013bea502579cc27e49878416ac6f1375492204e1b14e5df937",
    "mixed-flips2-128": "1c0844aa3c03146454ef82d9f4d15b1ec569bc43920cf28921a42f9c13729bed",
    "mixed-flips2-256": "f8e87950a71b6330212b213e21380b9a9ca2334be7f1261fcc09ee7c2b507a40",
    "mixed-flips2-512": "694f7712785a1f6444bf7506980e06e1d46c74647f07d239f0271cb024a19795",
}

CLEVELAND_FULL_SHA256 = "0d2010a0c32aecbed8ed1bc4a9ed76f02d9f1c949bd6950952a5b8d8337ce6b8"

SWEEP_CSV_SHA256 = "6852afa156bd26192dbca656ed0862ffdd3f4b34d969c0682d6a961cc56dbd55"

#: demo adversary ("" for honest) -> (exit code, stdout sha256)
DEMO_OUTPUT = {
    "": (0, "05628ab4f08c9295100d7342d8255070e49f14ede38cdef5837c05e9148a5f30"),
    "WRONG_PASSWORD": (3, "a141d3afe3e761b6a28ffc649efb7275da36b99a3a43d9b421bfebc0a536e495"),
    "FORGED_PRIVATE_KEY": (3, "4f294768fa97a1976d41c017c245dad7b704be46093ff389e42b1a703fe80a55"),
    "TAMPER_VALIDATION": (3, "6be89c9e1d33a5f3e8628c281e2f974c08806d3c3ff05dec64b0dffe7c862afc"),
    "TAMPER_CIPHERTEXT": (3, "6071f53bd961db63ecb347d1a9d713dbc89f3db19b26472e58864ec2768b8368"),
    "REPLAY_QUERY": (3, "51ab103f0d175d12a9dee43e36760676cb06af83e3465e36aadeda1891594c36"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("bits", KEY_LENGTH_BITS)
@pytest.mark.parametrize("population", list(POPULATIONS))
def test_transcript(population, bits):
    n_genuine, adversaries = POPULATIONS[population]
    config = ScenarioConfig(
        n_genuine=n_genuine,
        adversaries=adversaries,
        dataset="cleveland",
        key_length_bits=bits,
        seed=bits + 11,
        max_records=4,
    )
    transcript, _ = run_scenario(config, data_dir=DATA_DIR)
    assert transcript.content_hash() == TRANSCRIPT_SHA256[f"{population}-{bits}"]


def test_full_cleveland_transcript():
    config = ScenarioConfig(
        n_genuine=1, adversaries=(), dataset="cleveland", key_length_bits=256, seed=303
    )
    transcript, _ = run_scenario(config, data_dir=DATA_DIR)
    assert len(transcript.world.user("user-000").recovered) == 303
    assert transcript.content_hash() == CLEVELAND_FULL_SHA256


def test_sweep_csv():
    rows = run_sweep(
        ["cleveland", "hungarian", "swiss"], seeds=(0, 1), data_dir=DATA_DIR
    )
    assert len(rows) == 3 * 4 * 2
    assert _sha256(render_csv(rows).encode("ascii")) == SWEEP_CSV_SHA256


@pytest.mark.parametrize("adversary", ["", *(cls.name for cls in ADVERSARY_CLASSES)])
def test_demo_output(capsys, adversary):
    argv = ["demo", "--seed", "42", "--key-length", "128"]
    if adversary:
        argv += ["--adversary", adversary]
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert (code, _sha256(out.encode("utf-8"))) == DEMO_OUTPUT[adversary]
