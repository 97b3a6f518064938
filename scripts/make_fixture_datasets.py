#!/usr/bin/env python3
"""Generate the synthetic heart-disease fixture files under data/.

The three files mimic the shape of the classic heart-disease clinic
collections: 303 records (cleveland), 294 (hungarian), and 123 (swiss),
each with 14 comma-separated attributes and '?' for missing values.
The values themselves are synthetic draws from plausible clinical
ranges, seeded so the files are reproducible byte for byte; the test
suite checks that this script rewrites the committed files exactly,
and its pinned hashes hold only for them.

Usage:
    python3 scripts/make_fixture_datasets.py [--out-dir data]
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

SEED = 20260819  # the pinned hashes hold only for the files this seed writes

# rows, rendering style, and per-attribute missing-cell counts for each file
PROFILES = {
    "cleveland": {
        "rows": 303,
        "style": "float",
        "missing": {"ca": 4, "thal": 2},
    },
    "hungarian": {
        "rows": 294,
        "style": "int",
        "missing": {
            "trestbps": 1,
            "chol": 23,
            "fbs": 8,
            "restecg": 1,
            "thalach": 1,
            "exang": 1,
            "slope": 190,
            "ca": 291,
            "thal": 266,
        },
    },
    "swiss": {
        "rows": 123,
        "style": "int",
        "missing": {
            "trestbps": 2,
            "fbs": 75,
            "restecg": 1,
            "thalach": 1,
            "exang": 1,
            "oldpeak": 6,
            "slope": 17,
            "ca": 118,
            "thal": 52,
        },
    },
}

ATTRIBUTES = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal", "num",
)


def draw_row(rng: random.Random, variant: str) -> dict[str, float]:
    row = {
        "age": float(rng.randint(29, 77)),
        "sex": float(rng.random() < 0.68),
        "cp": float(rng.randint(1, 4)),
        "trestbps": float(rng.randint(94, 200)),
        "chol": 0.0 if variant == "swiss" else float(rng.randint(126, 564)),
        "fbs": float(rng.random() < 0.15),
        "restecg": float(rng.choice((0, 0, 1, 2))),
        "thalach": float(rng.randint(71, 202)),
        "exang": float(rng.random() < 0.33),
        "oldpeak": round(rng.choice((0.0, 0.0, 0.1 * rng.randint(1, 62), 0.1 * rng.randint(1, 30))), 1),
        "slope": float(rng.randint(1, 3)),
        "ca": float(rng.choice((0, 0, 0, 1, 1, 2, 3))),
        "thal": float(rng.choice((3, 3, 3, 6, 7, 7))),
        "num": float(rng.choices((0, 1, 2, 3, 4), weights=(54, 18, 12, 11, 5))[0]),
    }
    return row


def render(value: float, attr: str, style: str) -> str:
    if style == "float" or attr == "oldpeak":
        return repr(round(value, 1)) if attr == "oldpeak" else repr(value)
    return str(int(value))


def build_file(variant: str, seed: int) -> str:
    profile = PROFILES[variant]
    rng = random.Random(seed)
    rows = [draw_row(rng, variant) for _ in range(profile["rows"])]
    lines = []
    blanked: dict[str, set[int]] = {}
    for attr, count in profile["missing"].items():
        blanked[attr] = set(rng.sample(range(profile["rows"]), count))
    for index, row in enumerate(rows):
        tokens = []
        for attr in ATTRIBUTES:
            if attr in blanked and index in blanked[attr]:
                tokens.append("?")
            elif attr == "num":  # num renders as a bare integer in every variant
                tokens.append(str(int(row[attr])))
            else:
                tokens.append(render(row[attr], attr, profile["style"]))
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="output directory")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for offset, variant in enumerate(("cleveland", "hungarian", "swiss")):
        text = build_file(variant, SEED + offset)
        path = out_dir / f"{variant}.csv"
        path.write_text(text, encoding="ascii")
        print(f"wrote {path} ({text.count(chr(10))} rows)")


if __name__ == "__main__":
    main()
