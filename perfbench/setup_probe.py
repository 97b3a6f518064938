"""Time one cold set-up of a workload in a fresh interpreter.

Usage: setup_probe.py MAX_RECORDS DATASET...  (MAX_RECORDS 0 keeps all)

Set-up is what precedes the first protocol call: importing acshare,
parsing the dataset CSVs and serializing every record to a payload.
Prints the elapsed seconds.
"""

import time

START = time.perf_counter()

import os  # noqa: E402  (the clock starts before any import)
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from acshare import dataset  # noqa: E402

max_records = int(sys.argv[1]) or None
for spec in sys.argv[2:]:
    name, path = dataset.resolve_dataset(spec, os.path.join(ROOT, "data"))
    records = dataset.load_dataset(path, variant=name)[:max_records]
    payloads = [dataset.record_to_payload(record) for record in records]
print(time.perf_counter() - START)
