"""Checking externally computed class-group records from the command line.

Records arrive one JSON object per line; the checker is hypothesis-gated
and reports growth fits and the parity of the fitted lambda per tower.
This script drives the CLI in-process on the bundled sample data and on
a synthetic contradiction.
"""

import json
import tempfile
from pathlib import Path

from anticyclo.cli import main

DATA = Path(__file__).resolve().parent / "data"

print("== bundled sample records ==")
code = main(["--no-timestamps", "check-records", str(DATA / "records_sample.jsonl")])
print(f"exit code: {code}\n")

print("== bundled parity models ==")
for name in ("model_d2.json", "model_d4.json"):
    code = main(["--no-timestamps", "audit-parity", str(DATA / name)])
    print(f"{name}: exit code {code}\n")

print("== a synthetic cyclic record at layer 1 must be flagged ==")
flags = {k: True for k in (
    "p_nonsplit", "cm_field", "A_k_nontrivial", "A_kplus_trivial", "no_p_roots_of_unity")}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "impossible.jsonl"
    path.write_text(json.dumps({"p": 3, "n": 1, "inv": [27], "flags": flags, "label": "impossible"}) + "\n")
    code = main(["--no-timestamps", "check-records", str(path)])
print(f"exit code: {code}  (1 = contradiction found, as it must be)")
