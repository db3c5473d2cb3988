"""Every demo script runs to completion and prints exactly its recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout.  The demos are deterministic, so a
#: change of any printed line fails here; a deliberate change edits the
#: digest and says so in CHANGES.md.
DEMO_DIGESTS = {
    "01_exact_padic_arithmetic.py": "c66cd2090d7b37b98269df754d9e1c434902eead6af14e3d1d941ee42d302d10",
    "02_automorphism_search.py": "95836569b962a6257ec7f7e4495f81843d75066a56c7c47f083d8241cabbd1cd",
    "03_eigenvalue_orbits.py": "5bc9ab0c57f2c797fe9c875d7a8fd3bc3895c7c8301c22cf022e49591310aa8d",
    "04_growth_invariants.py": "674606e5e5ae009ce64ea15cc2e57194c8673e5d202b8c9f008010e13d6a9859",
    "05_tate_cohomology.py": "b5eda1f085e355071e9af948f5cab85a956f44c3368855bd77b07765f8b3fde2",
    "06_records_and_reports.py": "7ebe601c4beb4c73d83c9692ff3e51bcca24470fbbb0a547a3bdbe068d62307a",
}


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_matches_recorded_digest(demo):
    # one run per demo: it completes, prints something, and prints exactly
    # the recorded output
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEMO_DIGESTS[demo.name]
