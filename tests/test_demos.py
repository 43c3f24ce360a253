"""The demos run end to end and print exactly their pinned text."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_equality_families.py": "47cd6319ad809ab894163e184702549508aaae6e3dc40ca0d22478876f25af85",
    "02_printed_vs_corrected.py": "080d876f5ff7e653076773f81d875d58db786b32647cc8211bfc68b4f6b4cd5b",
    "03_classify_and_gate.py": "3203d2e5580cd15c3ecf7c92f81009dd633ed6894051ac225fb58e392c3ee4c3",
    "04_counterexample_search.py": "24106d8fe78aa711d2f227faba57abe210388d0c310fb015e025232262077308",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
