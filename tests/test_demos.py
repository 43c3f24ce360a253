"""The demos run end to end and print exactly their pinned text."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_equality_families.py": "9384094046ff2fc0631eca3cabc86a746564788955bbbae7a96cfe9aa616f31e",
    "02_printed_vs_corrected.py": "8670aa5bb2f614e740cd06a75bf419689344581880af9befdaff78e16512ed5c",
    "03_classify_and_gate.py": "3203d2e5580cd15c3ecf7c92f81009dd633ed6894051ac225fb58e392c3ee4c3",
    "04_counterexample_search.py": "c9e71486474861d175497c3f93a33138410b6ab21d37e6ac5c71f7c16b665f71",
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
