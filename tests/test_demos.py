"""The demos print the same bytes run after run: each one's stdout is pinned
by its sha256, so a change that moves any printed value fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "floor_vectors.py": "34d04462cf3636e1ce2c06bcb3d1950414af721f8c46bf616a8bb55e4281e0c1",
    "rewrite_tour.py": "28f6c5f71fb34ffbbcfabf338c3fe0d0707585fcc573ee29c8bc26f95cf7b169",
    "wedge_and_linkage.py": "a4946447f7dc04d2edb4c8753702ad9ae0e6cf60db2de576e5e50e1b64936299",
}


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_byte_identical(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
