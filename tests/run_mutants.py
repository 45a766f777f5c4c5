"""Run the mutation catalog of `tests/mutants.py` on a copy of the tree.

    python3 tests/run_mutants.py

Copies `src/`, `tests/`, `pyproject.toml` and `perfbench/expected/` (the
recorded pool that some tests read) to a temporary directory, runs every
named test once on the unmutated copy, and then, one live mutant at a time,
plants its snippet, runs `python -m pytest -x -q` on the mutant's tests and
restores the file.  Prints one JSON line per run: `killed` (a named test failed),
`survived` (all passed), `did not apply` (the snippet does not occur exactly
once) or `error` (pytest could not run the tests).  The working tree is
never written.  Exits 1 unless the baseline passes and every live mutant is
killed.  Standard library only; not part of tier-1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def _pytest(copy: Path, node_ids) -> tuple[int, float]:
    """pytest's exit code on the node ids in the copy, and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, round(time.monotonic() - started, 2)


def main() -> int:
    live = [m for m in MUTANTS if not m.get("retired")]
    ok = True
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")  # pytest settings
        shutil.copytree(ROOT / "perfbench" / "expected", copy / "perfbench" / "expected")

        node_ids = sorted({t for m in live for t in m["tests"]})
        code, seconds = _pytest(copy, node_ids)
        print(json.dumps({"id": "baseline", "status": "passed" if code == 0 else "failed",
                          "exit": code, "seconds": seconds}), flush=True)
        if code != 0:
            return 1
        for mutant in live:
            path = copy / mutant["file"]
            original = path.read_text()
            record = {"id": mutant["id"]}
            if original.count(mutant["old"]) != 1:
                record.update(status="did not apply", occurrences=original.count(mutant["old"]))
            else:
                path.write_text(original.replace(mutant["old"], mutant["new"]))
                try:
                    code, seconds = _pytest(copy, mutant["tests"])
                finally:
                    path.write_text(original)
                status = {0: "survived", 1: "killed"}.get(code, "error")
                record.update(status=status, exit=code, seconds=seconds)
            ok = ok and record["status"] == "killed"
            print(json.dumps(record), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
