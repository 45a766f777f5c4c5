"""Run the mutation catalog of `tests/mutants.py` on a copy of the tree.

    python3 tests/run_mutants.py

Copies `src/`, `tests/`, `pyproject.toml` and `perfbench/expected/` (the
recorded pool that some tests read) to a temporary directory, runs every
named test once on the unmutated copy, and then, one live mutant at a time,
plants its snippet, runs `python -m pytest -x -q` on each of the mutant's
tests on its own (`-x` stops only at the first failing case of that one
test) and restores the file.  Each pytest run is stopped, with every
process it started, after TIME_LIMIT_S seconds, well above the slowest
recorded run (41.0 s, `rho-quotient-drops-the-defects-power-of-d`).
Prints one JSON line per run: `killed` (every named test failed), `timed
out` (every named test failed or ran past the limit, at least one past it;
`timed_out` lists those, and the mutant counts as detected), `survived` (at
least one passed; `passed` lists those), `did not apply` (the snippet does
not occur exactly once) or `error` (pytest could not run a test).  The
working tree is never written.  Exits 1 unless the baseline passes and
every live mutant is killed or timed out.  Standard library only; not part
of tier-1.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

TIME_LIMIT_S = 300


def _pytest(copy: Path, node_ids) -> tuple:
    """pytest's exit code on the node ids in the copy (None past the time
    limit), and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and every process it started
        proc.wait()
        code = None
    return code, round(time.monotonic() - started, 2)


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
        status = "passed" if code == 0 else "timed out" if code is None else "failed"
        print(json.dumps({"id": "baseline", "status": status, "exit": code, "seconds": seconds}),
              flush=True)
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
                    runs = {t: _pytest(copy, [t]) for t in mutant["tests"]}
                finally:
                    path.write_text(original)
                codes = {code for code, _ in runs.values()}
                passed = [t for t, (code, _) in runs.items() if code == 0]
                timed_out = [t for t, (code, _) in runs.items() if code is None]
                status = ("error" if codes - {0, 1, None} else "survived" if passed
                          else "timed out" if timed_out else "killed")
                record.update(status=status, passed=passed, timed_out=timed_out,
                              seconds=round(sum(s for _, s in runs.values()), 2))
            ok = ok and record["status"] in ("killed", "timed out")
            print(json.dumps(record), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
