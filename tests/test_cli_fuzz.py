"""Fuzzed command lines.

Each argv is one of the command forms of `cli.COMMANDS` followed by options
drawn mostly from that form's own row and about one in four from other forms'
rows, so the rejection of unread options is fuzzed too, with values that are
small or huge integers, weight, pair and partition literals, or junk.  Every
run must end in exit code 0, 1 or 2, never in a traceback, and an exit 2
carries exactly one JSON line on stderr and nothing on stdout.  Each call runs
in a fresh interpreter under a time and a memory limit, so a hang or a
runaway allocation fails the test instead of the machine.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from superinduce.cli import COMMANDS, form_options

SRC = Path(__file__).resolve().parent.parent / "src"
CALL_TIMEOUT_S = 60
CALL_MEMORY_BYTES = 1 << 30


def _command_forms():
    """(argv prefix, its options, every other form's options) for every form."""
    every = sorted({option for form in COMMANDS for option in form_options(form)})
    return [
        (form.split(), form_options(form), [o for o in every if o not in form_options(form)])
        for form in COMMANDS
    ]


FORMS = _command_forms()

# Integers between 2 and 10**6 stay out: below RING_SIZE_CAP the ring-building
# suites (verify lemmas, identities, gen, phi1) have no work bound yet, and
# verify lemmas --m 3 --n 3 alone makes 3,456 rewrite checks, which took 46 s
# of CPU (Python 3.11.7, 2-core Intel Xeon).
SMALL = ["-1", "0", "1", "2"]
HUGE = ["1000000", "-1000000", "1" + "0" * 30]
LITERALS = [
    "[2,1|1,0]", "[1,-2|0,0]", "[0,0|0,0]", "[3|2,1]", "[2|2,1,0]", "[1,2|0,1]",
    "[[1,1]]", "[[1,1],[2,2]]", "[[1,2],[2,1]]", "[[0,3]]", "[[1,1],[1,1]]",
    "[2,1]", "2,1", "[]", "[-1]", "[3,2,1]",
]
JUNK = ["", " ", "x", "[", "]", "[1,2|3", "[a|b]", "[[1]]", "{}", "null", "1.5", "-", "--", "é"]
VALUES = st.sampled_from(SMALL + HUGE + LITERALS + JUNK)


@st.composite
def argvs(draw):
    prefix, options, others = draw(st.sampled_from(FORMS))
    argv = list(prefix)
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(others if draw(st.integers(0, 3)) == 0 else options))
        argv.append(option)
        if option != "--tableaux":
            argv.append(draw(VALUES))
    return argv


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CALL_MEMORY_BYTES, CALL_MEMORY_BYTES))


def _run(argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "superinduce.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,  # a junk --out lands in a scratch directory
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=CALL_TIMEOUT_S,
        preexec_fn=_limit_memory,
    )


# the draw is the same on every run, so a failure names the argv that the code
# under test broke rather than one a fresh draw happened to reach
@settings(
    max_examples=80,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_any_command_line_ends_in_a_report_or_one_json_error(argv):
    with tempfile.TemporaryDirectory() as cwd:
        proc = _run(argv, cwd)
    assert proc.returncode in (0, 1, 2), (argv, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])
    if proc.returncode == 2:
        assert proc.stdout == "", argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, (argv, proc.stderr)
        assert set(json.loads(lines[0])) == {"error"}, argv
    else:
        assert proc.stderr == "", argv
        json.loads(proc.stdout)


def test_every_command_form_is_fuzzed():
    # 6 verify suites, 2 shorthands, 5 artifacts and 8 direct queries
    assert len(FORMS) == 21
    assert all(options and others for _, options, others in FORMS)
