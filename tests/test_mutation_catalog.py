"""The mutation catalog still fits the tree: every live mutant's snippet
occurs exactly once in its file, and every test it names is defined.

Running the mutants is `tests/run_mutants.py`, outside tier-1."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
LIVE = [m for m in MUTANTS if not m.get("retired")]


def _defined_tests(path: Path) -> set:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_mutant_ids_are_distinct():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", LIVE, ids=[m["id"] for m in LIVE])
def test_live_mutant_applies_once_and_names_existing_tests(mutant):
    assert mutant["file"].startswith("src/")
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["old"] != mutant["new"]
    assert mutant["tests"]
    for node_id in mutant["tests"]:
        path, _, name = node_id.partition("::")
        assert name, node_id
        assert name.split("[")[0] in _defined_tests(ROOT / path), node_id
