"""The report writer against ``json.dumps``: same bytes, bounded memory.

`cli._write_json` spells a document piece by piece, one encoder call per
container of scalars.  Its text must equal ``json.dumps(doc, indent=2,
sort_keys=True)`` on any JSON tree, with and without the C encoder.
`cli._publish` encodes each report entry once, and that text is both the
entry's sort key and what is written of it: a report's bytes must equal
``json.dumps`` of the report with its entries sorted by their compact
``json.dumps(entry, sort_keys=True)``, and `cli._publish` must never hold
the whole text of a report.
"""

import contextlib
import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import superinduce.cli as cli

_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**18, max_value=10**80).map(lambda v: v * (-1) ** (v % 2))
    | st.floats()
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.text(st.sampled_from('a\x00\x07\x1f\x7f\n\t"\\/é€\u2028\U0001f600'), max_size=6)
    | st.text(max_size=6)
)

# json sorts a dict's items before it turns keys to text, so the keys of one
# dict are all str, all numbers (bool, int and float compare), or one None
str_keys = st.text(st.sampled_from('ab\x00\x1f\n"\\é\U0001f600'), max_size=3) | st.text(max_size=3)
number_keys = st.booleans() | st.integers() | st.floats() | st.sampled_from(_SPECIAL_FLOATS)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(str_keys, children, max_size=4)
        | st.dictionaries(number_keys, children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    )


# empty containers as leaves, so containers holding only empty containers
# turn up at every depth
trees = st.recursive(
    scalars | st.sampled_from([{}, [], ()]),
    containers,
    max_leaves=24,
)


@pytest.fixture(params=[False, True], ids=["c-encoder", "c-encoder-masked"])
def encoders(request, monkeypatch):
    """The module's encoders, built on ``_json`` or, masked, as a build
    without it."""
    if request.param:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(cli, "c_make_encoder", None)
        monkeypatch.setattr(
            cli, "encode_basestring_ascii", json.encoder.py_encode_basestring_ascii
        )
    for cached in (cli._encoder, cli._level):
        cached.cache_clear()
    yield
    for cached in (cli._encoder, cli._level):
        cached.cache_clear()


@pytest.fixture
def write_json(encoders):
    """The writer, built on ``_json`` or, masked, as a build without it."""
    return cli._write_json


def _spelled(write_json, doc) -> str:
    pieces = []
    write_json(pieces.append, doc)
    return "".join(pieces)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [[], {}, ()]},
        [[[[]]], {"x": [{}]}],
        {1: "a", 2.5: [True], False: None, float("nan"): -0.0},
        {None: [float("inf"), float("-inf"), 10**40]},
        {"\u00e9\n\x00": {"\U0001f600": "\x1f"}},
        "top-level scalar",
    ],
)
def test_writer_spells_json_dumps_on_edge_cases(write_json, doc):
    assert _spelled(write_json, doc) == json.dumps(doc, indent=2, sort_keys=True)


# the fixture only picks the encoders, the same for every example
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trees)
def test_writer_spells_json_dumps(write_json, doc):
    assert _spelled(write_json, doc) == json.dumps(doc, indent=2, sort_keys=True)


# -- reports: each entry encoded once, sorted by its compact text ----------------

# strings that hold the characters of JSON's own syntax
syntax_text = st.text(st.sampled_from(',}{][": \n\\a'), max_size=6)

entry_values = trees | syntax_text | st.lists(syntax_text, max_size=3)

entries = st.builds(
    lambda fields, ok: {**fields, "ok": ok},
    st.dictionaries(syntax_text | str_keys, entry_values, max_size=4),
    st.booleans(),
)


def _published(document) -> tuple:
    """``_publish``'s exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli._publish(document, None)
    return code, stdout.getvalue()


def _dumped_report(document) -> str:
    """The report as json.dumps spells it, entries sorted by compact text."""
    entries = sorted(document["entries"], key=lambda e: json.dumps(e, sort_keys=True))
    failures = sum(not e["ok"] for e in entries)
    report = {**document, "entries": entries, "failures": failures, "ok": failures == 0}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _report(entries) -> dict:
    return {"command": "x", "config": {"m": 1, "seed": None}, "entries": entries}


@pytest.mark.parametrize(
    "entries",
    [
        # flat and nested entries mixed, empty containers included
        [
            {"rule": "b", "pairs": [[1, 2], [2, 1]], "ok": True},
            {"rule": "b", "ok": False, "w": "[1,0|0]"},
            {"rule": "a", "chain": [], "ok": True},
            {"rule": "a", "chain": [{}], "ok": True},
            {"rule": "a,}", "x": {}, "ok": False},
            {"rule": "a", "x": {"k": [{}, []]}, "ok": True},
        ],
        # two entries with one text
        [{"ok": True, "n": 1}, {"ok": True, "n": 1}],
        [],
    ],
)
def test_report_spells_json_dumps_of_its_sorted_entries(encoders, entries):
    document = _report(entries)
    expected = _dumped_report(document)
    code, out = _published(document)
    assert out == expected
    assert code == (1 if any(not e["ok"] for e in entries) else 0)


def test_compact_order_is_not_the_indented_texts():
    # a prefix sorts after the longer list in compact text, but before it in
    # the fully indented text
    short, long = {"a": [1], "ok": True}, {"a": [1, 2], "ok": True}
    _, out = _published(_report([short, long]))
    assert [e["a"] for e in json.loads(out)["entries"]] == [[1, 2], [1]]
    indented = sorted([short, long], key=lambda e: json.dumps(e, indent=2, sort_keys=True))
    assert indented == [short, long]


# the fixture only picks the encoders, the same for every example
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(entries, max_size=8))
@example([{"a": [1], "ok": True}, {"a": [1, 2], "ok": True}])
# runs of scalars and empty containers on both sides of a container
@example([{"a": 1, "b": [[1, 2], 3], "c": {}, "ok": True, "z": "x"}])
def test_report_spells_json_dumps(encoders, entries):
    document = _report(entries)
    expected = _dumped_report(document)
    assert _published(document)[1] == expected


def test_publish_leaves_the_callers_entries_sorted():
    entries = [{"rule": "b", "ok": True}, {"rule": "a", "pairs": [[1]], "ok": False}]
    document = _report(list(entries))
    _published(document)
    assert document["entries"] == entries[::-1]
    assert (document["failures"], document["ok"]) == (1, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "fwedge", "--m", "2", "--n", "2"],
        ["verify", "linkage", "--m", "2", "--n", "2"],
    ],
)
def test_out_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert target.read_bytes() == out.encode()
    document = json.loads(out)
    assert out == _dumped_report(document)


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_publish_holds_no_whole_report(monkeypatch):
    # 7,000 flat entries shaped like those of verify fwedge at (3,2): the
    # text is about 1.2 MB, and json.dumps(indent=2) peaked at about 8 MB
    entries = [
        {
            "content": f"[-1,-1,-1|0,{i % 4}]",
            "direct": i % 3,
            "ok": True,
            "rule": "wedge-count",
            "transposed": i % 3,
            "weight": f"[{i // 49},{i // 7 % 7},{i % 7}|{i % 5},0]",
        }
        for i in range(7000)
    ]
    document = {
        "command": "verify fwedge",
        "config": {"m": 3, "max_entry": 6, "n": 2, "p": 0, "seed": 0},
        "entries": entries,
    }
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        assert cli._publish(document, None) == 0
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, f"_publish peaked {peak / 1e6:.2f} MB above the live size"
