"""The report writer against ``json.dumps``: same bytes, bounded memory.

`cli._write_json` spells a document piece by piece, one encoder call per
container of scalars.  Its text must equal ``json.dumps(doc, indent=2,
sort_keys=True)`` on any JSON tree, with and without the C encoder, and
`cli._publish` must never hold the whole text of a report.
"""

import json
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
def write_json(request, monkeypatch):
    """The writer, built on ``_json`` or, masked, as a build without it."""
    if request.param:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(cli, "c_make_encoder", None)
        monkeypatch.setattr(
            cli, "encode_basestring_ascii", json.encoder.py_encode_basestring_ascii
        )
    for cached in (cli._encoder, cli._level):
        cached.cache_clear()
    yield cli._write_json
    for cached in (cli._encoder, cli._level):
        cached.cache_clear()


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
