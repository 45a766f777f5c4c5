import sys
import types

import pytest

from tracing import Tracer


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 20] holds mid [2, 14], which holds leaf [4, 10]; a second
    # child of outer runs [15, 18]
    tracer = Tracer(clock=_clock([0, 2, 4, 10, 14, 15, 18, 20]))
    outer = tracer.begin("outer")
    mid = tracer.begin("mid")
    leaf = tracer.begin("leaf")
    tracer.end(leaf)
    tracer.end(mid)
    second = tracer.begin("mid")
    tracer.end(second)
    tracer.end(outer)
    self_ns = {k: round(v * 1e9) for k, v in tracer.self_seconds().items()}
    assert self_ns == {"outer": 20 - 12 - 3, "mid": (12 - 6) + 3, "leaf": 6}
    assert tracer.calls() == {"outer": 1, "mid": 2, "leaf": 1}
    assert list(tracer.span_parent) == [-1, 0, 1, 0]


def test_spans_close_in_order():
    tracer = Tracer(clock=_clock(range(10)))
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrapped_calls_nest_and_run_their_hook():
    tracer = Tracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1, lambda c, args, r: seen.append((args, r)))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert seen == [((3,), 4)]
    assert list(tracer.span_parent) == [-1, 0]
    assert all(e >= s for s, e in zip(tracer.span_start, tracer.span_end))


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.span_end[0] >= tracer.span_start[0] > 0
    assert tracer.begin("next") == 1
    assert tracer.span_parent[1] == -1


class _Amb:
    def __init__(self):
        self._cache = {}


def test_cache_hits_and_misses_are_inferred_from_growth():
    tracer = Tracer()

    def lookup(amb, key):
        if key not in amb._cache:
            amb._cache[key] = key * 2
        return amb._cache[key]

    def composite(amb):
        key = "composite"
        if key not in amb._cache:
            amb._cache[key] = cached(amb, 3) + cached(amb, 1)
        return amb._cache[key]

    cached = tracer.wrap_cached(lookup)
    cached_composite = tracer.wrap_cached(composite)
    amb = _Amb()
    assert cached(amb, 1) == 2  # miss
    assert cached(amb, 1) == 2  # hit
    assert cached_composite(amb) == 8  # miss, with one nested miss and one hit
    assert cached_composite(amb) == 8  # hit
    assert tracer.counters["ambient_cache.misses"] == 3
    assert tracer.counters["ambient_cache.hits"] == 3
    assert tracer.cache_entries() == 3


def test_patching_reaches_every_importer_and_uninstalls():
    def original():
        return "original"

    home = types.ModuleType("fakepkg.home")
    home.original = original
    user = types.ModuleType("fakepkg.user")
    user.alias = original
    outsider = types.ModuleType("otherpkg")
    outsider.original = original
    modules = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.home": home,
               "fakepkg.user": user, "otherpkg": outsider}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.patch_function(home, "original", tracer.wrap("home.original", original))
        assert home.original() == user.alias() == "original"
        assert tracer.calls() == {"home.original": 2}
        assert outsider.original is original
        tracer.uninstall()
        assert home.original is original and user.alias is original
    finally:
        for name in modules:
            del sys.modules[name]


def test_spans_are_written_as_columns(tmp_path):
    tracer = Tracer(clock=_clock([5, 9]))
    tracer.end(tracer.begin("only"))
    tracer.write(tmp_path / "spans")
    raw = (tmp_path / "spans.bin").read_bytes()
    assert len(raw) == 4 * 8
    assert "only" in (tmp_path / "spans.json").read_text()
