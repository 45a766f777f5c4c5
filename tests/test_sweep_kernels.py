"""The per-check kernels of the verify sweeps against the routes they replaced
(`builder_oracle`): the admissibility test that shifts list copies of the
blocks against `parent_is_admissible_pair`, which builds `Weight` objects,
the one-walk partition transpose against `parent_transpose`, and the two
halves of the wedge hypotheses against `parent_wedge_content_holds`, which
tests the whole weight at once.  The transposed count's skew key is checked
against `lr_coefficient` on the unkeyed shapes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import superinduce.cli as cli
from builder_oracle import (
    parent_is_admissible_pair,
    parent_transpose,
    parent_wedge_content_holds,
)
from superinduce.lr_oracle import (
    _transpose,
    conjugate,
    hook_partition,
    skew_count,
    skew_key,
    transposed_count,
    wedge_content_holds,
    wedge_minus_holds,
    wedge_plus_holds,
)
from superinduce.weights_tableaux import (
    Weight,
    content_of_pairs,
    is_admissible_pair,
    is_ordered_family,
    parse_weight,
)
from shape_oracle import lr_coefficient

INDEX = st.integers(0, 5)  # 0 and anything past the block size are out of range


def _outcome(fn, *args):
    """The verdict, or the type and message of what was raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return "raised", type(exc), str(exc)


def _family(data, kind, m, n):
    if kind == "free":
        # independent lengths, so the two families may not pair up
        I = data.draw(st.lists(INDEX, max_size=6))
        J = data.draw(st.lists(INDEX, max_size=6))
        return I, J
    pair = {
        "ordered": st.tuples(INDEX, INDEX),
        "ordered in range": st.tuples(st.integers(1, m), st.integers(1, n)),
        "ordered, plus in range": st.tuples(st.integers(1, m), INDEX),
        "unordered out of range": st.tuples(INDEX, INDEX),
    }[kind]
    unordered = kind == "unordered out of range"
    pairs = set(data.draw(st.lists(pair, min_size=2 * unordered, max_size=6, unique=True)))
    if unordered:
        # index 0, and 5 past the largest block, are never in range
        pairs.add(data.draw(st.sampled_from([(0, 1), (5, 1), (1, 0), (1, 5)])))
    pairs = sorted(pairs)  # distinct pairs in lexicographic order are ordered
    if unordered:
        pairs[0], pairs[1] = pairs[1], pairs[0]
    return [i for i, _ in pairs], [j for _, j in pairs]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_admissibility_equals_the_weight_building_route(m, n, data):
    entries = st.integers(-3, 8)  # non-dominant weights included
    w = Weight(
        tuple(data.draw(st.lists(entries, min_size=m, max_size=m))),
        tuple(data.draw(st.lists(entries, min_size=n, max_size=n))),
    )
    kind = data.draw(
        st.sampled_from(
            ["free", "ordered", "ordered in range", "ordered, plus in range",
             "unordered out of range"]
        )
    )
    I, J = _family(data, kind, m, n)
    expect = _outcome(parent_is_admissible_pair, w, I, J)
    assert _outcome(is_admissible_pair, w, I, J) == expect
    if kind == "unordered out of range":
        # unordered is False before any index is read
        assert not is_ordered_family(tuple(I), tuple(J))
        assert expect == ("value", False)


PARTITIONS = st.lists(st.integers(1, 8), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(PARTITIONS, st.integers(0, 2))
def test_transpose_equals_the_per_column_count(parts, zeros):
    assert _transpose(parts) == parent_transpose(parts)
    # conjugate strips trailing zeros before it transposes
    assert conjugate(conjugate(parts + (0,) * zeros)) == parts


def _split_wedge(w, content):
    return wedge_plus_holds(w.plus, content.plus, w.n) and wedge_minus_holds(
        w.minus, content.minus
    )


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_wedge_halves_equal_the_whole_weight_test_over_the_sweep(m, n):
    contents = [cont for cont, _ in cli._families_by_content(m, n).values()]
    held = 0
    for w in cli._dominant_weights(m, n, 6, 1):
        for cont in contents:
            expect = parent_wedge_content_holds(w, cont)
            assert _split_wedge(w, cont) == wedge_content_holds(w, cont) == expect
            held += expect
    assert held > 0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_wedge_halves_equal_the_whole_weight_test_off_the_sweep(m, n, data):
    entries = st.integers(-3, 8)  # non-dominant weights, negative last entries
    w = Weight(
        tuple(data.draw(st.lists(entries, min_size=m, max_size=m))),
        tuple(data.draw(st.lists(entries, min_size=n, max_size=n))),
    )
    # pairs may repeat, so content entries may pass the block sizes
    pairs = data.draw(
        st.lists(st.tuples(st.integers(1, m), st.integers(1, n)), max_size=8)
    )
    cont = content_of_pairs(m, n, [i for i, _ in pairs], [j for _, j in pairs])
    expect = parent_wedge_content_holds(w, cont)
    assert _split_wedge(w, cont) == wedge_content_holds(w, cont) == expect


@st.composite
def skew_questions(draw):
    """Normalized outer, inner and content of one size, where any row may be
    empty and every row may share the columns left of a common offset.

    Rows are drawn bottom up, and about half start at or past the end of the
    row below: empty, or wholly right of the rows below, the diagrams whose
    empty middle rows the key drops."""
    outer, inner = [], []
    for _ in range(draw(st.integers(0, 5))):
        below_o, below_i = (outer[0], inner[0]) if outer else (0, 0)
        i = below_i + draw(st.integers(0, 3))
        if draw(st.booleans()):
            i = max(i, below_o)  # empty when its outer part is i too
            o = i + draw(st.sampled_from([0, 0, 1, 2]))
        else:
            o = max(i, below_o) + draw(st.integers(0, 3))
        outer.insert(0, o)
        inner.insert(0, i)
    left = draw(st.integers(0, 2))
    outer = tuple(o + left for o in outer if o + left)
    inner = tuple(i + left for i in inner if i + left)
    content, size = [], sum(outer) - sum(inner)
    while size:
        part = draw(st.integers(1, min([size] + content[-1:])))
        content.append(part)
        size -= part
    return outer, inner, tuple(content)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(skew_questions())
def test_skew_key_count_equals_the_walk_on_the_whole_shapes(question):
    key = skew_key(*question)
    rows, content = key
    assert content == question[2]
    # no empty row, and no column left of every cell
    assert all(o > i for o, i in rows) and (not rows or rows[-1][1] == 0)
    assert skew_count(key) == lr_coefficient(*question)


def test_empty_skew_diagram_keys_and_counts_as_one_filling():
    assert skew_key((3, 1), (3, 1), ()) == skew_key((), (), ()) == ((), ())
    assert skew_count(((), ())) == 1


POOL_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("m, n", POOL_SIZES)
def test_fwedge_tables_equal_a_fresh_transposed_count_over_the_sweep(m, n):
    # the sizes and entry bound of the benchmark's fwedge commands
    args = cli.build_parser().parse_args(
        ["verify", "fwedge", "--m", str(m), "--n", str(n), "--max-entry", "6"]
    )
    entries = cli.suite_fwedge(args, random.Random(0))["entries"]
    table = cli._families_by_content(m, n)
    assert entries
    for e in entries:
        w, cont = parse_weight(e["weight"]), table[e["content"]][0]
        outer = conjugate(hook_partition(w))
        plus = tuple(a + b for a, b in zip(w.plus, cont.plus))
        minus = tuple(a + b for a, b in zip(w.minus, cont.minus))
        assert e["transposed"] == transposed_count(outer, plus, minus)
        assert e["transposed"] == lr_coefficient(outer, conjugate(plus), minus)
