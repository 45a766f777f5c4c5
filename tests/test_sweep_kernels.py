"""The per-check kernels of the verify sweeps against the routes they replaced
(`builder_oracle`): the admissibility test that shifts list copies of the
blocks against `parent_is_admissible_pair`, which builds `Weight` objects,
the one-walk partition transpose against `parent_transpose`, and the two
halves of the wedge hypotheses against `parent_wedge_content_holds`, which
tests the whole weight at once."""

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
    wedge_content_holds,
    wedge_minus_holds,
    wedge_plus_holds,
)
from superinduce.weights_tableaux import (
    Weight,
    content_of_pairs,
    is_admissible_pair,
    is_ordered_family,
)

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
