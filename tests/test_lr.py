import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from shape_oracle import contains, is_horizontal_strip, lr_coefficient
from superinduce.lr_oracle import (
    admissible_count,
    admissible_families,
    conjugate,
    hook_partition,
    lr_coefficient_flagged,
    lr_multiplicity,
    lr_tableaux,
    transposed_count,
    wedge_hypotheses_hold,
)
from superinduce.superpoly import InternalError, UsageError
from superinduce.weights_tableaux import (
    content_of_pairs,
    is_admissible_pair,
    is_dominant,
    lambda_IJ,
    make_weight,
)


def random_partition(rng, max_len=5, max_part=6):
    length = rng.randint(0, max_len)
    parts = sorted((rng.randint(0, max_part) for _ in range(length)), reverse=True)
    return tuple(parts)


def test_conjugate_small_cases():
    assert conjugate(()) == ()
    assert conjugate((1,)) == (1,)
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate((3, 2, 2, 1)) == (4, 3, 1)
    assert conjugate((2, 0)) == (1, 1)


def test_conjugate_is_an_involution():
    rng = random.Random(71)
    for _ in range(200):
        p = random_partition(rng)
        trimmed = p[: len(p) - next((k for k, v in enumerate(reversed(p)) if v), len(p))]
        assert conjugate(conjugate(p)) == trimmed
        assert sum(conjugate(p)) == sum(p)


def test_partition_validation():
    with pytest.raises(UsageError):
        conjugate((1, 2))
    with pytest.raises(UsageError):
        conjugate((2, -1))
    count, flag = lr_coefficient_flagged((1, 2), (), (1,))
    assert count == 0 and "weakly decreasing" in flag


def test_lr_flag_separates_malformed_from_empty():
    # legitimate zero: the sizes match but no lattice filling exists
    count, flag = lr_coefficient_flagged((3, 1), (), (2, 2))
    assert (count, flag) == (0, None)
    # malformed: sizes cannot match
    count, flag = lr_coefficient_flagged((3, 1), (), (2, 1))
    assert count == 0 and flag is not None
    # malformed: inner sticks out
    count, flag = lr_coefficient_flagged((2,), (3,), (1,))
    assert count == 0 and flag is not None


@pytest.mark.parametrize(
    "outer, plus, minus, reason",
    [
        # the conjugate of (2,) is (1, 1), which sticks out of one row of 2
        ((2,), (2,), (), "not contained"),
        ((3, 1), (1,), (2,), "does not match"),
    ],
)
def test_transposed_count_raises_on_degenerate_shapes(outer, plus, minus, reason):
    with pytest.raises(InternalError, match=reason):
        transposed_count(outer, plus, minus)


def test_lr_frozen_values():
    assert lr_coefficient((1,), (), (1,)) == 1
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    # straight shapes pick out their own content exactly once
    assert lr_coefficient((3, 1), (), (3, 1)) == 1
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1
    # first multiplicity-2 example used by the wedge check below
    assert lr_coefficient((3, 2, 2, 1), (2, 2, 1), (2, 1)) == 2


def test_lr_tableaux_match_count_and_are_lattice():
    cases = [
        ((3, 2, 2, 1), (2, 2, 1), (2, 1)),
        ((4, 2, 1), (2, 1), (2, 1, 1)),
        ((3, 3, 1), (2, 1), (2, 1, 1)),
    ]
    # malformed questions: both routes report no fillings, and the counter flags
    flagged = [
        ((2, 3), (), (1,)),
        ((3, 1), (), (2, 1)),
        ((2,), (3,), (1,)),
        ((2, 1), (), (1, 2)),
        ((2, -1), (), (1,)),
    ]
    for outer, inner, content in flagged:
        assert lr_coefficient_flagged(outer, inner, content)[1] is not None
    for outer, inner, content in cases + flagged:
        fillings = lr_tableaux(outer, inner, content)
        assert len(fillings) == lr_coefficient_flagged(outer, inner, content)[0]
        padded_inner = inner + (0,) * (len(outer) - len(inner))
        for rows in fillings:
            word = []
            for r, row in enumerate(rows):
                word.extend(
                    row[c] for c in range(outer[r] - 1, padded_inner[r] - 1, -1)
                )
            tally = [0] * (len(content) + 1)
            for e in word:
                tally[e] += 1
                assert e == 1 or tally[e] <= tally[e - 1]
            assert tuple(tally[1:]) == content


def test_pieri_one_row_content():
    rng = random.Random(402)
    checked = 0
    for _ in range(300):
        outer = random_partition(rng, max_len=4, max_part=5)
        inner = tuple(v - rng.randint(0, v) for v in outer)
        inner = tuple(sorted((v for v in inner if v > 0), reverse=True))
        if not contains(outer, inner):
            continue
        k = sum(outer) - sum(inner)
        if k == 0:
            continue
        expected = 1 if is_horizontal_strip(outer, inner) else 0
        assert lr_coefficient(outer, inner, (k,)) == expected
        checked += 1
    assert checked > 100


def test_lr_conjugation_symmetry():
    rng = random.Random(19)
    for _ in range(60):
        outer = random_partition(rng, max_len=4, max_part=4)
        inner = tuple(
            sorted((v - rng.randint(0, v) for v in outer), reverse=True)
        )
        inner = tuple(v for v in inner if v > 0)
        if not contains(outer, inner):
            continue
        rest = sum(outer) - sum(inner)
        content = random_partition(rng, max_len=3, max_part=4)
        if sum(content) != rest:
            continue
        direct = lr_coefficient(outer, inner, content)
        flipped = lr_coefficient(
            conjugate(outer), conjugate(inner), conjugate(content)
        )
        assert direct == flipped


def test_hook_partition_examples():
    assert hook_partition(make_weight((4, 3), (1, 0))) == (4, 3, 1)
    assert hook_partition(make_weight((4, 3), (2, 0))) == (4, 3, 1, 1)
    assert hook_partition(make_weight((2, 2), (0, 0))) == (2, 2)
    assert hook_partition(make_weight((3,), (2, 1))) == (3, 2, 1)
    with pytest.raises(UsageError):
        hook_partition(make_weight((1, 0), (1, 1)))  # minus columns stick out
    with pytest.raises(UsageError):
        hook_partition(make_weight((2, 1), (1, -1)))


def test_admissible_families_examples():
    w = make_weight((4, 2), (2, 0))
    cont = make_weight((-1, -1), (1, 1))
    fams = admissible_families(w, cont)
    assert fams == [((1, 2), (1, 2)), ((1, 2), (2, 1))]
    assert admissible_count(w, cont) == 2
    # empty content counts the empty family once
    assert admissible_count(w, make_weight((0, 0), (0, 0))) == 1
    # a repeated plus index cannot reuse a minus index
    narrow = make_weight((3,), (4,))
    assert admissible_count(narrow, make_weight((-2,), (2,))) == 0
    # the shifted weight must stay dominant
    flat = make_weight((2, 2), (1, 0))
    assert admissible_count(flat, make_weight((-2, 0), (1, 1))) == 0


def test_wedge_counts_agree_on_named_instance():
    w = make_weight((4, 3), (1, 0))
    I, J = (1, 2), (1, 2)
    assert wedge_hypotheses_hold(w, I, J)
    cont = content_of_pairs(2, 2, I, J)
    assert admissible_count(w, cont) == 2
    assert lr_multiplicity(w, I, J) == 2
    # a second family on the same weight, heavier on one minus index
    I2, J2 = (1, 2), (1, 1)
    assert wedge_hypotheses_hold(w, I2, J2)
    assert admissible_count(w, content_of_pairs(2, 2, I2, J2)) == 1
    assert lr_multiplicity(w, I2, J2) == 1


def test_wedge_counts_agree_exhaustively_small():
    # entries up to 3 here; the acceptance gate pushes the same sweep to 6
    m = n = 2
    seen = 0
    pair_pool = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    for p1 in range(3, -1, -1):
        for p2 in range(p1, -1, -1):
            for q1 in range(3, -1, -1):
                for q2 in range(q1, -1, -1):
                    w = make_weight((p1, p2), (q1, q2))
                    if not is_dominant(w):
                        continue
                    for size in range(1, 5):
                        from itertools import combinations

                        for chosen in combinations(pair_pool, size):
                            I = tuple(i for i, _ in chosen)
                            J = tuple(j for _, j in chosen)
                            if not wedge_hypotheses_hold(w, I, J):
                                continue
                            cont = content_of_pairs(m, n, I, J)
                            assert admissible_count(w, cont) == lr_multiplicity(
                                w, I, J
                            )
                            seen += 1
    assert seen > 30


def _composed_wedge_hypotheses(w, I, J):
    """The wedge hypotheses as four separate conditions, robustness written
    out on the index multiplicities: the oracle for the content predicate."""
    I, J = tuple(I), tuple(J)
    if not is_admissible_pair(w, I, J):
        return False
    m, n = w.m, w.n
    for s in range(1, m):
        if w.plus[s - 1] - w.plus[s] < I.count(s):
            return False
    if w.plus[m - 1] < I.count(m):
        return False
    for t in range(2, n + 1):
        if w.minus[t - 2] - w.minus[t - 1] < J.count(t):
            return False
    return w.minus[-1] >= 0 and lambda_IJ(w, I, J).plus[-1] >= n


def _outcome(f, *args):
    try:
        return f(*args)
    except UsageError:
        return UsageError


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_wedge_hypotheses_equal_their_composition(data):
    # weights need not be dominant or nonnegative; families may be unsorted,
    # repeat pairs, differ in length, or leave the index ranges
    m = data.draw(st.integers(1, 3), label="m")
    n = data.draw(st.integers(1, 3), label="n")
    entry = st.integers(-3, 8)
    w = make_weight(
        data.draw(st.lists(entry, min_size=m, max_size=m), label="plus"),
        data.draw(st.lists(entry, min_size=n, max_size=n), label="minus"),
    )
    index_pair = st.tuples(
        st.integers(1, m) | st.integers(0, m + 1), st.integers(1, n) | st.integers(0, n + 1)
    )
    pairs = data.draw(st.lists(index_pair, max_size=5), label="pairs")
    shape = data.draw(st.sampled_from(["as drawn", "sorted", "unequal"]), label="shape")
    if shape == "sorted":
        pairs = sorted(set(pairs))
    I = [i for i, _ in pairs]
    J = [j for _, j in pairs] + ([1] if shape == "unequal" else [])
    assert _outcome(wedge_hypotheses_hold, w, I, J) == _outcome(
        _composed_wedge_hypotheses, w, I, J
    )


def _families_by_enumeration(w, content):
    """The admissible families of a content as they were enumerated per
    weight, before the weight-free ``ordered_families`` table."""
    if content.m != w.m or content.n != w.n:
        raise UsageError("content must have the same block sizes as the weight")
    n = w.n
    row_sums = tuple(-v for v in content.plus)
    col_sums = content.minus
    if any(v < 0 or v > n for v in row_sums):
        return []
    if any(v < 0 for v in col_sums) or sum(row_sums) != sum(col_sums):
        return []
    families = []
    choices = [list(combinations(range(1, n + 1), r)) for r in row_sums]
    for rows in product(*choices):
        tally = [0] * (n + 1)
        for picked in rows:
            for j in picked:
                tally[j] += 1
        if tuple(tally[1:]) != col_sums:
            continue
        pairs = sorted((i, j) for i, picked in enumerate(rows, start=1) for j in picked)
        K = tuple(i for i, _ in pairs)
        L = tuple(j for _, j in pairs)
        if is_admissible_pair(w, K, L):
            families.append((K, L))
    return families


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_admissible_families_equal_the_per_weight_enumeration(data):
    # contents may be positive on the plus block, exceed n, miss the column
    # sums, or differ from the weight in block sizes: each must be rejected
    m = data.draw(st.integers(1, 3), label="m")
    n = data.draw(st.integers(1, 3), label="n")
    entry = st.integers(-2, 6)
    w = make_weight(
        data.draw(st.lists(entry, min_size=m, max_size=m), label="plus"),
        data.draw(st.lists(entry, min_size=n, max_size=n), label="minus"),
    )
    if data.draw(st.booleans(), label="content of a family"):
        pool = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        pairs = data.draw(st.lists(st.sampled_from(pool), unique=True), label="pairs")
        content = content_of_pairs(m, n, [i for i, _ in pairs], [j for _, j in pairs])
    else:
        cm = data.draw(st.sampled_from([m, m, m, m + 1]), label="content m")
        cn = data.draw(st.sampled_from([n, n, n, max(1, n - 1)]), label="content n")
        content = make_weight(
            data.draw(st.lists(st.integers(-n - 1, 1), min_size=cm, max_size=cm), label="c+"),
            data.draw(st.lists(st.integers(-1, m + 1), min_size=cn, max_size=cn), label="c-"),
        )
    assert _outcome(admissible_families, w, content) == _outcome(
        _families_by_enumeration, w, content
    )
