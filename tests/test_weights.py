"""Weights, tableaux, bideterminants, and highest vectors."""

import importlib.util
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from builder_oracle import fold_bideterminant_minus, loc_det
from superinduce import ambient, UsageError
from superinduce.fraction import det_block11, embed_poly, loc_eq, loc_mul, loc_weight
from superinduce.superpoly import exact_divide
from superinduce.minors import twisted_generator
from superinduce.weights_tableaux import (
    Tableau,
    bideterminant_minus,
    bideterminant_plus,
    content_of_pairs,
    dminus,
    enumerate_semistandard,
    highest_vector,
    is_admissible_pair,
    is_dominant,
    is_robust,
    lambda_IJ,
    lambda_ij,
    make_weight,
    parse_weight,
    random_dominant_weight,
    render_weight,
    tableau_columns,
)
from shape_oracle import is_semistandard, normalize_berezinian


def test_weight_literals_roundtrip():
    w = parse_weight("[2,1|1,0]")
    assert w == make_weight([2, 1], [1, 0])
    assert render_weight(w) == "[2,1|1,0]"
    assert parse_weight("[-2|0]") == make_weight([-2], [0])
    assert parse_weight(" [ 3 , 3 | 1 , 0 ] ") == make_weight([3, 3], [1, 0])
    with pytest.raises(UsageError):
        parse_weight("[1,2]")


#: the most digits int() and str() convert (CPython's default limit)
MAX_DIGITS = 4300


def _numeral(k, lead, fill, negative):
    """A k-digit integer: a leading digit, then the digits of fill repeated."""
    value = int(str(lead) + (str(fill) * k)[: k - 1])
    return -value if negative else value


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.builds(_numeral, st.one_of(st.sampled_from([2, MAX_DIGITS - 1, MAX_DIGITS]),
                                  st.integers(1, MAX_DIGITS)),
              st.integers(1, 9), st.integers(0, 10**6), st.booleans()),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(ENTRIES, min_size=1, max_size=4), st.lists(ENTRIES, min_size=1, max_size=4))
def test_rendered_weights_parse_back(plus, minus):
    w = make_weight(plus, minus)
    assert parse_weight(render_weight(w)) == w


def test_overlong_weight_entries_are_usage_errors():
    long = "1" * (MAX_DIGITS + 1)
    for text in (f"[{long}|0]", f"[0|-{long}]", f"[1,2|{'7' * 5000},0]"):
        with pytest.raises(UsageError, match="too many digits"):
            parse_weight(text)


def test_dominance():
    assert is_dominant(make_weight([3, 1], [0, 0]))
    assert not is_dominant(make_weight([1, 3], [0, 0]))
    assert not is_dominant(make_weight([3, 3], [0, 1]))


def test_content_and_shifts():
    w = make_weight([3, 3], [1, 0])
    cont = content_of_pairs(2, 2, (1, 2), (1, 2))
    assert cont == make_weight([-1, -1], [1, 1])
    assert lambda_IJ(w, (1, 2), (1, 2)) == make_weight([2, 2], [2, 1])
    assert lambda_ij(w, 1, 2) == make_weight([2, 3], [1, 1])


def test_robustness():
    w = make_weight([4, 3], [1, 0])
    assert is_robust(w, (1,), (1,))  # gap at 1 is 1, one use of index 1
    assert not is_robust(w, (1, 1), (1, 2))  # two uses exceed the gap
    assert is_robust(w, (1, 2), (1, 2))  # plus gap 1 and lambda+_m = 3
    # minus side: using j=2 requires a gap above it
    tight = make_weight([4, 3], [1, 1])
    assert not is_robust(tight, (1,), (2,))
    assert is_robust(make_weight([4, 3], [2, 1]), (1,), (2,))


def test_admissible_pairs():
    w = make_weight([3, 3], [1, 0])
    assert is_admissible_pair(w, (1, 2), (1, 2))
    assert is_admissible_pair(w, (1, 2), (2, 1))
    assert not is_admissible_pair(w, (2, 1), (1, 2))  # plus must weakly increase
    assert not is_admissible_pair(w, (1, 1), (2, 2))  # tie needs strict minus
    # the shifted weight must stay dominant: (3,3) loses 2 at the first slot
    assert not is_admissible_pair(w, (1, 1), (1, 2))
    assert is_admissible_pair(make_weight([5, 3], [1, 0]), (1, 1), (1, 2))


def test_tableaux_shape_checks():
    t = Tableau((2, 1), ((1, 2), (2,)))
    assert tableau_columns(t) == [(1, 2), (2,)]
    with pytest.raises(UsageError):
        Tableau((1, 2), ((1,), (1, 2)))
    with pytest.raises(UsageError):
        Tableau((2, 1), ((1,), (1, 2)))


def test_semistandard_enumeration_counts():
    # two-variable semistandard tableaux of shape (2,1): the count is the
    # dimension 2 of the corresponding GL(2) module... with entries 1..2 the
    # fillings are 112/2-style: exactly 2
    got = list(enumerate_semistandard((2, 1), 1, 2))
    assert len(got) == 2
    assert all(is_semistandard(t) for t in got)
    # shape (1,1) with entries 1..3: choose a strict column, C(3,2) = 3
    assert len(list(enumerate_semistandard((1, 1), 1, 3))) == 3
    # empty shape: the empty tableau
    assert len(list(enumerate_semistandard((), 1, 3))) == 1


def test_dminus_one_by_one():
    amb = ambient(2, 2)
    d1 = dminus(amb, (3,))
    assert loc_eq(d1, twisted_generator(amb, 3, 3))
    with pytest.raises(UsageError):
        dminus(amb, (1,))
    with pytest.raises(UsageError):
        dminus(amb, (3, 4, 3))


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_dminus_is_cached_per_ring_and_equals_a_fresh_determinant(m, n, char):
    amb = ambient(m, n, char)
    minus_cols = range(m + 1, m + n + 1)
    for t in range(1, n + 1):
        for cols in product(minus_cols, repeat=t):
            assert dminus(amb, cols) is dminus(amb, cols)
            fresh = loc_det(amb, [[twisted_generator(amb, m + 1 + a, c) for c in cols]
                                  for a in range(t)])
            assert loc_eq(dminus(amb, cols), fresh)


def test_bideterminants():
    amb = ambient(2, 2)
    t_plus = Tableau((2, 1), ((1, 1), (2,)))
    b = bideterminant_plus(amb, t_plus)
    # columns (1,2) and (1,): D * c[1,1]
    assert b == det_block11(amb) * amb.gen(1, 1)
    t_minus = Tableau((1,), ((3,),))
    bm = bideterminant_minus(amb, t_minus)
    assert loc_eq(bm, twisted_generator(amb, 3, 3))


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


MINUS_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
SHAPES = [shape for boxes in range(1, 6) for shape in _partitions(boxes, boxes)]


@st.composite
def minus_tableaux(draw):
    """(ambient, tableau): a semistandard filling of at most five boxes with
    entries in the odd block, at one of eight sizes, in char 0, 3 or 5."""
    m, n = draw(st.sampled_from(MINUS_SIZES))
    amb = ambient(m, n, draw(st.sampled_from([0, 3, 5])))
    shape = draw(st.sampled_from([s for s in SHAPES if len(s) <= n]))
    return amb, draw(st.sampled_from(list(enumerate_semistandard(shape, m + 1, m + n))))


@settings(max_examples=80, deadline=None)
@given(minus_tableaux())
def test_minus_bideterminants_sit_over_d_to_the_number_of_rows(drawn):
    amb, t = drawn
    got = bideterminant_minus(amb, t)
    assert loc_eq(got, fold_bideterminant_minus(amb, t))
    assert (got.d_exp, got.d22_exp) == (len(t.shape), 0)
    # in char 0, D^h is lowest terms on every tableau; in char p the
    # numerator can keep a further D once the tableau has p boxes: at (1,1)
    # in char 3, dminus(2)^3 = (c11·c22 - c21·c12)^3 / c11^3 is c22^3, since
    # the cross term carries a 3
    if amb.char == 0 or sum(t.shape) < amb.char:
        assert exact_divide(got.num, det_block11(amb)) is None


def test_three_columns_of_a_2_2_minus_tableau_cancel_to_d_squared():
    amb = ambient(2, 2)
    t = Tableau((3, 3), ((3, 3, 3), (4, 4, 4)))
    fold = fold_bideterminant_minus(amb, t)
    got = bideterminant_minus(amb, t)
    assert (len(fold.num.terms), fold.d_exp) == (882, 6)
    assert (len(got.num.terms), got.d_exp) == (250, 2)
    assert loc_eq(got, fold)


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_gen_round_keeps_its_numerators_small():
    # term counts are deterministic where timings on a shared machine are
    # not: the 16 elements of one benchmark gen round had 3,610 numerator
    # terms with each minus bideterminant over D to its total column length,
    # and have 1,762 over D to its number of rows
    workloads = _perfbench_workloads()
    amb = ambient(2, 2)
    tableaux = random.Random(workloads.GEN_SEED)
    elements = [workloads.criterion3_element(amb, tableaux, w) for w in workloads.GEN_WEIGHTS]
    assert len(elements) == 16
    assert sum(len(x.num.terms) for x in elements) <= 1_800


def test_the_3_2_verify_gen_element_keeps_its_numerator_small():
    # the element of `verify gen --m 3 --n 2 --count 1`: 259,144 terms over
    # D^5 when the minus bideterminant was not cancelled, 18,324 over D^2
    amb = ambient(3, 2)
    plus = bideterminant_plus(amb, Tableau((3, 3), ((1, 1, 2), (3, 3, 3))))
    minus = bideterminant_minus(amb, Tableau((3, 2), ((4, 4, 5), (5, 5))))
    element = loc_mul(embed_poly(plus), minus)
    assert (element.d_exp, element.d22_exp) == (2, 0)
    assert len(element.num.terms) <= 19_000


def test_highest_vector_weights():
    amb = ambient(2, 2)
    for lam in ([2, 1], [3, 3], [1, 0]):
        for mu in ([1, 0], [2, 2], [0, 0]):
            w = make_weight(lam, mu)
            v = highest_vector(amb, w)
            assert loc_weight(v) == w.as_tuple()


def test_highest_vector_negative_plus_folds():
    amb = ambient(1, 1)
    v = highest_vector(amb, make_weight([-2], [0]))
    assert v.d_exp == 2 and v.num == amb.one()
    assert loc_weight(v) == (-2, 0)


def test_highest_vector_rejects_unnormalized_minus():
    amb = ambient(1, 1)
    with pytest.raises(UsageError):
        highest_vector(amb, make_weight([0], [-2]))
    with pytest.raises(UsageError):
        highest_vector(amb, make_weight([1, 2], [0]) if False else make_weight([1], [0, 1]))


def test_highest_vector_explicit_2_1():
    amb = ambient(2, 1)
    w = make_weight([2, 1], [1])
    v = highest_vector(amb, w)
    # c11^(2-1) · D^1 · dminus(3)^1
    byhand = loc_mul(
        embed_poly(amb.gen(1, 1) * det_block11(amb)), dminus(amb, (3,))
    )
    assert loc_eq(v, byhand)


def test_normalize_berezinian_examples():
    w, twist = normalize_berezinian(make_weight([2, 1], [1, 1]))
    assert (w, twist) == (make_weight([3, 2], [0, 0]), 1)
    w2, twist2 = normalize_berezinian(make_weight([0], [-2]))
    assert (w2, twist2) == (make_weight([-2], [0]), -2)
    # already normalized weights are fixed
    w3, twist3 = normalize_berezinian(make_weight([2, 1], [1, 0]))
    assert twist3 == 0 and w3 == make_weight([2, 1], [1, 0])


def test_random_dominant_weight():
    rng = random.Random(7)
    for _ in range(20):
        w = random_dominant_weight(2, 2, rng)
        assert is_dominant(w)
        assert all(0 <= v <= 4 for v in w.as_tuple())
