"""Weights, tableaux, bideterminants, and highest vectors."""

import random
from itertools import product

import pytest

from superinduce import ambient, UsageError
from superinduce.fraction import embed_poly, loc_eq, loc_mul, loc_weight
from superinduce.minors import loc_det, twisted_generator
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
    is_semistandard,
    lambda_IJ,
    lambda_ij,
    make_weight,
    normalize_berezinian,
    parse_weight,
    random_dominant_weight,
    render_weight,
    tableau_columns,
)


def test_weight_literals_roundtrip():
    w = parse_weight("[2,1|1,0]")
    assert w == make_weight([2, 1], [1, 0])
    assert render_weight(w) == "[2,1|1,0]"
    assert parse_weight("[-2|0]") == make_weight([-2], [0])
    assert parse_weight(" [ 3 , 3 | 1 , 0 ] ") == make_weight([3, 3], [1, 0])
    with pytest.raises(UsageError):
        parse_weight("[1,2]")


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
    from superinduce.fraction import det_block11

    assert b == det_block11(amb) * amb.gen(1, 1)
    t_minus = Tableau((1,), ((3,),))
    bm = bideterminant_minus(amb, t_minus)
    assert loc_eq(bm, twisted_generator(amb, 3, 3))


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
    from superinduce.fraction import det_block11

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
