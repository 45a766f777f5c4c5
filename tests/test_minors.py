"""Adjugate table, Laplace expansions, and the minor identities."""

from itertools import combinations, product
from math import factorial

import pytest

from builder_oracle import loc_det
from minors_oracle import adjugate_law_check, laplace_along_row, muir_adjugate_sum_check
from superinduce import ambient, leibniz_det, UsageError
from superinduce.superpoly import DET_CAP
from superinduce.fraction import det_block11, embed_poly, loc_eq, loc_mul
from superinduce.minors import (
    adjugate_entry,
    jacobi_identity_check,
    muir_identity_check,
    row_initial_minor,
    twisted_generator,
    y_entry,
)


def test_adjugate_2x2():
    amb = ambient(2, 1)
    # classical adjugate of [[c11,c12],[c21,c22]]
    assert adjugate_entry(amb, 1, 1) == amb.gen(2, 2)
    assert adjugate_entry(amb, 1, 2) == -amb.gen(1, 2)
    assert adjugate_entry(amb, 2, 1) == -amb.gen(2, 1)
    assert adjugate_entry(amb, 2, 2) == amb.gen(1, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_adjugate_law(m):
    amb = ambient(m, 1)
    for i in range(1, m + 1):
        for s in range(1, m + 1):
            assert adjugate_law_check(amb, i, s)


def test_y_entries():
    amb = ambient(2, 1)
    d = det_block11(amb)
    # even columns give Kronecker deltas
    assert loc_eq(y_entry(amb, 1, 1), embed_poly(amb.one()))
    assert loc_eq(y_entry(amb, 1, 2), embed_poly(amb.zero()))
    # mixed column: numerator is the cofactor sum
    y13 = y_entry(amb, 1, 3)
    assert y13.d_exp == 1 and y13.d22_exp == 0
    assert y13.num == amb.gen(2, 2) * amb.gen(1, 3) - amb.gen(1, 2) * amb.gen(2, 3)
    y23 = y_entry(amb, 2, 3)
    assert y23.num == -amb.gen(2, 1) * amb.gen(1, 3) + amb.gen(1, 1) * amb.gen(2, 3)
    assert y_entry(amb, 1, 3) is y13  # cached


def test_twisted_generator_images():
    amb = ambient(2, 1)
    assert loc_eq(twisted_generator(amb, 1, 1), embed_poly(amb.gen(1, 1)))
    assert loc_eq(twisted_generator(amb, 3, 1), embed_poly(amb.gen(3, 1)))
    assert twisted_generator(amb, 1, 3) == y_entry(amb, 1, 3)
    z = twisted_generator(amb, 3, 3)
    expect_num = amb.gen(3, 3) * det_block11(amb) - (
        amb.gen(3, 1) * y_entry(amb, 1, 3).num + amb.gen(3, 2) * y_entry(amb, 2, 3).num
    )
    assert z.num == expect_num and z.d_exp == 1
    assert z.num.parity() == 0


def test_twisted_lower_right_kills_lower_left_content():
    # multiplying out: c[3,3] - c[3,1]y[1,3] - c[3,2]y[2,3] should commute with
    # the even block and stay even; check numerator has no spurious terms at m=1
    amb = ambient(1, 1)
    z = twisted_generator(amb, 2, 2)
    # c22·c11 - c21·c12 over D: the odd-odd product appears with a minus sign
    assert z.num == amb.gen(2, 2) * amb.gen(1, 1) - amb.gen(2, 1) * amb.gen(1, 2)


def test_laplace_first_row_matches_leibniz():
    amb = ambient(2, 2)
    for rows, cols in [((1, 2), (1, 2)), ((1, 3), (2, 4)), ((2, 3, 4), (1, 2, 3))]:
        assert laplace_along_row(amb, rows, cols, 1) == leibniz_det(amb, rows, cols)


def test_laplace_along_row_guard():
    amb = ambient(2, 2)
    # all-odd 2x2 block: rows (1,2), cols (3,4) — entries all odd
    rows, cols = (1, 2), (3, 4)
    with pytest.raises(UsageError):
        laplace_along_row(amb, rows, cols, 2)
    # row above is even: rows (1,3), cols (1,2): row 1 even entries, row 3 odd
    assert laplace_along_row(amb, (1, 3), (1, 2), 2) == leibniz_det(amb, (1, 3), (1, 2))
    # and expansion along the first row never needs the guard
    assert laplace_along_row(amb, rows, cols, 1) == leibniz_det(amb, rows, cols)


def test_all_odd_second_row_expansion_flips_sign():
    # the reason for the guard: naive expansion along row 2 of an all-odd
    # 2x2 matrix yields the negative of the row-ordered determinant
    amb = ambient(2, 2)
    det = leibniz_det(amb, (1, 2), (3, 4))
    naive = -amb.gen(2, 3) * leibniz_det(amb, (1,), (4,)) + amb.gen(2, 4) * leibniz_det(
        amb, (1,), (3,)
    )
    assert naive == -det
    assert not naive == det


@pytest.mark.parametrize("m", [2, 3])
def test_jacobi_exhaustive(m):
    amb = ambient(m, 1)
    idx = range(1, m + 1)
    for i, k in combinations(idx, 2):
        for a, b in product(idx, repeat=2):
            assert jacobi_identity_check(amb, i, k, a, b), (i, k, a, b)


def test_jacobi_degenerate_cases():
    amb = ambient(2, 1)
    assert jacobi_identity_check(amb, 1, 2, 1, 1)  # a == b
    assert jacobi_identity_check(amb, 1, 1, 1, 2)  # i == k


@pytest.mark.parametrize("m", [2, 3])
def test_muir_identity_exhaustive(m):
    amb = ambient(m, 1)
    l = m + 1
    for j in range(0, m):
        for ks in product(range(1, m + 1), repeat=j):
            assert muir_identity_check(amb, ks, l), ks


@pytest.mark.parametrize("m", [2, 3])
def test_muir_adjugate_sum_exhaustive(m):
    amb = ambient(m, 1)
    for j in range(0, m):
        for ks in product(range(1, m + 1), repeat=j):
            for s in range(1, m + 1):
                assert muir_adjugate_sum_check(amb, ks, s), (ks, s)


def test_row_initial_minor_shapes():
    amb = ambient(3, 1)
    assert row_initial_minor(amb, ()) == amb.one()
    assert row_initial_minor(amb, (2,)) == amb.gen(1, 2)
    assert row_initial_minor(amb, (1, 1)).is_zero()  # repeated column


def test_loc_det_even_entries():
    amb = ambient(2, 2)
    entries = [
        [twisted_generator(amb, 3, 3), twisted_generator(amb, 3, 4)],
        [twisted_generator(amb, 4, 3), twisted_generator(amb, 4, 4)],
    ]
    d = loc_det(amb, entries)
    byhand = loc_mul(entries[0][0], entries[1][1])
    from ring_oracle import loc_sub

    byhand = loc_sub(byhand, loc_mul(entries[0][1], entries[1][0]))
    assert loc_eq(d, byhand)
    with pytest.raises(UsageError):
        loc_det(amb, [[embed_poly(amb.gen(1, 3))]])


def test_determinants_past_the_cap_are_usage_errors():
    amb = ambient(DET_CAP, 1)  # 9 indices, within RING_SIZE_CAP
    rows = range(1, DET_CAP + 2)
    with pytest.raises(UsageError, match="DET_CAP"):
        leibniz_det(amb, rows, rows)
    one = embed_poly(amb.one())
    with pytest.raises(UsageError, match="DET_CAP"):
        loc_det(amb, [[one] * (DET_CAP + 1) for _ in rows])
    # the cap itself is admitted: a Leibniz sum over every permutation
    top = range(1, DET_CAP + 1)
    assert len(leibniz_det(amb, top, top).terms) == factorial(DET_CAP)
