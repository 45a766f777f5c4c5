"""Localized ring: arithmetic, exact division, and the text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superinduce import ambient, parse_poly, UsageError
from superinduce.fraction import (
    LocalizedElement,
    det_block11,
    det_block22,
    embed_poly,
    is_polynomial,
    loc_add,
    loc_divide_exact,
    loc_dot,
    loc_eq,
    loc_mul,
    loc_pow,
    loc_sum,
    loc_weight,
    render_loc,
)
from ring_oracle import loc_sub, parse_loc


def test_block_determinants_2_1():
    amb = ambient(2, 1)
    d = det_block11(amb)
    assert d == parse_poly(amb, "c[1,1]·c[2,2] - c[1,2]·c[2,1]")
    assert det_block22(amb) == parse_poly(amb, "c[3,3]")
    # cached: same object both times
    assert det_block11(amb) is d


def test_add_same_denominator_no_inflation():
    amb = ambient(1, 1)
    x = LocalizedElement(amb.gen(1, 1), 1, 0)
    s = loc_add(x, x)
    assert s.d_exp == 1 and s.d22_exp == 0
    assert s.num == amb.gen(1, 1).scale(2)


def test_add_mixed_denominators():
    amb = ambient(1, 1)
    c11 = amb.gen(1, 1)
    x = LocalizedElement(c11, 1, 0)  # c11 / D = 1
    y = LocalizedElement(amb.one(), 0, 1)  # 1 / D22
    s = loc_add(x, y)
    assert (s.d_exp, s.d22_exp) == (1, 1)
    # c11·D22 + D over D·D22
    assert s.num == c11 * amb.gen(2, 2) + c11
    assert loc_eq(s, s)


def test_eq_by_cross_multiplication():
    amb = ambient(2, 1)
    d = det_block11(amb)
    one = embed_poly(amb.one())
    also_one = LocalizedElement(d, 1, 0)
    assert loc_eq(one, also_one)
    assert not loc_eq(one, LocalizedElement(d, 0, 1))
    twisted = LocalizedElement(d * d, 2, 0)
    assert loc_eq(also_one, twisted)


def test_no_automatic_reduction_but_explicit_reduce_works():
    amb = ambient(2, 1)
    d = det_block11(amb)
    x = LocalizedElement(d * amb.gen(1, 1), 1, 0)
    assert x.d_exp == 1  # construction keeps the exponent
    assert is_polynomial(x) == amb.gen(1, 1)


def test_is_polynomial():
    amb = ambient(2, 2)
    d, d22 = det_block11(amb), det_block22(amb)
    x = LocalizedElement(d * d22 * amb.gen(1, 3), 1, 1)
    assert is_polynomial(x) == amb.gen(1, 3)
    assert is_polynomial(LocalizedElement(amb.gen(1, 3), 1, 0)) is None


def test_zero_canonicalizes():
    amb = ambient(1, 1)
    z = LocalizedElement(amb.zero(), 3, 2)
    assert z.is_zero() and z.d_exp == 0 and z.d22_exp == 0


def test_mul_adds_exponents_and_pow():
    amb = ambient(1, 1)
    x = LocalizedElement(amb.gen(1, 2), 1, 0)
    y = LocalizedElement(amb.gen(2, 1), 0, 2)
    p = loc_mul(x, y)
    assert (p.d_exp, p.d22_exp) == (1, 2)
    sq = loc_pow(x, 2)
    assert sq.is_zero()  # odd generator squares to zero
    cube = loc_pow(embed_poly(amb.gen(1, 1)), 3)
    assert cube.num == amb.gen(1, 1) ** 3


def test_divide_exact():
    amb = ambient(2, 1)
    d = det_block11(amb)
    x = LocalizedElement(d * amb.gen(1, 1), 2, 1)
    q = loc_divide_exact(x, embed_poly(d))
    assert q is not None
    assert (q.d_exp, q.d22_exp) == (2, 1)
    assert q.num == amb.gen(1, 1)
    # dividing by D/D (= 1) leaves the value unchanged
    dd = LocalizedElement(d, 1, 0)
    q2 = loc_divide_exact(x, dd)
    assert q2 is not None and loc_eq(q2, x)
    assert loc_divide_exact(embed_poly(amb.gen(1, 2)), embed_poly(amb.gen(1, 1))) is None
    with pytest.raises(UsageError):
        loc_divide_exact(x, embed_poly(amb.zero()))


def test_weight_subtracts_denominators():
    amb = ambient(2, 1)
    x = LocalizedElement(amb.gen(1, 1) * amb.gen(1, 3), 1, 1)
    # numerator columns (1,0,1); D removes one from columns 1..2, D22 from column 3
    assert loc_weight(x) == (0, -1, 0)
    mixed = loc_add(embed_poly(amb.gen(1, 1)), embed_poly(amb.gen(1, 3)))
    assert loc_weight(mixed) is None


def test_render_parse_roundtrip():
    amb = ambient(2, 1)
    x = LocalizedElement(amb.gen(1, 1).scale(Fraction(3, 2)), 2, 1)
    text = render_loc(x)
    assert text == "+3/2·c[1,1] / D^2 D22^1"
    back = parse_loc(amb, text)
    assert back == x
    assert parse_loc(amb, "+1·c[1,2]") == embed_poly(amb.gen(1, 2))
    with pytest.raises(UsageError):
        parse_loc(amb, "c[1,1] / E^2")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_laws(data):
    amb = ambient(2, 1)
    gens = [(i, j) for i in range(1, 4) for j in range(1, 4)]

    def rand_loc():
        n_terms = data.draw(st.integers(0, 2))
        p = amb.zero()
        for _ in range(n_terms):
            c = data.draw(st.integers(-3, 3))
            f = amb.one()
            for _ in range(data.draw(st.integers(0, 2))):
                i, j = data.draw(st.sampled_from(gens))
                f = f * amb.gen(i, j)
            p = p + f.scale(c)
        return LocalizedElement(
            p, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        )

    x, y, z = rand_loc(), rand_loc(), rand_loc()
    assert loc_eq(loc_add(x, y), loc_add(y, x))
    assert loc_eq(loc_add(loc_add(x, y), z), loc_add(x, loc_add(y, z)))
    assert loc_eq(loc_mul(x, loc_add(y, z)), loc_add(loc_mul(x, y), loc_mul(x, z)))
    assert loc_eq(loc_sub(x, x), LocalizedElement(amb.zero()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduce_preserves_value(data):
    amb = ambient(2, 1)
    d, d22 = det_block11(amb), det_block22(amb)
    base = amb.gen(1, 1).scale(data.draw(st.integers(-3, 3))) + amb.one().scale(
        data.draw(st.integers(-2, 2))
    )
    s_extra = data.draw(st.integers(0, 2))
    t_extra = data.draw(st.integers(0, 2))
    bump = data.draw(st.integers(0, 1))
    x = LocalizedElement(base * d**s_extra * d22**t_extra, s_extra + bump, t_extra)
    p = is_polynomial(x)
    if bump and not base.is_zero():
        assert p is None  # base has lower degree than D, so D does not divide it
    else:
        assert p == base and loc_eq(embed_poly(p), x)


# -- one common denominator: loc_sum and loc_eq --------------------------------------


def _draw_loc(data, amb, max_exp=2):
    """A localized element with a small random numerator (possibly zero)."""
    gens = [(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)]
    p = amb.zero()
    for _ in range(data.draw(st.integers(0, 3))):
        term = amb.scalar(data.draw(st.integers(-3, 3)))
        for _ in range(data.draw(st.integers(0, 2))):
            term = term * amb.gen(*data.draw(st.sampled_from(gens)))
        p = p + term
    return LocalizedElement(
        p, data.draw(st.integers(0, max_exp)), data.draw(st.integers(0, max_exp))
    )


def _draw_pieces(data, amb):
    """Pieces for a sum: random elements, zeros with nonzero exponents, and
    the negatives of earlier pieces over larger denominators, so partial sums
    cancel."""
    d, d22 = det_block11(amb), det_block22(amb)
    pieces = []
    for _ in range(data.draw(st.integers(0, 5))):
        kind = data.draw(st.sampled_from(["random", "zero", "cancel"]))
        if kind == "zero":
            pieces.append(LocalizedElement(amb.zero(), 2, 1))
        elif kind == "cancel" and pieces:
            x = data.draw(st.sampled_from(pieces))
            s, t = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
            pieces.append(LocalizedElement(-x.num * d**s * d22**t, x.d_exp + s, x.d22_exp + t))
        else:
            pieces.append(_draw_loc(data, amb))
    return pieces


def _cross_multiplied_eq(x, y):
    """Oracle: x == y when x.num·D^s'·D22^t' equals y.num·D^s·D22^t."""
    amb = x.ambient
    d, d22 = det_block11(amb), det_block22(amb)
    left = x.num * d**y.d_exp * d22**y.d22_exp
    right = y.num * d**x.d_exp * d22**x.d22_exp
    return (left - right).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([0, 3]))
def test_loc_sum_equals_the_loc_add_fold(data, char):
    amb = ambient(2, 2, char)
    pieces = _draw_pieces(data, amb)
    total = loc_sum(amb, pieces)
    fold = LocalizedElement(amb.zero())
    for x in pieces:
        fold = loc_add(fold, x)
    assert loc_eq(total, fold) and _cross_multiplied_eq(total, fold)
    nonzero = [x for x in pieces if not x.is_zero()]
    if not total.is_zero():
        assert total.d_exp == max((x.d_exp for x in nonzero), default=0)
        assert total.d22_exp == max((x.d22_exp for x in nonzero), default=0)
    else:
        assert (total.d_exp, total.d22_exp) == (0, 0)


def test_loc_sum_of_nothing_is_zero_and_checks_ambients():
    amb = ambient(2, 2)
    assert loc_sum(amb, []) == LocalizedElement(amb.zero())
    with pytest.raises(UsageError):
        loc_sum(amb, [embed_poly(ambient(2, 2, 3).one())])
    # the polynomial product and exact_divide reject the mixed pair
    other = embed_poly(ambient(2, 2, 3).gen(1, 1))
    with pytest.raises(UsageError, match="different ambients"):
        loc_mul(embed_poly(amb.gen(1, 1)), other)
    with pytest.raises(UsageError, match="different ambients"):
        loc_divide_exact(LocalizedElement(amb.gen(1, 1), 1, 0), other)


def _draw_pairs(data, amb):
    """Pairs for a sum of products: random elements (possibly zero), zeros
    with nonzero exponents, and odd generators that may meet themselves."""
    odd = [(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)
           if amb.gen_parity(i, j)]

    def factor():
        kind = data.draw(st.sampled_from(["random", "random", "zero", "odd"]))
        if kind == "zero":
            return LocalizedElement(amb.zero(), 1, 2)
        if kind == "odd":
            return LocalizedElement(amb.gen(*data.draw(st.sampled_from(odd))),
                                    data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        return _draw_loc(data, amb)

    return [(factor(), factor()) for _ in range(data.draw(st.integers(0, 4)))]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (2, 1), (2, 2)]), st.sampled_from([0, 3]))
def test_loc_dot_equals_loc_sum_of_the_products(data, size, char):
    amb = ambient(*size, char)
    pairs = _draw_pairs(data, amb)
    total = loc_dot(amb, iter(pairs))  # pairs may come from a generator
    products = [loc_mul(x, y) for x, y in pairs]
    expected = loc_sum(amb, products)
    assert loc_eq(total, expected) and _cross_multiplied_eq(total, expected)
    nonzero = [(x, y) for x, y in pairs if not (x.is_zero() or y.is_zero())]
    if not any(loc_mul(x, y).is_zero() for x, y in nonzero):
        # no product vanished: the same element, exponents included
        assert total == expected
    elif not total.is_zero():
        # a product vanished: the exponents still come from every nonzero pair
        assert total.d_exp == max(x.d_exp + y.d_exp for x, y in nonzero)
        assert total.d22_exp == max(x.d22_exp + y.d22_exp for x, y in nonzero)


def test_loc_dot_skips_zero_pairs_and_keeps_a_vanished_products_exponents():
    amb = ambient(1, 1)
    c12 = amb.gen(1, 2)
    one = embed_poly(amb.one())
    assert loc_dot(amb, []) == LocalizedElement(amb.zero())
    # a zero factor adds neither a term nor its exponents
    zero = LocalizedElement(amb.zero(), 3, 3)
    assert loc_dot(amb, [(zero, one), (one, LocalizedElement(c12, 0, 1))]) == \
        LocalizedElement(c12, 0, 1)
    # c[1,2]·c[1,2] vanishes, but its pair still sets the exponents
    square = (LocalizedElement(c12, 1, 0), LocalizedElement(c12, 1, 1))
    got = loc_dot(amb, [square, (one, LocalizedElement(c12, 0, 1))])
    want = loc_sum(amb, [loc_mul(*square), LocalizedElement(c12, 0, 1)])
    assert loc_eq(got, want)
    assert (got.d_exp, got.d22_exp) == (2, 1) and (want.d_exp, want.d22_exp) == (0, 1)
    # mixed exponents: each pair is raised to (1, 2) by its smaller factor
    d, d22 = det_block11(amb), det_block22(amb)
    x, y = LocalizedElement(amb.gen(1, 1), 1, 0), LocalizedElement(amb.gen(2, 2) + c12, 0, 2)
    got = loc_dot(amb, [(x, x), (y, one)])
    assert (got.d_exp, got.d22_exp) == (2, 2)
    assert got.num == amb.gen(1, 1) ** 2 * d22**2 + (amb.gen(2, 2) + c12) * d**2


def test_loc_dot_checks_ambients_of_every_pair():
    amb = ambient(2, 2)
    other = embed_poly(ambient(2, 2, 3).gen(1, 1))
    mine = embed_poly(amb.gen(1, 1))
    zero_elsewhere = LocalizedElement(ambient(2, 2, 3).zero())
    for pairs in ([(mine, other)], [(other, mine)], [(zero_elsewhere, mine)]):
        with pytest.raises(UsageError, match="different ambients"):
            loc_dot(amb, pairs)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([0, 3]))
def test_loc_eq_agrees_with_cross_multiplication(data, char):
    amb = ambient(2, 2, char)
    d, d22 = det_block11(amb), det_block22(amb)
    x = _draw_loc(data, amb)
    how = data.draw(st.sampled_from(["independent", "rescaled", "perturbed"]))
    if how == "independent":
        y = _draw_loc(data, amb)
    else:
        # the same value over a larger denominator, or that plus a unit term
        s, t = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        y = LocalizedElement(x.num * d**s * d22**t, x.d_exp + s, x.d22_exp + t)
        if how == "perturbed":
            y = loc_add(y, LocalizedElement(amb.gen(1, 1), data.draw(st.integers(0, 2)), 0))
    assert loc_eq(x, y) == _cross_multiplied_eq(x, y)
    assert loc_eq(y, x) == loc_eq(x, y)
    if how == "rescaled":
        assert loc_eq(x, y)
    if how == "perturbed":
        assert not loc_eq(x, y)
