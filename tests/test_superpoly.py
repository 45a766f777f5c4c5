"""Ground-floor arithmetic: signs, gradings, division, text round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superinduce.fraction import parse_loc, render_loc
from superinduce.superpoly import (
    UsageError,
    ambient,
    exact_divide,
    leibniz_det,
    parse_poly,
    render_poly,
    row_content_of,
    weight_of,
)


A22 = ambient(2, 2)
A11 = ambient(1, 1)


def gens(amb):
    return [amb.gen(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)]


def random_poly(amb, rng_data, max_terms=4, max_factors=3):
    """hypothesis helper: a smallish polynomial drawn from given data."""
    p = amb.zero()
    for _ in range(rng_data.draw(st.integers(0, max_terms))):
        term = amb.scalar(rng_data.draw(st.integers(-3, 3)))
        for _ in range(rng_data.draw(st.integers(0, max_factors))):
            i = rng_data.draw(st.integers(1, amb.size))
            j = rng_data.draw(st.integers(1, amb.size))
            term = term * amb.gen(i, j)
        p = p + term
    return p


def test_ambient_validation():
    with pytest.raises(UsageError):
        ambient(0, 1)
    with pytest.raises(UsageError):
        ambient(1, 1, 2)
    with pytest.raises(UsageError):
        ambient(1, 1, 9)
    assert ambient(1, 1, 7).char == 7


def test_parities():
    assert A22.gen_parity(1, 2) == 0
    assert A22.gen_parity(1, 3) == 1
    assert A22.gen_parity(3, 1) == 1
    assert A22.gen_parity(3, 4) == 0


def test_even_generators_are_central():
    c11, c13, c31 = A22.gen(1, 1), A22.gen(1, 3), A22.gen(3, 1)
    assert c11 * c13 == c13 * c11
    assert c11 * c31 == c31 * c11


def test_odd_generators_anticommute_and_square_to_zero():
    c13, c14, c23 = A22.gen(1, 3), A22.gen(1, 4), A22.gen(2, 3)
    assert c13 * c14 == -(c14 * c13)
    assert (c13 * c13).is_zero()
    assert (c13 * c14 * c23) == -(c14 * c13 * c23)
    # triple rotation: c23 moved across two odd factors picks up (+1)
    assert (c23 * c13 * c14) == (c13 * c14 * c23)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mul_is_associative(data):
    a = random_poly(A22, data)
    b = random_poly(A22, data)
    c = random_poly(A22, data)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mul_supercommutes_on_homogeneous_parts(data):
    a = random_poly(A22, data, max_terms=2)
    b = random_poly(A22, data, max_terms=2)
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        return
    sign = -1 if (pa and pb) else 1
    assert a * b == (b * a).scale(sign)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_distributivity(data):
    a = random_poly(A22, data)
    b = random_poly(A22, data)
    c = random_poly(A22, data)
    assert a * (b + c) == a * b + a * c


def test_weight_and_row_content():
    p = A22.gen(1, 1) * A22.gen(2, 3)
    assert weight_of(p) == (1, 0, 1, 0)
    assert row_content_of(p) == (1, 1, 0, 0)
    q = p + A22.gen(1, 2)
    assert weight_of(q) is None
    assert weight_of(A22.zero()) == (0, 0, 0, 0)


def test_char_p_coefficients():
    a5 = ambient(2, 2, 5)
    p = a5.scalar(7)
    assert p == a5.scalar(2)
    assert (a5.scalar(5)).is_zero()
    assert a5.coeff(Fraction(1, 2)) == 3  # 2*3 = 6 = 1 mod 5


def test_exact_divide_plain():
    c11, c12 = A22.gen(1, 1), A22.gen(1, 2)
    prod = (c11 + c12) * (c11 * c11 + 2 * c12)
    q = exact_divide(prod, c11 + c12)
    assert q == c11 * c11 + 2 * c12
    assert exact_divide(c11, c12) is None


def test_exact_divide_needs_body_layers():
    # 1 + t, with t a product of two odd generators, divides 1: the quotient
    # is 1 - t.  A single leading-term step would wrongly give up here.
    t = A11.gen(1, 2) * A11.gen(2, 1)
    one = A11.one()
    q = exact_divide(one, one + t)
    assert q == one - t
    q2 = exact_divide(A11.gen(1, 1), one + t)
    assert q2 == A11.gen(1, 1) - A11.gen(1, 1) * t


def test_exact_divide_guards():
    with pytest.raises(UsageError):
        exact_divide(A22.one(), A22.zero())
    with pytest.raises(UsageError):
        exact_divide(A22.one(), A22.gen(1, 3))  # odd divisor
    with pytest.raises(UsageError):
        # zero body: theta * anything is a zero divisor
        exact_divide(A22.one(), A22.gen(1, 3) * A22.gen(1, 4))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_divide_roundtrip(data):
    a = random_poly(A22, data, max_terms=3)
    b = random_poly(A22, data, max_terms=3)
    if b.is_zero() or b.parity() != 0:
        return
    from superinduce.superpoly import _odd_layer

    if _odd_layer(b, 0).is_zero():
        return
    q = exact_divide(a * b, b)
    assert q is not None
    assert q * b == a * b
    # a*b / b recovers a exactly because the ring has no zero divisors among
    # even-bodied elements
    assert q == a


def test_leibniz_det_basics():
    assert leibniz_det(A22, (1, 2), (1, 2)) == (
        A22.gen(1, 1) * A22.gen(2, 2) - A22.gen(1, 2) * A22.gen(2, 1)
    )
    assert leibniz_det(A22, (1, 2), (1, 1)).is_zero()  # repeated column convention
    assert leibniz_det(A22, (1,), (3,)) == A22.gen(1, 3)
    with pytest.raises(UsageError):
        leibniz_det(A22, (1, 2), (1,))


def test_render_parse_roundtrip_examples():
    p = 2 * A22.gen(1, 1) * A22.gen(1, 1) * A22.gen(1, 2) - A22.gen(2, 2).scale(
        Fraction(1, 3)
    )
    text = render_poly(p)
    assert text == "+2·c[1,1]^2·c[1,2] -1/3·c[2,2]"
    assert parse_poly(A22, text) == p
    assert parse_poly(A22, " + 2 · c[1,1]^2 · c[1,2]  - 1/3 · c[2,2] ") == p
    assert parse_poly(A22, "+2*c[1,1]^2*c[1,2]-1/3*c[2,2]") == p
    assert render_poly(A22.zero()) == "0"
    assert parse_poly(A22, "0").is_zero()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_render_parse_roundtrip_random(data):
    p = random_poly(A22, data)
    assert parse_poly(A22, render_poly(p)) == p


def test_parse_rejects_junk():
    with pytest.raises(UsageError):
        parse_poly(A22, "+2·d[1,1]")


@pytest.mark.parametrize(
    "text",
    ["c[1,1]+", "c[1,1]++c[2,2]", "c[1,1]-", "-", "+", "1/0", "·c[1,1]", "c[1,1]·", "2c[1,1]"],
)
def test_parse_rejects_malformed_grammar(text):
    with pytest.raises(UsageError):
        parse_poly(A22, text)


def test_parse_rejects_integers_too_long_to_convert():
    long = "1" * 5000
    for text in (f"c[{long},1]", f"c[1,1]^{long}", long):
        with pytest.raises(UsageError):
            parse_poly(A22, text)
    with pytest.raises(UsageError):
        parse_loc(A22, f"c[1,1] / D^{long}")


_POLY_TOKENS = ["c[1,1]", "c[2,3]", "c[4,4]^2", "c[5,1]", "c[", "]", ",", "^", "^0",
                "2", "3", "/", "1/0", "0", "+", "-", "·", "*", " "]
_LOC_TOKENS = _POLY_TOKENS + [" / ", "D^2", "D22^1", "D^", "E^1"]


def _parses_or_rejects(parse, render, amb, text):
    try:
        x = parse(amb, text)
    except UsageError:
        return
    assert parse(amb, render(x)) == x


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(max_size=30), st.lists(st.sampled_from(_POLY_TOKENS), max_size=8).map("".join)),
    st.sampled_from([0, 3]),
)
def test_parse_poly_roundtrips_or_raises_usage_error(text, char):
    _parses_or_rejects(parse_poly, render_poly, ambient(2, 2, char), text)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(max_size=30), st.lists(st.sampled_from(_LOC_TOKENS), max_size=8).map("".join)),
    st.sampled_from([0, 3]),
)
def test_parse_loc_roundtrips_or_raises_usage_error(text, char):
    _parses_or_rejects(parse_loc, render_loc, ambient(2, 2, char), text)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_field_lowering_is_a_ring_map_and_undoes_the_lift(data):
    a3 = ambient(2, 2, 3)
    field = a3.field
    # p-integral polynomials over Q: denominators prime to 3
    a = random_poly(A22, data).scale(Fraction(1, data.draw(st.sampled_from([1, 2, 4, 5]))))
    b = random_poly(A22, data).scale(Fraction(1, data.draw(st.sampled_from([1, 2, 7]))))
    assert field.lower(a + b) == field.lower(a) + field.lower(b)
    assert field.lower(a * b) == field.lower(a) * field.lower(b)
    x = random_poly(a3, data)
    assert field.lift(x).ambient == A22
    assert field.lower(field.lift(x)) == x
    # over Q both moves hand back their argument
    assert A22.field.lift(a) is a and A22.field.lower(a) is a
