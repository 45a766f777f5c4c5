"""Ground-floor arithmetic: signs, gradings, division, text round-trips."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import superinduce.superpoly as superpoly
from superinduce.cli import main
from superinduce.derivation import apply_loc
from superinduce.fraction import LocalizedElement, den_power, render_loc
from superinduce.superpoly import (
    EXPONENT_CAP,
    SuperPolynomial,
    UsageError,
    ambient,
    dot,
    exact_divide,
    leibniz_det,
    parse_poly,
    render_poly,
    weight_of,
)
from superinduce.weights_tableaux import dminus
from ring_oracle import parse_loc, total_degree
from builder_oracle import layered_exact_divide, lift, lifted_apply, lower, odd_layer, parent_dot
from word_oracle import SIZES, canonical, pack, random_words, unpack, word_mul


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


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]), st.sampled_from([0, 3]))
def test_subtraction_equals_adding_the_negative(data, size, char):
    amb = ambient(*size, char)
    a = random_poly(amb, data)
    # b shares terms with a, some with equal coefficients, so the difference cancels
    b = random_poly(amb, data) + a.scale(data.draw(st.sampled_from([1, 1, 2])))
    diff = a - b
    assert diff == a + (-b)
    assert all(diff.terms.values())  # no zero coefficient survives
    assert (a - a).is_zero() and (b - b).terms == {}
    with pytest.raises(UsageError, match="different ambients"):
        a - ambient(*size, 5 if char else 3).one()


def test_weight_and_row_content():
    p = A22.gen(1, 1) * A22.gen(2, 3)
    assert weight_of(p) == (1, 0, 1, 0)
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
    if odd_layer(b, 0).is_zero():
        return
    q = exact_divide(a * b, b)
    assert q is not None
    assert q * b == a * b
    # a*b / b recovers a exactly because the ring has no zero divisors among
    # even-bodied elements
    assert q == a


def _odd_layers(p):
    amb = p.ambient
    return {(mo & amb.odd_mask).bit_count() for mo in p.terms}


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]), st.sampled_from([0, 3]))
def test_exact_divide_recovers_a_by_minus_minor_numerators(data, size, char):
    # dminus numerators are even with odd terms, so a·b spreads over several
    # odd layers, each with several odd words
    amb = ambient(*size, char)
    m = amb.m
    t = data.draw(st.integers(1, amb.n))
    cols = data.draw(st.permutations(range(m + 1, amb.size + 1)))[:t]
    b = dminus(amb, cols).num * den_power(amb, data.draw(st.integers(0, 1)), 0)
    a = random_poly(amb, data, max_terms=4)
    assert exact_divide(a * b, b) == a
    # the body of b is not constant, so b is no unit and a·b + 1 stays undivided
    assert exact_divide(a * b + amb.one(), b) is None


def test_exact_divide_reaches_monomials_the_dividend_lacks():
    # (x - y)(x + y) = x^2 - y^2: the first quotient step brings in x·y,
    # which is the next leading term although the dividend has no such term
    x, y, odd = A22.gen(1, 1), A22.gen(2, 2), A22.gen(1, 3)
    assert exact_divide(x * x - y * y, x + y) == x - y
    assert exact_divide((x * x - y * y) * odd, x + y) == (x - y) * odd
    assert exact_divide(x * x + y * y, x + y) is None


def test_exact_divide_property_spans_layers():
    amb = ambient(2, 2)
    b = dminus(amb, (3, 4)).num
    a = amb.gen(1, 3) + amb.gen(2, 4) * amb.gen(3, 1) + amb.gen(1, 1)
    assert len(_odd_layers(b)) >= 3 and len(_odd_layers(a * b)) >= 3
    assert exact_divide(a * b, b) == a


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


def test_render_parse_of_rational_coefficients():
    x, y = A22.gen(1, 1), A22.gen(1, 3)
    cases = [
        (A22.scalar(Fraction(1, 2)), "+1/2"),
        (x.scale(Fraction(-3, 4)), "-3/4·c[1,1]"),
        (x.scale(Fraction(4, 2)), "+2·c[1,1]"),
        ((x * A22.gen(2, 2)).scale(-Fraction(6, 3)), "-2·c[1,1]·c[2,2]"),
        (
            x.scale(Fraction(1, 2)) + y.scale(Fraction(-3, 4))
            + A22.gen(2, 2).scale(Fraction(4, 2)) + (x * y).scale(-Fraction(6, 3)),
            "-2·c[1,1]·c[1,3] +1/2·c[1,1] -3/4·c[1,3] +2·c[2,2]",
        ),
    ]
    for p, text in cases:
        assert render_poly(p) == text
        back = parse_poly(A22, text)
        assert back == p and render_poly(back) == text


# -- Q coefficients: an int when integral, else a Fraction with denominator > 1 --


def all_fraction(p):
    """p with every stored coefficient a Fraction, bypassing the field's
    normalization: the all-Fraction reference input."""
    q = SuperPolynomial.__new__(SuperPolynomial)
    q.ambient = p.ambient
    q.terms = {mo: Fraction(c) for mo, c in p.terms.items()}
    return q


def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_coefficients_are_ints_unless_proper_fractions(data):
    ratio = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    a = random_poly(A22, data).scale(data.draw(ratio))
    b = random_poly(A22, data).scale(data.draw(ratio))
    fa, fb = all_fraction(a), all_fraction(b)
    for p in (a, b):
        assert_canonical(p)
    c = data.draw(ratio)
    for got, want in (
        (a * b, fa * fb),
        (a + b, fa + fb),
        (a - b, fa - fb),
        (a.scale(c), fa.scale(c)),
    ):
        assert_canonical(got)
        assert got == want
    k = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(1, 4))
    d_exp, d22_exp = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    routes = [lambda x: apply_loc((k, l), x)]
    if (k <= 2) == (l <= 2):  # an even direction's lifted divided power: over 1/r!
        r = data.draw(st.integers(1, 3))
        routes.append(lambda x: lifted_apply(k, l, r, x))
    for route in routes:
        got = route(LocalizedElement(a, d_exp, d22_exp))
        want = route(LocalizedElement(fa, d_exp, d22_exp))
        assert_canonical(got.num)
        assert (got.num, got.d_exp, got.d22_exp) == (want.num, want.d_exp, want.d22_exp)
    if not b.is_zero() and b.parity() == 0 and any(mo & A22.odd_mask == 0 for mo in b.terms):
        q = exact_divide(a * b, b)
        assert_canonical(q)
        assert q == a == exact_divide(all_fraction(a * b), fb)


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
    # p-integral polynomials over Q: denominators prime to 3
    a = random_poly(A22, data).scale(Fraction(1, data.draw(st.sampled_from([1, 2, 4, 5]))))
    b = random_poly(A22, data).scale(Fraction(1, data.draw(st.sampled_from([1, 2, 7]))))
    assert lower(a + b, 3) == lower(a, 3) + lower(b, 3)
    assert lower(a * b, 3) == lower(a, 3) * lower(b, 3)
    x = random_poly(a3, data)
    assert lift(x).ambient == A22
    assert lower(lift(x), 3) == x
    # over Q both moves hand back their argument
    assert lift(a) is a and lower(a, 0) is a


# -- the packed kernel against the tuple-word oracle, and its exponent cap ------

@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(SIZES), st.sampled_from([0, 3]))
def test_mul_matches_word_oracle(data, size, char):
    amb = ambient(*size, char)
    a = random_words(amb, data)
    b = random_words(amb, data)
    assert unpack(pack(amb, a) * pack(amb, b)) == word_mul(amb, a, b)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(SIZES), st.sampled_from([0, 3]))
def test_dot_is_the_sum_of_the_oracle_products(data, size, char):
    amb = ambient(*size, char)
    pairs = [
        (random_words(amb, data), random_words(amb, data))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    want: dict = {}
    for a, b in pairs:
        for w, c in word_mul(amb, a, b).items():
            want[w] = want.get(w, 0) + c
    got = dot(amb, [(pack(amb, a), pack(amb, b)) for a, b in pairs])
    assert unpack(got) == amb.field.clean(want)


def _odd_heavy_words(amb, rnd, count) -> dict:
    """count distinct canonical words, three in four with one to four odd
    letters, the rest odd-free; integer coefficients that no field of char
    3 or 5 sends to zero, and in char 0 also proper fractions."""
    all_gens = [(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)]
    odd = [g for g in all_gens if amb.gen_parity(*g)]
    even = [g for g in all_gens if not amb.gen_parity(*g)]
    out: dict = {}
    while len(out) < count:
        letters = [rnd.choice(even) for _ in range(rnd.randint(0, 8 if count > 4 else 2))]
        if rnd.random() < 0.75:
            letters += rnd.sample(odd, rnd.randint(1, min(4, len(odd))))
        _, word = canonical(amb, letters)
        c = rnd.choice([-4, -2, -1, 1, 2, 4])
        if amb.char == 0 and rnd.random() < 0.5:
            c = Fraction(c, rnd.randint(2, 6))
        out[word] = c
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(SIZES), st.sampled_from([0, 3, 5]))
def test_dot_equals_the_parent_loop_and_the_word_oracle(data, size, char):
    # odd-heavy operands, and lopsided ones in both orders: one term against
    # 100 or more, so either loop order meets the large operand innermost
    amb = ambient(*size, char)
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(data.draw(st.integers(1, 3))):
        many = rnd.randint(100, 130)
        sizes = data.draw(st.sampled_from([(rnd.randint(1, 4), rnd.randint(1, 4)),
                                           (1, many), (many, 1)]))
        pairs.append(tuple(_odd_heavy_words(amb, rnd, k) for k in sizes))
    packed = [(pack(amb, a), pack(amb, b)) for a, b in pairs]
    got = dot(amb, packed)
    assert got == parent_dot(amb, packed)
    want: dict = {}
    for a, b in pairs:
        for w, c in word_mul(amb, a, b).items():
            want[w] = want.get(w, 0) + c
    assert unpack(got) == amb.field.clean(want)


def test_dot_rejects_operands_from_another_ambient():
    with pytest.raises(UsageError, match="different ambients"):
        dot(A22, [(A22.one(), A22.one()), (A22.one(), A11.one())])


def test_a_power_multiplies_its_squares_from_the_first(monkeypatch):
    # x ** e squares e.bit_length() - 1 times and folds the squares at the
    # set bits of e from the first of them; a fold from one made one more
    # product for every e >= 1
    c11, c13 = A22.gen(1, 1), A22.gen(1, 3)
    x = c11 + c13  # c[1,3] is odd, so x^e = c11^e + e·c11^(e-1)·c13
    expected = [A22.one()] + [c11 ** e + (c11 ** (e - 1) * c13).scale(e) for e in range(1, 70)]
    products = []
    real = superpoly.dot
    monkeypatch.setattr(superpoly, "dot", lambda amb, pairs: products.append(1) or real(amb, pairs))
    for e, want in enumerate(expected):
        products.clear()
        assert x ** e == want, e
        assert len(products) == (e.bit_length() - 1 + e.bit_count() - 1 if e else 0), e
    assert x ** 1 is x


def test_exponent_cap_is_reached_and_never_crossed():
    c11, c12 = A22.gen(1, 1), A22.gen(1, 2)
    top = c11 ** EXPONENT_CAP
    assert render_poly(top) == f"+1·c[1,1]^{EXPONENT_CAP}"
    assert exact_divide(top, c11 ** (EXPONENT_CAP - 1)) == c11
    # c[1,2]'s field sits just below c[1,1]'s and never spills into it
    assert render_poly(c12 ** EXPONENT_CAP * c11) == f"+1·c[1,1]·c[1,2]^{EXPONENT_CAP}"
    for overflow in (lambda: c11 ** (EXPONENT_CAP + 1), lambda: top * c11,
                     lambda: c12 ** EXPONENT_CAP * c12):
        with pytest.raises(UsageError, match=str(EXPONENT_CAP)):
            overflow()
    # odd generators square to zero before any exponent can grow
    assert (A22.gen(1, 3) ** (EXPONENT_CAP + 1)).is_zero()


@pytest.mark.parametrize("text, ascii_text", [
    ("c[\u0661,\u0661]^\u0662", "c[1,1]^2"),
    ("1_0·c[1,1]", "10·c[1,1]"),
    ("\u0663/2·c[1,2]", "3/2·c[1,2]"),
])
def test_parse_poly_reads_ascii_digits_only(text, ascii_text):
    with pytest.raises(UsageError, match="unrecognized polynomial"):
        parse_poly(A22, text)
    assert not parse_poly(A22, ascii_text).is_zero()


@pytest.mark.parametrize("char", [0, 3])
def test_parse_poly_exponent_cap(char):
    amb = ambient(2, 2, char)
    assert parse_poly(amb, f"c[1,1]^{EXPONENT_CAP}") == amb.gen(1, 1) ** EXPONENT_CAP
    with pytest.raises(UsageError, match=str(EXPONENT_CAP)):
        parse_poly(amb, f"c[1,1]^{EXPONENT_CAP + 1}")
    with pytest.raises(UsageError, match=str(EXPONENT_CAP)):
        parse_loc(amb, f"c[2,2]^{EXPONENT_CAP + 1} / D^1")


def test_cli_reports_the_exponent_cap(capsys):
    assert main(["emit", "highest-vector", "--lambda", f"[{EXPONENT_CAP}|0]"]) == 0
    assert f"c[1,1]^{EXPONENT_CAP} " in capsys.readouterr().out
    assert main(["emit", "highest-vector", "--lambda", f"[{EXPONENT_CAP + 1}|0]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert str(EXPONENT_CAP) in json.loads(lines[0])["error"]


# -- exact division with an in-place remainder -----------------------------------------


def _even_and_odd_gens(amb):
    pairs = [(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)]
    even = [amb.gen(i, j) for i, j in pairs if amb.gen_parity(i, j) == 0]
    odd = [amb.gen(i, j) for i, j in pairs if amb.gen_parity(i, j) == 1]
    return even, odd


def _draw_even_divisor(data, amb):
    """(b, body): an even b whose body (its odd-free part) is nonzero; the
    rest of b is a sum of even-generator monomials times two odd generators."""
    even, odd = _even_and_odd_gens(amb)
    body = amb.scalar(data.draw(st.integers(1, 2))) * amb.gen(1, 1) ** data.draw(st.integers(0, 2))
    for _ in range(data.draw(st.integers(0, 2))):
        body = body + data.draw(st.sampled_from(even)) * data.draw(st.sampled_from(even))
    nil = amb.zero()
    for _ in range(data.draw(st.integers(0, 2))):
        term = data.draw(st.sampled_from(odd)) * data.draw(st.sampled_from(odd))
        nil = nil + term * data.draw(st.sampled_from(even + [amb.one()]))
    return body + nil, body


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([0, 3]))
def test_exact_divide_recovers_the_cofactor(data, char):
    amb = ambient(2, 2, char)
    a = random_poly(amb, data, max_terms=3)
    b, body = _draw_even_divisor(data, amb)
    if body.is_zero():  # the body's coefficient vanished mod p
        return
    assert b.parity() == 0
    assert exact_divide(a * b, b) == a


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([0, 3]))
def test_exact_divide_refuses_a_monomial_the_leading_term_misses(data, char):
    # b divides a·b + m only if it divides m; the odd-free layer of q·b = m is
    # q0·body = m in the polynomial ring of the even generators, which forces
    # body's leading monomial to divide m, and a degree below it cannot
    amb = ambient(2, 2, char)
    even, _ = _even_and_odd_gens(amb)
    a = random_poly(amb, data, max_terms=3)
    b, body = _draw_even_divisor(data, amb)
    if body.is_zero() or total_degree(body) == 0:
        return
    m = amb.scalar(data.draw(st.integers(1, 2)))
    for _ in range(data.draw(st.integers(0, total_degree(body) - 1))):
        m = m * data.draw(st.sampled_from(even))
    assert exact_divide(a * b + m, b) is None


@pytest.mark.parametrize("char", [0, 3])
def test_exact_divide_keeps_the_exponent_cap(char):
    amb = ambient(2, 2, char)
    c11, c22 = amb.gen(1, 1), amb.gen(2, 2)
    # the leading term of c11^2 + c22^2 is c11^2, so the first quotient term
    # is c22^cap and its product with c22^2 crosses the cap
    with pytest.raises(UsageError, match=str(EXPONENT_CAP)):
        exact_divide(c11**2 * c22**EXPONENT_CAP, c11**2 + c22**2)
    assert exact_divide(c11**2 * c22**(EXPONENT_CAP - 2), c11**2 + c22**2) is None


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([0, 3, 5]))
def test_exact_divide_keeps_the_exponent_cap_for_any_two_even_generators(data, char):
    # the first quotient term of x^2·y^k / (x^2 + y^2), x the larger, is y^k,
    # and its product with y^2 crosses the cap exactly when k + 2 does
    amb = ambient(2, 2, char)
    even, _ = _even_and_odd_gens(amb)
    y, x = sorted(data.draw(st.permutations(even))[:2], key=lambda g: next(iter(g.terms)))
    k = data.draw(st.integers(EXPONENT_CAP - 4, EXPONENT_CAP))
    if k + 2 > EXPONENT_CAP:
        with pytest.raises(UsageError, match=str(EXPONENT_CAP)):
            exact_divide(x**2 * y**k, x**2 + y**2)
    else:
        assert exact_divide(x**2 * y**k, x**2 + y**2) is None


def _draw_colliding_division(data, amb):
    """(q, b): b = x + β·y + γ·z + δ·w over four even generators, x the
    largest, plus an odd pair now and then, and q the signed pairwise
    products of y, z and w plus a few random terms.  The remainder's y·z·w
    takes one product from each of y·z, y·w and z·w; when the last two cancel
    each other, which mod 3 or 5 is often, y·z·w leaves the remainder after
    the first and comes back with the second, behind a stale heap entry."""
    even, odd = _even_and_odd_gens(amb)
    picks = sorted(data.draw(st.permutations(even))[:4],
                   key=lambda g: next(iter(g.terms)), reverse=True)
    coeffs = st.sampled_from([-2, -1, 1, 2])
    b = picks[0]
    for g in picks[1:]:
        b = b + g.scale(data.draw(coeffs))
    if data.draw(st.booleans()):
        b = b + data.draw(st.sampled_from(odd)) * data.draw(st.sampled_from(odd))
    q = random_poly(amb, data, max_terms=2)
    for g, h in combinations(picks[1:], 2):
        q = q + (g * h).scale(data.draw(coeffs))
    return q, b


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([0, 3, 5]))
def test_in_place_remainder_matches_the_layered_route(data, char):
    amb = ambient(2, 2, char)
    q, b = _draw_colliding_division(data, amb)
    assert exact_divide(q * b, b) == layered_exact_divide(q * b, b) == q
    # a dividend that b need not divide: both routes agree, None included
    x = q * b + random_poly(amb, data, max_terms=2)
    assert exact_divide(x, b) == layered_exact_divide(x, b)


def test_a_remainder_monomial_that_cancels_and_comes_back():
    # b = c11 + c12 + c21 + c22 and q = c12·c21 + c12·c22 - c21·c22: the
    # quotient term c12·c21 takes c12·c21·c22 to 0, c12·c22 brings it back
    # and c21·c22 cancels it again
    x, y, z, w = (A22.gen(1, 1), A22.gen(1, 2), A22.gen(2, 1), A22.gen(2, 2))
    b = x + y + z + w
    q = y * z + y * w - z * w
    assert exact_divide(q * b, b) == q
    assert exact_divide(q * b + y * z * w, b) is None


# -- one leading-term division for divisors with no odd terms ------------------------


def _draw_body_divisor(data, amb):
    """A nonzero divisor with no odd terms: a sum of products of even
    generators; None when its coefficients vanish mod p."""
    even, _ = _even_and_odd_gens(amb)
    b = amb.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        term = amb.scalar(data.draw(st.integers(1, 3)))
        for _ in range(data.draw(st.integers(0, 2))):
            term = term * data.draw(st.sampled_from(even))
        b = b + term
    return None if b.is_zero() else b


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]), st.sampled_from([0, 3]))
def test_one_pass_division_equals_the_layered_route(data, size, char):
    amb = ambient(*size, char)
    b = _draw_body_divisor(data, amb)
    if b is None:
        return
    assert not any(mo & amb.odd_mask for mo in b.terms)
    a = random_poly(amb, data, max_terms=4)  # carries odd words
    assert exact_divide(a * b, b) == layered_exact_divide(a * b, b) == a
    # a dividend that b need not divide: both routes agree, None included
    x = a * b + random_poly(amb, data, max_terms=2)
    assert exact_divide(x, b) == layered_exact_divide(x, b)
    if total_degree(b) > 0:
        # a unit times an odd word is below b's leading monomial: never divisible
        _, odd = _even_and_odd_gens(amb)
        miss = a * b + data.draw(st.sampled_from(odd))
        assert exact_divide(miss, b) is None
        assert layered_exact_divide(miss, b) is None


def test_even_divisors_lead_with_an_odd_free_term():
    # the division order ranks fewer odd factors first, so an even divisor
    # with a nonzero body leads with one of its odd-free terms: its product
    # with a quotient term never vanishes and is never signed
    from superinduce.superpoly import _division_ranks, monomial_degree

    divisors = []
    for size in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for char in (0, 3):
            amb = ambient(*size, char)
            divisors += [den_power(amb, s, t) for s in (0, 1) for t in (1, 2, 3)]
            odd_cols = range(amb.m + 1, amb.size + 1)
            divisors += [dminus(amb, cols).num for t in range(1, amb.n + 1)
                         for cols in permutations(odd_cols, t)]
    # inhomogeneous: its top-degree term c12·c21 is odd, so an order that
    # ranks degree first would lead with a term that may vanish in a product
    a11 = ambient(1, 1)
    inhom = a11.scalar(2) + a11.gen(1, 2) * a11.gen(2, 1)
    assert max(inhom.terms, key=monomial_degree) & a11.odd_mask
    divisors.append(inhom)
    assert any(any(mo & b.ambient.odd_mask for mo in b.terms) for b in divisors)
    for b in divisors:
        amb = b.ambient
        assert not odd_layer(b, 0).is_zero()
        lead = -min(_division_ranks(amb, b.terms))[1]
        assert lead & amb.odd_mask == 0
        assert lead in odd_layer(b, 0).terms
    a = a11.gen(1, 1) + a11.gen(1, 2) + a11.gen(2, 1) * a11.gen(2, 2)
    assert exact_divide(a * inhom, inhom) == a
    assert exact_divide(a * inhom, inhom) == layered_exact_divide(a * inhom, inhom)
