"""The right-derivation engine: signs, quotient rule, the divided-power kernel, rewrite table."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superinduce import ambient, UsageError
from superinduce.fraction import (
    LocalizedElement,
    det_block11,
    det_block22,
    embed_poly,
    loc_eq,
    loc_scale,
)
from superinduce.derivation import (
    FDminus,
    FDplus,
    FPhi,
    FY,
    apply_loc,
    direction_class,
    divided_power,
    embed_formal,
    embed_formal_factor,
    rewrite_rule_check,
    structured_rule,
    _d_poly,
    _den_derivative,
)
from superinduce.minors import y_entry
from superinduce.superpoly import EXPONENT_CAP, leibniz_det
from ring_oracle import apply_poly, bracket_check
from word_oracle import SIZES, pack, random_words, unpack, word_derivative


def test_a_pair_is_classed_by_the_blocks_it_joins():
    # at m = 2: both indices in the even block, up out of it, down into it,
    # and both beyond it, the diagonal included
    got = {(k, l): direction_class(2, k, l) for k, l in product(range(1, 5), repeat=2)}
    assert got == {
        (k, l): ("top" if l <= 2 else "raise") if k <= 2 else ("lower" if l <= 2 else "bottom")
        for k, l in product(range(1, 5), repeat=2)
    }


def test_generator_rule():
    amb = ambient(2, 2)
    for a, b, k, l in product(range(1, 5), repeat=4):
        got = apply_poly((k, l), amb.gen(a, b))
        expect = amb.gen(a, l) if b == k else amb.zero()
        assert got == expect, (a, b, k, l)


def test_sign_of_odd_direction_past_odd_suffix():
    # (c12·c21) under d[2,1]: the only column-2 factor is c12, and the odd
    # operator passes the odd suffix factor c21, so the sign is negative
    amb = ambient(1, 1)
    x = amb.gen(1, 2) * amb.gen(2, 1)
    got = apply_poly((2, 1), x)
    assert got == -(amb.gen(1, 1) * amb.gen(2, 1))


def test_even_exponent_pulls_down():
    amb = ambient(2, 1)
    assert apply_poly((1, 2), amb.gen(1, 1) ** 3) == (
        amb.gen(1, 1) ** 2 * amb.gen(1, 2)
    ).scale(3)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(SIZES), st.sampled_from([0, 3]))
def test_basic_derivation_matches_word_oracle(data, size, char):
    amb = ambient(*size, char)
    words = random_words(amb, data)
    x = pack(amb, words)
    for k, l in product(range(1, amb.size + 1), repeat=2):
        got = apply_poly((k, l), x)
        assert unpack(got) == word_derivative(amb, words, k, l), (k, l)


def test_odd_image_passes_the_odd_factors_it_moves_across():
    # d[1,4] sends c11·c13 to (-1)^(|d||c13|) c14·c13 = -c14·c13 = +c13·c14:
    # the odd operator passes c13 once and the new odd c14 passes it again
    amb = ambient(2, 2)
    x = amb.gen(1, 1) * amb.gen(1, 3)
    assert apply_poly((1, 4), x) == amb.gen(1, 3) * amb.gen(1, 4)


def test_derivation_respects_the_exponent_cap():
    amb = ambient(2, 1)
    c11, c12 = amb.gen(1, 1), amb.gen(1, 2)
    # d[2,1] turns the factor c12 into c11; at the cap that is one too many
    below = c11 ** (EXPONENT_CAP - 1) * c12
    assert apply_poly((2, 1), below) == c11 ** EXPONENT_CAP
    with pytest.raises(UsageError, match=str(EXPONENT_CAP)):
        apply_poly((2, 1), c11 ** EXPONENT_CAP * c12)


def _random_poly(amb, data, max_terms=3, max_factors=3):
    gens = [(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)]
    p = amb.zero()
    for _ in range(data.draw(st.integers(0, max_terms))):
        f = amb.one()
        for _ in range(data.draw(st.integers(0, max_factors))):
            i, j = data.draw(st.sampled_from(gens))
            f = f * amb.gen(i, j)
        p = p + f.scale(data.draw(st.integers(-3, 3)))
    return p


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_super_leibniz(data):
    amb = ambient(2, 1)
    k = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(1, 3))
    op = (k, l)
    dpar = amb.gen_parity(k, l)
    x = _random_poly(amb, data)
    y = _random_poly(amb, data)
    for par in (0, 1):
        yh = _homogeneous_part(y, par)
        lhs = apply_poly(op, x * yh)
        sgn = -1 if (dpar and par) else 1
        rhs = apply_poly(op, x).scale(sgn) * yh + x * apply_poly(op, yh)
        assert lhs == rhs


def _homogeneous_part(p, par):
    from superinduce.superpoly import SuperPolynomial, monomial_parity

    amb = p.ambient
    return SuperPolynomial(
        amb, {mo: c for mo, c in p.terms.items() if monomial_parity(amb, mo) == par}
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_rule_representation_independent(data):
    # the same value written with inflated denominators must differentiate
    # to an equal localized element
    amb = ambient(1, 1)
    p = _random_poly(amb, data, max_terms=2, max_factors=2)
    s = data.draw(st.integers(0, 2))
    t = data.draw(st.integers(0, 2))
    k = data.draw(st.integers(1, 2))
    l = data.draw(st.integers(1, 2))
    x = LocalizedElement(p, s, t)
    inflated = LocalizedElement(p * det_block11(amb) * det_block22(amb), s + 1, t + 1)
    assert loc_eq(apply_loc((k, l), x), apply_loc((k, l), inflated))


def test_inverse_determinant_eigenvalue():
    amb = ambient(1, 1)
    inv_d = LocalizedElement(amb.one(), 1, 0)
    got = apply_loc((1, 1), inv_d)
    assert loc_eq(got, loc_scale(inv_d, -1))


def test_block_determinant_derivatives():
    amb = ambient(2, 2)
    d, d22 = det_block11(amb), det_block22(amb)
    # within the even block: Kronecker delta times D
    assert _d_poly(d, 1, 1) == d
    assert _d_poly(d, 1, 2).is_zero()
    # mixed upward: the numerator of the matching y entry
    assert _d_poly(d, 1, 3) == y_entry(amb, 1, 3).num
    # columns beyond the even block never touch D
    assert _d_poly(d, 3, 1).is_zero()
    assert _d_poly(d, 4, 4).is_zero()
    # and dually for the odd block determinant
    assert _d_poly(d22, 3, 3) == d22
    assert _d_poly(d22, 3, 4).is_zero()
    assert _d_poly(d22, 1, 3).is_zero()
    assert _d_poly(d22, 2, 2).is_zero()
    # downward mixed direction: generically nonzero
    assert not _d_poly(d22, 3, 1).is_zero()
    # the quotient rule's cached derivative is that of column k's block
    for k, l in product(range(1, 5), repeat=2):
        assert _den_derivative(amb, k, l) == _d_poly(d if k <= 2 else d22, k, l), (k, l)


@pytest.mark.parametrize("m, n", list(product(range(1, 4), repeat=2)))
@pytest.mark.parametrize("char", [0, 3, 5])
def test_block_determinants_move_only_along_their_direction_class(m, n, char):
    # each block determinant is multilinear in its columns: d[k,l] replaces
    # column k by column l, so it is λ·det on the diagonal (λ = 1), a new
    # determinant for a raise (D) or lower (D22) direction, and 0 otherwise
    amb = ambient(m, n, char)
    even = tuple(range(1, m + 1))
    odd = tuple(range(m + 1, m + n + 1))
    for k, l in product(range(1, m + n + 1), repeat=2):
        for block, det, moved_by in (
            (even, det_block11(amb), k <= m < l),
            (odd, det_block22(amb), l <= m < k),
        ):
            got = _d_poly(det, k, l)
            if k not in block:
                assert got.is_zero(), (k, l)
                continue
            assert got == leibniz_det(amb, block, [l if c == k else c for c in block])
            if k == l:
                assert got == det, (k, l)
            else:
                assert got.is_zero() != moved_by, (k, l)


def _parent_d_loc(x, k, l):
    """The general quotient rule, probing whether each block determinant
    moves: the route the closed form in derivation.apply_loc replaced."""
    amb = x.ambient
    da = _d_poly(x.num, k, l)
    s, t = x.d_exp, x.d22_exp
    bump_s = bool(s) and not _d_poly(det_block11(amb), k, l).is_zero()
    bump_t = bool(t) and not _d_poly(det_block22(amb), k, l).is_zero()
    num = da
    if bump_s:
        num = num * det_block11(amb)
    if bump_t:
        num = num * det_block22(amb)
    if bump_s:
        corr = (x.num * _d_poly(det_block11(amb), k, l)).scale(s)
        if bump_t:
            corr = corr * det_block22(amb)
        num = num - corr
    if bump_t:
        corr = (x.num * _d_poly(det_block22(amb), k, l)).scale(t)
        if bump_s:
            corr = corr * det_block11(amb)
        num = num - corr
    return LocalizedElement(num, s + int(bump_s), t + int(bump_t))


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 1)]),
    st.sampled_from([0, 3]),
)
def test_closed_form_quotient_rule_equals_the_parents(data, size, char):
    amb = ambient(*size, char)
    m = amb.m
    x = LocalizedElement(
        _random_poly(amb, data), data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    )
    for k, l in product(range(1, amb.size + 1), repeat=2):
        got = apply_loc((k, l), x)
        assert loc_eq(got, _parent_d_loc(x, k, l)), (k, l, x)
        if got.is_zero():
            continue
        grow = (got.d_exp - x.d_exp, got.d22_exp - x.d22_exp)
        if k <= m < l and x.d_exp:
            assert grow == (1, 0), (k, l)
        elif l <= m < k and x.d22_exp:
            assert grow == (0, 1), (k, l)
        else:
            assert grow == (0, 0), (k, l)


def test_simple_lowering_directions_leave_denominators_inert():
    for m, n in [(2, 2), (3, 1)]:
        amb = ambient(m, n)
        simples = [l + 1 for l in range(1, m)] + [l + 1 for l in range(m + 1, m + n)]
        for k in simples:
            assert _d_poly(det_block11(amb), k, k - 1).is_zero()
            assert _d_poly(det_block22(amb), k, k - 1).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_odd_direction_squares_to_zero(data):
    amb = ambient(2, 1)
    p = _random_poly(amb, data)
    x = LocalizedElement(p, data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1)))
    k = data.draw(st.sampled_from([1, 2]))
    odd_op = (k, 3) if data.draw(st.booleans()) else (3, k)
    twice = apply_loc(odd_op, apply_loc(odd_op, x))
    assert twice.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_identity(data):
    amb = ambient(2, 1)
    x = LocalizedElement(
        _random_poly(amb, data, max_terms=2, max_factors=2),
        data.draw(st.integers(0, 1)),
        data.draw(st.integers(0, 1)),
    )
    idx = st.integers(1, 3)
    a = (data.draw(idx), data.draw(idx))
    b = (data.draw(idx), data.draw(idx))
    assert bracket_check(x, a, b)


def test_divided_power_char0():
    # in characteristic 0 the kernel is the first derivative: d^(r) = d^r/r!
    # vanishes once d does
    amb = ambient(2, 1)
    p = amb.gen(1, 2) ** 3 + amb.gen(2, 2) * amb.gen(1, 1)
    assert divided_power(p, 2, 1) == apply_poly((2, 1), p)
    assert divided_power(amb.gen(1, 1) ** 3, 2, 1).is_zero()


def test_divided_power_charp_lift():
    # in characteristic 3 the third derivative of c12^3 is 3! c11^3, which a
    # naive modular iteration flattens to zero; the closed form keeps its
    # third divided power c11^3, and the lower two vanish mod 3
    amb = ambient(2, 1, 3)
    p = amb.gen(1, 2) ** 3
    naive = apply_poly((2, 1), p)
    assert naive.is_zero()  # 3·c12^2·c11 vanishes mod 3
    assert divided_power(p, 2, 1) == amb.gen(1, 1) ** 3


def test_divided_power_rejects_odd_direction():
    amb = ambient(1, 1)
    with pytest.raises(UsageError):
        divided_power(amb.gen(1, 2), 1, 2)


# -- rewrite table spot checks (the exhaustive sweep lives in the acceptance tests) --


def test_rewrite_y_all_directions():
    amb = ambient(2, 1)
    fy = FY(1, 3)
    for k, l in product(range(1, 4), repeat=2):
        assert rewrite_rule_check(amb, fy, (k, l)), (k, l)


def test_rewrite_y_downward_delta():
    amb = ambient(1, 1)
    expr = structured_rule(amb, FY(1, 2), (2, 1))
    assert expr == [(1, ())]
    assert loc_eq(embed_formal(amb, expr), embed_poly(amb.one()))


def test_rewrite_phi_all_directions():
    amb = ambient(2, 2)
    fphi = FPhi(3, 4)
    for k, l in product(range(1, 5), repeat=2):
        assert rewrite_rule_check(amb, fphi, (k, l)), (k, l)


def test_rewrite_dminus_all_directions():
    amb = ambient(2, 2)
    for cols in [(3,), (4,), (3, 4), (4, 3)]:
        for k, l in product(range(1, 5), repeat=2):
            assert rewrite_rule_check(amb, FDminus(cols), (k, l)), (cols, k, l)


def test_rewrite_dplus_all_directions():
    amb = ambient(2, 2)
    for cols in [(1,), (2,), (1, 2)]:
        for k, l in product(range(1, 5), repeat=2):
            assert rewrite_rule_check(amb, FDplus(cols), (k, l)), (cols, k, l)


def test_rewrite_dplus_muir_case_by_hand():
    # d[1,3] on the single-column minor c[1,1] is c[1,3]; the table rewrites it
    # through the y entries, and the two must agree as fractions
    amb = ambient(2, 1)
    expr = structured_rule(amb, FDplus((1,)), (1, 3))
    assert loc_eq(embed_formal(amb, expr), embed_poly(amb.gen(1, 3)))


def test_embed_formal_dminus_is_twisted_determinant():
    amb = ambient(2, 2)
    d_all = embed_formal_factor(amb, FDminus((3, 4)))
    swapped = embed_formal_factor(amb, FDminus((4, 3)))
    assert loc_eq(d_all, loc_scale(swapped, -1))

