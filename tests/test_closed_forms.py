"""The closed-form kernels against the routes they replaced (`builder_oracle`):
the summed divided powers against the sum of the lifted powers, every direction of
the quotient rule against the parent's diagonal route dN - λ·N, the localized
division against the parent's unconditional denominator product, the
primitivity vanishing check against the lift's power-by-power loop, the
one-pass division against the layered division, the 16-bit field view of
a monomial against per-field loops, and the row fold of `weight_of` against
the field view of every term."""

import sys
from array import array
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from superinduce.derivation import (
    apply_loc,
    divided_power,
)
from superinduce.floors_primitives import FloorElement, is_primitive, pi_ij
import superinduce.fraction as fraction
from superinduce.fraction import (
    LocalizedElement,
    den_power,
    embed_poly,
    loc_divide_exact,
    loc_mul,
)
from superinduce.superpoly import (
    EXPONENT_CAP,
    FIELD_BITS,
    FIELD_MASK,
    RING_SIZE_CAP,
    InternalError,
    SuperPolynomial,
    UsageError,
    ambient,
    column_slices,
    exact_divide,
    monomial_column_content,
    monomial_degree,
    monomial_items,
    weight_of,
)
from superinduce.weights_tableaux import dminus, make_weight
from ring_oracle import apply_poly
from builder_oracle import (
    divided_powers_vanish,
    fresh_embed_floor,
    layered_exact_divide,
    lifted_apply,
    lifted_divided_powers,
    loop_column_content,
    loop_monomial_degree,
    loop_monomial_items,
    odd_layer,
    parent_d_loc,
    parent_loc_divide_exact,
    parent_weight_of,
)

SIZES = [(2, 1), (1, 2), (2, 2), (3, 1)]
CHARS = [0, 3, 5]
RINGS = st.builds(lambda size, char: ambient(*size, char),
                  st.sampled_from(SIZES), st.sampled_from(CHARS))


def _outcome(run):
    """The value of run(), or the type of the exception it raised."""
    try:
        value = run()
    except (InternalError, UsageError) as exc:
        return type(exc)
    if isinstance(value, LocalizedElement):
        return value.num, value.d_exp, value.d22_exp
    return value


def _gens(amb):
    return list(product(range(1, amb.size + 1), repeat=2))


def _even_directions(amb):
    """The even off-diagonal directions (k, l) of the ring."""
    return [(k, l) for k, l in _gens(amb) if k != l and not amb.gen_parity(k, l)]


def _power_of_p(data, amb):
    """c[a,k]^p for a random generator (1 in char 0): a factor whose first
    derivative vanishes mod p although its p-th divided power does not."""
    if not amb.char:
        return amb.one()
    return amb.gen(*data.draw(st.sampled_from(_gens(amb)))) ** amb.char


def _random_poly(data, amb, max_terms=4, max_factors=4):
    p = amb.zero()
    for _ in range(data.draw(st.integers(1, max_terms))):
        term = amb.scalar(data.draw(st.integers(1, 4)))
        for _ in range(data.draw(st.integers(0, max_factors))):
            term = term * amb.gen(*data.draw(st.sampled_from(_gens(amb))))
        p = p + term
    return p * _power_of_p(data, amb) if data.draw(st.booleans()) else p


def _homogeneous_poly(data, amb, max_terms=5):
    """A polynomial homogeneous in column content: every term takes its
    factors in one fixed list of columns, each from a row of its own."""
    cols = [data.draw(st.integers(1, amb.size)) for _ in range(data.draw(st.integers(1, 5)))]
    p = amb.zero()
    for _ in range(data.draw(st.integers(1, max_terms))):
        term = amb.scalar(data.draw(st.integers(1, 4)))
        for j in cols:
            term = term * amb.gen(data.draw(st.integers(1, amb.size)), j)
        p = p + term
    return p * _power_of_p(data, amb) if data.draw(st.booleans()) else p


# -- the summed divided powers --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_closed_form_operators_equal_the_lift(amb, data):
    p = _random_poly(data, amb)
    for k, l in _even_directions(amb):
        assert divided_power(p, k, l) == lifted_divided_powers(p, k, l), (k, l)


def test_closed_form_rejects_directions_it_does_not_cover():
    for char in (0, 3):
        amb = ambient(2, 1, char)
        for k, l in [(1, 1), (1, 3), (3, 2)]:
            with pytest.raises(UsageError):
                divided_power(amb.gen(1, 1), k, l)


# -- the one diagonal kernel ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(RINGS, st.data())
def test_every_direction_equals_the_parents_diagonal_route(amb, data):
    # terms of several column contents, so the eigenvalue varies term by term
    num = (_random_poly(data, amb) + amb.scalar(data.draw(st.integers(1, 4)))
           + amb.gen(*data.draw(st.sampled_from(_gens(amb)))))
    assume(weight_of(num) is None)
    x = LocalizedElement(num, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    for k, l in _gens(amb):  # the same numerator and exponents, or the same error
        assert _outcome(lambda: apply_loc((k, l), x)) == _outcome(
            lambda: parent_d_loc(x, k, l)), (k, l)


# -- the vanishing check of primitivity -----------------------------------------------


def _vanishes(x, k, l):
    """Every divided power of d[k,l] kills x: the closed form's check."""
    return divided_power(x.num, k, l).is_zero()


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_vanishing_check_equals_the_lift_loop(amb, data):
    x = LocalizedElement(_homogeneous_poly(data, amb), data.draw(st.integers(0, 2)),
                         data.draw(st.integers(0, 2)))
    for k, l in _even_directions(amb):
        assert _vanishes(x, k, l) == divided_powers_vanish(x, k, l), (k, l)


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_is_primitive_equals_the_lift_loop(amb, data):
    plus = sorted((data.draw(st.integers(0, 3)) for _ in range(amb.m)), reverse=True)
    minus = sorted((data.draw(st.integers(0, 3)) for _ in range(amb.n)), reverse=True)
    w = make_weight(plus, minus)
    i, j = data.draw(st.sampled_from(list(product(range(1, amb.m + 1), range(1, amb.n + 1)))))
    try:
        vec = pi_ij(amb, w, i, j)
    except UsageError:
        return  # the vector is undefined at this cell
    # a factor c[a,k]^p keeps the element homogeneous; its first derivative
    # vanishes mod p, its p-th divided power need not
    factor = embed_poly(_power_of_p(data, amb))
    x = FloorElement(amb, 1, {key: loc_mul(c, factor) for key, c in vec.terms.items()})
    emb = fresh_embed_floor(x)
    simples = [(l + 1, l) for l in range(1, amb.m)]
    simples += [(l + 1, l) for l in range(amb.m + 1, amb.size)]
    assert is_primitive(x) == all(divided_powers_vanish(emb, k, l) for k, l in simples)


def test_a_pth_power_survives_its_pth_divided_power():
    # d[2,1] on c12^3 in char 3: the first power 3·c12^2·c11 vanishes mod 3,
    # the third divided power is c11^3, so c12^3 is not killed
    amb = ambient(2, 1, 3)
    x = embed_poly(amb.gen(1, 2) ** 3)
    assert apply_poly((2, 1), x.num).is_zero()
    assert lifted_apply(2, 1, 3, x).num == amb.gen(1, 1) ** 3
    assert divided_power(x.num, 2, 1) == amb.gen(1, 1) ** 3 == lifted_divided_powers(x.num, 2, 1)
    assert not _vanishes(x, 2, 1) and not divided_powers_vanish(x, 2, 1)
    assert _vanishes(embed_poly(amb.gen(1, 1) ** 3), 2, 1)


def test_odd_rows_sign_their_moves_and_are_blocked_by_their_targets():
    # at (3,2) the odd rows 4 and 5 hold odd generators in columns 1..3:
    # d[1,3] moves c[a,1] past c[a,2] to c[a,3], one sign per row, and a
    # c[a,3] already present blocks its row; in char 3 the kernel sums the
    # first and the second power
    amb = ambient(3, 2, 3)
    g = amb.gen
    x = g(4, 1) * g(4, 2) * g(5, 1) * g(5, 2)
    first = apply_poly((1, 3), x)
    both = g(4, 3) * g(4, 2) * g(5, 3) * g(5, 2)
    assert lifted_apply(1, 3, 2, embed_poly(x)).num == both
    assert divided_power(x, 1, 3) == first + both == lifted_divided_powers(x, 1, 3)
    blocked = g(4, 1) * g(4, 3) * g(5, 1) * g(5, 2)
    assert lifted_apply(1, 3, 2, embed_poly(blocked)).is_zero()
    assert divided_power(blocked, 1, 3) == apply_poly((1, 3), blocked)
    assert not divided_power(blocked, 1, 3).is_zero()
    # row 4 passes its odd c[4,2] and row 5 passes nothing: only the odd
    # bits between a row's own two slots sign its move
    mixed = g(4, 1) * g(4, 2) * g(5, 1)
    assert lifted_apply(1, 3, 2, embed_poly(mixed)).num == g(4, 3) * g(4, 2) * g(5, 3)
    assert divided_power(mixed, 1, 3) == apply_poly((1, 3), mixed) + g(4, 3) * g(4, 2) * g(5, 3)
    assert divided_power(mixed, 1, 3) == lifted_divided_powers(mixed, 1, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (1, 3), (3, 2)]), st.sampled_from(CHARS), st.data())
def test_odd_rows_move_as_in_the_lift(size, char, data):
    # products rich in the odd rows' generators, under the directions whose
    # two slots have a third column between them
    amb = ambient(*size, char)
    block = range(1, amb.m + 1) if amb.m == 3 else range(amb.m + 1, amb.size + 1)
    odd_rows = [a for a in range(1, amb.size + 1) if (a > amb.m) != (block[0] > amb.m)]
    x = amb.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        term = amb.scalar(data.draw(st.integers(1, 4)))
        for _ in range(data.draw(st.integers(1, 5))):
            row = data.draw(st.sampled_from(odd_rows + [block[0]]))
            term = term * amb.gen(row, data.draw(st.sampled_from(block)))
        x = x + term
    for k, l in [(block[0], block[2]), (block[2], block[0])]:
        assert divided_power(x, k, l) == lifted_divided_powers(x, k, l), (k, l)


# -- one-pass division -----------------------------------------------------------------


def _odd_pair_divisor(data, amb):
    """An even divisor with odd terms and a nonzero body, homogeneous or not."""
    pairs = _gens(amb)
    even = [amb.gen(i, j) for i, j in pairs if not amb.gen_parity(i, j)]
    odd = [amb.gen(i, j) for i, j in pairs if amb.gen_parity(i, j)]
    body = amb.scalar(data.draw(st.integers(1, 2)))
    for _ in range(data.draw(st.integers(0, 2))):
        body = body + data.draw(st.sampled_from(even)) ** data.draw(st.integers(1, 2))
    nil = amb.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        nil = nil + (data.draw(st.sampled_from(odd)) * data.draw(st.sampled_from(odd))
                     * data.draw(st.sampled_from(even + [amb.one()])))
    return body + nil


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_one_pass_division_equals_the_layered_route_on_odd_divisors(amb, data):
    kind = data.draw(st.sampled_from(["dminus", "odd pairs"]))
    if kind == "dminus":
        t = data.draw(st.integers(1, amb.n))
        cols = data.draw(st.permutations(range(amb.m + 1, amb.size + 1)))[:t]
        b = dminus(amb, cols).num * den_power(amb, data.draw(st.integers(0, 1)), 0)
    else:
        b = _odd_pair_divisor(data, amb)
    a = _random_poly(data, amb, max_factors=3)
    assert _outcome(lambda: exact_divide(a * b, b)) == _outcome(
        lambda: layered_exact_divide(a * b, b))
    if not odd_layer(b, 0).is_zero():
        assert exact_divide(a * b, b) == a
    # dividends b need not divide: None on both routes when it does not
    x = a * b + _random_poly(data, amb, max_terms=2, max_factors=2)
    assert _outcome(lambda: exact_divide(x, b)) == _outcome(lambda: layered_exact_divide(x, b))


def test_non_divisible_dividends_give_none_on_both_routes():
    amb = ambient(2, 2, 3)
    b = dminus(amb, (3, 4)).num
    for x in (amb.gen(1, 1), amb.gen(1, 3), amb.gen(1, 1) * b + amb.gen(2, 2)):
        assert exact_divide(x, b) is None
        assert layered_exact_divide(x, b) is None


def _localized_divisor(data, amb):
    """An even divisor with a nonzero body over D^s·D22^t, s in 0..2 and t in 0..1."""
    if data.draw(st.booleans()):
        t = data.draw(st.integers(1, amb.n))
        num = dminus(amb, data.draw(st.permutations(range(amb.m + 1, amb.size + 1)))[:t]).num
    else:
        num = _odd_pair_divisor(data, amb)
    return LocalizedElement(num, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_localized_division_equals_the_parents(amb, data):
    d = _localized_divisor(data, amb)
    a = _random_poly(data, amb, max_factors=3)
    s = data.draw(st.integers(0, 2))
    for num in (a * d.num, a * d.num + _random_poly(data, amb, max_terms=2, max_factors=2)):
        x = LocalizedElement(num, s, 0)
        assert _outcome(lambda: loc_divide_exact(x, d)) == _outcome(
            lambda: parent_loc_divide_exact(x, d))


def test_a_divisor_without_denominator_takes_no_unit_product(monkeypatch):
    amb = ambient(2, 1)
    powers = []
    real = fraction.den_power
    monkeypatch.setattr(fraction, "den_power", lambda *a: powers.append(a[1:]) or real(*a))
    b = real(amb, 1, 0) + amb.gen(1, 3) * amb.gen(3, 1)  # D plus an odd pair: no unit
    for d_exp, expect in [(0, []), (1, [(1, 0)]), (2, [(2, 0)])]:
        powers.clear()
        d = LocalizedElement(b, d_exp, 0)
        x = LocalizedElement(b * amb.gen(1, 1), 1, 0)
        q = loc_divide_exact(x, d)
        assert powers == expect
        assert q == parent_loc_divide_exact(x, d)
        assert q.num == amb.gen(1, 1) * real(amb, d_exp, 0) and q.d_exp == 1
        # c[1,1]·D^s is a multiple of b = D + ν (ν² = 0) only from s = 2 on,
        # through (D + ν)(D - ν) = D²: None on both routes below that
        y = embed_poly(amb.gen(1, 1))
        q = loc_divide_exact(y, d)
        assert (q is None) == (d_exp < 2) and q == parent_loc_divide_exact(y, d)


# -- the field view of a monomial ------------------------------------------------------


def _monomial(data, amb):
    fields = len(amb.field_gens)
    exps = [data.draw(st.sampled_from([0, 0, 1, 2, 7, EXPONENT_CAP])) for _ in range(fields)]
    return sum(e << (f * FIELD_BITS) for f, e in enumerate(exps))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3)]))
def test_field_view_helpers_equal_per_field_loops(data, size):
    amb = ambient(*size)
    mono = data.draw(st.sampled_from([0, _monomial(data, amb)]))
    assert monomial_degree(mono) == loop_monomial_degree(mono)
    assert monomial_column_content(amb, mono) == loop_column_content(amb, mono)
    assert monomial_items(amb, mono) == loop_monomial_items(amb, mono)


@pytest.mark.parametrize("byteorder", ["little", "big"])
@pytest.mark.parametrize("size", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_column_slices_read_either_byte_order(byteorder, size):
    # a 16-bit view as a machine of that byte order reads it: bytes written
    # in its order, swapped when this machine's order differs
    amb = ambient(*size)
    s = amb.size
    fields = len(amb.field_gens)
    for mono in (0, sum(min(f + 1, EXPONENT_CAP) << (f * FIELD_BITS) for f in range(fields)),
                 sum(EXPONENT_CAP << (f * FIELD_BITS) for f in range(fields))):
        view = array("H", mono.to_bytes(2 * fields, byteorder))
        if byteorder != sys.byteorder:
            view.byteswap()
        content = tuple(sum(view[cols]) for cols in column_slices(s, byteorder))
        assert content == loop_column_content(amb, mono)


# -- the row fold of weight_of ---------------------------------------------------------

# even exponents from small up to the cap: the large ones make s of them sum
# past a field once s >= 3, which sends weight_of to the field view
EVEN_EXPONENTS = [0, 0, 1, 2, 7, 1 << 12, 1 << 13, 1 << 14, EXPONENT_CAP - 1, EXPONENT_CAP]


def _even_monomial(data, amb):
    """A monomial of the ring: any exponent from EVEN_EXPONENTS on an even
    generator, 0 or 1 on an odd one."""
    exps = data.draw(st.lists(st.sampled_from(EVEN_EXPONENTS), min_size=len(amb.field_gens),
                              max_size=len(amb.field_gens)))
    odd = data.draw(st.lists(st.booleans(), min_size=len(amb.field_gens),
                             max_size=len(amb.field_gens)))
    return sum((int(o) if (i > amb.m) != (j > amb.m) else e) * amb.unit(i, j)
               for (i, j), e, o in zip(amb.field_gens, exps, odd))


def _rows_permuted(data, amb, mono):
    """The monomial with its rows permuted inside each block: every column
    keeps its content and every generator its parity."""
    s = amb.size
    blocks = [list(range(1, amb.m + 1)), list(range(amb.m + 1, s + 1))]
    target = {}
    for rows in blocks:
        target.update(zip(rows, data.draw(st.permutations(rows))))
    out = 0
    for f, (i, j) in enumerate(amb.field_gens):
        e = (mono >> (f * FIELD_BITS)) & FIELD_MASK
        out += e * amb.unit(target[i], j)
    return out


def _colliding_pair(data, amb):
    """Two monomials of different column content whose row folds agree: in
    a block of at least three rows, one column of the first sums to 2^16
    over three even generators and carries one into the next column to its
    left (from column 1 around to column s), where the second has one more."""
    blocks = [b for b in (range(1, amb.m + 1), range(amb.m + 1, amb.size + 1)) if len(b) >= 3]
    block = data.draw(st.sampled_from(blocks))
    c = data.draw(st.sampled_from(list(block)))
    left = c - 1 if c > 1 else amb.size
    row = amb.m + 1 if left > amb.m else 1  # an even generator of that column
    base = _even_monomial(data, amb)
    for i in block:
        base &= ~(FIELD_MASK * amb.unit(i, c))
    base &= ~(FIELD_MASK * amb.unit(row, left))
    rows = list(block)[:3]
    x = base + sum(e * amb.unit(i, c) for i, e in zip(rows, (EXPONENT_CAP, EXPONENT_CAP, 2)))
    y = base + amb.unit(row, left)
    return x, y


@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("m", range(1, RING_SIZE_CAP + 1))
@pytest.mark.parametrize("n", range(1, RING_SIZE_CAP + 1))
def test_weight_of_folds_rows_as_the_field_view_reads_columns(m, n, data):
    amb = ambient(m, n)
    modulus, carry = amb.row_fold
    monos = [_even_monomial(data, amb) for _ in range(data.draw(st.integers(1, 3)))]
    # the same content in another arrangement of rows
    monos.append(_rows_permuted(data, amb, monos[0]))
    for chosen in (monos[:1], monos[-2:], monos[:1] + monos[-1:], monos):
        p = SuperPolynomial(amb, {mono: 1 for mono in chosen})
        assert weight_of(p) == parent_weight_of(p)
    assert weight_of(amb.zero()) == parent_weight_of(amb.zero()) == (0,) * amb.size
    if max(m, n) >= 3:
        x, y = _colliding_pair(data, amb)
        assert x % modulus == y % modulus
        assert monomial_column_content(amb, x) != monomial_column_content(amb, y)
        assert x & carry
        pair = SuperPolynomial(amb, {x: 1, y: 1})
        assert weight_of(pair) is None and parent_weight_of(pair) is None
        assert weight_of(SuperPolynomial(amb, {x: 1})) == monomial_column_content(amb, x)


@pytest.mark.parametrize("m", range(1, RING_SIZE_CAP + 1))
@pytest.mark.parametrize("n", range(1, RING_SIZE_CAP + 1))
def test_row_fold_carry_bits_are_the_fewest_that_keep_sums_in_a_field(m, n):
    # below the carry bits s exponents sum to less than a full field; one
    # more bit allowed would let them reach it
    amb = ambient(m, n)
    s = amb.size
    _, carry = amb.row_fold
    free = FIELD_MASK & ~carry  # the allowed bits of one field, the same in each
    assert carry == sum((FIELD_MASK ^ free) << (f * FIELD_BITS) for f in range(s * s))
    assert s * free < FIELD_MASK <= s * (2 * free + 1)
    assert carry & amb.guard_mask == amb.guard_mask
