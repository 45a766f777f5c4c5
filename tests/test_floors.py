"""Floor model: exterior words with localized coefficients, the distinguished
first-floor vectors, extraction back out of the raw ring, and primitivity."""

import pytest
from hypothesis import given, settings, strategies as st

from superinduce.derivation import apply_loc, basic
from superinduce.floors_primitives import (
    FloorElement,
    divide_floor,
    embed_floor,
    extract_floors,
    fe_add,
    fe_eq,
    fe_neg,
    fe_scale,
    fe_zero,
    floor_component,
    floor_decompose,
    floor_element_to_json,
    floor_is_polynomial,
    generation_identity_check,
    highest_vector_recursion_check,
    is_primitive,
    pi_IJ,
    pi_IJ_raw,
    pi_ij,
    pi_minus,
    pi_plus,
    rank_of_floor_elements,
    search_module_combinations,
)
from superinduce.fraction import (
    LocalizedElement,
    den_power,
    embed_poly,
    loc_eq,
    loc_mul,
    loc_pow,
    loc_scale,
    loc_sum,
)
from superinduce.minors import row_initial_minor, twisted_generator, y_entry
from superinduce.superpoly import (
    UsageError,
    ambient,
    exact_divide,
    monomial_items,
    sort_with_sign,
)
from superinduce.weights_tableaux import dminus, highest_vector, make_weight


def test_normalize_pairs():
    assert sort_with_sign(()) == (1, ())
    assert sort_with_sign(((1, 3),)) == (1, ((1, 3),))
    assert sort_with_sign(((2, 3), (1, 3))) == (-1, ((1, 3), (2, 3)))
    assert sort_with_sign(((2, 4), (1, 3), (1, 4))) == (
        1,
        ((1, 3), (1, 4), (2, 4)),
    )
    sign, key = sort_with_sign(((1, 3), (1, 3)))
    assert key is None


def test_floor_element_validation():
    amb = ambient(2, 2)
    one = embed_poly(amb.one())
    with pytest.raises(UsageError):
        FloorElement(amb, 2, {((1, 3),): one})  # wrong word length
    with pytest.raises(UsageError):
        FloorElement(amb, 2, {((2, 3), (1, 3)): one})  # unsorted word
    with pytest.raises(UsageError):
        FloorElement(amb, 1, {((1, 1),): one})  # not a mixed slot
    fe = FloorElement(amb, 1, {((1, 3),): embed_poly(amb.zero())})
    assert fe.is_zero()


def test_embed_single_mixed_symbol():
    amb = ambient(2, 1)
    fe = FloorElement(amb, 1, {((1, 3),): embed_poly(amb.one())})
    assert loc_eq(embed_floor(fe), y_entry(amb, 1, 3))
    as_json = floor_element_to_json(fe)
    assert as_json[0]["pairs"] == [[1, 3]]


def test_extract_embed_roundtrip():
    amb = ambient(2, 2)
    coeff0 = loc_mul(embed_poly(amb.gen(1, 1) * amb.gen(2, 2)), dminus(amb, (3,)))
    coeff2 = LocalizedElement(amb.gen(1, 2), 1, 0)
    fe0 = FloorElement(amb, 0, {(): coeff0})
    fe2 = FloorElement(amb, 2, {((1, 3), (2, 4)): coeff2, ((1, 4), (2, 3)): coeff0})
    for fe in (fe0, fe2):
        floors = extract_floors(embed_floor(fe))
        assert floors is not None and sorted(floors) == [fe.floor]
        assert fe_eq(floors[fe.floor], fe)
    mixed = embed_floor(fe0)
    for r, part in extract_floors(mixed).items():
        assert loc_eq(embed_floor(part), mixed)  # single floor, so equal


def test_extract_rejects_lower_left_content():
    amb = ambient(1, 1)
    assert extract_floors(embed_poly(amb.gen(2, 1))) is None
    # a bare lower-right generator hides a lower-left term after the rewrite
    assert extract_floors(embed_poly(amb.gen(2, 2))) is None
    # ... but the twisted combination is exactly the floor-zero coordinate
    floors = extract_floors(dminus(amb, (2,)))
    assert floors is not None and list(floors) == [0]
    assert loc_eq(floors[0].terms[()], twisted_generator(amb, 2, 2))


def _per_monomial_extract(x):
    """Extraction term by term: every monomial's generator images multiplied
    out on their own, every piece's factors multiplied on their own.  Returns
    {floor: {word: (numerator, d_exp, d22_exp)}}, or None."""
    amb = x.ambient
    m = amb.m
    num = x.num
    if x.d22_exp:
        num = exact_divide(num, den_power(amb, 0, x.d22_exp))
        if num is None:
            return None

    def image(i, j):
        if j <= m:
            return amb.gen(i, j)
        img = amb.zero() if i <= m else amb.gen(i, j)
        for a in range(1, m + 1):
            img = img + amb.gen(i, a) * amb.gen(a, j)
        return img

    substituted = []
    for mono, c in num.terms.items():
        term = amb.scalar(c)
        for (i, j), e in monomial_items(amb, mono):
            term = term * image(i, j) ** e
        substituted.append(embed_poly(term))
    grouped = {}
    for mono, c in loc_sum(amb, substituted).num.terms.items():
        y_word, others = [], []
        for (i, j), e in monomial_items(amb, mono):
            if i > m and j <= m:
                return None
            if i <= m < j:
                y_word.append((i, j))
            else:
                others.append(((i, j), e))
        grouped.setdefault(tuple(y_word), {})[tuple(others)] = c
    floors = {}
    for key, bucket in grouped.items():
        pieces = []
        for others, c in bucket.items():
            piece = embed_poly(amb.scalar(c))
            for (i, j), e in others:
                piece = loc_mul(piece, loc_pow(twisted_generator(amb, i, j), e))
            pieces.append(piece)
        coeff = loc_sum(amb, pieces)
        if not coeff.is_zero():
            exps = (coeff.d_exp + x.d_exp, coeff.d22_exp)
            floors.setdefault(len(key), {})[key] = (coeff.num, *exps)
    return floors


def _structured_element(data, amb, lower_left: bool):
    """A sum of products of twisted generators (lower-left ones only when
    asked), over a random power of D, optionally times D22^t over D22^t."""
    m, s = amb.m, amb.size
    slots = [(i, j) for i in range(1, s + 1) for j in range(1, s + 1)
             if lower_left or not (i > m >= j)]
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        term = embed_poly(amb.scalar(data.draw(st.integers(-3, 3))))
        for _ in range(data.draw(st.integers(0, 3))):
            term = loc_mul(term, twisted_generator(amb, *data.draw(st.sampled_from(slots))))
        terms.append(term)
    x = loc_sum(amb, terms)
    x = LocalizedElement(x.num, x.d_exp + data.draw(st.integers(0, 1)), x.d22_exp)
    if data.draw(st.booleans()):  # mixed directions keep a structured element structured
        k = data.draw(st.integers(1, m))
        x = apply_loc(basic(k, data.draw(st.integers(m + 1, s))), x)
    t = data.draw(st.integers(0, 2))
    if t:
        x = LocalizedElement(x.num * den_power(amb, 0, t), x.d_exp, x.d22_exp + t)
    return x


def _as_triples(floors):
    return {
        r: {key: (c.num, c.d_exp, c.d22_exp) for key, c in fe.terms.items()}
        for r, fe in floors.items()
    }


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 1)]), st.sampled_from([0, 3]))
def test_extract_floors_matches_per_monomial_extraction(data, size, char):
    amb = ambient(*size, char)
    x = _structured_element(data, amb, lower_left=data.draw(st.booleans()))
    if data.draw(st.booleans()):  # a D22 exponent the numerator need not clear
        x = LocalizedElement(x.num, x.d_exp, x.d22_exp + 1)
    expected = _per_monomial_extract(x)
    got = extract_floors(x)
    assert (None if got is None else _as_triples(got)) == expected


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("size", [(2, 1), (1, 2), (2, 2), (3, 1)])
def test_extract_floors_matches_per_monomial_extraction_on_each_outcome(size, char):
    amb = ambient(*size, char)
    m = amb.m
    structured = loc_mul(twisted_generator(amb, 1, m + 1), twisted_generator(amb, m + 1, m + 1))
    cleared = LocalizedElement(structured.num * den_power(amb, 0, 2), structured.d_exp, 2)
    for x in (structured, cleared):
        got = extract_floors(x)
        assert _as_triples(got) == _per_monomial_extract(x)
        assert list(got) == [1] and list(got[1].terms) == [((1, m + 1),)]
        assert loc_eq(got[1].terms[((1, m + 1),)], twisted_generator(amb, m + 1, m + 1))
    for x in (embed_poly(amb.gen(m + 1, 1) * amb.gen(1, m + 1)),
              LocalizedElement(structured.num, 0, 1)):
        assert _per_monomial_extract(x) is None
        assert extract_floors(x) is None


def test_pi_smallest_case():
    amb = ambient(1, 1)
    w = make_weight((1,), (0,))
    fe = pi_ij(amb, w, 1, 1)
    assert list(fe.terms) == [((1, 2),)]
    assert loc_eq(fe.terms[((1, 2),)], embed_poly(amb.gen(1, 1)))
    # c[1,1]·y[1,2] multiplies out to the raw mixed generator
    assert loc_eq(embed_floor(fe), embed_poly(amb.gen(1, 2)))


@pytest.mark.parametrize(
    "plus,minus",
    [((3, 1), (1, 0)), ((1, -1), (1, 0))],
)
def test_pi_leading_term_and_height(plus, minus):
    amb = ambient(2, 2)
    w = make_weight(plus, minus)
    v = highest_vector(amb, w)
    for i in (1, 2):
        for j in (1, 2):
            fe = pi_ij(amb, w, i, j)
            lead = ((i, 2 + j),)
            assert loc_eq(fe.terms[lead], v)
            for key in fe.terms:
                if key != lead:
                    # the height of a word is the sum of its j - i
                    assert sum(b - a for a, b in key) < sum(b - a for a, b in lead)


def test_pi_precondition_messages():
    amb = ambient(2, 2)
    with pytest.raises(UsageError, match="plus entries 1 and 2 coincide"):
        pi_ij(amb, make_weight((2, 2), (1, 0)), 1, 1)
    with pytest.raises(UsageError, match="last plus entry is zero"):
        pi_ij(amb, make_weight((2, 0), (1, 0)), 2, 1)
    with pytest.raises(UsageError, match="minus entries 1 and 2 coincide"):
        pi_ij(amb, make_weight((2, 1), (1, 1)), 1, 2)


def test_pi_one_row_transcriptions_match():
    amb = ambient(2, 1)
    w = make_weight((3, 1), (2,))
    for i in (1, 2):
        assert fe_eq(pi_plus(amb, w, i), pi_ij(amb, w, i, 1))
    amb2 = ambient(1, 2)
    for w2 in (make_weight((2,), (1, 0)), make_weight((-1,), (2, 0))):
        for j in (1, 2):
            assert fe_eq(pi_minus(amb2, w2, j), pi_ij(amb2, w2, 1, j))


def test_pi_family_singleton_matches_first_floor():
    amb = ambient(2, 2)
    w = make_weight((3, 1), (1, 0))
    for i in (1, 2):
        for j in (1, 2):
            fam = pi_IJ(amb, w, (i,), (j,))
            assert fam is not None
            assert fe_eq(fam, pi_ij(amb, w, i, j))


def _expected_combination(amb):
    d3 = embed_poly(row_initial_minor(amb, (1, 2)) ** 3)
    dm3, dm4 = dminus(amb, (3,)), dminus(amb, (4,))
    return FloorElement(
        amb,
        2,
        {
            ((1, 3), (2, 3)): loc_scale(loc_mul(d3, dm4), 2),
            ((1, 3), (2, 4)): loc_scale(loc_mul(d3, dm3), -1),
            ((1, 4), (2, 3)): loc_scale(loc_mul(d3, dm3), -1),
        },
    )


def test_equal_plus_rows_need_a_combination():
    amb = ambient(2, 2)
    w = make_weight((3, 3), (1, 0))
    # individually the two admissible families fall outside the module
    assert pi_IJ(amb, w, (1, 2), (1, 2)) is None
    assert pi_IJ(amb, w, (1, 2), (2, 1)) is None
    raw_a, defect_a = pi_IJ_raw(amb, w, (1, 2), (1, 2))
    raw_b, defect_b = pi_IJ_raw(amb, w, (1, 2), (2, 1))
    assert loc_eq(defect_a, defect_b)
    assert loc_eq(defect_a, embed_poly(amb.gen(1, 1)))
    combo = divide_floor(fe_add(fe_neg(raw_a), fe_neg(raw_b)), defect_a)
    assert combo is not None
    assert fe_eq(combo, _expected_combination(amb))
    assert floor_is_polynomial(combo)
    assert is_primitive(combo)
    found = search_module_combinations([raw_a, raw_b], defect_a, bound=1)
    assert any(vec == (1, 1) for vec, _ in found)
    assert all(vec not in ((1, 0), (0, 1)) for vec, _ in found)


def test_equal_minus_rows_need_the_other_combination():
    amb = ambient(2, 2)
    w = make_weight((3, 2), (1, 1))
    assert pi_IJ(amb, w, (1, 2), (1, 2)) is None
    assert pi_IJ(amb, w, (1, 2), (2, 1)) is None
    raw_a, defect = pi_IJ_raw(amb, w, (1, 2), (1, 2))
    raw_b, defect_b = pi_IJ_raw(amb, w, (1, 2), (2, 1))
    assert loc_eq(defect, defect_b)
    assert loc_eq(defect, dminus(amb, (3,)))
    combo = divide_floor(fe_add(raw_a, fe_neg(raw_b)), defect)
    assert combo is not None
    d2 = embed_poly(row_initial_minor(amb, (1, 2)) ** 2)
    coeff = loc_mul(embed_poly(amb.gen(1, 1)), loc_mul(d2, dminus(amb, (3, 4))))
    expected = FloorElement(
        amb,
        2,
        {
            ((1, 3), (2, 4)): coeff,
            ((1, 4), (2, 3)): loc_scale(coeff, -1),
            ((2, 3), (2, 4)): loc_scale(
                loc_mul(embed_poly(amb.gen(1, 2)), loc_mul(d2, dminus(amb, (3, 4)))), 2
            ),
        },
    )
    assert fe_eq(combo, expected)
    found = search_module_combinations([raw_a, raw_b], defect, bound=1)
    assert any(vec == (1, -1) for vec, _ in found)


def test_first_floor_eigenvalues():
    amb = ambient(2, 2)
    w = make_weight((2, 1), (1, 0))
    from superinduce.floors_primitives import phi_floor

    omegas = {(1, 1): 4, (1, 2): 2, (2, 1): 2, (2, 2): 0}
    for (i, j), om in omegas.items():
        fe = pi_ij(amb, w, i, j)
        out = phi_floor(fe)
        assert fe_eq(out, fe_scale(fe, om)), (i, j)
    assert phi_floor(pi_ij(amb, w, 2, 2)).is_zero()


def test_first_floor_map_respects_even_action():
    amb = ambient(2, 2)
    w = make_weight((2, 1), (1, 0))
    from superinduce.floors_primitives import phi_floor

    def even_action(fe, k, l):
        floors = extract_floors(apply_loc(basic(k, l), embed_floor(fe)))
        assert floors is not None
        return floor_component(floors, amb, fe.floor)

    x = pi_ij(amb, w, 1, 1)
    for k, l in ((1, 2), (2, 1), (3, 4), (4, 3), (1, 1), (3, 3)):
        assert fe_eq(phi_floor(even_action(x, k, l)), even_action(phi_floor(x), k, l))


def test_exterior_order_anticommutes():
    amb = ambient(2, 2)
    w = make_weight((2, 1), (1, 0))
    v = highest_vector(amb, w)
    a = apply_loc(basic(2, 4), apply_loc(basic(1, 3), v))
    b = apply_loc(basic(1, 3), apply_loc(basic(2, 4), v))
    assert loc_eq(a, loc_scale(b, -1))


def test_generation_identity_spot():
    amb = ambient(2, 2)
    w = loc_mul(embed_poly(row_initial_minor(amb, (1, 2))), dminus(amb, (3, 4)))
    for k in (1, 2):
        for l in (3, 4):
            assert generation_identity_check(amb, w, k, l)


def test_highest_vector_recursion():
    amb = ambient(2, 2)
    for w in (make_weight((2, 1), (1, 0)), make_weight((3, 1), (2, 2))):
        for k in (1, 2):
            for l in (3, 4):
                assert highest_vector_recursion_check(amb, w, k, l)


def test_is_primitive_examples():
    amb = ambient(2, 2)
    w = make_weight((2, 1), (1, 0))
    v = highest_vector(amb, w)
    assert is_primitive(FloorElement(amb, 0, {(): v}))
    for i in (1, 2):
        for j in (1, 2):
            assert is_primitive(pi_ij(amb, w, i, j)), (i, j)
    amb21 = ambient(2, 1)
    w21 = make_weight((2, 1), (0,))
    v21 = highest_vector(amb21, w21)
    assert not is_primitive(FloorElement(amb21, 1, {((1, 3),): v21}))
    mixed_weight = FloorElement(
        amb21, 1, {((1, 3),): v21, ((2, 3),): embed_poly(amb21.one())}
    )
    with pytest.raises(UsageError, match="weight-homogeneous"):
        is_primitive(mixed_weight)


def test_is_primitive_char_p():
    ambp = ambient(2, 1, 3)
    wp = make_weight((2, 1), (1,))
    for i in (1, 2):
        assert is_primitive(pi_ij(ambp, wp, i, 1))
    vp = highest_vector(ambp, wp)
    assert not is_primitive(FloorElement(ambp, 1, {((1, 3),): vp}))


def test_floor_decompose_roundtrips():
    amb = ambient(2, 2)
    w = make_weight((2, 1), (1, 0))
    v = highest_vector(amb, w)
    got = floor_decompose(v, w)
    assert got is not None and len(got) == 1 and got[0].floor == 0
    assert loc_eq(got[0].terms[()], v)
    single = FloorElement(amb, 1, {((1, 3),): v})
    got = floor_decompose(embed_floor(single), w)
    assert got is not None and len(got) == 1
    assert fe_eq(got[0], single)
    fe = pi_ij(amb, w, 1, 1)
    got = floor_decompose(embed_floor(fe), w)
    assert got is not None and len(got) == 1
    assert fe_eq(got[0], fe)


def test_floor_decompose_rejects_wrong_weight():
    amb = ambient(2, 2)
    w = make_weight((2, 1), (1, 0))
    assert floor_decompose(embed_poly(amb.gen(1, 1)), w) is None


def test_rank_of_family_with_fixed_content():
    amb = ambient(2, 2)
    w = make_weight((5, 3), (1, 0))
    a = pi_IJ(amb, w, (1, 2), (1, 2))
    b = pi_IJ(amb, w, (1, 2), (2, 1))
    assert a is not None and b is not None
    assert rank_of_floor_elements([a, b]) == 2
    assert rank_of_floor_elements([a, fe_scale(a, 2)]) == 1
    assert rank_of_floor_elements([fe_zero(amb, 2)]) == 0
