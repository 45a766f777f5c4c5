"""The floor vectors in lowest terms in D against the unreduced builders.

The floor builders keep each per-ring factor in lowest terms and render every
coefficient over the exponent of the unreduced product of minors.  Raised to
that exponent, each coefficient of `pi_ij`, of `pi_IJ_raw`'s element and
defect, and the highest vector must equal the `parent_*` builder's numerator
term for term, and `divide_floor` must decide every division as the parent
route does, including the weights whose gaps do not absorb a family.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from superinduce.floors_primitives import (
    defect_exponent,
    divide_floor,
    fe_add,
    fe_scale,
    pi_IJ_raw,
    pi_ij,
    rendered_terms,
)
from superinduce.fraction import LocalizedElement, det_block11, lowest_terms, raised_to
from superinduce.superpoly import InternalError, UsageError, ambient
from superinduce.weights_tableaux import (
    exponent_ledger,
    highest_vector,
    is_admissible_pair,
    is_robust,
    ledger_exponent,
    make_weight,
    parse_weight,
)
from builder_oracle import (
    parent_divide_floor,
    parent_highest_vector,
    parent_pi_IJ_raw,
    parent_pi_ij,
)

SIZES = [(2, 1), (1, 2), (2, 2), (3, 1)]
CHARS = [0, 3, 5]
RINGS = st.builds(lambda size, char: ambient(*size, char),
                  st.sampled_from(SIZES), st.sampled_from(CHARS))


def _weight(data, amb):
    # a negative last plus entry puts the full even-block minor D in the
    # denominator
    plus = sorted((data.draw(st.integers(-1, 3)) for _ in range(amb.m)), reverse=True)
    minus = sorted((data.draw(st.integers(0, 3)) for _ in range(amb.n)), reverse=True)
    return make_weight(plus, minus)


def _families(amb, w):
    pairs = [(i, j) for i in range(1, amb.m + 1) for j in range(1, amb.n + 1)]
    families = [(tuple(i for i, _ in f), tuple(j for _, j in f))
                for k in range(1, 4) for f in combinations(pairs, k)]
    return [f for f in families if is_admissible_pair(w, *f)]


def _same_terms(x, parent):
    """x, raised to parent's exponent, equals parent term for term."""
    got = raised_to(x, parent.d_exp)
    return (got.num.terms, got.d_exp, got.d22_exp) == (
        parent.num.terms, parent.d_exp, parent.d22_exp)


def _renders_as(x, parent) -> bool:
    """Every coefficient of the floor element as written equals the parent's."""
    rendered = rendered_terms(x)
    return rendered.keys() == parent.terms.keys() and all(
        (c.num.terms, c.d_exp, c.d22_exp) == (p.num.terms, p.d_exp, p.d22_exp)
        for c, p in ((rendered[k], parent.terms[k]) for k in rendered))


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_first_floor_vectors_render_as_the_unreduced_route(amb, data):
    w = _weight(data, amb)
    if w.minus[-1] < 0:
        return
    parent = parent_highest_vector(amb, w)
    assert _same_terms(highest_vector(amb, w), parent)
    assert ledger_exponent(*exponent_ledger(w)) == parent.d_exp
    i = data.draw(st.integers(1, amb.m))
    j = data.draw(st.integers(1, amb.n))
    try:
        vec = pi_ij(amb, w, i, j)
    except UsageError:
        return  # the vector is undefined at this cell
    assert _renders_as(vec, parent_pi_ij(amb, w, i, j))


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_higher_floor_vectors_and_divisions_match_the_unreduced_route(amb, data):
    w = _weight(data, amb)
    families = _families(amb, w)
    if not families:
        return
    I, J = data.draw(st.sampled_from(families))
    raw, defect = pi_IJ_raw(amb, w, I, J)
    parent_raw, parent_defect = parent_pi_IJ_raw(amb, w, I, J)
    assert _renders_as(raw, parent_raw)
    assert _same_terms(defect, parent_defect)
    assert defect_exponent(w, I, J) == parent_defect.d_exp
    quotient = divide_floor(raw, defect)
    parent_quotient = parent_divide_floor(parent_raw, parent_defect)
    assert (quotient is None) == (parent_quotient is None)
    if quotient is not None:
        assert _renders_as(quotient, parent_quotient)
    # a sum of two families, of equal or different exponents, writes the
    # parent's sum
    I2, J2 = data.draw(st.sampled_from(families))
    raw2, _ = pi_IJ_raw(amb, w, I2, J2)
    if len(I2) == len(I):
        parent2, _ = parent_pi_IJ_raw(amb, w, I2, J2)
        combo = fe_add(raw, fe_scale(raw2, 2))
        parent_combo = fe_add(parent_raw, fe_scale(parent2, 2))
        assert _renders_as(combo, parent_combo)


@pytest.mark.parametrize("char", CHARS)
def test_non_robust_divisions_fail_as_the_unreduced_route(char):
    # every admissible family of up to three pairs of five (2,2) weights:
    # the robust ones divide, and the others fail or divide exactly where
    # the unreduced route does
    amb = ambient(2, 2, char)
    outcomes = set()
    for text in ("[3,2|1,1]", "[2,2|1,0]", "[2,1|1,0]", "[2,0|2,1]", "[1,1|1,1]"):
        w = parse_weight(text)
        for I, J in _families(amb, w):
            divided = divide_floor(*pi_IJ_raw(amb, w, I, J)) is not None
            assert divided == (parent_divide_floor(*parent_pi_IJ_raw(amb, w, I, J)) is not None)
            if is_robust(w, I, J):
                assert divided
            outcomes.add(divided)
    assert outcomes == {True, False}


def test_lowest_terms_divides_only_while_exact():
    amb = ambient(2, 1, 0)
    d = det_block11(amb)
    x = LocalizedElement(d * d * amb.gen(1, 1), 3, 0)
    assert lowest_terms(x) == LocalizedElement(amb.gen(1, 1), 1, 0)
    assert lowest_terms(LocalizedElement(d, 1, 0)) == LocalizedElement(amb.one(), 0, 0)
    with pytest.raises(InternalError, match="lower power"):
        raised_to(x, 2)
