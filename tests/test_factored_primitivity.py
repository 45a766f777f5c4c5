"""Primitivity of a floor vector decided on its weight-free map.

`is_primitive` decides a factored vector (`FloorElement.factored`) on its
per-ring map alone and caches the verdict per ring and map; the prefactor it
skips is a product of nested leading minors and of D.  Every first-floor
vector `pi_ij` and every higher-floor vector is factored.  Every verdict must
be the parent's, `builder_oracle.parent_is_primitive`, which embeds the vector
with its coefficients multiplied out, and a first-floor vector must write what
the parent's eager builder `builder_oracle.parent_pi_ij` writes.  The premise
is checked on its own:
every factor the prefactor can hold is killed by every divided power of
every simple lowering direction.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from superinduce.derivation import divided_power
from superinduce.floors_primitives import (
    FloorElement,
    divide_floor,
    embed_floor,
    floor_element_to_json,
    is_primitive,
    pi_IJ,
    pi_IJ_raw,
    pi_ij,
)
from superinduce.fraction import den_power, embed_poly
from superinduce.superpoly import Ambient, UsageError, ambient
from superinduce.weights_tableaux import is_admissible_pair, is_robust, leading_minor_power
from builder_oracle import parent_is_primitive, parent_pi_ij, simple_lowering_directions
from test_acceptance import _eigenvalue_sweep_weights, _pair_families
from test_defect_division import _families, _weight

SIZES = [(2, 1), (1, 2), (2, 2), (3, 1)]
CHARS = [0, 3, 5]


def _multiplied_out(x):
    """An eager copy of x: the same coefficients, no factored map."""
    return FloorElement(x.ambient, x.floor, dict(x.terms), x.render_exp)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SIZES), st.sampled_from(CHARS), st.data())
def test_factored_verdicts_are_the_parents(size, char, data):
    amb = Ambient(*size, char)  # fresh: nothing cached yet
    w = _weight(data, amb)  # plus entries down to -1
    families = _families(amb, w)  # up to three pairs
    if not families:
        return
    I, J = data.draw(st.sampled_from(families))
    raw, defect = pi_IJ_raw(amb, w, I, J)
    divided = divide_floor(raw, defect)
    vectors = [raw] if divided is None else [raw, divided]
    expected = [parent_is_primitive(_multiplied_out(x)) for x in vectors]
    assert [is_primitive(x) for x in vectors] == expected
    # warm: the verdicts come from the cache, on vectors built again
    raw, defect = pi_IJ_raw(amb, w, I, J)
    divided = divide_floor(raw, defect)
    vectors = [raw] if divided is None else [raw, divided]
    assert [is_primitive(x) for x in vectors] == expected


def _verdict(decide, x):
    """decide(x), or the message of the UsageError it raises."""
    try:
        return decide(x)
    except UsageError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SIZES), st.sampled_from(CHARS), st.data())
def test_first_floor_verdicts_and_output_are_the_parents(size, char, data):
    amb = Ambient(*size, char)  # fresh: nothing cached yet
    w = _weight(data, amb)  # plus entries down to -1
    i = data.draw(st.integers(1, amb.m))
    j = data.draw(st.integers(1, amb.n))
    try:
        vec = pi_ij(amb, w, i, j)
    except UsageError:
        assume(False)  # the vector is undefined at this cell
    assert vec.factored is not None
    expected = _verdict(parent_is_primitive, _multiplied_out(vec))
    assert _verdict(is_primitive, vec) == expected
    # warm: the verdict comes from the cache, on a vector built again
    assert _verdict(is_primitive, pi_ij(amb, w, i, j)) == expected
    assert floor_element_to_json(vec) == floor_element_to_json(parent_pi_ij(amb, w, i, j))


def test_criterion_8_robust_families_are_primitive_on_both_routes():
    checked = 0
    for char in (0, 3, 5):
        amb = ambient(2, 2, char)
        for w in _eigenvalue_sweep_weights():
            for I, J in _pair_families(2, 2, 4):
                if not (is_admissible_pair(w, I, J) and is_robust(w, I, J)):
                    continue
                vec = pi_IJ(amb, w, I, J)
                assert vec.factored is not None
                assert is_primitive(vec) is parent_is_primitive(_multiplied_out(vec)) is True
                checked += 1
    assert checked > 0


def _planted(amb, words, key):
    """A factored floor-one vector: prefactor one over the map that puts
    coefficient one on each word."""
    one = embed_poly(amb.one())
    return FloorElement(amb, 1, None, None, (one, {(pair,): one for pair in words}, key))


@pytest.mark.parametrize("char", CHARS)
def test_a_map_that_fails_one_odd_direction_only_is_not_primitive(char):
    # y[2,4] at (2,2): the even direction d[2,1] fixes row 2 of y, and the
    # odd direction d[4,3] sends y[2,4] to y[2,3]
    amb = Ambient(2, 2, char)
    x = _planted(amb, [(2, 4)], ("planted", "odd"))
    emb = embed_floor(_multiplied_out(x))
    assert divided_power(emb.num, 2, 1).is_zero()
    assert not divided_power(emb.num, 4, 3).is_zero()
    assert parent_is_primitive(_multiplied_out(x)) is False
    for _ in range(2):  # fresh, then from the cache
        assert is_primitive(x) is False


@pytest.mark.parametrize("char", CHARS)
def test_an_inhomogeneous_map_raises_on_every_call(char):
    # y[2,3] and y[2,4] have different column contents
    amb = Ambient(2, 2, char)
    x = _planted(amb, [(2, 3), (2, 4)], ("planted", "inhomogeneous"))
    with pytest.raises(UsageError, match="weight-homogeneous"):
        parent_is_primitive(_multiplied_out(x))
    for _ in range(2):
        with pytest.raises(UsageError, match="weight-homogeneous"):
            is_primitive(x)
    assert amb._cache[("primitive", ("planted", "inhomogeneous"))] is None


# -- the premise: the prefactor is killed by every lowering divided power -------------


def _prefactor_factors(amb):
    """Each factor minor_power_product can multiply in: a power of a plus
    leading minor below the full one, of a minus leading minor, and of D;
    powers up to p, or up to 3 in characteristic 0."""
    top = amb.char or 3
    for e in range(1, top + 1):
        for a in range(1, amb.m):
            yield ("plus", a, e), leading_minor_power(amb, "plus", a, e).num
        for b in range(1, amb.n + 1):
            yield ("minus", b, e), leading_minor_power(amb, "minus", b, e).num
        yield ("D", e), den_power(amb, e, 0)


@pytest.mark.parametrize("size", [(1, 1), *SIZES])
@pytest.mark.parametrize("char", CHARS)
def test_every_prefactor_factor_is_killed_by_every_lowering_direction(size, char):
    amb = ambient(*size, char)
    directions = simple_lowering_directions(amb)
    for name, factor in _prefactor_factors(amb):
        for k, l in directions:
            assert divided_power(factor, k, l).is_zero(), (size, char, name, k, l)
    if amb.m >= 2:
        # the check can fail: c[1,2], a minor that is not leading, survives
        assert not divided_power(amb.gen(1, 2), 2, 1).is_zero()
