"""The weight-free floor data built once per ring: each cached family against
the per-call builders of `builder_oracle`, cached values (the rho products,
the one-pair maps of the first-floor vectors among them, the rho products
divided by a defect, the divisions that failed, and the primitivity verdicts
on those maps) never mutated by a caller, and the termination bound of the
oracle's divided-power loop."""

from itertools import combinations
from math import factorial
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from superinduce.floors_primitives import (
    FloorElement,
    divide_floor,
    embed_floor,
    fe_eq,
    fe_scale,
    is_primitive,
    phi_floor,
    pi_IJ,
    pi_IJ_raw,
    pi_ij,
    rho_product,
    search_module_combinations,
    y_word,
)
from superinduce.fraction import LocalizedElement, embed_poly
from superinduce.linkage import omega
from superinduce.superpoly import Ambient, InternalError, UsageError, ambient
from superinduce.weights_tableaux import (
    is_admissible_pair,
    leading_minor_power,
    make_weight,
    minor_power_product,
)
import builder_oracle
from builder_oracle import (
    fresh_embed_floor,
    fresh_minor_power,
    fresh_minor_power_product,
    fresh_pi_IJ_raw,
    fresh_rho_pair,
    fresh_rho_product,
    fresh_y_word,
    lift,
)
from ring_oracle import total_degree

SIZES = [(2, 1), (1, 2), (2, 2), (3, 1)]
CHARS = [0, 3]
RINGS = st.builds(lambda size, char: ambient(*size, char),
                  st.sampled_from(SIZES), st.sampled_from(CHARS))
CACHED_FAMILIES = ("rhoproduct", "minorpow", "yword")
# a per-ring map divided by a defect, or None where a division failed
QUOTIENTS = "rhoquotient"
# is_primitive's verdict on a factored vector's map, None where the map is
# not weight-homogeneous
VERDICTS = "primitive"


def _pairs(amb):
    """The (plus, relative minus) index pairs of the ring, in family order."""
    return [(i, j) for i in range(1, amb.m + 1) for j in range(1, amb.n + 1)]


def _family(data, amb, max_size=3):
    """An ordered family: a nonempty set of index pairs, sorted."""
    pairs = _pairs(amb)
    size = data.draw(st.integers(1, min(max_size, len(pairs))))
    chosen = sorted(data.draw(st.permutations(pairs))[:size])
    return tuple(i for i, _ in chosen), tuple(j for _, j in chosen)


def _word(data, amb, max_size=3):
    """A nonempty exterior word: sorted distinct mixed slots."""
    slots = [(i, amb.m + j) for i, j in _pairs(amb)]
    size = data.draw(st.integers(1, min(max_size, len(slots))))
    return tuple(sorted(data.draw(st.permutations(slots))[:size]))


def _weight(data, amb):
    plus = sorted((data.draw(st.integers(0, 3)) for _ in range(amb.m)), reverse=True)
    minus = sorted((data.draw(st.integers(0, 3)) for _ in range(amb.n)), reverse=True)
    return make_weight(plus, minus)


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_rho_pairs_equal_fresh_builds(amb, data):
    i, j = data.draw(st.sampled_from(_pairs(amb)))
    cached = rho_product(amb, (i,), (j,))
    assert isinstance(cached, MappingProxyType)
    assert dict(cached) == {(pair,): c for pair, c in fresh_rho_pair(amb, i, j).items()}


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_rho_products_equal_fresh_builds(amb, data):
    I, J = _family(data, amb)
    cached = rho_product(amb, I, J)
    assert isinstance(cached, MappingProxyType)
    assert dict(cached) == fresh_rho_product(amb, I, J)


@pytest.mark.parametrize("size", SIZES)
def test_the_empty_family_maps_the_empty_word_to_one(size):
    amb = Ambient(*size, 3)
    cached = rho_product(amb, (), ())
    assert isinstance(cached, MappingProxyType)
    assert dict(cached) == fresh_rho_product(amb, (), ()) == {(): embed_poly(amb.one())}


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_minor_powers_equal_fresh_builds(amb, data):
    block = data.draw(st.sampled_from(["plus", "minus"]))
    size = data.draw(st.integers(1, amb.m if block == "plus" else amb.n))
    e = data.draw(st.integers(1, 4))
    assert leading_minor_power(amb, block, size, e) == fresh_minor_power(amb, block, size, e)
    plus = [data.draw(st.integers(0, 2)) for _ in range(amb.m - 1)] + [data.draw(st.integers(-2, 2))]
    minus = [data.draw(st.integers(0, 2)) for _ in range(amb.n)]
    assert minor_power_product(amb, plus, minus) == fresh_minor_power_product(amb, plus, minus)


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_y_words_equal_fresh_builds(amb, data):
    key = _word(data, amb)
    assert y_word(amb, key) == fresh_y_word(amb, key)
    # a floor element with a coefficient on each of a few words of one length
    words = {_word(data, amb, max_size=len(key)) for _ in range(3)}
    terms = {
        w: LocalizedElement(amb.scalar(data.draw(st.integers(1, 2))) * amb.gen(1, 1) ** k, k, 0)
        for k, w in enumerate(sorted(words)) if len(w) == len(key)
    }
    x = FloorElement(amb, len(key), terms)
    assert embed_floor(x) == fresh_embed_floor(x)


@settings(max_examples=60, deadline=None)
@given(RINGS, st.data())
def test_higher_floor_vectors_equal_fresh_builds(amb, data):
    w = _weight(data, amb)
    families = [
        (tuple(i for i, _ in f), tuple(j for _, j in f))
        for k in range(1, 4) for f in combinations(_pairs(amb), k)
    ]
    admissible = [f for f in families if is_admissible_pair(w, *f)]
    if not admissible:
        return
    I, J = data.draw(st.sampled_from(admissible))
    raw, defect = pi_IJ_raw(amb, w, I, J)
    fresh_raw, fresh_defect = fresh_pi_IJ_raw(amb, w, I, J)
    assert raw.terms == fresh_raw.terms
    assert defect == fresh_defect


def _freeze(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, LocalizedElement):
        return tuple(sorted(value.num.terms.items())), value.d_exp, value.d22_exp
    return tuple(sorted((key, _freeze(c)) for key, c in value.items()))


def _snapshot(amb):
    return {
        key: _freeze(value)
        for key, value in amb._cache.items()
        if isinstance(key, tuple) and key[0] in (*CACHED_FAMILIES, QUOTIENTS, VERDICTS)
    }


def _run_floor_paths(amb, w):
    """The eigenvalue, primitivity and defect-division paths at every cell
    where the first-floor vector is defined and every admissible family of
    up to three pairs of w."""
    for i, j in _pairs(amb):
        try:
            vec = pi_ij(amb, w, i, j)
        except UsageError:
            continue  # equal neighbouring entries leave this cell undefined
        # factored over the one-pair rho product, the map its verdict is on
        assert vec.factored[1] is rho_product(amb, (i,), (j,))
        image = phi_floor(vec)
        assert fe_eq(image, fe_scale(vec, omega(w, i, j)))
        is_primitive(vec)
    raws = []
    for k in range(1, 4):
        for f in combinations(_pairs(amb), k):
            I, J = tuple(i for i, _ in f), tuple(j for _, j in f)
            if not is_admissible_pair(w, I, J):
                continue
            raw, defect = pi_IJ_raw(amb, w, I, J)
            divided = divide_floor(raw, defect)
            if divided is not None:
                assert fe_eq(divided, pi_IJ(amb, w, I, J))
                is_primitive(divided)
            raws.append((raw, defect))
    search_module_combinations([raws[0][0]], raws[0][1])


def _check_cached_data_stays(amb, w):
    """Run the floor paths twice on a ring of the test's own: the second
    pass leaves every cached entry as the first built it.  Returns the
    snapshot."""
    _run_floor_paths(amb, w)
    before = _snapshot(amb)
    assert {key[0] for key in before} - {QUOTIENTS} == {*CACHED_FAMILIES, VERDICTS}
    # the first-floor vectors' one-pair maps, and the verdicts on them
    one_pair = [key for key in before if key[0] == "rhoproduct" and len(key[1]) == 1]
    assert any((VERDICTS, key) in before for key in one_pair)
    _run_floor_paths(amb, w)
    assert _snapshot(amb) == before
    for key, value in amb._cache.items():
        if isinstance(key, tuple) and key[0] in ("rhoproduct", QUOTIENTS) and value is not None:
            assert isinstance(value, MappingProxyType)
            with pytest.raises(TypeError):
                value[()] = embed_poly(amb.one())
    return before


@pytest.mark.parametrize("size, char, plus, minus", [
    ((2, 2), 3, (3, 1), (2, 0)),
    ((2, 2), 0, (2, 1), (1, 0)),
    ((2, 1), 5, (3, 1), (2,)),
    ((1, 2), 0, (3,), (2, 1)),
])
def test_callers_never_mutate_cached_floor_data(size, char, plus, minus):
    _check_cached_data_stays(Ambient(*size, char), make_weight(plus, minus))


def test_callers_never_mutate_cached_rho_quotients_or_failures():
    # [3,2|1,1] at (2,2) in char 3: some rho products divide by their
    # family's defect and some do not, and each outcome is cached, a
    # failure as None
    snapshot = _check_cached_data_stays(Ambient(2, 2, 3), make_weight((3, 2), (1, 1)))
    quotients = [value for key, value in snapshot.items() if key[0] == QUOTIENTS]
    assert None in quotients
    assert any(value is not None for value in quotients)


def test_callers_never_mutate_cached_verdicts_or_inhomogeneous_outcomes():
    # a factored vector whose map is not weight-homogeneous, y[1,2] + y[1,3]
    # at (1,2): its outcome is cached as None, which raises on every call
    amb = Ambient(1, 2, 3)
    one = embed_poly(amb.one())
    key = ("planted", "inhomogeneous")
    planted = FloorElement(amb, 1, None, None, (one, {((1, 2),): one, ((1, 3),): one}, key))
    for _ in range(2):
        with pytest.raises(UsageError, match="weight-homogeneous"):
            is_primitive(planted)
        snapshot = _check_cached_data_stays(amb, make_weight((3,), (2, 1)))
        assert snapshot[(VERDICTS, key)] is None
    assert any(value is True for k, value in snapshot.items() if k[0] == VERDICTS)


def test_divided_power_loop_stops_at_the_parents_bound(monkeypatch):
    # an operator that never reaches zero, and whose divided powers all
    # vanish mod 3, keeps the oracle's loop going until the bound: the total
    # degree of the lifted element plus one powers, then InternalError
    amb = ambient(2, 1, 3)
    emb = embed_floor(pi_ij(amb, make_weight((2, 1), (1,)), 1, 1))
    bound = total_degree(lift(emb.num)) + 1
    assert bound < 30
    never_zero = embed_poly(ambient(2, 1, 0).scalar(3 * factorial(30)))
    calls = []

    def operator(op, u):
        calls.append(op)
        return never_zero

    monkeypatch.setattr(builder_oracle, "apply_loc", operator)
    with pytest.raises(InternalError, match="failed to terminate"):
        builder_oracle.divided_powers_vanish(emb, 2, 1)
    assert len(calls) == bound


def test_one_power_reads_no_degree(monkeypatch):
    # in char 0 the oracle's loop ends after the first power, before the
    # bound is read
    amb = ambient(2, 2, 0)
    emb = embed_floor(pi_ij(amb, make_weight((3, 1), (2, 0)), 1, 1))
    degrees = []
    real = builder_oracle.total_degree
    monkeypatch.setattr(builder_oracle, "total_degree",
                        lambda p: degrees.append(p) or real(p))
    assert builder_oracle.divided_powers_vanish(emb, 2, 1)
    assert degrees == []
