"""Defect divisions decided on the per-ring rho product, against the parent route.

`pi_IJ_raw` returns its cleared vector factored, as a prefactor over the
per-ring rho product of the family, and `divide_floor` divides that map by
the defect once per ring before it multiplies anything out.  Every outcome
and every written coefficient must be the parent's, whose builders multiply
each coefficient out unreduced and divide it (`builder_oracle`), including
the weights whose gaps do not absorb a family, and through the combination
search.  The rendered vectors, defects and quotients of the benchmark's
recorded divisions must hash as they did before the factored route.  Where
the defect does not divide the rho product's map, the multiplied-out vector
can still divide, at its own exponent or only over D^render_exp: that
fallback and its retry decide outcomes at (2,3) in char 3.
"""

import hashlib
import json
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

from superinduce.floors_primitives import (
    defect_exponent,
    divide_floor,
    floor_element_to_json,
    pi_IJ_raw,
    search_module_combinations,
)
from superinduce.fraction import loc_divide_exact, raised_to, render_loc
from superinduce.superpoly import Ambient, ambient
from superinduce.weights_tableaux import is_admissible_pair, make_weight, parse_weight
from builder_oracle import parent_divide_floor, parent_pi_IJ_raw

SIZES = [(2, 1), (1, 2), (2, 2), (3, 1)]
CHARS = [0, 3, 5]
RINGS = st.builds(lambda size, char: ambient(*size, char),
                  st.sampled_from(SIZES), st.sampled_from(CHARS))
# the parent-equality rings: (2,3) as well, in char 3, where the fallback of
# divide_floor decides outcomes
PARENT_RINGS = st.builds(lambda size, char: ambient(*size, 3 if size == (2, 3) else char),
                         st.sampled_from(SIZES + [(2, 3)]), st.sampled_from(CHARS))
FLOORS = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "floors.json"


def _weight(data, amb):
    # equal neighbouring entries make weights that are not robust for some
    # families, whose divisions fail; a negative last plus entry puts D in
    # the denominator
    plus = sorted((data.draw(st.integers(-1, 3)) for _ in range(amb.m)), reverse=True)
    minus = sorted((data.draw(st.integers(0, 3)) for _ in range(amb.n)), reverse=True)
    return make_weight(plus, minus)


def _families(amb, w, sizes=range(1, 4)):
    pairs = [(i, j) for i in range(1, amb.m + 1) for j in range(1, amb.n + 1)]
    families = [(tuple(i for i, _ in f), tuple(j for _, j in f))
                for k in sizes for f in combinations(pairs, k)]
    return [f for f in families if is_admissible_pair(w, *f)]


def _written(x):
    return None if x is None else floor_element_to_json(x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(PARENT_RINGS, st.data())
def test_divisions_write_what_the_parent_route_writes(amb, data):
    w = _weight(data, amb)
    families = _families(amb, w)
    if not families:
        return
    I, J = data.draw(st.sampled_from(families))
    raw, defect = pi_IJ_raw(amb, w, I, J)
    parent_raw, parent_defect = parent_pi_IJ_raw(amb, w, I, J)
    # divided before the cleared vector is ever read, then written; and a
    # second division of the same vector, which reads the cached quotient
    quotient = divide_floor(raw, defect)
    assert _written(quotient) == _written(parent_divide_floor(parent_raw, parent_defect))
    assert _written(divide_floor(raw, defect)) == _written(quotient)
    assert floor_element_to_json(raw) == floor_element_to_json(parent_raw)


# the two divisions at (2,3) in char 3 that the multiplied-out vector decides
# after the rho map's division failed, for the family (1,1,2|1,2,3): the
# first divides at each coefficient's own exponent, the second only over
# D^render_exp
FALLBACK_FAMILY = ((1, 1, 2), (1, 2, 3))
FALLBACK_DIVISIONS = [("[2,0|2,2,1]", 7, True), ("[2,0|1,1,0]", 4, False)]


def test_the_fallback_and_its_retry_decide_divisions_at_2_3():
    for text, render_exp, first_attempt in FALLBACK_DIVISIONS:
        amb = Ambient(2, 3, 3)  # fresh: nothing cached yet
        w = parse_weight(text)
        raw, defect = pi_IJ_raw(amb, w, *FALLBACK_FAMILY)
        assert raw.render_exp == render_exp
        quotient = divide_floor(raw, defect)
        assert amb._cache[("rhoquotient", raw.factored[2], defect)] is None, text
        assert quotient is not None, text
        assert first_attempt == all(
            loc_divide_exact(c, defect) is not None for c in raw.terms.values()), text
        parent = parent_divide_floor(*parent_pi_IJ_raw(amb, w, *FALLBACK_FAMILY))
        assert _written(quotient) == _written(parent), text


@settings(max_examples=40, deadline=None, derandomize=True)
@given(RINGS, st.data())
def test_combination_searches_find_what_the_parent_route_finds(amb, data):
    w = _weight(data, amb)
    k = data.draw(st.integers(1, 3))
    families = _families(amb, w, sizes=[k])
    if not families:
        return
    chosen = data.draw(st.lists(st.sampled_from(families), min_size=1, max_size=2, unique=True))
    raws = [pi_IJ_raw(amb, w, I, J) for I, J in chosen]
    parents = [parent_pi_IJ_raw(amb, w, I, J) for I, J in chosen]
    found = search_module_combinations([r for r, _ in raws], raws[0][1], bound=1)
    expected = search_module_combinations([r for r, _ in parents], parents[0][1], bound=1)
    assert [(vec, _written(x)) for vec, x in found] == [
        (vec, _written(x)) for vec, x in expected]


# sha256 of the written cleared vector, defect and quotient of every divide
# and primitive-IJ entry of the benchmark pool (279 entries), cold and then
# warm, recorded before the cleared vectors were factored
POOL_DIGEST = "2c3924ebacff478833e215d2ad7225bcbba1d6d17bc498cf0db612196193785a"


def test_pool_divisions_write_the_recorded_bytes():
    entries = [e for e in json.loads(FLOORS.read_text())["entries"]
               if e["kind"] == "divide" or e.get("form") == "IJ"]
    assert len(entries) == 279
    rings = {}  # rings of their own, so the first pass starts cold
    digest = hashlib.sha256()
    for _ in ("cold", "warm"):
        for e in entries:
            w = parse_weight(e["weight"])
            amb = rings.setdefault((w.m, w.n, e["char"]), Ambient(w.m, w.n, e["char"]))
            I, J = map(tuple, e["family"])
            raw, defect = pi_IJ_raw(amb, w, I, J)
            quotient = divide_floor(raw, defect)
            digest.update(json.dumps([
                floor_element_to_json(raw),
                render_loc(raised_to(defect, defect_exponent(w, I, J))),
                _written(quotient),
            ]).encode())
    assert digest.hexdigest() == POOL_DIGEST
