"""The one Leibniz determinant, `superpoly.det`, against the loops it replaced
(`builder_oracle`): the localized loop `loc_det` on even entries, the
parent's generator loop `parent_leibniz_det` on matrices with odd entries,
and the cycle-length sign `parent_perm_sign` against `sort_with_sign`."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from builder_oracle import loc_det, parent_leibniz_det, parent_perm_sign
import superinduce.weights_tableaux as weights_tableaux
from superinduce.fraction import LocalizedElement, embed_poly
from superinduce.superpoly import (
    DET_CAP,
    Ambient,
    InternalError,
    UsageError,
    ambient,
    det,
    sort_with_sign,
)

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3)]
CHARS = [0, 3, 5]
RINGS = st.builds(lambda size, char: ambient(*size, char),
                  st.sampled_from(SIZES), st.sampled_from(CHARS))


def _even_entry(data, amb):
    """A sum of up to two terms, each a scalar times an even generator, a
    product of two odd generators, or 1; the sum may be zero."""
    gens = list(product(range(1, amb.size + 1), repeat=2))
    even = [amb.gen(i, j) for i, j in gens if not amb.gen_parity(i, j)]
    odd = [amb.gen(i, j) for i, j in gens if amb.gen_parity(i, j)]
    out = amb.zero()
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["even", "odd pair", "one"]))
        if kind == "even":
            term = data.draw(st.sampled_from(even))
        elif kind == "odd pair":
            term = data.draw(st.sampled_from(odd)) * data.draw(st.sampled_from(odd))
        else:
            term = amb.one()
        out = out + term.scale(data.draw(st.integers(-2, 2)))
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(RINGS, st.data())
def test_det_equals_the_parent_loops(amb, data):
    t = data.draw(st.integers(0, min(3, amb.size)))
    # even localized entries, each row over its own D^s·D22^u: every product
    # of the Leibniz sum sits over the row exponents' sums
    exps = [(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))) for _ in range(t)]
    nums = [[_even_entry(data, amb) for _ in range(t)] for _ in range(t)]
    entries = [[LocalizedElement(x, *e) for x in row] for row, e in zip(nums, exps)]
    expect = loc_det(amb, entries)
    got = LocalizedElement(det(amb, nums), sum(s for s, _ in exps), sum(u for _, u in exps))
    assert (got.num, got.d_exp, got.d22_exp) == (expect.num, expect.d_exp, expect.d22_exp)
    # a generator matrix, odd entries included, in the row order of the draw
    t = data.draw(st.integers(1, min(3, amb.size)))
    rows = data.draw(st.permutations(range(1, amb.size + 1)))[:t]
    cols = data.draw(st.permutations(range(1, amb.size + 1)))[:t]
    gens = [[amb.gen(r, c) for c in cols] for r in rows]
    assert det(amb, gens) == parent_leibniz_det(amb, rows, cols)
    # the sign of a permutation
    perm = data.draw(st.integers(0, 6).flatmap(lambda k: st.permutations(range(k))))
    assert sort_with_sign(perm)[0] == parent_perm_sign(perm)


def test_sort_with_sign_is_the_permutation_sign():
    for k in range(7):
        for perm in permutations(range(k)):
            assert sort_with_sign(perm)[0] == parent_perm_sign(perm)


def test_det_caps_and_shapes():
    amb = ambient(1, 1)
    one = amb.one()
    with pytest.raises(UsageError, match="DET_CAP"):
        det(amb, [[one] * (DET_CAP + 1) for _ in range(DET_CAP + 1)])
    with pytest.raises(UsageError, match="square"):
        det(amb, [[one, one]])
    assert det(amb, []) == one
    # odd entries: the row order fixes the sign
    x, y, zero = amb.gen(1, 2), amb.gen(2, 1), amb.zero()
    assert det(amb, [[x, zero], [zero, y]]) == x * y == -(y * x)
    assert det(amb, [[zero, x], [y, zero]]) == -(x * y)


def test_dminus_needs_twisted_generators_over_d(monkeypatch):
    amb = Ambient(1, 1)  # a cache of its own, so dminus builds afresh
    monkeypatch.setattr(weights_tableaux, "twisted_generator",
                        lambda amb, k, l: embed_poly(amb.gen(k, l)))
    with pytest.raises(InternalError, match="not over D"):
        weights_tableaux.dminus(amb, (2,))
