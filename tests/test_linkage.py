"""Block-combinatorics layer: grid entries, the half-sum weight, linkage
predicates, and the chain searches."""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from superinduce.linkage import (
    ALL,
    CHAIN_NODE_CAP,
    bilinear_form,
    block_key,
    d_exponent,
    donkin_linked,
    dot_equivalent,
    even_linked,
    in_alcove,
    is_typical,
    link_chain_search,
    odd_linked,
    omega,
    omega_grid,
    omega_via_form,
    rho_weight,
)
from superinduce.superpoly import UsageError
from superinduce.weights_tableaux import (
    lambda_ij,
    make_weight,
    random_dominant_weight,
    weight_add,
)
from shape_oracle import nakayama_consequence_check, normalize_berezinian


def test_omega_grid_examples():
    w = make_weight((2, 1), (1, 0))
    assert omega(w, 2, 2) == 0
    assert omega_grid(w) == [[4, 2], [2, 0]]
    assert not is_typical(w)
    w2 = make_weight((2, 2), (0, 0))
    assert omega_grid(w2) == [[3, 2], [2, 1]]
    assert is_typical(w2)
    assert not is_typical(w2, 3)
    with pytest.raises(UsageError):
        omega(w, 3, 1)
    with pytest.raises(UsageError):
        is_typical(w, 4)


def test_rho_closed_forms():
    assert rho_weight(2, 1) == (0, -1, 1)
    assert rho_weight(1, 2) == (-1, 1, 0)
    assert rho_weight(2, 2) == (
        Fraction(-1, 2),
        Fraction(-3, 2),
        Fraction(3, 2),
        Fraction(1, 2),
    )
    # construction re-derives from the root lists, so a few more sizes
    for m, n in ((1, 1), (3, 2), (2, 3), (4, 1)):
        assert len(rho_weight(m, n)) == m + n


def test_omega_bridge_and_twist_invariance():
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        w = random_dominant_weight(m, n, rng, max_entry=6)
        i, j = rng.randint(1, m), rng.randint(1, n)
        assert omega_via_form(w, i, j) == omega(w, i, j)
        t = rng.randint(-3, 3)
        twisted = weight_add(w, make_weight((t,) * m, (-t,) * n))
        assert omega(twisted, i, j) == omega(w, i, j)
    # the normalization shift is a twist, so the grid is stable under it
    w = make_weight((2, 1), (1, 1))
    shifted, twist = normalize_berezinian(w)
    assert twist == 1
    assert omega_grid(shifted) == omega_grid(w)


def test_d_exponent_examples():
    assert d_exponent((1, 0), 5) == 0
    assert d_exponent((4, 0), 5) == 1
    assert d_exponent((24, 0), 5) == 2
    assert d_exponent((7,), 3) == ALL
    assert d_exponent((3, 4), 3) == ALL  # difference exactly -1: vacuous at all powers
    assert d_exponent((2, 0, 0), 3) == 0


def test_donkin_examples():
    assert donkin_linked((5, 2, 0), (5, 2, 0), 3)
    assert donkin_linked((1, 0), (4, 3), 3)
    assert not donkin_linked((1, 0), (2, 0), 3)
    assert not donkin_linked((4, 0), (1, 0), 5)  # d-exponents 1 vs 0
    assert donkin_linked((5,), (5,), 3)
    assert not donkin_linked((5,), (8,), 3)  # single entries compare exactly
    with pytest.raises(UsageError):
        donkin_linked((1, 0), (1,), 3)


def test_donkin_is_an_equivalence_on_small_sets():
    for p in (3, 5):
        for k in (2, 3):
            weights = [
                tuple(sorted(c, reverse=True))
                for c in combinations_with_replacement(range(7), k)
            ]
            keys = {}
            for mu in weights:
                d = d_exponent(mu, p)
                if d == ALL:
                    keys[mu] = (ALL, tuple(sorted(v - i for i, v in enumerate(mu, 1))))
                else:
                    mod = p ** (d + 1)
                    keys[mu] = (
                        d,
                        tuple(sorted((v - i) % mod for i, v in enumerate(mu, 1))),
                    )
            for mu in weights:
                for nu in weights:
                    assert donkin_linked(mu, nu, p) == (keys[mu] == keys[nu])


def test_even_linked_conjunction():
    p = 3
    a = make_weight((1, 0), (0,))
    assert even_linked(a, a, p)
    assert even_linked(a, make_weight((4, 3), (0,)), p)
    assert not even_linked(a, make_weight((4, 3), (1,)), p)


def test_single_shift_residue_transport():
    # every even-linked pair of single-index shifts carries matching shifted
    # residues, and the grid entries vanish mod p together
    p = 3
    found = 0
    entries = range(0, 4)
    for lp1 in entries:
        for lp2 in range(0, lp1 + 1):
            for lm1 in entries:
                for lm2 in range(0, lm1 + 1):
                    w = make_weight((lp1, lp2), (lm1, lm2))
                    shifts = [
                        (i, j)
                        for i in (1, 2)
                        for j in (1, 2)
                        if all(
                            a >= b
                            for a, b in zip(
                                lambda_ij(w, i, j).plus, lambda_ij(w, i, j).plus[1:]
                            )
                        )
                        and all(
                            a >= b
                            for a, b in zip(
                                lambda_ij(w, i, j).minus, lambda_ij(w, i, j).minus[1:]
                            )
                        )
                    ]
                    for (i, j) in shifts:
                        for (k, l) in shifts:
                            if (i, j) >= (k, l):
                                continue
                            if not even_linked(
                                lambda_ij(w, i, j), lambda_ij(w, k, l), p
                            ):
                                continue
                            found += 1
                            assert (w.plus[i - 1] - i) % p == (w.plus[k - 1] - k) % p
                            assert (w.minus[j - 1] - j) % p == (
                                w.minus[l - 1] - l
                            ) % p
                            assert nakayama_consequence_check(w, i, j, k, l, p)
    assert found > 0


def test_odd_linked_cases():
    p = 3
    w = make_weight((2, 1), (1, 0))
    ok, witness = odd_linked(w, (), (), p)
    assert ok and witness == ((), ())
    ok, witness = odd_linked(w, (2,), (2,), p)
    assert ok and witness == ((2,), (2,))
    ok, witness = odd_linked(w, (1,), (1,), p)
    assert not ok and witness is None
    # a family whose identity ordering fails but a rearrangement succeeds
    w2 = make_weight((2, 1), (2, 0))
    ok, witness = odd_linked(w2, (1, 2), (1, 1), p)
    assert ok
    assert witness == ((2, 1), (1, 1))
    with pytest.raises(UsageError):
        odd_linked(w2, (1, 1), (1, 2), p)  # shifted weight not dominant


def _odd_linked_brute(w, I, J, p):
    """Every pair of rearrangements in product order, repeats included; the
    first that vanishes step by step is the witness."""
    for perm_i in permutations(I):
        for perm_j in permutations(J):
            cur = w
            for a, b in zip(perm_i, perm_j):
                if omega(cur, a, b) % p != 0:
                    break
                cur = lambda_ij(cur, a, b)
            else:
                return True, (perm_i, perm_j)
    return False, None


def test_odd_linked_matches_brute_force_on_verdict_and_witness():
    rng = random.Random(11)
    verdicts = set()
    checked = 0
    while checked < 200:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        p = rng.choice((3, 5, 7))
        w = random_dominant_weight(m, n, rng, max_entry=8)
        k = rng.randint(1, 4)
        I = tuple(sorted(rng.randint(1, m) for _ in range(k)))
        J = tuple(rng.randint(1, n) for _ in range(k))
        try:
            got = odd_linked(w, I, J, p)
        except UsageError:
            continue  # an endpoint is not dominant
        assert got == _odd_linked_brute(w, I, J, p), (w, I, J, p)
        verdicts.add(got[0])
        checked += 1
    assert verdicts == {True, False}


def test_alcove_examples():
    assert in_alcove(make_weight((0,), (0,)), 3)
    assert in_alcove(make_weight((1, 0), (0,)), 5)
    assert in_alcove(make_weight((3, 0), (0,)), 5)
    assert not in_alcove(make_weight((4, 0), (0,)), 5)  # boundary hits p exactly
    assert not in_alcove(make_weight((5, 0), (0,)), 5)
    # for a dominant weight the lower bound is automatic; a swapped pair hits 0
    assert in_alcove(make_weight((1, 1), (0, 0)), 5)
    assert not in_alcove(make_weight((0, 1), (0, 0)), 5)


def test_dot_equivalence():
    p = 5
    a = make_weight((3, 1), (2, 0))
    assert dot_equivalent(a, a, p)
    # reflected pair inside one block: swap shifted entries
    b = make_weight((0, 4), (2, 0))  # (3-1, 1-2) vs (0-1, 4-2) as multisets mod 5
    assert dot_equivalent(a, b, p)
    # translation by p in one coordinate
    c = make_weight((8, 1), (2, 0))
    assert dot_equivalent(a, c, p)
    assert not dot_equivalent(a, make_weight((2, 1), (2, 0)), p)


def test_link_chain_search():
    p = 3
    w = make_weight((2, 1), (1, 0))
    assert link_chain_search(w, w, p, 0) == []
    target = lambda_ij(w, 2, 2)  # the only vanishing grid entry
    assert link_chain_search(w, target, p, 2) == [(2, 2)]
    far = make_weight((17, 9), (5, 3))
    assert link_chain_search(w, far, p, 3) is None


def test_bilinear_form_signature():
    assert bilinear_form((1, 0, 0), (1, 0, 0), 2, 1) == 1
    assert bilinear_form((0, 0, 1), (0, 0, 1), 2, 1) == -1
    assert bilinear_form((0, 1, 0), (0, 0, 1), 2, 1) == 0
    with pytest.raises(UsageError):
        bilinear_form((1, 0), (1, 0, 0), 2, 1)


def _donkin_linked_by_comparison(mu, nu, p):
    """Donkin linkage of two blocks as it was decided before block keys: the
    d-exponents first, then the sorted shifted entries, reduced mod p^(d+1)
    unless the d-exponent is ALL."""
    da, db = d_exponent(mu, p), d_exponent(nu, p)
    if da != db:
        return False
    shifted_mu = [v - i for i, v in enumerate(mu, start=1)]
    shifted_nu = [v - i for i, v in enumerate(nu, start=1)]
    if da == ALL:
        return sorted(shifted_mu) == sorted(shifted_nu)
    mod = p ** (da + 1)
    return sorted(v % mod for v in shifted_mu) == sorted(v % mod for v in shifted_nu)


@st.composite
def _block_pairs(draw):
    """A prime, a block, and a second block of the same length: drawn on its
    own, or rebuilt from the first one's shifted entries (permuted, each moved
    by a multiple of p^(d+1)) so that linked pairs come up often."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.integers(1, 4))

    def block():
        entries = [draw(st.integers(-10, 40))]
        for _ in range(k - 1):
            # the step a - b + 1 between neighbours: 0 is vacuous at every
            # power (all steps 0 give d = ALL), u * p^e has d-exponent e
            step = draw(st.integers(-2, 2)) * p ** draw(st.integers(0, 3))
            entries.append(entries[-1] + 1 - step)
        return tuple(entries)

    mu = block()
    if draw(st.booleans()):
        return p, mu, block()
    d = d_exponent(mu, p)
    shifted = draw(st.permutations([v - i for i, v in enumerate(mu, start=1)]))
    if d != ALL:
        mod = p ** (d + 1)
        shifted = [v + mod * draw(st.integers(-2, 2)) for v in shifted]
    return p, mu, tuple(v + i for i, v in enumerate(shifted, start=1))


@settings(max_examples=400, deadline=None)
@given(_block_pairs())
@example((3, (3, 4, 5), (3, 4, 5)))  # d = ALL, linked
@example((3, (3, 4, 5), (1, 2, 3)))  # d = ALL, not linked
@example((5, (4, 0), (29, 0)))  # d = 1 on both sides
@example((7, (6, 0), (1, 0)))  # d = 1 against d = 0
@example((3, (9, 1, 0), (9, 1, 0)))  # d = 2 on the first step
def test_block_key_equality_is_donkin_linkage(case):
    p, mu, nu = case
    assert (block_key(mu, p) == block_key(nu, p)) == _donkin_linked_by_comparison(mu, nu, p)
    assert donkin_linked(mu, nu, p) == _donkin_linked_by_comparison(mu, nu, p)


def test_block_key_examples():
    assert block_key((3, 4, 5), 3) == (ALL, (2, 2, 2))
    assert block_key((7,), 5) == (ALL, (6,))
    # (4, 0) at p = 5: step 5, d = 1, shifted (3, -2) mod 25
    assert block_key((4, 0), 5) == (1, (3, 23))
    assert block_key((1, 0), 3) == (0, (0, 1))


def _chain_search_keeping_chains(w, target, p, max_steps):
    """link_chain_search as it ran before parent links: every queued weight
    carries its whole chain."""
    queue = deque([(w, ())])
    visited = {w}
    while queue:
        node, chain = queue.popleft()
        if dot_equivalent(node, target, p):
            return list(chain)
        if len(chain) >= max_steps:
            continue
        for i in range(1, w.m + 1):
            for j in range(1, w.n + 1):
                if omega(node, i, j) != 0:
                    continue
                nxt = lambda_ij(node, i, j)
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append((nxt, chain + ((i, j),)))
    return None


def test_chain_search_equals_the_search_keeping_chains():
    rng = random.Random(29)
    found = 0
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        w = random_dominant_weight(m, n, rng, max_entry=3)
        target = random_dominant_weight(m, n, rng, max_entry=3)
        p = rng.choice([3, 5])
        steps = rng.randint(0, 5)
        chain = link_chain_search(w, target, p, steps)
        assert chain == _chain_search_keeping_chains(w, target, p, steps), (w, target, p)
        found += chain is not None
    assert 0 < found < 300


def test_chain_search_stops_at_the_node_cap():
    w = make_weight((2, 1), (1, 0))
    with pytest.raises(UsageError, match=f"cap of {CHAIN_NODE_CAP} weights"):
        link_chain_search(w, make_weight((0, 0), (0, 0)), 3, 10 ** 6)
