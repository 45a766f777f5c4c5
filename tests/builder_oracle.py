"""The per-call builders that the per-ring caches replaced, kept only as test
oracles.

Each function rebuilds its value from the ring's primitives on every call, the
way the floor builders did before their weight-free parts moved into
`Ambient.cached`: the rho factors, the signed rho product of a family, the
leading-minor powers, the y entries of an exterior word multiplied into a
coefficient one at a time, and the higher-floor vector with its defect.  The
layered division is the route `exact_divide` took for every divisor before
a divisor with no odd terms got one leading-term division over the whole
dividend.
"""

from superinduce.floors_primitives import FloorElement
from superinduce.fraction import (
    LocalizedElement,
    embed_poly,
    loc_mul,
    loc_pow,
    loc_scale,
    loc_sum,
)
from superinduce.minors import row_initial_minor, y_entry
from superinduce.superpoly import (
    InternalError,
    UsageError,
    _commutative_divide,
    _odd_layer,
    monomial_odd_degree,
    sort_with_sign,
)
from superinduce.weights_tableaux import (
    dminus,
    exponent_ledger,
    is_admissible_pair,
    is_dominant,
)


def fresh_rho_pair(amb, i, j) -> dict:
    m, n = amb.m, amb.n
    if not (1 <= i <= m and 1 <= j <= n):
        raise UsageError("rho indices out of range")
    out = {}
    for r in range(i, m + 1):
        left = embed_poly(row_initial_minor(amb, tuple(range(1, i)) + (r,)))
        if left.is_zero():
            continue
        for s in range(1, j + 1):
            cols = tuple(m + u for u in range(1, j + 1) if u != s)
            coeff = loc_mul(left, dminus(amb, cols))
            if (s + j) % 2 == 1:
                coeff = loc_scale(coeff, -1)
            if not coeff.is_zero():
                out[(r, m + s)] = coeff
    return out


def fresh_rho_product(amb, I, J) -> dict:
    words = {(): embed_poly(amb.one())}
    for i_s, j_s in zip(I, J):
        factor = fresh_rho_pair(amb, i_s, j_s)
        new: dict = {}
        for word, c in words.items():
            for pair, c2 in factor.items():
                sign, merged = sort_with_sign(word + (pair,))
                if merged is None:
                    continue
                add = loc_mul(c, c2)
                new.setdefault(merged, []).append(add if sign > 0 else loc_scale(add, -1))
        words = {key: loc_sum(amb, pieces) for key, pieces in new.items()}
    return words


def fresh_minor_power(amb, block, size, e):
    if block == "plus":
        return loc_pow(embed_poly(row_initial_minor(amb, range(1, size + 1))), e)
    return loc_pow(dminus(amb, range(amb.m + 1, amb.m + size + 1)), e)


def fresh_minor_power_product(amb, plus_exps, minus_exps):
    out = embed_poly(amb.one())
    for a, e in enumerate(plus_exps, start=1):
        if e < 0:
            out = loc_mul(out, LocalizedElement(amb.one(), -e, 0))
        elif e:
            out = loc_mul(out, fresh_minor_power(amb, "plus", a, e))
    for b, e in enumerate(minus_exps, start=1):
        if e:
            out = loc_mul(out, fresh_minor_power(amb, "minus", b, e))
    return out


def fresh_y_word(amb, key):
    out = embed_poly(amb.one())
    for i, j in key:
        out = loc_mul(out, y_entry(amb, i, j))
    return out


def fresh_embed_floor(x):
    amb = x.ambient
    pieces = []
    for key, term in x.terms.items():
        for i, j in key:
            term = loc_mul(term, y_entry(amb, i, j))
        pieces.append(term)
    return loc_sum(amb, pieces)


def fresh_pi_IJ_raw(amb, w, I, J):
    I, J = tuple(I), tuple(J)
    assert is_dominant(w) and is_admissible_pair(w, I, J) and w.minus[-1] >= 0
    m = amb.m
    plus_exps, minus_exps = exponent_ledger(w)
    for i_s, j_s in zip(I, J):
        plus_exps[i_s - 1] -= 1
        if j_s > 1:
            minus_exps[j_s - 2] -= 1
    defect = embed_poly(amb.one())
    pos_plus, pos_minus = [], []
    for a, e in enumerate(plus_exps, start=1):
        if e < 0 and a < m:
            defect = loc_mul(defect, fresh_minor_power(amb, "plus", a, -e))
            pos_plus.append(0)
        else:
            pos_plus.append(e)
    for b, e in enumerate(minus_exps, start=1):
        if e < 0:
            defect = loc_mul(defect, fresh_minor_power(amb, "minus", b, -e))
            pos_minus.append(0)
        else:
            pos_minus.append(e)
    v_pos = fresh_minor_power_product(amb, pos_plus, pos_minus)
    words = fresh_rho_product(amb, I, J)
    terms = {key: loc_mul(v_pos, c) for key, c in words.items()}
    return FloorElement(amb, len(I), terms), defect


def layered_exact_divide(a, b):
    """a/b by the layered route for every divisor, or None when b does not
    divide a."""
    amb = a.ambient
    b0 = _odd_layer(b, 0)
    if b0.is_zero():
        raise UsageError("divisor is a zero divisor (its even-generator body vanishes)")
    quo = amb.zero()
    rem = a
    max_layers = 2 * amb.m * amb.n + 1
    for _ in range(max_layers + 1):
        if rem.is_zero():
            break
        k = min(monomial_odd_degree(amb, mo) for mo in rem.terms)
        part = _commutative_divide(_odd_layer(rem, k), b0)
        if part is None:
            return None
        quo = quo + part
        rem = rem - part * b
        if not rem.is_zero():
            new_k = min(monomial_odd_degree(amb, mo) for mo in rem.terms)
            if new_k <= k:
                return None
    else:
        raise InternalError("layered division failed to terminate")
    if not (quo * b - a).is_zero():
        raise InternalError("division verification failed")
    return quo
