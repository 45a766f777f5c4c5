"""The routes that faster or cached ones replaced, kept only as test oracles.

Each floor builder rebuilds its value from the ring's primitives on every
call, the way the floor builders did before their weight-free parts moved into
`Ambient.cached`: the rho factors, the signed rho product of a family, the
leading-minor powers, the y entries of an exterior word multiplied into a
coefficient one at a time, and the higher-floor vector with its defect.  The
`parent_*` builders multiply every minor out unreduced, each power of a
dminus minor by `loc_pow` over D to its size times the power, as the floor
builders did before they kept their factors in lowest terms in D; their
exponents are the ones output renders.  The `fresh_*` builders follow the
construction in lowest terms: each rho factor, rho product and minus power is
the parent's value reduced by `lowest_terms` (a lowest form is unique, since
D is a nonzerodivisor), and the full even-block minor's power only moves the
exponent of D.

The integral lift runs a divided power the long way: the coefficients are
read in Q, the basic operator is iterated, the factorial is divided off, and
the result is lowered back into F_p; `lifted_divided_powers` sums the lifted
powers as `derivation.divided_power` does, and the divided-power loop of
primitivity runs one power at a time, up to a degree bound.
The layered division divides layer by layer in the number of odd factors,
each layer one graded-lexicographic leading-term division by the divisor's
odd-free body.  The per-field loops read a packed monomial's exponents one
16-bit field at a time, and `parent_weight_of` reads every term's column
content through a 16-bit view of the monomial, with no fold of its rows.

The parent's primitivity test `parent_is_primitive` embeds the vector with
every coefficient multiplied out, tests its weight and applies every divided
power of each simple lowering direction, listed here on its own, to the whole
numerator, whatever the vector's prefactor.

The minus bideterminant folds its columns' dminus minors together with
loc_mul and leaves the product over D to the total column length.

The parent's quotient rule takes a diagonal d[k,k] through the basic
derivation on the numerator, dN, and subtracts λ·N; its localized divisions
multiply the dividend by the divisor's denominator power even when that power
is the unit.

The determinants are the two Leibniz loops that `superpoly.det` replaced:
`parent_leibniz_det` over generators and `loc_det` over localized entries,
each taking a permutation's sign from its cycle lengths (`parent_perm_sign`)
rather than from `sort_with_sign`.

The parent's product loop `parent_dot` runs the left operand's terms
outermost and tests every pair of terms for a shared odd generator and a
Koszul sign, whatever their odd parts.

The sweep kernels are the parent routes of the admissibility test and the
partition transpose: `parent_is_admissible_pair` builds the family's content
and the shifted weight as `Weight` objects, and `parent_transpose` counts the
parts longer than each column with one generator sum per column.
`parent_wedge_content_holds` tests the wedge hypotheses of a content on the
whole weight in one pass, before they split into a plus half and a minus
half.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import permutations
from math import factorial

from superinduce.derivation import _d_poly, _den_derivative, apply_loc, basic, divided_power
from superinduce.floors_primitives import FloorElement, embed_floor
from superinduce.fraction import (
    LocalizedElement,
    det_block11,
    det_block22,
    den_power,
    embed_poly,
    loc_divide_exact,
    loc_eq,
    loc_mul,
    loc_pow,
    loc_scale,
    loc_sum,
    loc_weight,
    lowest_terms,
)
from superinduce.minors import row_initial_minor, y_entry
from superinduce.superpoly import (
    FIELD_BITS,
    FIELD_MASK,
    InternalError,
    SuperPolynomial,
    UsageError,
    ambient,
    check_det_size,
    check_exponents,
    dot,
    exact_divide,
    koszul_mask,
    monomial_column_content,
    monomial_odd_degree,
    sort_with_sign,
)
from superinduce.weights_tableaux import (
    absorbs_content,
    dminus,
    exponent_ledger,
    is_admissible_pair,
    is_dominant,
    is_ordered_family,
    lambda_IJ,
    tableau_columns,
)
from ring_oracle import total_degree


# -- the unreduced floor builders -------------------------------------------------


def parent_rho_pair(amb, i, j) -> dict:
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


def parent_rho_product(amb, I, J) -> dict:
    words = {(): embed_poly(amb.one())}
    for i_s, j_s in zip(I, J):
        factor = parent_rho_pair(amb, i_s, j_s)
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


def parent_minor_power(amb, block, size, e):
    if block == "plus":
        return loc_pow(embed_poly(row_initial_minor(amb, range(1, size + 1))), e)
    return loc_pow(dminus(amb, range(amb.m + 1, amb.m + size + 1)), e)


def parent_minor_power_product(amb, plus_exps, minus_exps):
    out = embed_poly(amb.one())
    for a, e in enumerate(plus_exps, start=1):
        if e < 0:
            out = loc_mul(out, LocalizedElement(amb.one(), -e, 0))
        elif e:
            out = loc_mul(out, parent_minor_power(amb, "plus", a, e))
    for b, e in enumerate(minus_exps, start=1):
        if e:
            out = loc_mul(out, parent_minor_power(amb, "minus", b, e))
    return out


def fold_bideterminant_minus(amb, t):
    out = embed_poly(amb.one())
    for col in tableau_columns(t):
        out = loc_mul(out, dminus(amb, col))
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


def parent_highest_vector(amb, w):
    return parent_minor_power_product(amb, *exponent_ledger(w))


def parent_pi_ij(amb, w, i, j):
    plus_exps, minus_exps = exponent_ledger(w)
    plus_exps[i - 1] -= 1
    if j > 1:
        minus_exps[j - 2] -= 1
    prefactor = parent_minor_power_product(amb, plus_exps, minus_exps)
    return FloorElement(amb, 1, {(pair,): loc_mul(prefactor, c)
                                 for pair, c in parent_rho_pair(amb, i, j).items()})


def parent_pi_IJ_raw(amb, w, I, J):
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
            defect = loc_mul(defect, parent_minor_power(amb, "plus", a, -e))
            pos_plus.append(0)
        else:
            pos_plus.append(e)
    for b, e in enumerate(minus_exps, start=1):
        if e < 0:
            defect = loc_mul(defect, parent_minor_power(amb, "minus", b, -e))
            pos_minus.append(0)
        else:
            pos_minus.append(e)
    v_pos = parent_minor_power_product(amb, pos_plus, pos_minus)
    words = parent_rho_product(amb, I, J)
    terms = {key: loc_mul(v_pos, c) for key, c in words.items()}
    return FloorElement(amb, len(I), terms), defect


def parent_divide_floor(x, defect):
    if loc_eq(defect, embed_poly(x.ambient.one())):
        return x
    out = {}
    for key, c in x.terms.items():
        q = loc_divide_exact(c, defect)
        if q is None:
            return None
        out[key] = q
    return FloorElement(x.ambient, x.floor, out)


def simple_lowering_directions(amb):
    """d[l+1,l] for each pair of neighbouring columns inside one block."""
    return ([(l + 1, l) for l in range(1, amb.m)]
            + [(l + 1, l) for l in range(amb.m + 1, amb.m + amb.n)])


def parent_is_primitive(x):
    """Primitivity on the embedded vector, its coefficients multiplied out:
    the weight test, then every divided power of every simple lowering
    direction on the whole numerator."""
    emb = embed_floor(x)
    if loc_weight(emb) is None:
        raise UsageError("primitivity is defined for weight-homogeneous elements")
    return all(divided_power(emb.num, k, l).is_zero()
               for k, l in simple_lowering_directions(x.ambient))


# -- the per-call floor builders, in lowest terms ---------------------------------


def fresh_rho_pair(amb, i, j) -> dict:
    return {pair: lowest_terms(c) for pair, c in parent_rho_pair(amb, i, j).items()}


def fresh_rho_product(amb, I, J) -> dict:
    return {key: lowest_terms(c) for key, c in parent_rho_product(amb, I, J).items()}


def fresh_minor_power(amb, block, size, e):
    return lowest_terms(parent_minor_power(amb, block, size, e))


def fresh_minor_power_product(amb, plus_exps, minus_exps):
    """The reduced powers multiplied in, and the full even-block minor's power
    taken off the exponent of D, or multiplied in as D to what is left."""
    out = embed_poly(amb.one())
    for a, e in enumerate(plus_exps[:-1], start=1):
        if e:
            out = loc_mul(out, fresh_minor_power(amb, "plus", a, e))
    for b, e in enumerate(minus_exps, start=1):
        if e:
            out = loc_mul(out, fresh_minor_power(amb, "minus", b, e))
    s = out.d_exp - plus_exps[-1]
    if s < 0:
        return LocalizedElement(out.num * det_block11(amb) ** -s, 0, 0)
    return LocalizedElement(out.num, s, 0)


def fresh_pi_IJ_raw(amb, w, I, J):
    """The same ledger as parent_pi_IJ_raw over the per-call builders in
    lowest terms; the defect is the product of its reduced powers."""
    I, J = tuple(I), tuple(J)
    plus_exps, minus_exps = exponent_ledger(w)
    for i_s, j_s in zip(I, J):
        plus_exps[i_s - 1] -= 1
        if j_s > 1:
            minus_exps[j_s - 2] -= 1
    m = amb.m
    pos_plus = [e if e >= 0 or a == m else 0 for a, e in enumerate(plus_exps, start=1)]
    neg_plus = [-e if e < 0 and a < m else 0 for a, e in enumerate(plus_exps, start=1)]
    v_pos = fresh_minor_power_product(amb, pos_plus, [max(e, 0) for e in minus_exps])
    defect = fresh_minor_power_product(amb, neg_plus, [max(-e, 0) for e in minus_exps])
    terms = {key: loc_mul(v_pos, c) for key, c in fresh_rho_product(amb, I, J).items()}
    return FloorElement(amb, len(I), terms), defect


def layered_exact_divide(a, b):
    """a/b by the layered route for every divisor, or None when b does not
    divide a."""
    amb = a.ambient
    b0 = odd_layer(b, 0)
    if b0.is_zero():
        raise UsageError("divisor is a zero divisor (its even-generator body vanishes)")
    quo = amb.zero()
    rem = a
    max_layers = 2 * amb.m * amb.n + 1
    for _ in range(max_layers + 1):
        if rem.is_zero():
            break
        k = min(monomial_odd_degree(amb, mo) for mo in rem.terms)
        part = commutative_divide(odd_layer(rem, k), b0)
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


# -- the parent's product loop -------------------------------------------------------


def parent_dot(amb, pairs) -> SuperPolynomial:
    """The sum of the products a·b over the (a, b) pairs of polynomials in
    amb, accumulated in one dict: the one product loop of the ring."""
    odd = amb.odd_mask
    out: dict = {}
    for a, b in pairs:
        # ambient() shares instances, so identity settles nearly every pair
        if not (a.ambient is amb is b.ambient or a.ambient == amb == b.ambient):
            raise UsageError("operands live in different ambients")
        right = [(mb, cb, mb & odd, koszul_mask(mb & odd)) for mb, cb in b.terms.items()]
        for ma, ca in a.terms.items():
            oa = ma & odd
            for mb, cb, ob, kb in right:
                if oa & ob:
                    continue  # a shared odd generator squares to zero
                mo = ma + mb
                c = -ca * cb if (oa & kb).bit_count() & 1 else ca * cb
                prev = out.get(mo)
                out[mo] = c if prev is None else prev + c
    check_exponents(amb, out)
    return SuperPolynomial(amb, out)


# -- per-field monomial loops ----------------------------------------------------


def loop_monomial_degree(mono):
    deg = 0
    while mono:
        deg += mono & FIELD_MASK
        mono >>= FIELD_BITS
    return deg


def loop_column_content(amb, mono):
    counts = [0] * amb.size
    for f, (_, j) in enumerate(amb.field_gens):
        counts[j - 1] += (mono >> (f * FIELD_BITS)) & FIELD_MASK
    return tuple(counts)


def parent_weight_of(p):
    """The common column content of every term, each read through its field
    view; None when two terms differ, and zero for the zero polynomial."""
    amb = p.ambient
    w = None
    for mono in p.terms:
        cur = monomial_column_content(amb, mono)
        if w is None:
            w = cur
        elif w != cur:
            return None
    return w if w is not None else tuple([0] * amb.size)


def loop_monomial_items(amb, mono):
    gens = amb.field_gens
    return [(gens[f], e) for f in reversed(range(len(gens)))
            if (e := (mono >> (f * FIELD_BITS)) & FIELD_MASK)]


# -- the layered division ----------------------------------------------------------


def odd_layer(p, k):
    """The terms of p with exactly k odd factors."""
    amb = p.ambient
    return SuperPolynomial(
        amb, {mo: c for mo, c in p.terms.items() if monomial_odd_degree(amb, mo) == k}
    )


def _even_monomial_divide(amb, u, v):
    guard = amb.guard_mask
    diff = (u | guard) - v
    if diff & guard != guard:
        return None
    return diff ^ guard


def commutative_divide(x, b0):
    """Exact division by a polynomial in even generators, graded
    lexicographic leading term first; None when b0 does not divide x."""
    amb = x.ambient
    field = amb.field
    b_terms = [(mb, cb, loop_monomial_degree(mb)) for mb, cb in b0.terms.items()]
    lead_b, lc_b, deg_b = max(b_terms, key=lambda t: (t[2], t[0]))
    lc_b_inv = field.inv(lc_b)
    quo: dict = {}
    rem = dict(x.terms)
    heap = [(-loop_monomial_degree(mo), -mo) for mo in rem]
    heapify(heap)
    while heap:
        neg_deg, neg_u = heappop(heap)
        u = -neg_u
        if u not in rem:
            continue
        qm = _even_monomial_divide(amb, u, lead_b)
        if qm is None:
            return None
        qc = quo[qm] = rem[u] * lc_b_inv
        deg_q = -neg_deg - deg_b
        touched = {qm + mb: cb for mb, cb, _ in b_terms}
        check_exponents(amb, touched)
        for mb, _, db in b_terms:
            if qm + mb not in rem:
                heappush(heap, (-deg_q - db, -qm - mb))
        rem.update(field.clean({mo: rem.pop(mo, 0) - qc * cb for mo, cb in touched.items()}))
    return SuperPolynomial(amb, quo)


# -- the integral lift ----------------------------------------------------------------


def lift(poly):
    """The same polynomial with its coefficients read in Q: the residues
    0..p-1 are already integral elements of Q (char 0: itself)."""
    amb = poly.ambient
    if not amb.char:
        return poly
    return SuperPolynomial(ambient(amb.m, amb.n, 0), poly.terms)


def lower(p0, char):
    """Reduce a p-integral polynomial over Q into F_p (char 0: itself)."""
    if not char:
        return p0
    amb = ambient(p0.ambient.m, p0.ambient.n, char)
    try:
        terms = {mo: amb.field.intake(c) for mo, c in p0.terms.items()}
    except UsageError as exc:
        raise InternalError("a divided operator left the integral form") from exc
    return SuperPolynomial(amb, terms)


def lifted_apply(k, l, r, x):
    """The divided power d[k,l]^(r) through the lift: r basic steps in Q, the
    factorial divided off, and the result lowered back to x's field."""
    cur = LocalizedElement(lift(x.num), x.d_exp, x.d22_exp)
    for _ in range(r):
        cur = apply_loc(basic(k, l), cur)
    cur = loc_scale(cur, Fraction(1, factorial(r)))
    return LocalizedElement(lower(cur.num, x.ambient.char), cur.d_exp, cur.d22_exp)


def lifted_divided_powers(p, k, l):
    """What `derivation.divided_power` returns, through the lift: the first
    derivative in characteristic 0, and in characteristic p the sum of the
    lifted powers r = 1 .. the total degree of p (every higher power
    vanishes)."""
    x = embed_poly(p)
    top = total_degree(p) if p.ambient.char else 1
    return loc_sum(p.ambient, [lifted_apply(k, l, r, x) for r in range(1, top + 1)]).num


def divided_powers_vanish(emb, k, l):
    """Every divided power of d[k,l] kills emb, one power at a time in the
    lift, each lowered back; the loop stops after the total degree of the
    lift plus one powers, which it reads only when a second power is needed."""
    char = emb.ambient.char
    lifted = u = LocalizedElement(lift(emb.num), emb.d_exp, emb.d22_exp)
    bound = 1
    r = 0
    while not u.is_zero():
        r += 1
        if r == 2:
            bound = total_degree(lifted.num) + 1
        if r > bound:
            raise InternalError("divided-power iteration failed to terminate")
        u = apply_loc(basic(k, l), u)
        if not lower(u.num.scale(Fraction(1, factorial(r))), char).is_zero():
            return False
    return True


# -- the parent's quotient rule and localized division -------------------------------


def parent_d_loc(x, k, l):
    """The basic derivation on a fraction, a diagonal direction by dN - λ·N."""
    amb, m, s, t = x.ambient, x.ambient.m, x.d_exp, x.d22_exp
    dn = _d_poly(x.num, k, l)
    if k == l:
        eigen = s if k <= m else t
        return LocalizedElement(dn - x.num.scale(eigen) if eigen else dn, s, t)
    if k <= m < l and s:
        dden = _den_derivative(amb, 11, k, l).scale(-s)
        return LocalizedElement(dot(amb, ((dn, det_block11(amb)), (x.num, dden))), s + 1, t)
    if l <= m < k and t:
        dden = _den_derivative(amb, 22, k, l).scale(-t)
        return LocalizedElement(dot(amb, ((dn, det_block22(amb)), (x.num, dden))), s, t + 1)
    return LocalizedElement(dn, s, t)


def parent_loc_divide_exact(x, d):
    """x / d with the dividend always multiplied by D^s·D22^t of the divisor."""
    amb = x.ambient
    if d.is_zero():
        raise UsageError("division by the zero element")
    q = exact_divide(x.num * den_power(amb, d.d_exp, d.d22_exp), d.num)
    if q is None:
        return None
    return LocalizedElement(q, x.d_exp, x.d22_exp)


def parent_perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def parent_leibniz_det(amb, rows, cols) -> SuperPolynomial:
    """Determinant of the submatrix with the given rows/cols of (c[i,j]).

    The defining sum runs over permutations with factors multiplied in row
    order, which fixes the value when odd entries are present.  Repeated rows
    or columns return zero by convention.  More than DET_CAP rows raise
    UsageError.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise UsageError("minor specification must have equally many rows and columns")
    check_det_size(len(rows))
    for idx in (*rows, *cols):
        amb.index_parity(idx)
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return amb.zero()
    t = len(rows)
    if t == 0:
        return amb.one()
    acc: dict = {}
    for perm in permutations(range(t)):
        prod = amb.gen(rows[0], cols[perm[0]])
        for a in range(1, t):
            prod = prod * amb.gen(rows[a], cols[perm[a]])
        sign = parent_perm_sign(perm)
        for mo, c in prod.terms.items():
            acc[mo] = acc.get(mo, 0) + sign * c
    return SuperPolynomial(amb, acc)


def loc_det(amb, entries) -> LocalizedElement:
    """Leibniz determinant of a square matrix of even localized elements; more
    than DET_CAP rows raise UsageError."""
    n = len(entries)
    check_det_size(n)
    for row in entries:
        if len(row) != n:
            raise UsageError("determinant needs a square matrix")
        for e in row:
            if e.parity() not in (0, None):
                raise UsageError("localized determinant entries must be even")
    terms = []
    for perm in permutations(range(n)):
        term = embed_poly(amb.one())
        for r in range(n):
            term = loc_mul(term, entries[r][perm[r]])
        if parent_perm_sign(perm) < 0:
            term = LocalizedElement(-term.num, term.d_exp, term.d22_exp)
        terms.append(term)
    return loc_sum(amb, terms)


def parent_is_admissible_pair(w, I, J) -> bool:
    I, J = tuple(I), tuple(J)
    return is_ordered_family(I, J) and is_dominant(lambda_IJ(w, I, J))


def parent_transpose(parts: tuple) -> tuple:
    if not parts:
        return ()
    return tuple(sum(1 for v in parts if v > c) for c in range(parts[0]))


def _parent_dominant_sum(a: tuple, b: tuple) -> bool:
    return all(x + y >= u + v for x, y, u, v in zip(a, b, a[1:], b[1:]))


def parent_wedge_content_holds(w, content) -> bool:
    if len(content.plus) != len(w.plus) or len(content.minus) != len(w.minus):
        raise UsageError("weights have different block sizes")
    if w.minus[-1] < 0 or w.plus[-1] + content.plus[-1] < len(w.minus):
        return False
    return (
        absorbs_content(w, content)
        and _parent_dominant_sum(w.plus, content.plus)
        and _parent_dominant_sum(w.minus, content.minus)
    )
