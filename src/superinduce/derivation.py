"""Right superderivations of the coordinate ring and its localization.

A direction is its pair (k, l), and `direction_class` sorts it by the blocks
it joins: top (both indices in the even block 1..m), raise (k <= m < l),
lower (l <= m < k) or bottom (both beyond m).  The basic derivation d[k,l]
sends a generator c[a,b] to c[a,l] when b == k and to zero otherwise,
extended as a right derivation with the sign rule
(xy)D = (-1)^(|D||y|) (x)D·y + x·(y)D.  On fractions it acts by the quotient
rule, in closed form: D is multilinear in the columns 1..m and D22 in the
others.  So a diagonal d[k,k] fixes its own block's determinant and kills
the other, and a term c·M / (D^s·D22^t) goes to c·(μ - λ)·M over the same
exponents (μ the column-k content of M, λ = s for k <= m, else t).  Only a
raise direction moves D and only a lower one moves D22, by the one fused
product dN·D - s·N·dD over D^(s+1) (or its D22 twin); every other direction
kills both.

The one divided-power kernel, `divided_power`, serves primitivity: an even
off-diagonal direction kills D and D22, and its d^(r) = d^r/r! is a product
of binomial coefficients row by row on the integral (Kostant Z-form) basis,
with integer coefficients reduced once by the field.

The structured rewrite table in this module and the direct quotient-rule
route are deliberately independent of each other; tests compare the two on
every admissible instance rather than letting one implementation stand in
for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .fraction import (
    LocalizedElement,
    det_block11,
    det_block22,
    embed_poly,
    loc_eq,
    loc_product,
    loc_scale,
    loc_sum,
)
from .minors import row_initial_minor, twisted_generator, y_entry
from .superpoly import (
    FIELD_MASK,
    Ambient,
    SuperPolynomial,
    UsageError,
    check_exponents,
    dot,
    monomial_degree,
    sort_with_sign,
)
from .weights_tableaux import dminus


def direction_class(m: int, k: int, l: int) -> str:
    """The blocks the direction (k, l) joins, the even block being 1..m:
    top, raise, lower or bottom."""
    if k <= m and l <= m:
        return "top"
    if k <= m < l:
        return "raise"
    if l <= m < k:
        return "lower"
    return "bottom"


# -- the basic derivation on polynomials --------------------------------------------


def _slots(amb: Ambient, k: int, l: int) -> tuple:
    """Per row a: c[a,k]'s shift, the step to c[a,l], the odd bits whose parity
    signs the image (an odd direction passes the odd factors after c[a,k], an
    odd c[a,l] those between the two), and c[a,l] when it is odd (else 0)."""

    def build():
        dpar = amb.gen_parity(k, l)  # range-checks k and l
        slots = []
        for a in range(1, amb.size + 1):
            uk, ul = amb.unit(a, k), amb.unit(a, l)
            sign_mask = uk - 1 if dpar else 0
            clash = 0
            if uk != ul and amb.gen_parity(a, l):
                lo, hi = min(uk, ul), max(uk, ul)
                sign_mask ^= (hi - 1) & ~(2 * lo - 1)
                clash = ul
            slots.append((uk.bit_length() - 1, ul - uk, sign_mask & amb.odd_mask, clash))
        return tuple(slots)

    return amb.cached(("dslots", k, l), build)


def _d_poly(p: SuperPolynomial, k: int, l: int) -> SuperPolynomial:
    """The basic derivation d[k,l] on a polynomial, slot by slot on packed
    monomials: each factor c[a,k] of a term becomes c[a,l]."""
    amb = p.ambient
    terms = p.terms.items()
    acc: dict = {}
    for shift, delta, sign_mask, clash in _slots(amb, k, l):
        for mono, c in terms:
            e = (mono >> shift) & FIELD_MASK
            if not e or mono & clash:
                continue  # no factor c[a,k], or an odd c[a,l] squares to zero
            cc = c * e if e != 1 else c
            if sign_mask and (mono & sign_mask).bit_count() & 1:
                cc = -cc
            mo = mono + delta
            prev = acc.get(mo)
            acc[mo] = cc if prev is None else prev + cc
    check_exponents(amb, acc)
    return SuperPolynomial(amb, acc)


def _den_derivative(amb: Ambient, k: int, l: int) -> SuperPolynomial:
    """d[k,l] of the determinant of column k's block, the only one it can move."""
    base = det_block11 if k <= amb.m else det_block22
    return amb.cached(("dden", k, l), lambda: _d_poly(base(amb), k, l))


def _column_mask(amb: Ambient, k: int) -> int:
    """The packed fields of column k."""
    return amb.cached(("colmask", k), lambda: sum(
        FIELD_MASK << shift for shift, *_ in _slots(amb, k, k)))


def apply_loc(direction: tuple, x: LocalizedElement) -> LocalizedElement:
    """The basic derivation d[k,l] of the direction (k, l) on a fraction."""
    k, l = direction
    if k == l:
        return _diagonal(x, k)
    amb, s, t = x.ambient, x.d_exp, x.d22_exp
    dn = _d_poly(x.num, k, l)
    cls = direction_class(amb.m, k, l)
    if cls == "raise" and s:
        dden = _den_derivative(amb, k, l).scale(-s)
        return LocalizedElement(dot(amb, ((dn, det_block11(amb)), (x.num, dden))), s + 1, t)
    if cls == "lower" and t:
        dden = _den_derivative(amb, k, l).scale(-t)
        return LocalizedElement(dot(amb, ((dn, det_block22(amb)), (x.num, dden))), s, t + 1)
    return LocalizedElement(dn, s, t)


def _diagonal(x: LocalizedElement, k: int) -> LocalizedElement:
    """d[k,k]: a term N/(D^s·D22^t) is an eigenvector of eigenvalue μ - λ
    (μ the column-k content of N, λ = s for k <= m, else t), scaled by it.
    The eigenvalue depends on a term's column-k part alone, so it is
    computed once per distinct part."""
    amb = x.ambient
    column = _column_mask(amb, k)  # range-checks k
    lam = x.d_exp if k <= amb.m else x.d22_exp
    factors: dict = {}
    out = {}
    for mono, c in x.num.terms.items():
        part = mono & column
        factor = factors.get(part)
        if factor is None:
            factor = factors[part] = amb.field.intake(monomial_degree(part) - lam)
        out[mono] = c * factor
    return LocalizedElement(SuperPolynomial(amb, out), x.d_exp, x.d22_exp)


# -- the divided powers of primitivity, in closed form -------------------------------


def divided_power(p: SuperPolynomial, k: int, l: int) -> SuperPolynomial:
    """The divided powers d[k,l]^(r) = d^r/r!, r >= 1, of an even
    off-diagonal direction on a polynomial, summed: in characteristic 0 the
    first derivative d alone, in characteristic p the sum of every power, in
    closed form.  A term moves r_a of the e_a factors c[a,k] of each row a to
    c[a,l], with coefficient binom(e_a, r_a), over every (r_a) with sum
    r >= 1.  An odd row has e_a <= 1, is blocked by an odd c[a,l] (the slot's
    clash bit) and signs its move by its own odd bits between the two slots,
    so rows move independently and in any order.

    On a polynomial homogeneous in column content both results vanish
    exactly when every divided power does: the power r adds r to column l,
    so distinct powers land on distinct monomials, and in characteristic 0
    d^(r) = d^r/r! vanishes once d does."""
    amb = p.ambient
    if k == l or amb.gen_parity(k, l):
        raise UsageError("closed-form divided powers are for even off-diagonal directions")
    if not amb.char:
        return _d_poly(p, k, l)
    slots = _slots(amb, k, l)
    acc: dict = {}
    for mono, c in p.terms.items():
        images = [(mono, c)]  # the term, then every combination of row moves
        for shift, delta, sign_mask, clash in slots:
            e = (mono >> shift) & FIELD_MASK
            if not e or mono & clash:
                continue  # no factor c[a,k], or an odd c[a,l] squares to zero
            if sign_mask and (mono & sign_mask).bit_count() & 1:
                images += [(mo + delta, -cc) for mo, cc in images]  # an odd row: e = 1
            else:
                images += [(mo + j * delta, comb(e, j) * cc)
                           for mo, cc in images for j in range(1, e + 1)]
        for mo, cc in images[1:]:
            prev = acc.get(mo)
            acc[mo] = cc if prev is None else prev + cc
    check_exponents(amb, acc)
    return SuperPolynomial(amb, acc)


# -- the structured rewrite table -----------------------------------------------------
#
# Formal factors name the four families of building blocks the rewrite rules
# move between; an expression is a list of (integer coefficient, ordered factor
# tuple) pairs.  Embedding a formal expression multiplies its factors in the
# written order, so odd factors keep their relative position.


@dataclass(frozen=True)
class FY:
    """Localized entry y[i,j]."""

    i: int
    j: int


@dataclass(frozen=True)
class FPhi:
    """Twisted lower-right generator (both indices beyond the even block)."""

    i: int
    j: int


@dataclass(frozen=True)
class FDminus:
    """Determinant of twisted lower-right entries on the given columns
    (rows are the initial segment of the odd block)."""

    cols: tuple


@dataclass(frozen=True)
class FDplus:
    """Row-initial minor on the given columns of the even block."""

    cols: tuple


def structured_rule(amb: Ambient, factor, direction: tuple):
    """Derivative of a single formal factor under the direction (k, l),
    straight from the rewrite table.

    Returns a formal expression; embedding it must agree with applying d[k,l]
    to the embedded factor, which is exactly what the rewrite-rule tests
    check.
    """
    k, l = direction
    cls = direction_class(amb.m, k, l)
    if isinstance(factor, FY):
        i, j = factor.i, factor.j
        if cls == "raise":
            return [(1, (FY(i, l), FY(k, j)))]
        if cls == "lower":
            return [(1, ())] if (i == l and j == k) else []
        if cls == "bottom":
            return [(1, (FY(i, l),))] if j == k else []
        return [(-1, (FY(k, j),))] if l == i else []
    if isinstance(factor, FPhi):
        i, j = factor.i, factor.j
        if cls == "raise":
            return [(1, (FPhi(i, l), FY(k, j)))]
        if cls == "bottom":
            return [(1, (FPhi(i, l),))] if j == k else []
        return []
    if isinstance(factor, FDminus):
        cols = factor.cols
        if cls in ("lower", "top"):
            return []
        out = []
        for t, jt in enumerate(cols):
            newcols = cols[:t] + (l,) + cols[t + 1 :]
            if cls == "raise":
                out.append((1, (FDminus(newcols), FY(k, jt))))
            elif jt == k:
                out.append((1, (FDminus(newcols),)))
        return out
    if isinstance(factor, FDplus):
        cols = factor.cols
        if cls in ("lower", "bottom"):
            return []
        out = []
        for t, it in enumerate(cols):
            if it != k:
                continue
            if cls == "raise":
                for a in range(1, amb.m + 1):
                    sign, norm = sort_with_sign(cols[:t] + (a,) + cols[t + 1 :])
                    if norm is None:
                        continue
                    out.append((sign, (FDplus(norm), FY(a, l))))
            else:
                sign, norm = sort_with_sign(cols[:t] + (l,) + cols[t + 1 :])
                if norm is not None:
                    out.append((sign, (FDplus(norm),)))
        return out
    raise UsageError(f"unknown formal factor {factor!r}")


def embed_formal_factor(amb: Ambient, factor) -> LocalizedElement:
    if isinstance(factor, FY):
        return y_entry(amb, factor.i, factor.j)
    if isinstance(factor, FPhi):
        return twisted_generator(amb, factor.i, factor.j)
    if isinstance(factor, FDminus):
        return dminus(amb, factor.cols)
    if isinstance(factor, FDplus):
        return embed_poly(row_initial_minor(amb, factor.cols))
    raise UsageError(f"unknown formal factor {factor!r}")


def embed_formal(amb: Ambient, expr) -> LocalizedElement:
    return loc_sum(amb, [
        loc_scale(loc_product(amb, [embed_formal_factor(amb, f) for f in factors]), coeff)
        for coeff, factors in expr])


def rewrite_rule_check(amb: Ambient, factor, direction: tuple) -> bool:
    """Compare the rewrite table against the direct quotient-rule route."""
    raw = apply_loc(direction, embed_formal_factor(amb, factor))
    table = embed_formal(amb, structured_rule(amb, factor, direction))
    return loc_eq(raw, table)
