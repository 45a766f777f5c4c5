"""Right superderivations of the coordinate ring and its localization.

The basic operator for a direction (k, l) sends a generator c[a,b] to
c[a,l] when b == k and to zero otherwise, extended as a right derivation
with the sign rule (xy)D = (-1)^(|D||y|) (x)D·y + x·(y)D.  On fractions it
acts by the quotient rule; the two block determinants have cached
derivatives, and directions that leave them inert never inflate the
denominator exponents.

Divided powers and rising-binomial operators go through the integral lift
of the ambient's coefficient field: coefficients are raised to
characteristic zero, the basic operator is iterated there, the factorial is
divided off exactly, and the result is lowered back once its denominators
are known to be invertible.  Over Q the lift and the lowering are the
identity.

The structured rewrite table in this module and the direct quotient-rule
route are deliberately independent of each other; tests compare the two on
every admissible instance rather than letting one implementation stand in
for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .fraction import (
    LocalizedElement,
    det_block11,
    det_block22,
    embed_poly,
    loc_add,
    loc_eq,
    loc_mul,
    loc_scale,
    loc_sub,
    loc_zero,
)
from .minors import loc_det, row_initial_minor, twisted_generator, y_entry
from .superpoly import (
    FIELD_MASK,
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    check_exponents,
    sort_with_sign,
)


@dataclass(frozen=True)
class Op:
    """A right operator: kind 'basic' (single derivation), 'divided'
    (r-th divided power of an even direction), or 'binomial' (the rising
    product D(D+1)...(D+r-1)/r! of a diagonal direction)."""

    kind: str
    k: int
    l: int
    r: int = 1

    def __post_init__(self):
        if self.kind not in ("basic", "divided", "binomial"):
            raise UsageError(f"unknown operator kind {self.kind!r}")
        if self.r < 0:
            raise UsageError("operator order must be nonnegative")
        if self.kind == "binomial" and self.k != self.l:
            raise UsageError("binomial operators are diagonal")


def basic(k: int, l: int) -> Op:
    return Op("basic", k, l)


def divided(k: int, l: int, r: int) -> Op:
    return Op("divided", k, l, r)


def binomial(k: int, r: int) -> Op:
    return Op("binomial", k, k, r)


def matrix_unit_to_op(k: int, l: int) -> Op:
    """The basic operator realizing the (k,l) matrix unit: indices swap."""
    return Op("basic", l, k)


def render_op(op: Op) -> str:
    if op.kind == "basic":
        return f"d[{op.k},{op.l}]"
    if op.kind == "divided":
        return f"d[{op.k},{op.l}]^({op.r})"
    return f"binom(d[{op.k},{op.k}]; {op.r})"


# -- the basic derivation on polynomials --------------------------------------------


def _d_poly(p: SuperPolynomial, k: int, l: int) -> SuperPolynomial:
    """The basic derivation d[k,l] on a polynomial, term by term on packed
    monomials: each factor c[a,k] of a term becomes c[a,l].

    The sign has two parts, both popcount parities of the term's odd bits:
    an odd operator passes the odd factors after c[a,k], and an odd c[a,l]
    passes the odd factors strictly between c[a,k] and its own place.
    """
    amb = p.ambient
    dpar = amb.gen_parity(k, l)  # range-checks k and l
    odd = amb.odd_mask
    slots = []
    for a in range(1, amb.size + 1):
        uk, ul = amb.unit(a, k), amb.unit(a, l)
        sign_mask = uk - 1 if dpar else 0
        clash = 0
        if uk != ul and amb.gen_parity(a, l):
            lo, hi = min(uk, ul), max(uk, ul)
            sign_mask ^= (hi - 1) & ~(2 * lo - 1)
            clash = ul
        slots.append((uk.bit_length() - 1, ul - uk, sign_mask, clash))
    acc: dict = {}
    for mono, c in p.terms.items():
        mo_odd = mono & odd
        for shift, delta, sign_mask, clash in slots:
            e = (mono >> shift) & FIELD_MASK
            if not e or mono & clash:
                continue  # no factor c[a,k], or an odd c[a,l] squares to zero
            cc = c * e if e != 1 else c
            if (mo_odd & sign_mask).bit_count() & 1:
                cc = -cc
            mo = mono + delta
            prev = acc.get(mo)
            acc[mo] = cc if prev is None else prev + cc
    check_exponents(amb, acc)
    return SuperPolynomial(amb, acc)


def _den_derivative(amb: Ambient, which: int, k: int, l: int) -> SuperPolynomial:
    key = ("dden", which, k, l)
    if key not in amb._cache:
        base = det_block11(amb) if which == 11 else det_block22(amb)
        amb._cache[key] = _d_poly(base, k, l)
    return amb._cache[key]


def _d_loc(x: LocalizedElement, k: int, l: int) -> LocalizedElement:
    amb = x.ambient
    da = _d_poly(x.num, k, l)
    s, t = x.d_exp, x.d22_exp
    bump_s = bool(s) and not _den_derivative(amb, 11, k, l).is_zero()
    bump_t = bool(t) and not _den_derivative(amb, 22, k, l).is_zero()
    num = da
    if bump_s:
        num = num * det_block11(amb)
    if bump_t:
        num = num * det_block22(amb)
    if bump_s:
        corr = (x.num * _den_derivative(amb, 11, k, l)).scale(s)
        if bump_t:
            corr = corr * det_block22(amb)
        num = num - corr
    if bump_t:
        corr = (x.num * _den_derivative(amb, 22, k, l)).scale(t)
        if bump_s:
            corr = corr * det_block11(amb)
        num = num - corr
    return LocalizedElement(num, s + int(bump_s), t + int(bump_t))


# -- divided powers and binomials via the integral lift ------------------------------


def _through_lift(x: LocalizedElement, step) -> LocalizedElement:
    """Run step on x with coefficients lifted to Q, then lower the result back
    to x's field; in characteristic 0 both moves are the identity."""
    field = x.ambient.field
    out = step(LocalizedElement(field.lift(x.num), x.d_exp, x.d22_exp))
    return LocalizedElement(field.lower(out.num), out.d_exp, out.d22_exp)


def _apply_divided_loc(x: LocalizedElement, k: int, l: int, r: int) -> LocalizedElement:
    if x.ambient.gen_parity(k, l):
        raise UsageError("divided powers are defined for even directions only")
    if r == 0:
        return x

    def divided(cur: LocalizedElement) -> LocalizedElement:
        for _ in range(r):
            cur = _d_loc(cur, k, l)
        return loc_scale(cur, Fraction(1, factorial(r)))

    return _through_lift(x, divided)


def _apply_binomial_loc(x: LocalizedElement, k: int, r: int) -> LocalizedElement:
    if r == 0:
        return x

    def rising(cur: LocalizedElement) -> LocalizedElement:
        for i in range(r):
            cur = loc_add(_d_loc(cur, k, k), loc_scale(cur, i))
        return loc_scale(cur, Fraction(1, factorial(r)))

    return _through_lift(x, rising)


def apply_loc(op: Op, x: LocalizedElement) -> LocalizedElement:
    if op.kind == "basic":
        return _d_loc(x, op.k, op.l)
    if op.kind == "divided":
        return _apply_divided_loc(x, op.k, op.l, op.r)
    return _apply_binomial_loc(x, op.k, op.r)


def apply_poly(op: Op, p: SuperPolynomial) -> SuperPolynomial:
    out = apply_loc(op, embed_poly(p))
    if out.d_exp or out.d22_exp:
        raise InternalError("polynomial input acquired a denominator")
    return out.num


def apply_seq(ops, x: LocalizedElement) -> LocalizedElement:
    for op in ops:
        x = apply_loc(op, x)
    return x


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


def structured_rule(amb: Ambient, factor, op: Op):
    """Derivative of a single formal factor, straight from the rewrite table.

    Returns a formal expression; embedding it must agree with applying the
    operator to the embedded factor, which is exactly what the rewrite-rule
    tests check.
    """
    if op.kind != "basic":
        raise UsageError("the rewrite table covers basic operators only")
    k, l, m = op.k, op.l, amb.m
    mixed_up = k <= m < l
    mixed_down = k > m >= l
    odd_block = k > m and l > m
    if isinstance(factor, FY):
        i, j = factor.i, factor.j
        if mixed_up:
            return [(1, (FY(i, l), FY(k, j)))]
        if mixed_down:
            return [(1, ())] if (i == l and j == k) else []
        if odd_block:
            return [(1, (FY(i, l),))] if j == k else []
        return [(-1, (FY(k, j),))] if l == i else []
    if isinstance(factor, FPhi):
        i, j = factor.i, factor.j
        if mixed_up:
            return [(1, (FPhi(i, l), FY(k, j)))]
        if odd_block:
            return [(1, (FPhi(i, l),))] if j == k else []
        return []
    if isinstance(factor, FDminus):
        cols = factor.cols
        if mixed_down or (k <= m and l <= m):
            return []
        out = []
        for t, jt in enumerate(cols):
            newcols = cols[:t] + (l,) + cols[t + 1 :]
            if mixed_up:
                out.append((1, (FDminus(newcols), FY(k, jt))))
            elif jt == k:
                out.append((1, (FDminus(newcols),)))
        return out
    if isinstance(factor, FDplus):
        cols = factor.cols
        if k > m:
            return []
        out = []
        for t, it in enumerate(cols):
            if it != k:
                continue
            if mixed_up:
                for a in range(1, m + 1):
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
        s = len(factor.cols)
        entries = [
            [twisted_generator(amb, amb.m + 1 + a, c) for c in factor.cols]
            for a in range(s)
        ]
        return loc_det(amb, entries)
    if isinstance(factor, FDplus):
        return embed_poly(row_initial_minor(amb, factor.cols))
    raise UsageError(f"unknown formal factor {factor!r}")


def embed_formal(amb: Ambient, expr) -> LocalizedElement:
    total = loc_zero(amb)
    for coeff, factors in expr:
        term = embed_poly(amb.one())
        for f in factors:
            term = loc_mul(term, embed_formal_factor(amb, f))
        total = loc_add(total, loc_scale(term, coeff))
    return total


def rewrite_rule_check(amb: Ambient, factor, op: Op) -> bool:
    """Compare the rewrite table against the direct quotient-rule route."""
    raw = apply_loc(op, embed_formal_factor(amb, factor))
    table = embed_formal(amb, structured_rule(amb, factor, op))
    return loc_eq(raw, table)


# -- the supercommutator identity -----------------------------------------------------


def op_parity(amb: Ambient, op: Op) -> int:
    return amb.gen_parity(op.k, op.l)


def bracket_check(x: LocalizedElement, a: Op, b: Op) -> bool:
    """The supercommutator of two basic operators acts as the expected
    combination of basic operators: on x,

        ((x)a)b - (-1)^(|a||b|) ((x)b)a

    equals [l_a == k_b] (x)d[k_a,l_b] - (-1)^(|a||b|) [l_b == k_a] (x)d[k_b,l_a].
    """
    if a.kind != "basic" or b.kind != "basic":
        raise UsageError("the bracket identity is for basic operators")
    amb = x.ambient
    sgn = -1 if op_parity(amb, a) and op_parity(amb, b) else 1
    xab = _d_loc(_d_loc(x, a.k, a.l), b.k, b.l)
    xba = _d_loc(_d_loc(x, b.k, b.l), a.k, a.l)
    lhs = loc_sub(xab, loc_scale(xba, sgn))
    rhs = loc_zero(amb)
    if a.l == b.k:
        rhs = loc_add(rhs, _d_loc(x, a.k, b.l))
    if b.l == a.k:
        rhs = loc_sub(rhs, loc_scale(_d_loc(x, b.k, a.l), sgn))
    return loc_eq(lhs, rhs)
