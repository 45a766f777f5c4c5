"""Ring helpers that only the tests read: the total degree of a polynomial,
a derivation on a polynomial that checks no denominator appears, the
supercommutator identity of the basic derivations, negation and difference of
localized elements, and the parser that inverts `render_loc` for text round
trips."""

import re

from superinduce.derivation import apply_loc
from superinduce.fraction import (
    LocalizedElement,
    embed_poly,
    loc_add,
    loc_eq,
    loc_scale,
)
from superinduce.superpoly import (
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    monomial_degree,
    parse_integer,
    parse_poly,
)


def total_degree(p: SuperPolynomial) -> int:
    """The largest total degree of a term of p; 0 for the zero polynomial."""
    return max((monomial_degree(mo) for mo in p.terms), default=0)


# -- localized arithmetic and text ------------------------------------------------------


def loc_zero(amb: Ambient) -> LocalizedElement:
    return LocalizedElement(amb.zero())


def loc_neg(x: LocalizedElement) -> LocalizedElement:
    return LocalizedElement(-x.num, x.d_exp, x.d22_exp)


def loc_sub(x: LocalizedElement, y: LocalizedElement) -> LocalizedElement:
    return loc_add(x, loc_neg(y))


def parse_loc(amb: Ambient, text: str) -> LocalizedElement:
    parts = text.rsplit("/", 1)
    if len(parts) == 1:
        return embed_poly(parse_poly(amb, text))
    num = parse_poly(amb, parts[0])
    den = re.sub(r"\s+", "", parts[1])
    m = re.fullmatch(r"(?:D\^(\d+))?(?:D22\^(\d+))?", den)
    if m is None or (m.group(1) is None and m.group(2) is None):
        raise UsageError(f"unrecognized denominator {parts[1]!r}")
    d_exp, d22_exp = (parse_integer(v or "0") for v in m.groups())
    return LocalizedElement(num, d_exp, d22_exp)


# -- derivations ---------------------------------------------------------------------


def apply_poly(direction: tuple, p: SuperPolynomial) -> SuperPolynomial:
    out = apply_loc(direction, embed_poly(p))
    if out.d_exp or out.d22_exp:
        raise InternalError("polynomial input acquired a denominator")
    return out.num


def bracket_check(x: LocalizedElement, a: tuple, b: tuple) -> bool:
    """The supercommutator of the basic derivations of two directions a and b
    acts as the expected combination of basic derivations: on x,

        ((x)a)b - (-1)^(|a||b|) ((x)b)a

    equals [l_a == k_b] (x)d[k_a,l_b] - (-1)^(|a||b|) [l_b == k_a] (x)d[k_b,l_a].
    """
    amb = x.ambient
    (ka, la), (kb, lb) = a, b
    sgn = -1 if amb.gen_parity(ka, la) and amb.gen_parity(kb, lb) else 1
    xab = apply_loc(b, apply_loc(a, x))
    xba = apply_loc(a, apply_loc(b, x))
    lhs = loc_sub(xab, loc_scale(xba, sgn))
    rhs = loc_zero(amb)
    if la == kb:
        rhs = loc_add(rhs, apply_loc((ka, lb), x))
    if lb == ka:
        rhs = loc_sub(rhs, loc_scale(apply_loc((kb, la), x), sgn))
    return loc_eq(lhs, rhs)
