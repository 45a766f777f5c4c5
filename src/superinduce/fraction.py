"""Localization of the coordinate ring at the two block determinants.

D is the determinant of the upper-left m-by-m block C11 and D22 the
determinant of the lower-right n-by-n block C22; both are even and central,
so fractions num / (D^s · D22^t) multiply by the usual rules.  Exponents only
ever grow during arithmetic; is_polynomial divides them out explicitly, and
lowest_terms divides D out of the per-ring floor factors once, when they
are built.  Both determinants have a nonzero body, so neither is a zero
divisor: two elements are equal exactly when their numerators agree once
each is raised to the larger exponents, and that is how loc_eq compares
them.  loc_sum is the one path for sums: it raises each numerator once, to
the largest exponents among its nonzero pieces, and adds in one dict.  A
fold of loc_add gives the same value, and the same exponents unless a
partial sum cancels after a piece with larger exponents.

loc_dot is the one path for a sum of products Σ x_i·y_i: it raises each pair
once, to the largest exponents among the pairs whose factors are both
nonzero, and makes every product in one superpoly.dot, so no product is built
only to be added away.  A product can still vanish (an odd square), and then
the sum can sit over larger exponents than loc_sum of the loc_mul products
would give: the value is the same, so loc_dot serves value comparisons and
sums whose products cannot vanish.

No output reads the exponents a value was built with.  The floor vectors,
their defects and the highest vector keep their factors in lowest terms in
D, and output raises each coefficient to the exponent of the unreduced
product of minors (raised_to), a closed form of the weight and the cell or
family.  The signed rho product of a family is reduced to lowest terms once
per ring, so the exponents its loc_sum leaves are not rendered either.
"""

from __future__ import annotations

from .superpoly import (
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    dot,
    exact_divide,
    leibniz_det,
    product,
    render_poly,
    weight_of,
)


def det_block11(amb: Ambient) -> SuperPolynomial:
    """D: determinant of the even block C11 (cached per ambient)."""
    rng = range(1, amb.m + 1)
    return amb.cached("det11", lambda: leibniz_det(amb, rng, rng))


def det_block22(amb: Ambient) -> SuperPolynomial:
    """D22: determinant of the even block C22 (cached per ambient)."""
    rng = range(amb.m + 1, amb.size + 1)
    return amb.cached("det22", lambda: leibniz_det(amb, rng, rng))


def den_power(amb: Ambient, s: int, t: int) -> SuperPolynomial:
    """D^s · D22^t (cached per ambient)."""
    return amb.cached(("den", s, t), lambda: det_block11(amb) ** s * det_block22(amb) ** t)


class LocalizedElement:
    """num / (D^d_exp · D22^d22_exp); the zero element is stored with exponents 0."""

    __slots__ = ("num", "d_exp", "d22_exp")

    def __init__(self, num: SuperPolynomial, d_exp: int = 0, d22_exp: int = 0):
        if d_exp < 0 or d22_exp < 0:
            raise UsageError("denominator exponents must be nonnegative")
        if num.is_zero():
            d_exp = d22_exp = 0
        self.num = num
        self.d_exp = d_exp
        self.d22_exp = d22_exp

    @property
    def ambient(self) -> Ambient:
        return self.num.ambient

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self):
        return f"LocalizedElement({render_loc(self)!r})"

    def __eq__(self, other):  # structural equality; use loc_eq for value equality
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return (
            self.num == other.num
            and self.d_exp == other.d_exp
            and self.d22_exp == other.d22_exp
        )

    def __hash__(self):
        return hash((self.num, self.d_exp, self.d22_exp))


def embed_poly(p: SuperPolynomial) -> LocalizedElement:
    return LocalizedElement(p, 0, 0)


def common_numerators(amb: Ambient, xs):
    """(s, t, nums): the largest exponents among xs, and each numerator over
    D^s · D22^t."""
    if any(x.ambient != amb for x in xs):
        raise UsageError("operands live in different ambients")
    s = max((x.d_exp for x in xs), default=0)
    t = max((x.d22_exp for x in xs), default=0)
    return s, t, [x.num if (x.d_exp, x.d22_exp) == (s, t)
                  else x.num * den_power(amb, s - x.d_exp, t - x.d22_exp) for x in xs]


def loc_sum(amb: Ambient, xs) -> LocalizedElement:
    """The sum of localized elements over one common denominator."""
    s, t, nums = common_numerators(amb, list(xs))
    total: dict = {}
    for p in nums:
        for mo, c in p.terms.items():
            total[mo] = total.get(mo, 0) + c
    return LocalizedElement(SuperPolynomial(amb, total), s, t)


def loc_dot(amb: Ambient, pairs) -> LocalizedElement:
    """The sum of the products x·y over the (x, y) pairs of localized elements
    in amb, over one common denominator: a pair with a zero factor is
    skipped, and the others are raised once, the factor with fewer terms
    taking the denominator power (see the module docstring)."""
    pairs = list(pairs)
    if any(x.ambient != amb or y.ambient != amb for x, y in pairs):
        raise UsageError("operands live in different ambients")
    pairs = [(x, y) for x, y in pairs if not (x.is_zero() or y.is_zero())]
    s = max((x.d_exp + y.d_exp for x, y in pairs), default=0)
    t = max((x.d22_exp + y.d22_exp for x, y in pairs), default=0)

    def raised(x, y):
        ds, dt = s - x.d_exp - y.d_exp, t - x.d22_exp - y.d22_exp
        if not (ds or dt):
            return x.num, y.num
        if len(x.num.terms) <= len(y.num.terms):
            return x.num * den_power(amb, ds, dt), y.num
        return x.num, y.num * den_power(amb, ds, dt)

    return LocalizedElement(dot(amb, (raised(x, y) for x, y in pairs)), s, t)


def loc_add(x: LocalizedElement, y: LocalizedElement) -> LocalizedElement:
    s, t, (nx, ny) = common_numerators(x.ambient, (x, y))
    return LocalizedElement(nx + ny, s, t)


def loc_mul(x: LocalizedElement, y: LocalizedElement) -> LocalizedElement:
    return LocalizedElement(x.num * y.num, x.d_exp + y.d_exp, x.d22_exp + y.d22_exp)


def loc_product(amb: Ambient, xs) -> LocalizedElement:
    """The product of localized elements in order, the numerators folded by
    superpoly.product over the summed exponents; one when there are none."""
    xs = list(xs)
    return LocalizedElement(product(amb, (x.num for x in xs)),
                            sum(x.d_exp for x in xs), sum(x.d22_exp for x in xs))


def loc_scale(x: LocalizedElement, c) -> LocalizedElement:
    return LocalizedElement(x.num.scale(c), x.d_exp, x.d22_exp)


def loc_eq(x: LocalizedElement, y: LocalizedElement) -> bool:
    """Value equality: the numerators over the larger exponents agree (no
    reduction required; see the module docstring)."""
    _, _, (nx, ny) = common_numerators(x.ambient, (x, y))
    return nx == ny


def is_polynomial(x: LocalizedElement):
    """The polynomial the element equals, or None when denominators are essential."""
    if not (x.d_exp or x.d22_exp):
        return x.num
    return exact_divide(x.num, den_power(x.ambient, x.d_exp, x.d22_exp))


def lowest_terms(x: LocalizedElement) -> LocalizedElement:
    """The same value with its numerator divided by D while the exponent of D
    is positive and the division is exact.  D is a nonzerodivisor, so the
    result is the one form of the value whose numerator D does not divide
    (or whose exponent of D is 0).  Only the builders of the per-ring floor
    factors call it, once per cached value."""
    d = det_block11(x.ambient)
    num, s = x.num, x.d_exp
    while s:
        q = exact_divide(num, d)
        if q is None:
            break
        num, s = q, s - 1
    return LocalizedElement(num, s, x.d22_exp)


def raised_to(x: LocalizedElement, s: int) -> LocalizedElement:
    """The same value over D^s, for s at least x's exponent of D: the
    numerator times D^(s - d_exp).  Output raises each floor coefficient kept
    in lower terms back to the exponent of the product it was reduced from."""
    if s < x.d_exp:
        raise InternalError("a value cannot be raised to a lower power of D")
    if s == x.d_exp:
        return x
    return LocalizedElement(x.num * den_power(x.ambient, s - x.d_exp, 0), s, x.d22_exp)


def loc_divide_exact(x: LocalizedElement, d: LocalizedElement):
    """x / d as a localized element, or None when the division is not exact.

    The divisor's numerator must be even with nonzero body; the quotient keeps
    x's denominator exponents while d's invert into numerator powers.
    """
    amb = x.ambient
    if d.is_zero():
        raise UsageError("division by the zero element")
    lifted = x.num
    if d.d_exp or d.d22_exp:
        lifted = lifted * den_power(amb, d.d_exp, d.d22_exp)
    q = exact_divide(lifted, d.num)
    if q is None:
        return None
    return LocalizedElement(q, x.d_exp, x.d22_exp)


def loc_weight(x: LocalizedElement):
    """Column-content weight of the element, or None when inhomogeneous.

    D contributes one to every column at most m and D22 one to every column
    above m, so denominators subtract the corresponding constant vectors.
    """
    amb = x.ambient
    w = weight_of(x.num)
    if w is None:
        return None
    out = list(w)
    for j in range(amb.m):
        out[j] -= x.d_exp
    for j in range(amb.m, amb.size):
        out[j] -= x.d22_exp
    return tuple(out)


def loc_pow(x: LocalizedElement, e: int) -> LocalizedElement:
    if e < 0:
        raise UsageError("negative powers are not defined for localized elements")
    return LocalizedElement(x.num**e, x.d_exp * e, x.d22_exp * e)


# -- text format -----------------------------------------------------------------


def render_loc(x: LocalizedElement) -> str:
    return f"{render_poly(x.num)} / D^{x.d_exp} D22^{x.d22_exp}"
