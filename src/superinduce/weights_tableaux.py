"""Weights of the diagonal torus, tableaux, bideterminants, and highest vectors.

A weight is a pair of integer vectors, one per block.  Tableaux are fillings
of partition shapes; their columns index the initial-rows minors whose
products are the bideterminants.  A minus bideterminant, a product of
twisted minors each over D to its column's length, is kept over D^h for h
the tableau's number of rows: by Jacobi's complementary-minor identity each
row adds at most one net power of D (see ``bideterminant_minus``).  The
highest vector of a dominant weight is the product of the nested leading
minors of both blocks raised to the consecutive differences of the weight.
A power e of the minus minor of size b is the minus bideterminant of the
b-row rectangle of e columns, kept over D^b in place of D^(b·e) and then in
lowest terms, and the power of the full even-block minor, D itself, cancels
against those denominators by exponent arithmetic.  ``ledger_exponent``
gives the exponent of the unreduced product, which output renders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fraction import (
    LocalizedElement,
    den_power,
    embed_poly,
    loc_mul,
    loc_weight,
    lowest_terms,
)
from .minors import row_initial_minor, twisted_generator
from .superpoly import (
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    det,
    exact_divide,
    parse_integer,
    product,
)


@dataclass(frozen=True)
class Weight:
    plus: tuple
    minus: tuple

    def __post_init__(self):
        if not self.plus or not self.minus:
            raise UsageError("both blocks of a weight must be nonempty")
        for v in (*self.plus, *self.minus):
            if not isinstance(v, int):
                raise UsageError("weight entries must be integers")

    @property
    def m(self) -> int:
        return len(self.plus)

    @property
    def n(self) -> int:
        return len(self.minus)

    def as_tuple(self) -> tuple:
        return self.plus + self.minus

    def __repr__(self):
        return f"Weight({render_weight(self)!r})"


def make_weight(plus, minus) -> Weight:
    return Weight(tuple(int(v) for v in plus), tuple(int(v) for v in minus))


def is_dominant(w: Weight) -> bool:
    return all(a >= b for a, b in zip(w.plus, w.plus[1:])) and all(
        a >= b for a, b in zip(w.minus, w.minus[1:])
    )


def weight_add(a: Weight, b: Weight) -> Weight:
    if a.m != b.m or a.n != b.n:
        raise UsageError("weights have different block sizes")
    return Weight(
        tuple(x + y for x, y in zip(a.plus, b.plus)),
        tuple(x + y for x, y in zip(a.minus, b.minus)),
    )


def lambda_ij(w: Weight, i: int, j: int) -> Weight:
    """The weight after one step in direction (i, j): subtract at plus-i,
    add at minus-j."""
    if not 1 <= i <= w.m:
        raise UsageError("plus-block index out of range")
    if not 1 <= j <= w.n:
        raise UsageError("minus-block index out of range")
    plus, minus = list(w.plus), list(w.minus)
    plus[i - 1] -= 1
    minus[j - 1] += 1
    return Weight(tuple(plus), tuple(minus))


def content_of_pairs(m: int, n: int, I, J) -> Weight:
    """Content of an index family: minus the multiplicity of each plus index,
    plus the multiplicity of each minus index (minus indices are relative)."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise UsageError("index families must pair up")
    for i in I:
        if not 1 <= i <= m:
            raise UsageError("plus index out of range")
    for j in J:
        if not 1 <= j <= n:
            raise UsageError("minus index out of range")
    plus = tuple(-I.count(s) for s in range(1, m + 1))
    minus = tuple(J.count(t) for t in range(1, n + 1))
    return Weight(plus, minus)


def lambda_IJ(w: Weight, I, J) -> Weight:
    return weight_add(w, content_of_pairs(w.m, w.n, I, J))


def absorbs_content(w: Weight, content: Weight) -> bool:
    """The consecutive gaps of the weight absorb the multiplicities of the
    content, so no denominators beyond the standard ones appear downstream."""
    m, n = w.m, w.n
    for s in range(1, m):
        if w.plus[s - 1] - w.plus[s] < -content.plus[s - 1]:
            return False
    if w.plus[m - 1] < -content.plus[m - 1]:
        return False
    for t in range(2, n + 1):
        if w.minus[t - 2] - w.minus[t - 1] < content.minus[t - 1]:
            return False
    return True


def is_robust(w: Weight, I, J) -> bool:
    """The weight absorbs the content of the index family (``absorbs_content``)."""
    return absorbs_content(w, content_of_pairs(w.m, w.n, I, J))


def is_ordered_family(I, J) -> bool:
    """The families pair up, plus indices weakly increase, and ties force
    strictly increasing minus indices."""
    if len(I) != len(J):
        return False
    for s in range(1, len(I)):
        if I[s - 1] > I[s]:
            return False
        if I[s - 1] == I[s] and J[s - 1] >= J[s]:
            return False
    return True


def is_admissible_pair(w: Weight, I, J) -> bool:
    """An ordered family (``is_ordered_family``) whose shifted weight
    ``lambda_IJ(w, I, J)`` stays dominant.

    An unordered family is False before any index is read; then a plus index
    out of range raises before a minus index out of range.  The shift runs in
    one pass over I and J on list copies of the two blocks, so the test
    builds no ``Weight``.
    """
    I, J = tuple(I), tuple(J)
    if not is_ordered_family(I, J):
        return False
    # an ordered I weakly increases, so its ends bound it
    if I and not (1 <= I[0] and I[-1] <= w.m):
        raise UsageError("plus index out of range")
    if J and not (1 <= min(J) and max(J) <= w.n):
        raise UsageError("minus index out of range")
    plus, minus = list(w.plus), list(w.minus)
    for i, j in zip(I, J):
        plus[i - 1] -= 1
        minus[j - 1] += 1
    # weakly decreasing exactly when sorting downwards leaves it as it is
    return plus == sorted(plus, reverse=True) and minus == sorted(minus, reverse=True)


# -- text forms -----------------------------------------------------------------


def render_weight(w: Weight) -> str:
    return "[{}|{}]".format(
        ",".join(str(v) for v in w.plus), ",".join(str(v) for v in w.minus)
    )


def parse_weight(text: str) -> Weight:
    squeezed = re.sub(r"\s+", "", text)
    m = re.fullmatch(r"\[(-?[0-9]+(?:,-?[0-9]+)*)\|(-?[0-9]+(?:,-?[0-9]+)*)\]", squeezed)
    if m is None:
        raise UsageError(f"unrecognized weight literal {text!r}")
    plus = tuple(parse_integer(v) for v in m.group(1).split(","))
    minus = tuple(parse_integer(v) for v in m.group(2).split(","))
    return Weight(plus, minus)


# -- tableaux ---------------------------------------------------------------------


@dataclass(frozen=True)
class Tableau:
    shape: tuple
    cells: tuple  # tuple of row tuples, row r has shape[r] entries

    def __post_init__(self):
        if list(self.shape) != sorted(self.shape, reverse=True):
            raise UsageError("shape must be a partition (weakly decreasing)")
        if any(s <= 0 for s in self.shape):
            raise UsageError("shape parts must be positive")
        if len(self.cells) != len(self.shape):
            raise UsageError("cell rows do not match the shape")
        for row, width in zip(self.cells, self.shape):
            if len(row) != width:
                raise UsageError("cell rows do not match the shape")


def tableau_columns(t: Tableau):
    width = t.shape[0] if t.shape else 0
    cols = []
    for b in range(width):
        cols.append(tuple(row[b] for row in t.cells if len(row) > b))
    return cols


def enumerate_semistandard(shape, min_entry: int, max_entry: int):
    """All semistandard fillings of the shape with entries in the given range."""
    shape = tuple(shape)
    if not shape:
        yield Tableau((), ())
        return
    rows = len(shape)
    cells = [[0] * w for w in shape]

    def fill(r, c):
        if r == rows:
            yield Tableau(shape, tuple(tuple(row) for row in cells))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = min_entry
        if c > 0:
            lo = max(lo, cells[r][c - 1])
        if r > 0:
            lo = max(lo, cells[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            cells[r][c] = v
            yield from fill(nr, nc)

    yield from fill(0, 0)


# -- bideterminants and the highest vector -----------------------------------------


def dminus(amb: Ambient, cols) -> LocalizedElement:
    """Initial-rows minor of the twisted lower-right block: rows are the first
    len(cols) odd-block rows, columns the given absolute indices (> m): the
    determinant of the twisted generators' numerators, each over D."""
    cols = tuple(cols)
    if any(not amb.m < c <= amb.size for c in cols):
        raise UsageError("columns of the minus minor must lie beyond the even block")
    if len(cols) > amb.n:
        raise UsageError("too many columns for the odd block's rows")

    def build():
        rows = [[twisted_generator(amb, r, c) for c in cols]
                for r in range(amb.m + 1, amb.m + len(cols) + 1)]
        if any((z.d_exp, z.d22_exp) != (1, 0) for row in rows for z in row):
            raise InternalError("a twisted generator of the odd block is not over D")
        return LocalizedElement(det(amb, [[z.num for z in row] for row in rows]), len(cols), 0)

    return amb.cached(("dminus", cols), build)


def bideterminant_plus(amb: Ambient, t: Tableau) -> SuperPolynomial:
    return product(amb, (row_initial_minor(amb, col) for col in tableau_columns(t)))


def bideterminant_minus(amb: Ambient, t: Tableau) -> LocalizedElement:
    """The product of the dminus minors of the tableau's columns, over D^h
    for h the number of rows rather than over D to the total column length.

    A twisted generator of the odd block is c[k,l] - X[k,l]/D with
    X[k,l] = sum over a, b of c[k,a]·adj[a,b]·c[b,l].  The c[k,a] of one row
    k are odd and anticommute, so a product of r X entries from row k
    antisymmetrises r adjugate entries into an r-row minor of the adjugate,
    which Jacobi's complementary-minor identity writes as ±D^(r-1) times the
    complementary minor of C11: each row adds at most one net power of D.
    The first (longest) column already sits over D^h; every later column is
    multiplied in and its power of D divided off again at once, so no
    intermediate carries the terms of the larger denominator.  A division
    that fails is a bug and raises InternalError.  D^h is lowest terms in
    char 0 but not always in char p: at (1,1) in char 3 the one-row tableau
    2,2,2 gives c[1,1]·c[2,2]^3 / D, which is c[2,2]^3.
    """
    h = len(t.shape)
    # an empty tableau has the one minor of no columns, which is one
    columns = tableau_columns(t) or [()]
    out = dminus(amb, columns[0])
    for col in columns[1:]:
        out = loc_mul(out, dminus(amb, col))
        excess = out.d_exp - h
        if excess > 0:
            num = exact_divide(out.num, den_power(amb, excess, 0))
            if num is None:
                raise InternalError("a minus bideterminant is not divisible down to D^h")
            out = LocalizedElement(num, h, out.d22_exp)
    return out


def exponent_ledger(w: Weight):
    """(plus, minus): the power of each nested leading minor in the highest
    vector, the consecutive differences of each block of the weight."""
    plus = [w.plus[a] - w.plus[a + 1] for a in range(w.m - 1)] + [w.plus[-1]]
    minus = [w.minus[b] - w.minus[b + 1] for b in range(w.n - 1)] + [w.minus[-1]]
    return plus, minus


def leading_minor_power(amb: Ambient, block: str, size: int, e: int) -> LocalizedElement:
    """The nested leading minor of the given size in the "plus" block (a
    row-initial minor of the even block) or the "minus" block (a dminus
    minor), to the power e >= 1; built once per ring and exponent.

    The minus power is the minus bideterminant of the rectangle of e columns
    of the first `size` odd-block rows, so it is built over D^size, not
    D^(size·e), and then brought to lowest terms (which in char p can go
    below D^size)."""

    def build():
        if block == "plus":
            return embed_poly(row_initial_minor(amb, range(1, size + 1)) ** e)
        rows = tuple((amb.m + r,) * e for r in range(1, size + 1))
        return lowest_terms(bideterminant_minus(amb, Tableau((e,) * size, rows)))

    return amb.cached(("minorpow", block, size, e), build)


def minor_power_product(amb: Ambient, plus_exps, minus_exps) -> LocalizedElement:
    """Product of nested leading minors to the given powers; only the full
    even-block minor may carry a negative power.

    The full even-block minor is D itself, so its power only moves the
    exponent of D: it cancels against the denominators of the minus powers,
    and only a power of D left over multiplies the numerator.  No division is
    made, so the product need not be in lowest terms."""
    *partial, full = plus_exps
    factors = []
    for a, e in enumerate(partial, start=1):
        if e < 0:
            raise InternalError("negative exponent on a non-invertible minor")
        if e:
            factors.append(leading_minor_power(amb, "plus", a, e))
    for b, e in enumerate(minus_exps, start=1):
        if e < 0:
            raise InternalError("negative exponent on a minus minor")
        if e:
            factors.append(leading_minor_power(amb, "minus", b, e))
    nums = [f.num for f in factors]
    d_exp = sum(f.d_exp for f in factors) - full
    if d_exp < 0:
        nums.append(den_power(amb, -d_exp, 0))
        d_exp = 0
    return LocalizedElement(product(amb, nums), d_exp, 0)


def ledger_exponent(plus_exps, minus_exps) -> int:
    """The power of D that the product of nested leading minors to these
    powers sits over when each power is multiplied out unreduced: each power
    of a minus minor of size b brings D^b, and a negative power of the full
    even-block minor D moves into the denominator.  Output raises a value
    built from the reduced factors back to this exponent (fraction.raised_to),
    so its text does not depend on how far the factors were reduced."""
    return sum(b * e for b, e in enumerate(minus_exps, start=1)) + max(0, -plus_exps[-1])


def check_highest_weight(amb: Ambient, w: Weight):
    """Raise UsageError unless w has the ring's block sizes, is dominant and
    has a nonnegative last minus entry: the weights that the highest vector
    and every floor vector are built for."""
    if (w.m, w.n) != (amb.m, amb.n):
        raise UsageError("weight block sizes do not match the ambient")
    if not is_dominant(w):
        raise UsageError("weight must be dominant")
    if w.minus[-1] < 0:
        raise UsageError(
            "last minus entry is negative; normalize away the determinant twist first"
        )


def highest_vector(amb: Ambient, w: Weight) -> LocalizedElement:
    """Product of nested leading minors with exponents the consecutive
    differences of the weight; a negative last plus entry folds into the
    denominator, while a negative last minus entry is rejected (normalize
    away the twist first)."""
    check_highest_weight(amb, w)
    out = minor_power_product(amb, *exponent_ledger(w))
    if loc_weight(out) != w.as_tuple():
        raise InternalError("highest vector has the wrong weight")
    return out


def random_dominant_weight(m: int, n: int, rng, max_entry: int = 4) -> Weight:
    """Random dominant weight with entries in 0..max_entry (last minus entry
    included, so the result is directly realizable)."""
    plus = sorted((rng.randint(0, max_entry) for _ in range(m)), reverse=True)
    minus = sorted((rng.randint(0, max_entry) for _ in range(n)), reverse=True)
    return Weight(tuple(plus), tuple(minus))
