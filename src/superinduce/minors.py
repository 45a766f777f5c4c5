"""Minors of the generator matrix, the adjugate of the even block, and the
derived ring elements built from them.

Every minor is superpoly.det's row-ordered Leibniz sum.
"""

from __future__ import annotations

from .fraction import (
    LocalizedElement,
    det_block11,
    embed_poly,
    loc_dot,
    loc_eq,
)
from .superpoly import (
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    dot,
    leibniz_det,
)


def row_initial_minor(amb: Ambient, cols) -> SuperPolynomial:
    """Determinant over rows 1..len(cols) and the given columns."""
    cols = tuple(cols)
    return leibniz_det(amb, range(1, len(cols) + 1), cols)


# -- adjugate of the even block ----------------------------------------------------


def _adjugate_table(amb: Ambient):
    def build():
        m = amb.m
        all_rows = tuple(range(1, m + 1))
        table = {}
        for i in all_rows:
            for a in all_rows:
                rows = tuple(r for r in all_rows if r != a)
                cols = tuple(c for c in all_rows if c != i)
                cof = leibniz_det(amb, rows, cols)
                table[(i, a)] = cof if (i + a) % 2 == 0 else -cof
        if m <= 3:
            d = det_block11(amb)
            for i in all_rows:
                for s in all_rows:
                    total = dot(amb, ((table[(i, a)], amb.gen(a, s)) for a in all_rows))
                    expect = d if i == s else amb.zero()
                    if total != expect:
                        raise InternalError("adjugate table fails its defining law")
        return table

    return amb.cached("adjugate", build)


def adjugate_entry(amb: Ambient, i: int, a: int) -> SuperPolynomial:
    if not (1 <= i <= amb.m and 1 <= a <= amb.m):
        raise UsageError("adjugate indices must lie in the even block")
    return _adjugate_table(amb)[(i, a)]


# -- localized entries y and the twisted generators --------------------------------


def y_entry(amb: Ambient, i: int, j: int) -> LocalizedElement:
    """y[i,j] = (sum_a adj[i,a]·c[a,j]) / D, for i in the even block."""
    if not 1 <= i <= amb.m:
        raise UsageError("y rows must lie in the even block")
    if not 1 <= j <= amb.size:
        raise UsageError("column index out of range")

    def build():
        num = dot(amb, ((adjugate_entry(amb, i, a), amb.gen(a, j)) for a in range(1, amb.m + 1)))
        return LocalizedElement(num, 1, 0)

    return amb.cached(("y", i, j), build)


def twisted_generator(amb: Ambient, k: int, l: int) -> LocalizedElement:
    """The generator image under the triangular change of coordinates.

    Even-block and lower-left entries map to themselves, upper-right entries
    to y[k,l], and lower-right entries to c[k,l] - sum_a c[k,a]·y[a,l].
    """
    if not (1 <= k <= amb.size and 1 <= l <= amb.size):
        raise UsageError("generator index out of range")
    m = amb.m

    def build():
        if k <= m < l:
            return y_entry(amb, k, l)
        if k <= m or l <= m:
            return embed_poly(amb.gen(k, l))
        num = dot(amb, ((amb.gen(k, l), det_block11(amb)), *(
            (amb.gen(k, a).scale(-1), y_entry(amb, a, l).num) for a in range(1, m + 1))))
        return LocalizedElement(num, 1, 0)

    return amb.cached(("phi", k, l), build)


# -- identity checks ----------------------------------------------------------------


def jacobi_identity_check(amb: Ambient, i: int, k: int, a: int, b: int) -> bool:
    """adj[i,a]·adj[k,b] - adj[k,a]·adj[i,b] against the complementary minor.

    For i < k the difference equals ±D times the minor with rows a,b and
    columns k,i removed, the sign being (-1)^(a+b+k+i) when a < b and its
    negative when a > b; it vanishes when a == b.
    """
    m = amb.m
    lhs = adjugate_entry(amb, i, a) * adjugate_entry(amb, k, b) - adjugate_entry(
        amb, k, a
    ) * adjugate_entry(amb, i, b)
    if a == b or i == k:
        return lhs.is_zero()
    rows = tuple(r for r in range(1, m + 1) if r not in (a, b))
    cols = tuple(c for c in range(1, m + 1) if c not in (k, i))
    comp = leibniz_det(amb, rows, cols)
    rhs = det_block11(amb) * comp
    sign = 1 if (a + b + k + i) % 2 == 0 else -1
    if a > b:
        sign = -sign
    return lhs == rhs.scale(sign)


def muir_identity_check(amb: Ambient, ks, l: int) -> bool:
    """The row-initial minor with final column l > m equals the y-weighted sum
    of its even-column companions."""
    ks = tuple(ks)
    if l <= amb.m:
        raise UsageError("the final column must lie beyond the even block")
    if any(not 1 <= k <= amb.m for k in ks):
        raise UsageError("leading columns must lie in the even block")
    if len(ks) + 1 > amb.m:
        raise UsageError("too many columns for the even block's rows")
    lhs = embed_poly(row_initial_minor(amb, ks + (l,)))
    rhs = loc_dot(amb, ((embed_poly(row_initial_minor(amb, ks + (a,))), y_entry(amb, a, l))
                        for a in range(1, amb.m + 1)))
    return loc_eq(lhs, rhs)
