"""Minors of the generator matrix, the adjugate of the even block, and the
derived ring elements built from them.

Determinants of submatrices with odd entries are always the row-ordered
Leibniz sums; expanding along an arbitrary row is only sound when every row
above it is even, and the guarded helper enforces that.
"""

from __future__ import annotations

from itertools import permutations

from .fraction import (
    LocalizedElement,
    det_block11,
    embed_poly,
    loc_eq,
    loc_mul,
    loc_sum,
)
from .superpoly import (
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    check_det_size,
    leibniz_det,
    perm_sign,
)


def row_initial_minor(amb: Ambient, cols) -> SuperPolynomial:
    """Determinant over rows 1..len(cols) and the given columns."""
    cols = tuple(cols)
    return leibniz_det(amb, range(1, len(cols) + 1), cols)


def laplace_along_row(amb: Ambient, rows, cols, t: int) -> SuperPolynomial:
    """Expansion along row position t (1-based); every row above t must be even."""
    rows, cols = tuple(rows), tuple(cols)
    if not 1 <= t <= len(rows):
        raise UsageError(f"row position {t} outside 1..{len(rows)}")
    for r in rows[: t - 1]:
        for c in cols:
            if amb.gen_parity(r, c):
                raise UsageError(
                    "expansion along a lower row needs even entries above it"
                )
    out = amb.zero()
    rest_rows = rows[: t - 1] + rows[t:]
    for b, col in enumerate(cols):
        rest_cols = cols[:b] + cols[b + 1 :]
        term = amb.gen(rows[t - 1], col) * leibniz_det(amb, rest_rows, rest_cols)
        out = out + (term if (t + b + 1) % 2 == 0 else -term)
    return out


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
                    total = amb.zero()
                    for a in all_rows:
                        total = total + table[(i, a)] * amb.gen(a, s)
                    expect = d if i == s else amb.zero()
                    if total != expect:
                        raise InternalError("adjugate table fails its defining law")
        return table

    return amb.cached("adjugate", build)


def adjugate_entry(amb: Ambient, i: int, a: int) -> SuperPolynomial:
    if not (1 <= i <= amb.m and 1 <= a <= amb.m):
        raise UsageError("adjugate indices must lie in the even block")
    return _adjugate_table(amb)[(i, a)]


def adjugate_law_check(amb: Ambient, i: int, s: int) -> bool:
    """sum_a adj[i,a]·c[a,s] equals D exactly when i == s."""
    total = amb.zero()
    for a in range(1, amb.m + 1):
        total = total + adjugate_entry(amb, i, a) * amb.gen(a, s)
    expect = det_block11(amb) if i == s else amb.zero()
    return total == expect


# -- localized entries y and the twisted generators --------------------------------


def y_entry(amb: Ambient, i: int, j: int) -> LocalizedElement:
    """y[i,j] = (sum_a adj[i,a]·c[a,j]) / D, for i in the even block."""
    if not 1 <= i <= amb.m:
        raise UsageError("y rows must lie in the even block")
    if not 1 <= j <= amb.size:
        raise UsageError("column index out of range")

    def build():
        num = amb.zero()
        for a in range(1, amb.m + 1):
            num = num + adjugate_entry(amb, i, a) * amb.gen(a, j)
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
        num = amb.gen(k, l) * det_block11(amb)
        for a in range(1, m + 1):
            num = num - amb.gen(k, a) * y_entry(amb, a, l).num
        return LocalizedElement(num, 1, 0)

    return amb.cached(("phi", k, l), build)


def loc_det(amb: Ambient, entries) -> LocalizedElement:
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
        if perm_sign(perm) < 0:
            term = LocalizedElement(-term.num, term.d_exp, term.d22_exp)
        terms.append(term)
    return loc_sum(amb, terms)


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
    rhs = loc_sum(amb, [
        loc_mul(embed_poly(row_initial_minor(amb, ks + (a,))), y_entry(amb, a, l))
        for a in range(1, amb.m + 1)
    ])
    return loc_eq(lhs, rhs)


def muir_adjugate_sum_check(amb: Ambient, ks, s: int) -> bool:
    """sum_a C(ks,a)·adj[a,s] collapses to a single signed minor times D."""
    ks = tuple(ks)
    j = len(ks)
    if j + 1 > amb.m:
        raise UsageError("too many columns for the even block's rows")
    total = amb.zero()
    for a in range(1, amb.m + 1):
        total = total + row_initial_minor(amb, ks + (a,)) * adjugate_entry(amb, a, s)
    if s > j + 1:
        return total.is_zero()
    rows = tuple(r for r in range(1, j + 2) if r != s)
    comp = leibniz_det(amb, rows, ks)
    rhs = comp * det_block11(amb)
    sign = 1 if (s + j + 1) % 2 == 0 else -1
    return total == rhs.scale(sign)
