"""Minor identities that only the tests read: Laplace expansion along a row,
a second route to the Leibniz determinant, and two checks of the adjugate
table, its defining law and the Muir-type collapse of minors against its
entries."""

from superinduce.fraction import det_block11
from superinduce.minors import adjugate_entry, row_initial_minor
from superinduce.superpoly import Ambient, SuperPolynomial, UsageError, dot, leibniz_det


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
    rest_rows = rows[: t - 1] + rows[t:]
    return dot(amb, (
        (amb.gen(rows[t - 1], col).scale(1 if (t + b + 1) % 2 == 0 else -1),
         leibniz_det(amb, rest_rows, cols[:b] + cols[b + 1 :]))
        for b, col in enumerate(cols)))


def adjugate_law_check(amb: Ambient, i: int, s: int) -> bool:
    """sum_a adj[i,a]·c[a,s] equals D exactly when i == s."""
    total = dot(amb, ((adjugate_entry(amb, i, a), amb.gen(a, s)) for a in range(1, amb.m + 1)))
    expect = det_block11(amb) if i == s else amb.zero()
    return total == expect


def muir_adjugate_sum_check(amb: Ambient, ks, s: int) -> bool:
    """sum_a C(ks,a)·adj[a,s] collapses to a single signed minor times D."""
    ks = tuple(ks)
    j = len(ks)
    if j + 1 > amb.m:
        raise UsageError("too many columns for the even block's rows")
    total = dot(amb, ((row_initial_minor(amb, ks + (a,)), adjugate_entry(amb, a, s))
                      for a in range(1, amb.m + 1)))
    if s > j + 1:
        return total.is_zero()
    rows = tuple(r for r in range(1, j + 2) if r != s)
    comp = leibniz_det(amb, rows, ks)
    rhs = comp * det_block11(amb)
    sign = 1 if (s + j + 1) % 2 == 0 else -1
    return total == rhs.scale(sign)
