"""Floor checks that only the tests read: exact span membership and rank of
floor coefficients, floor extraction validated against the spanning set of
the weight's even-subgroup module, and the recursion for the highest
vector's mixed derivatives.  Each is a second route to a fact the package
computes another way."""

from superinduce.derivation import apply_loc
from superinduce.floors_primitives import extract_floors
from superinduce.fraction import (
    LocalizedElement,
    common_numerators,
    embed_poly,
    loc_dot,
    loc_eq,
    loc_mul,
    loc_scale,
    loc_weight,
)
from superinduce.minors import y_entry
from superinduce.superpoly import Ambient, SuperPolynomial, UsageError, monomial_column_content
from superinduce.weights_tableaux import (
    Weight,
    bideterminant_minus,
    bideterminant_plus,
    enumerate_semistandard,
    highest_vector,
)


# -- span membership and exact linear algebra -----------------------------------------


def _weight_components(x: LocalizedElement):
    amb = x.ambient
    buckets: dict = {}
    for mono, c in x.num.terms.items():
        buckets.setdefault(monomial_column_content(amb, mono), {})[mono] = c
    out = []
    for _, terms in sorted(buckets.items()):
        out.append(LocalizedElement(SuperPolynomial(amb, terms), x.d_exp, x.d22_exp))
    return out


def _echelon_insert(amb: Ambient, rows, vec):
    """Reduce vec against the echelon rows in place; returns the remainder."""
    field = amb.field
    vec = field.clean(vec)
    for pivot, row in rows.items():
        if pivot in vec:
            factor = vec[pivot] * field.inv(row[pivot])
            for k, c in row.items():
                vec[k] = vec.get(k, 0) - factor * c
            vec = field.clean(vec)
    return vec


def in_span(target: LocalizedElement, candidates) -> bool:
    """Exact span membership of a localized element among candidates."""
    amb = target.ambient
    _, _, nums = common_numerators(amb, list(candidates) + [target])
    cand_vecs, target_vec = [dict(p.terms) for p in nums[:-1]], dict(nums[-1].terms)
    rows: dict = {}
    for vec in cand_vecs:
        rem = _echelon_insert(amb, rows, vec)
        if rem:
            rows[max(rem)] = rem
    return not _echelon_insert(amb, rows, target_vec)


def rank_of_floor_elements(elems) -> int:
    """Exact rank of a family of floor elements of one floor."""
    if not elems:
        return 0
    amb = elems[0].ambient
    vecs: list = [{} for _ in elems]
    for k in sorted({k for e in elems for k in e.terms}):
        owners = [vec for vec, e in zip(vecs, elems) if k in e.terms]
        _, _, nums = common_numerators(amb, [e.terms[k] for e in elems if k in e.terms])
        for vec, p in zip(owners, nums):
            vec.update(((k, mono), v) for mono, v in p.terms.items())
    rows: dict = {}
    rank = 0
    for vec in vecs:
        rem = _echelon_insert(amb, rows, vec)
        if rem:
            rows[max(rem)] = rem
            rank += 1
    return rank


def _module_candidates(amb: Ambient, w: Weight):
    """Embedded spanning set of the even-subgroup module of weight w: products
    of plus and minus bideterminants over semistandard tableaux, with a
    negative last plus entry folded into the denominator."""
    if w.minus[-1] < 0:
        raise UsageError("normalize away the determinant twist first")
    m, n = amb.m, amb.n
    extra_d = 0
    plus_parts = list(w.plus)
    if plus_parts[-1] < 0:
        extra_d = -plus_parts[-1]
        plus_parts = [v + extra_d for v in plus_parts]
    shape_plus = tuple(v for v in plus_parts if v > 0)
    shape_minus = tuple(v for v in w.minus if v > 0)
    out = []
    for tp in enumerate_semistandard(shape_plus, 1, m):
        bp = bideterminant_plus(amb, tp)
        for tm in enumerate_semistandard(shape_minus, m + 1, m + n):
            bm = bideterminant_minus(amb, tm)
            cand = loc_mul(embed_poly(bp), bm)
            if extra_d:
                cand = LocalizedElement(cand.num, cand.d_exp + extra_d, cand.d22_exp)
            if not cand.is_zero():
                out.append(cand)
    return out


def floor_decompose(x: LocalizedElement, w: Weight):
    """Extract floors and validate every coefficient against the spanning set
    of the weight's even-subgroup module; None when not representable."""
    amb = x.ambient
    floors = extract_floors(x)
    if floors is None:
        return None
    candidates = _module_candidates(amb, w)
    by_weight: dict = {}
    for cand in candidates:
        by_weight.setdefault(loc_weight(cand), []).append(cand)
    for fe in floors.values():
        for coeff in fe.terms.values():
            for comp in _weight_components(coeff):
                cw = loc_weight(comp)
                cands = by_weight.get(cw, [])
                if not cands:
                    return None
                if not in_span(comp, cands):
                    return None
    return [floors[r] for r in sorted(floors)]


# -- the highest vector's recursion ----------------------------------------------------


def highest_vector_recursion_check(amb: Ambient, w: Weight, k: int, l: int) -> bool:
    """The highest vector's mixed derivative unfolds by the recursion with the
    weight-sum leading coefficient, and the reversed direction kills it."""
    if not (k <= amb.m < l):
        raise UsageError("the recursion is for upward mixed directions")
    v = highest_vector(amb, w)
    lhs = apply_loc((k, l), v)
    lead = w.plus[k - 1] + w.minus[l - amb.m - 1]
    rhs = loc_dot(amb, [
        (loc_scale(v, lead), y_entry(amb, k, l)),
        *((apply_loc((k, s), v), y_entry(amb, s, l)) for s in range(k + 1, amb.m + 1)),
        *((apply_loc((t, l), v), y_entry(amb, k, t)) for t in range(amb.m + 1, l)),
    ])
    if not loc_eq(lhs, rhs):
        return False
    return apply_loc((l, k), v).is_zero()
