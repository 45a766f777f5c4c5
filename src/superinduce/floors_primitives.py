"""The structured model: floors of the induced module, the distinguished
vectors built from minors, and the primitivity machinery.

A floor-r element is a sum of exterior words in r distinct mixed-slot
symbols y[i,j] (i in the even block, j beyond it) with localized
coefficients from the even subring; embedding multiplies everything out in
the raw ring, where the y symbols become the adjugate-over-determinant
entries.  The inverse direction — extraction of floors from a raw element —
is a change of generators: mixed and lower-right raw generators are
rewritten through the y and twisted-z slots, and terms are graded by their
y content.

The distinguished vectors pi are assembled from initial-rows minors; when
the weight is not robust for an index family, the assembly lives only in
the fraction field and the exact-division gate reports that honestly
instead of clearing denominators silently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product as iter_product
from math import factorial, gcd
from operator import mul

from .derivation import apply_loc, basic
from .fraction import (
    LocalizedElement,
    common_numerators,
    den_power,
    embed_poly,
    is_polynomial,
    loc_add,
    loc_divide_exact,
    loc_eq,
    loc_mul,
    loc_pow,
    loc_scale,
    loc_sum,
    loc_weight,
    render_loc,
)
from .minors import row_initial_minor, twisted_generator, y_entry
from .superpoly import (
    FIELD_BITS,
    FIELD_MASK,
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    exact_divide,
    koszul_mask,
    monomial_column_content,
    monomial_items,
    sort_with_sign,
)
from .weights_tableaux import (
    Weight,
    dminus,
    enumerate_semistandard,
    bideterminant_minus,
    bideterminant_plus,
    exponent_ledger,
    highest_vector,
    is_admissible_pair,
    is_dominant,
    minor_power_product,
)


class FloorElement:
    """Map from exterior words (sorted pair tuples) to localized coefficients,
    all words of one length (the floor index)."""

    __slots__ = ("ambient", "floor", "terms")

    def __init__(self, amb: Ambient, floor: int, terms: dict):
        if floor < 0:
            raise UsageError("floor index must be nonnegative")
        clean = {}
        for key, coeff in terms.items():
            key = tuple(tuple(p) for p in key)
            if len(key) != floor:
                raise UsageError("exterior word length does not match the floor")
            if list(key) != sorted(key) or len(set(key)) != len(key):
                raise UsageError("exterior words must be strictly sorted")
            for i, j in key:
                if not (1 <= i <= amb.m and amb.m < j <= amb.size):
                    raise UsageError(f"pair ({i},{j}) is not a mixed slot")
            if not coeff.is_zero():
                clean[key] = coeff
        self.ambient = amb
        self.floor = floor
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        inner = ", ".join(
            f"{key}: {render_loc(c)}" for key, c in sorted(self.terms.items())
        )
        return f"FloorElement(floor={self.floor}, {{{inner}}})"


def fe_zero(amb: Ambient, floor: int) -> FloorElement:
    return FloorElement(amb, floor, {})


def fe_add(a: FloorElement, b: FloorElement) -> FloorElement:
    if a.ambient != b.ambient or a.floor != b.floor:
        raise UsageError("floor elements must share ambient and floor")
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = loc_add(out[key], c) if key in out else c
    return FloorElement(a.ambient, a.floor, out)


def fe_scale(a: FloorElement, c) -> FloorElement:
    return FloorElement(
        a.ambient, a.floor, {k: loc_scale(v, c) for k, v in a.terms.items()}
    )


def fe_neg(a: FloorElement) -> FloorElement:
    return fe_scale(a, -1)


def fe_eq(a: FloorElement, b: FloorElement) -> bool:
    if a.ambient != b.ambient or a.floor != b.floor:
        return False
    for key in set(a.terms) | set(b.terms):
        x = a.terms.get(key)
        y = b.terms.get(key)
        if x is None:
            if not y.is_zero():
                return False
        elif y is None:
            if not x.is_zero():
                return False
        elif not loc_eq(x, y):
            return False
    return True


def embed_floor(x: FloorElement) -> LocalizedElement:
    amb = x.ambient
    pieces = []
    for key, term in x.terms.items():
        for i, j in key:
            term = loc_mul(term, y_entry(amb, i, j))
        pieces.append(term)
    return loc_sum(amb, pieces)


def floor_element_to_json(x: FloorElement) -> list:
    return [
        {"pairs": [list(p) for p in key], "coefficient": render_loc(c)}
        for key, c in sorted(x.terms.items())
    ]


# -- the distinguished first-floor vectors --------------------------------------------


def rho_pair(amb: Ambient, i: int, j: int) -> dict:
    """The weight-free part of the (i,j) vector: a map from mixed pairs to
    localized coefficients.  The minus index j is relative (1..n)."""
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
            right = dminus(amb, cols)
            coeff = loc_mul(left, right)
            if (s + j) % 2 == 1:
                coeff = loc_scale(coeff, -1)
            if not coeff.is_zero():
                out[(r, m + s)] = coeff
    return out


def _check_pi_preconditions(w: Weight, i: int, j: int):
    m, n = w.m, w.n
    if not (1 <= i <= m and 1 <= j <= n):
        raise UsageError("indices out of range")
    if i < m and w.plus[i - 1] == w.plus[i]:
        raise UsageError(
            f"first-floor vector undefined: plus entries {i} and {i+1} coincide"
        )
    if i == m and w.plus[m - 1] == 0:
        raise UsageError("first-floor vector undefined: last plus entry is zero")
    if j > 1 and w.minus[j - 2] == w.minus[j - 1]:
        raise UsageError(
            f"first-floor vector undefined: minus entries {j-1} and {j} coincide"
        )


def pi_ij(amb: Ambient, w: Weight, i: int, j: int) -> FloorElement:
    """The first-floor vector at (i, j): the highest vector divided by the
    (i, j) leading minors, times the weight-free double sum."""
    if (w.m, w.n) != (amb.m, amb.n):
        raise UsageError("weight block sizes do not match the ambient")
    if not is_dominant(w):
        raise UsageError("weight must be dominant")
    if w.minus[-1] < 0:
        raise UsageError("normalize away the determinant twist first")
    _check_pi_preconditions(w, i, j)
    plus_exps, minus_exps = exponent_ledger(w)
    plus_exps[i - 1] -= 1
    if j > 1:
        minus_exps[j - 2] -= 1
    prefactor = minor_power_product(amb, plus_exps, minus_exps)
    terms = {
        (pair,): loc_mul(prefactor, c) for pair, c in rho_pair(amb, i, j).items()
    }
    return FloorElement(amb, 1, terms)


def pi_plus(amb: Ambient, w: Weight, i: int) -> FloorElement:
    """Independent transcription of the one-minus-row case (n = 1)."""
    if amb.n != 1 or (w.m, w.n) != (amb.m, 1):
        raise UsageError("this construction is for a single minus row")
    if not is_dominant(w) or w.minus[0] < 0:
        raise UsageError("weight must be dominant with nonnegative minus entry")
    _check_pi_preconditions(w, i, 1)
    m = amb.m
    plus_exps, _ = exponent_ledger(w)
    plus_exps[i - 1] -= 1
    prefac = minor_power_product(amb, plus_exps, [0])
    phi_pow = loc_pow(twisted_generator(amb, m + 1, m + 1), w.minus[0])
    terms = {}
    for k in range(i, m + 1):
        minor = row_initial_minor(amb, tuple(range(1, i)) + (k,))
        if minor.is_zero():
            continue
        terms[((k, m + 1),)] = loc_mul(loc_mul(prefac, embed_poly(minor)), phi_pow)
    return FloorElement(amb, 1, terms)


def pi_minus(amb: Ambient, w: Weight, j: int) -> FloorElement:
    """Independent transcription of the one-plus-row case (m = 1)."""
    if amb.m != 1 or (w.m, w.n) != (1, amb.n):
        raise UsageError("this construction is for a single plus row")
    if not is_dominant(w) or w.minus[-1] < 0:
        raise UsageError("weight must be dominant with nonnegative last minus entry")
    _check_pi_preconditions(w, 1, j)
    # the single surviving row minor cancels the ledger decrement, so the
    # full power of the corner generator remains up front
    lead = w.plus[0]
    if lead >= 0:
        head = embed_poly(amb.gen(1, 1) ** lead)
    else:
        head = LocalizedElement(amb.one(), -lead, 0)
    _, minus_exps = exponent_ledger(w)
    if j > 1:
        minus_exps[j - 2] -= 1
    head = loc_mul(head, minor_power_product(amb, [0], minus_exps))
    terms = {}
    for k in range(1, j + 1):
        cols = tuple(1 + u for u in range(1, j + 1) if u != k)
        coeff = loc_mul(head, dminus(amb, cols))
        if (k + j) % 2 == 1:
            coeff = loc_scale(coeff, -1)
        if not coeff.is_zero():
            terms[((1, 1 + k),)] = coeff
    return FloorElement(amb, 1, terms)


# -- products of rho factors and the higher-floor vectors ----------------------------


def pi_IJ_raw(amb: Ambient, w: Weight, I, J):
    """Cleared form of the higher-floor vector: returns (element, defect).

    The element carries the positive-part minor powers; the defect collects
    the minor powers the weight's gaps could not absorb.  Dividing every
    coefficient by the defect recovers the true vector when that division is
    exact; the defect depends only on the content of the index family.
    """
    I, J = tuple(I), tuple(J)
    if (w.m, w.n) != (amb.m, amb.n):
        raise UsageError("weight block sizes do not match the ambient")
    if not is_dominant(w):
        raise UsageError("weight must be dominant")
    if not is_admissible_pair(w, I, J):
        raise UsageError("index family is not admissible for this weight")
    if w.minus[-1] < 0:
        raise UsageError("normalize away the determinant twist first")
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
            defect = loc_mul(
                defect, loc_pow(embed_poly(row_initial_minor(amb, range(1, a + 1))), -e)
            )
            pos_plus.append(0)
        else:
            pos_plus.append(e)  # a == m may stay negative: D is invertible
    for b, e in enumerate(minus_exps, start=1):
        if e < 0:
            defect = loc_mul(
                defect, loc_pow(dminus(amb, range(m + 1, m + b + 1)), -e)
            )
            pos_minus.append(0)
        else:
            pos_minus.append(e)
    v_pos = minor_power_product(amb, pos_plus, pos_minus)
    words = {(): embed_poly(amb.one())}
    for i_s, j_s in zip(I, J):
        factor = rho_pair(amb, i_s, j_s)
        new: dict = {}
        for word, c in words.items():
            for pair, c2 in factor.items():
                sign, merged = sort_with_sign(word + (pair,))
                if merged is None:
                    continue
                add = loc_mul(c, c2)
                new.setdefault(merged, []).append(add if sign > 0 else loc_scale(add, -1))
        words = {key: loc_sum(amb, pieces) for key, pieces in new.items()}
    terms = {key: loc_mul(v_pos, c) for key, c in words.items()}
    return FloorElement(amb, len(I), terms), defect


def divide_floor(x: FloorElement, defect: LocalizedElement):
    """Divide every coefficient by the defect; None when any division fails."""
    if loc_eq(defect, embed_poly(x.ambient.one())):
        return x
    out = {}
    for key, c in x.terms.items():
        q = loc_divide_exact(c, defect)
        if q is None:
            return None
        out[key] = q
    return FloorElement(x.ambient, x.floor, out)


def pi_IJ(amb: Ambient, w: Weight, I, J):
    """The higher-floor vector for an admissible family, or None when the
    weight is not robust enough for the element to live in the module."""
    raw, defect = pi_IJ_raw(amb, w, I, J)
    return divide_floor(raw, defect)


def search_module_combinations(raws, defect: LocalizedElement, bound: int = 2):
    """Small integer combinations of cleared vectors that survive the defect
    division.  Vectors are normalized: first nonzero multiplier positive,
    multipliers coprime.  Bounded search only — silence proves nothing."""
    if not raws:
        return []
    amb = raws[0].ambient
    floor = raws[0].floor
    for r in raws:
        if r.ambient != amb or r.floor != floor:
            raise UsageError("combination search needs matching floors")
    results = []
    for vec in iter_product(range(-bound, bound + 1), repeat=len(raws)):
        nz = [c for c in vec if c]
        if not nz or nz[0] < 0:
            continue
        g = 0
        for c in nz:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        combo = fe_zero(amb, floor)
        for c, r in zip(vec, raws):
            if c:
                combo = fe_add(combo, fe_scale(r, c))
        divided = divide_floor(combo, defect)
        if divided is not None:
            results.append((vec, divided))
    return results


def floor_is_polynomial(x: FloorElement) -> bool:
    """Every coefficient clears its denominators exactly."""
    return all(is_polynomial(c) is not None for c in x.terms.values())


# -- floor extraction: the change of generators ---------------------------------------


def _structured_image(amb: Ambient, i: int, j: int) -> SuperPolynomial:
    m = amb.m

    def build():
        if j <= m:
            return amb.gen(i, j)
        img = amb.zero() if i <= m else amb.gen(i, j)
        for a in range(1, m + 1):
            img = img + amb.gen(i, a) * amb.gen(a, j)
        return img

    return amb.cached(("floorsub", i, j), build)


def _block_masks(amb: Ambient):
    """Packed field masks (columns <= m, y slots, z slots, lower-left slots):
    the change of generators fixes every column <= m, and extraction grades
    by the y slots, collects the z slots and rejects the lower-left ones."""
    m = amb.m

    def mask(keep):
        return sum(FIELD_MASK << (f * FIELD_BITS)
                   for f, (i, j) in enumerate(amb.field_gens) if keep(i, j))

    return amb.cached("blockmasks", lambda: (
        mask(lambda i, j: j <= m),
        mask(lambda i, j: i <= m < j),
        mask(lambda i, j: i > m and j > m),
        mask(lambda i, j: i > m >= j),
    ))


def extract_floors(x: LocalizedElement):
    """Rewrite a raw element over the generators {even block, y slots, twisted
    z slots} and grade by y content: returns {floor: FloorElement}, or None
    when the element is not representable (a lower-left factor survives, or
    the lower-right determinant power cannot be cleared)."""
    amb = x.ambient
    num = x.num
    if x.d22_exp:
        num = exact_divide(num, den_power(amb, 0, x.d22_exp))
        if num is None:
            return None
    left_mask, y_mask, z_mask, lower_left = _block_masks(amb)
    odd = amb.odd_mask
    # each power of a generator's image, and of a factor, is built once a call
    image_pow = lru_cache(None)(lambda g, e: _structured_image(amb, *g) ** e)
    factor_pow = lru_cache(None)(lambda g, e: loc_pow(twisted_generator(amb, *g), e))
    # a term is its left part (columns <= m, fixed by the substitution) times
    # its right part, up to the Koszul sign of the right part's odd y slots
    # passing the left part's odd lower-left factors: one product per right part
    by_right: dict = {}
    for mono, c in num.terms.items():
        left = mono & left_mask
        right = mono ^ left
        if (left & odd & koszul_mask(right & odd)).bit_count() & 1:
            c = -c
        by_right.setdefault(right, {})[left] = c
    substituted: dict = {}
    for right, lefts in by_right.items():
        part = SuperPolynomial(amb, lefts)
        if right:
            part = part * reduce(mul, (image_pow(*g) for g in monomial_items(amb, right)))
        for mo, c in part.terms.items():
            substituted[mo] = substituted.get(mo, 0) + c
    # the coefficient of a y word is the sum over z parts of the even-block
    # polynomial times the z part's image, which is built once and shared
    grouped: dict = {}
    for mono, c in SuperPolynomial(amb, substituted).terms.items():
        if mono & lower_left:
            return None  # lower-left content is not representable
        y_part = mono & y_mask
        z_part = mono & z_mask
        grouped.setdefault(y_part, {}).setdefault(z_part, {})[mono ^ y_part ^ z_part] = c
    z_image = lru_cache(None)(
        lambda z_part: reduce(loc_mul, (factor_pow(*g) for g in monomial_items(amb, z_part))))

    def piece(z_part, evens):
        even = embed_poly(SuperPolynomial(amb, evens))
        return loc_mul(even, z_image(z_part)) if z_part else even

    floors: dict = {}
    for y_part, by_z in grouped.items():
        coeff = loc_sum(amb, [piece(z_part, evens) for z_part, evens in by_z.items()])
        if coeff.is_zero():
            continue
        coeff = LocalizedElement(coeff.num, coeff.d_exp + x.d_exp, coeff.d22_exp)
        # canonical monomial order is the admissible order
        key = tuple(pair for pair, _ in monomial_items(amb, y_part))
        floors.setdefault(len(key), {})[key] = coeff
    return {
        r: FloorElement(amb, r, terms)
        for r, terms in sorted(floors.items())
    }


def floor_component(floors, amb: Ambient, r: int) -> FloorElement:
    if floors is None:
        raise UsageError("element is not representable in floors")
    return floors.get(r, fe_zero(amb, r))


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


# -- the floor endomorphisms ----------------------------------------------------------


def phi_floor(x: FloorElement) -> FloorElement:
    """Apply the mixed derivations named by each exterior word to its
    coefficient, left to right, and re-extract the same floor."""
    amb = x.ambient
    pieces = []
    for key, cur in x.terms.items():
        for i, j in key:
            cur = apply_loc(basic(i, j), cur)
        pieces.append(cur)
    floors = extract_floors(loc_sum(amb, pieces))
    if floors is None:
        raise InternalError("derivative left the structured subring")
    return floor_component(floors, amb, x.floor)


# -- primitivity -----------------------------------------------------------------------


def _simple_lowering_directions(amb: Ambient):
    dirs = [(l + 1, l) for l in range(1, amb.m)]
    dirs += [(l + 1, l) for l in range(amb.m + 1, amb.size)]
    return dirs


def _divided_powers_vanish(emb: LocalizedElement, k: int, l: int) -> bool:
    """Every divided power of d[k,l] kills emb.  In characteristic 0 this is
    the first power alone; in characteristic p the powers are taken in the
    integral lift and lowered back one at a time."""
    field = emb.ambient.field
    u = LocalizedElement(field.lift(emb.num), emb.d_exp, emb.d22_exp)
    bound = u.num.total_degree() + 1
    r = 0
    while not u.is_zero():
        r += 1
        if r > bound:
            raise InternalError("divided-power iteration failed to terminate")
        u = apply_loc(basic(k, l), u)
        if not field.lower(u.num.scale(Fraction(1, factorial(r)))).is_zero():
            return False
    return True


def is_primitive(x: FloorElement) -> bool:
    """True when the embedded element is killed by every simple lowering
    direction of the even subgroup — in positive characteristic including all
    divided powers, checked through the integral lift."""
    emb = embed_floor(x)
    if loc_weight(emb) is None:
        raise UsageError("primitivity is defined for weight-homogeneous elements")
    return all(
        _divided_powers_vanish(emb, k, l)
        for k, l in _simple_lowering_directions(x.ambient)
    )


# -- raw-model identity checks ---------------------------------------------------------


def generation_identity_check(amb: Ambient, w: LocalizedElement, k: int, l: int) -> bool:
    """A mixed derivative of a bideterminant product is generated by the
    derivatives in even directions times y entries — and the reversed mixed
    direction annihilates it."""
    if not (k <= amb.m < l):
        raise UsageError("the generation identity is for upward mixed directions")
    lhs = apply_loc(basic(k, l), w)
    rhs = loc_sum(amb, [
        *(loc_mul(apply_loc(basic(k, a), w), y_entry(amb, a, l)) for a in range(1, amb.m + 1)),
        *(loc_mul(apply_loc(basic(b, l), w), y_entry(amb, k, b))
          for b in range(amb.m + 1, amb.size + 1)),
    ])
    if not loc_eq(lhs, rhs):
        return False
    return apply_loc(basic(l, k), w).is_zero()


def highest_vector_recursion_check(amb: Ambient, w: Weight, k: int, l: int) -> bool:
    """The highest vector's mixed derivative unfolds by the recursion with the
    weight-sum leading coefficient, and the reversed direction kills it."""
    if not (k <= amb.m < l):
        raise UsageError("the recursion is for upward mixed directions")
    v = highest_vector(amb, w)
    lhs = apply_loc(basic(k, l), v)
    lead = w.plus[k - 1] + w.minus[l - amb.m - 1]
    rhs = loc_sum(amb, [
        loc_scale(loc_mul(v, y_entry(amb, k, l)), lead),
        *(loc_mul(apply_loc(basic(k, s), v), y_entry(amb, s, l)) for s in range(k + 1, amb.m + 1)),
        *(loc_mul(apply_loc(basic(t, l), v), y_entry(amb, k, t)) for t in range(amb.m + 1, l)),
    ])
    if not loc_eq(lhs, rhs):
        return False
    return apply_loc(basic(l, k), v).is_zero()
