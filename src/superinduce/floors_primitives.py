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
instead of clearing denominators silently.  Their weight-free factors are
kept in lowest terms in D, once per ring, and no vector divides per call;
output writes each coefficient over the exponent of the unreduced product
of minors (a vector's render_exp).  One builder, pi_IJ_raw, makes every
vector of a family, the first-floor vector pi_ij as the family of one pair:
its prefactor over the per-ring rho product of the family, multiplied out
only when its coefficients are read; a first-floor vector reads them once as
it is built, since phi_floor reads every one of them.  Only the prefactor
depends on the weight, so a defect that divides the rho product divides the
vector: that division is made once per ring, and the vector's is tried only
when it fails.  Every lowering divided power kills the prefactor, so the
primitivity of such a vector is decided on its map alone, once per ring and
map.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from math import gcd
from types import MappingProxyType

from .derivation import apply_loc, direction_class, divided_power
from .fraction import (
    LocalizedElement,
    den_power,
    embed_poly,
    is_polynomial,
    loc_add,
    loc_divide_exact,
    loc_dot,
    loc_eq,
    loc_mul,
    loc_pow,
    loc_product,
    loc_scale,
    loc_sum,
    loc_weight,
    lowest_terms,
    raised_to,
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
    dot,
    exact_divide,
    koszul_mask,
    monomial_items,
    product,
    sort_with_sign,
)
from .weights_tableaux import (
    Weight,
    check_highest_weight,
    dminus,
    exponent_ledger,
    is_admissible_pair,
    ledger_exponent,
    minor_power_product,
)


class FloorElement:
    """Map from exterior words (sorted pair tuples) to localized coefficients,
    all words of one length (the floor index).

    render_exp, when set, is the power of D that every coefficient is written
    over in output.  The floor builders keep their coefficients in lower terms
    than the products of minors they stand for, and set it to the exponent of
    the unreduced product, a closed form of the weight and the cell or family
    (see ``ledger_exponent``).  None writes each coefficient as it is.

    factored, when set, is (prefactor, factors, key): the coefficients are
    prefactor·c for each c of the read-only per-ring map factors, which
    Ambient.cached holds under key, and they are multiplied out on the first
    read of terms, once per element.  Every vector pi_IJ_raw builds, the
    first-floor vectors of pi_ij among them, and every quotient divide_floor
    makes on a map, is factored; pi_ij reads its terms as it is built.  The
    prefactor is a product of powers of nested leading minors and of D
    (``minor_power_product``), which every simple lowering direction kills:
    is_primitive relies on it.  Only nonzero coefficients are stored: fe_eq
    relies on it."""

    __slots__ = ("ambient", "floor", "_terms", "render_exp", "factored")

    def __init__(self, amb: Ambient, floor: int, terms, render_exp=None, factored=None):
        if floor < 0:
            raise UsageError("floor index must be nonnegative")
        self.ambient = amb
        self.floor = floor
        self.render_exp = render_exp
        self.factored = factored
        self._terms = None if factored else _checked_terms(amb, floor, terms)

    @property
    def terms(self) -> dict:
        if self._terms is None:
            prefactor, factors, _ = self.factored
            self._terms = _checked_terms(self.ambient, self.floor, _times(prefactor, factors))
        return self._terms

    def __repr__(self):
        inner = ", ".join(
            f"{key}: {render_loc(c)}" for key, c in sorted(self.terms.items())
        )
        return f"FloorElement(floor={self.floor}, {{{inner}}})"


def _checked_terms(amb: Ambient, floor: int, terms: dict) -> dict:
    """The nonzero coefficients, each word checked to be a strictly sorted
    word of mixed slots of the floor's length."""
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
    return clean


def fe_zero(amb: Ambient, floor: int) -> FloorElement:
    return FloorElement(amb, floor, {})


def fe_add(a: FloorElement, b: FloorElement) -> FloorElement:
    """The sum; it keeps a render_exp that both nonzero summands share, and
    otherwise adds their coefficients as they are written."""
    if a.ambient != b.ambient or a.floor != b.floor:
        raise UsageError("floor elements must share ambient and floor")
    if a.terms and b.terms and a.render_exp != b.render_exp:
        a = FloorElement(a.ambient, a.floor, rendered_terms(a))
        b = FloorElement(b.ambient, b.floor, rendered_terms(b))
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = loc_add(out[key], c) if key in out else c
    return FloorElement(a.ambient, a.floor, out, a.render_exp if a.terms else b.render_exp)


def fe_scale(a: FloorElement, c) -> FloorElement:
    return FloorElement(
        a.ambient, a.floor, {k: loc_scale(v, c) for k, v in a.terms.items()}, a.render_exp
    )


def fe_neg(a: FloorElement) -> FloorElement:
    return fe_scale(a, -1)


def fe_eq(a: FloorElement, b: FloorElement) -> bool:
    """Equal values: only nonzero coefficients are stored, so equal elements
    of one ring and floor have the same words."""
    if a.ambient != b.ambient or a.floor != b.floor or a.terms.keys() != b.terms.keys():
        return False
    return all(loc_eq(x, b.terms[key]) for key, x in a.terms.items())


def y_word(amb: Ambient, key) -> LocalizedElement:
    """The product of the y entries of an exterior word, in its order (one
    for the empty word); built once per ring and word."""
    return amb.cached(("yword", key), lambda: loc_product(
        amb, [y_entry(amb, i, j) for i, j in key]))


def embed_floor(x: FloorElement) -> LocalizedElement:
    """The raw element, for value comparisons: a product that vanishes can
    leave it over larger exponents than its pieces need (see loc_dot)."""
    amb = x.ambient
    return loc_dot(amb, ((term, y_word(amb, key)) for key, term in x.terms.items()))


def rendered_terms(x: FloorElement) -> dict:
    """The coefficients as output writes them: each over D^render_exp."""
    if x.render_exp is None:
        return x.terms
    return {key: raised_to(c, x.render_exp) for key, c in x.terms.items()}


def floor_element_to_json(x: FloorElement) -> list:
    return [
        {"pairs": [list(p) for p in key], "coefficient": render_loc(c)}
        for key, c in sorted(rendered_terms(x).items())
    ]


# -- the distinguished first-floor vectors --------------------------------------------


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


def _times(prefactor: LocalizedElement, coeffs) -> dict:
    """prefactor·c for every coefficient of the map; a prefactor whose
    numerator is one only adds its exponents, with no product."""
    if prefactor.num.terms == {0: 1}:
        s, t = prefactor.d_exp, prefactor.d22_exp
        return {key: LocalizedElement(c.num, c.d_exp + s, c.d22_exp + t)
                for key, c in coeffs.items()}
    return {key: loc_mul(prefactor, c) for key, c in coeffs.items()}


def pi_ij(amb: Ambient, w: Weight, i: int, j: int) -> FloorElement:
    """The first-floor vector at (i, j): the highest vector divided by the
    (i, j) leading minors, times the weight-free double sum.  It is the
    vector pi_IJ_raw builds for the one-pair family (i|j), factored over its
    per-ring rho product, so its primitivity is decided on that map.  Where
    the cell's preconditions hold, that family is admissible and its defect
    is one; at i = m a last plus entry of zero is refused, though the family
    is admissible there.  Its coefficients are multiplied out before it
    returns: phi_floor reads every one of them anyway."""
    _check_pi_preconditions(w, i, j)
    vec, _ = pi_IJ_raw(amb, w, (i,), (j,))
    vec.terms  # multiplied out once, here
    return vec


def pi_plus(amb: Ambient, w: Weight, i: int) -> FloorElement:
    """Independent transcription of the one-minus-row case (n = 1)."""
    if amb.n != 1:
        raise UsageError("this construction is for a single minus row")
    check_highest_weight(amb, w)
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
    if amb.m != 1:
        raise UsageError("this construction is for a single plus row")
    check_highest_weight(amb, w)
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


def rho_product(amb: Ambient, I, J) -> MappingProxyType:
    """The signed product of the rho factors of the family (I|J), in its
    order: a read-only map from exterior words to localized coefficients in
    lowest terms, built once per ring and family.  The rho factor of one
    pair (i|j), the weight-free part of the first-floor vector, maps the
    word ((r, m+s),) to a row minor times a dminus minor over D^(j-1); the
    row minor of r = m at i = m is D itself, and the minus index j is
    relative (1..n).  A longer family multiplies its first pair's map by
    each later pair's in turn, and the empty family maps the empty word to
    one."""
    I, J = tuple(I), tuple(J)
    m = amb.m

    def build():
        if not I:
            return MappingProxyType({(): embed_poly(amb.one())})
        if len(I) == 1:
            (i,), (j,) = I, J
            if not (1 <= i <= m and 1 <= j <= amb.n):
                raise UsageError("rho indices out of range")
            out = {}
            for r in range(i, m + 1):
                left = embed_poly(row_initial_minor(amb, tuple(range(1, i)) + (r,)))
                if left.is_zero():
                    continue
                for s in range(1, j + 1):
                    cols = tuple(m + u for u in range(1, j + 1) if u != s)
                    coeff = loc_mul(left, dminus(amb, cols))
                    if (s + j) % 2 == 1:
                        coeff = loc_scale(coeff, -1)
                    if not coeff.is_zero():
                        out[((r, m + s),)] = lowest_terms(coeff)
            return MappingProxyType(out)
        # the first pair's map, which is in lowest terms already
        words = rho_product(amb, I[:1], J[:1])
        for i_s, j_s in zip(I[1:], J[1:]):
            new: dict = {}
            for word, c in words.items():
                for pair, c2 in rho_product(amb, (i_s,), (j_s,)).items():
                    sign, merged = sort_with_sign(word + pair)
                    if merged is None:
                        continue
                    add = loc_mul(c, c2)
                    new.setdefault(merged, []).append(add if sign > 0 else loc_scale(add, -1))
            words = {key: lowest_terms(loc_sum(amb, pieces)) for key, pieces in new.items()}
        return MappingProxyType(words)

    return amb.cached(("rhoproduct", I, J), build)


def _family_ledger(w: Weight, I, J):
    """(vector, defect): the (plus, minus) minor powers of a family's cleared
    vector and of its defect.  Each pair (i, j) takes one power off the plus
    minor of size i and, for j > 1, off the minus minor of size j - 1; a
    power driven negative moves to the defect, except on the full even-block
    minor, which is D and stays in the vector's denominator."""
    plus_exps, minus_exps = exponent_ledger(w)
    for i_s, j_s in zip(I, J):
        plus_exps[i_s - 1] -= 1
        if j_s > 1:
            minus_exps[j_s - 2] -= 1
    *partial, full = plus_exps
    vector = ([max(e, 0) for e in partial] + [full], [max(e, 0) for e in minus_exps])
    defect = ([max(-e, 0) for e in partial] + [0], [max(-e, 0) for e in minus_exps])
    return vector, defect


def defect_exponent(w: Weight, I, J) -> int:
    """The power of D the family's defect renders over."""
    return ledger_exponent(*_family_ledger(w, tuple(I), tuple(J))[1])


def pi_IJ_raw(amb: Ambient, w: Weight, I, J):
    """Cleared form of the vector of an admissible family, the one builder of
    the pi vectors (pi_ij is its one-pair case): returns (element, defect).

    The element carries the positive-part minor powers; the defect collects
    the minor powers the weight's gaps could not absorb.  Dividing every
    coefficient by the defect recovers the true vector when that division is
    exact; the defect depends only on the content of the index family.  The
    element renders over the ledger exponent of its powers plus j - 1 for
    each rho factor, and the defect over ``defect_exponent``.  The element
    is factored (see FloorElement): the product of those powers over the
    family's per-ring rho product, multiplied out when first read.
    """
    I, J = tuple(I), tuple(J)
    check_highest_weight(amb, w)
    if not is_admissible_pair(w, I, J):
        raise UsageError("index family is not admissible for this weight")
    (plus_exps, minus_exps), defect = _family_ledger(w, I, J)
    exp = ledger_exponent(plus_exps, minus_exps) + sum(j_s - 1 for j_s in J)
    factored = (minor_power_product(amb, plus_exps, minus_exps), rho_product(amb, I, J),
                ("rhoproduct", I, J))
    return FloorElement(amb, len(I), None, exp, factored), minor_power_product(amb, *defect)


def divide_floor(x: FloorElement, defect: LocalizedElement):
    """Divide every coefficient by the defect; None when any division fails.

    A defect with no factors is one, and x comes back as it is.  Otherwise
    each division is decided as if the coefficient were written over
    D^render_exp.  For a coefficient N / D^d and a defect P / D^f, the
    division asks whether P divides N·D^f, and over D^E (E >= d) whether P
    divides N·D^(E-d+f): a success at d is one at E, and a failure at d is
    asked again at E.  The defect may sit in lower terms than its product of
    minors, P·D^l / D^(f+l): D is a nonzerodivisor, so P·D^l divides
    M·D^(f+l) exactly when P divides M·D^f, and that reduction changes no
    outcome.  The quotient keeps the coefficient's exponent and render_exp.

    A factored x (see FloorElement) is first divided on its per-ring map
    alone, once per ring, map and defect: if P divides ρ·D^f with quotient Q
    for every coefficient ρ / D^r of the map, then P divides the product's
    numerator prefactor·ρ·D^f with quotient prefactor·Q, at every exponent
    of D, so the quotient is the same prefactor over the map of the Q, still
    factored, and equals the route above value for value.  A map whose
    division fails is stored as None, and x is multiplied out and divided
    by the route above, which decides every outcome.
    """
    if defect.num.terms == {0: 1} and not (defect.d_exp or defect.d22_exp):
        return x
    if x.factored is not None:
        prefactor, factors, key = x.factored
        qkey = ("rhoquotient", key, defect)
        quotients = x.ambient.cached(qkey, lambda: _divide_each(factors, defect))
        if quotients is not None:
            return FloorElement(x.ambient, x.floor, None, x.render_exp, (prefactor, quotients, qkey))
    quotients = _divide_each(x.terms, defect, x.render_exp)
    return None if quotients is None else FloorElement(x.ambient, x.floor, quotients, x.render_exp)


def _divide_each(coeffs, defect: LocalizedElement, render_exp=None):
    """The read-only map of each coefficient divided by the defect, a
    division that fails below D^render_exp asked again over it; None when
    a division fails."""
    out = {}
    for key, c in coeffs.items():
        q = loc_divide_exact(c, defect)
        if q is None and render_exp is not None and c.d_exp < render_exp:
            q = loc_divide_exact(raised_to(c, render_exp), defect)
        if q is None:
            return None
        out[key] = q
    return MappingProxyType(out)


def pi_IJ(amb: Ambient, w: Weight, I, J):
    """The higher-floor vector for an admissible family, or None when the
    weight is not robust enough for the element to live in the module."""
    raw, defect = pi_IJ_raw(amb, w, I, J)
    return divide_floor(raw, defect)


#: Most multiplier vectors, (2·bound+1)^k for k vectors, that one combination
#: search tries (about 1 ms each at (2,2)); the tests and benchmark try <= 25.
SEARCH_CAP = 1_000


def search_module_combinations(raws, defect: LocalizedElement, bound: int = 2):
    """Small integer combinations of cleared vectors that survive the defect
    division.  Vectors are normalized: first nonzero multiplier positive,
    multipliers coprime.  Bounded search only — silence proves nothing.
    More than SEARCH_CAP multiplier vectors raise UsageError."""
    if not raws:
        return []
    amb = raws[0].ambient
    floor = raws[0].floor
    for r in raws:
        if r.ambient != amb or r.floor != floor:
            raise UsageError("combination search needs matching floors")
    # past the cap's bit length the count exceeds it anyway: clamp the exponent
    if bound > 0 and (2 * bound + 1) ** min(len(raws), SEARCH_CAP.bit_length()) > SEARCH_CAP:
        raise UsageError(f"combination search of {len(raws)} vectors with multipliers in "
                         f"-{bound}..{bound} exceeds SEARCH_CAP = {SEARCH_CAP} vectors")
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
        img = dot(amb, ((amb.gen(i, a), amb.gen(a, j)) for a in range(1, m + 1)))
        return img if i <= m else amb.gen(i, j) + img

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
    # in one dot, each right part's image built only when its pair is reached
    substituted = dot(amb, (
        (SuperPolynomial(amb, lefts),
         product(amb, (image_pow(*g) for g in monomial_items(amb, right))))
        for right, lefts in by_right.items()))
    # the coefficient of a y word is the sum over z parts of the even-block
    # polynomial times the z part's image, which is built once and shared
    grouped: dict = {}
    for mono, c in substituted.terms.items():
        if mono & lower_left:
            return None  # lower-left content is not representable
        y_part = mono & y_mask
        z_part = mono & z_mask
        grouped.setdefault(y_part, {}).setdefault(z_part, {})[mono ^ y_part ^ z_part] = c
    z_image = lru_cache(None)(
        lambda z_part: loc_product(amb, [factor_pow(*g) for g in monomial_items(amb, z_part)]))
    floors: dict = {}
    for y_part, by_z in grouped.items():
        # a piece is the image of a nonzero polynomial (the even part times the
        # z monomial) under the invertible change of generators, so no piece
        # vanishes and loc_dot's exponents are those of loc_sum of the pieces
        coeff = loc_dot(amb, ((embed_poly(SuperPolynomial(amb, evens)), z_image(z_part))
                              for z_part, evens in by_z.items()))
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


# -- the floor endomorphisms ----------------------------------------------------------


def phi_floor(x: FloorElement) -> FloorElement:
    """Apply the mixed derivations named by each exterior word to its
    coefficient, left to right, and re-extract the same floor."""
    amb = x.ambient
    pieces = []
    for key, cur in x.terms.items():
        for i, j in key:
            cur = apply_loc((i, j), cur)
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


def is_primitive(x: FloorElement) -> bool:
    """True when the embedded element is killed by every simple lowering
    direction of the even subgroup — in positive characteristic by all of its
    divided powers.  A simple lowering direction kills D and D22, so the
    numerator alone decides: in characteristic 0 its first power, and in
    characteristic p one closed-form enumeration of every power at once.

    A factored x (see FloorElement) is decided on its weight-free map alone,
    embedded as the sum of c·y_word(w), once per ring and map.  A simple
    lowering direction d[l+1,l] differentiates C ↦ C·u(t) on the matrix of
    generators, where u(t) adds t times column l to column l+1 inside one
    block.  That substitution fixes every nested leading minor and D, so
    every divided power d^(r), r >= 1, kills the prefactor P, and
    d^(r)(P·E) = P·d^(r)(E).  P has a nonzero body, so it is homogeneous and
    a nonzerodivisor: P·E is homogeneous, or primitive, exactly when E is, in
    every characteristic.  The verdict is cached under ("primitive", key),
    an inhomogeneous map's as None, which raises on every call."""
    if x.factored is None:
        verdict = _lowering_verdict(embed_floor(x))
    else:
        amb, (_, factors, key) = x.ambient, x.factored
        verdict = amb.cached(("primitive", key), lambda: _lowering_verdict(
            embed_floor(FloorElement(amb, x.floor, factors))))
    if verdict is None:
        raise UsageError("primitivity is defined for weight-homogeneous elements")
    return verdict


def _lowering_verdict(emb: LocalizedElement):
    """None when emb is not weight-homogeneous; otherwise whether every
    divided power of every simple lowering direction kills it."""
    if loc_weight(emb) is None:
        return None
    return all(
        divided_power(emb.num, k, l).is_zero()
        for k, l in _simple_lowering_directions(emb.ambient)
    )


# -- raw-model identity checks ---------------------------------------------------------


def generation_identity_check(amb: Ambient, w: LocalizedElement, k: int, l: int) -> bool:
    """A mixed derivative of a bideterminant product is generated by the
    derivatives in even directions times y entries — and the reversed mixed
    direction annihilates it."""
    if direction_class(amb.m, k, l) != "raise":
        raise UsageError("the generation identity is for upward mixed directions")
    lhs = apply_loc((k, l), w)
    rhs = loc_dot(amb, [
        *((apply_loc((k, a), w), y_entry(amb, a, l)) for a in range(1, amb.m + 1)),
        *((apply_loc((b, l), w), y_entry(amb, k, b)) for b in range(amb.m + 1, amb.size + 1)),
    ])
    if not loc_eq(lhs, rhs):
        return False
    return apply_loc((l, k), w).is_zero()
