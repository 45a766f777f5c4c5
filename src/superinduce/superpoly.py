"""Sparse exact arithmetic in the supercommutative coordinate ring of GL(m|n).

The ring is generated by c[i,j] for 1 <= i,j <= m+n over an exact field:
the rationals in characteristic 0, or F_p for an odd prime p.  An index is
even when it is at most m and odd otherwise, and c[i,j] carries the parity
|i| + |j| mod 2.  Even generators are central; odd generators anticommute
with each other and square to zero.

A monomial is one int that packs its exponent vector (Monagan & Pearce):
each generator owns a FIELD_BITS-wide field, c[1,1] the most significant and
then row by row, so c[i,j] is the int 1 << (((s-i)*s + (s-j)) * FIELD_BITS)
for s = m+n.  The product of monomials is their sum, and int order is the
lexicographic order of exponent vectors read from c[1,1].  An odd generator
uses only the low bit of its field (its exponent is 0 or 1), so the odd
generators of a monomial form a bitmask (Dorst, Fontijne & Mann's bitmap
blades): a shared odd generator is a nonzero AND, and the Koszul sign of a
product is the parity of a popcount.  The top bit of every field is a guard:
an exponent may be at most EXPONENT_CAP = 2**(FIELD_BITS-1) - 1, the sum of
two such exponents never carries into the next field, and a result that sets
a guard bit raises UsageError naming the cap.

A polynomial is a dict from monomials to nonzero coefficients, tagged with
its Ambient (sizes and characteristic).  A coefficient in Q is an int when it
is integral and a Fraction with denominator > 1 otherwise; one in F_p is an
int in 0..p-1.  All arithmetic is exact; nothing here ever rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import permutations
from math import isqrt


class UsageError(ValueError):
    """A caller violated a documented precondition."""


class InternalError(RuntimeError):
    """An internal consistency guarantee failed; indicates a bug, not bad input."""


def check_odd_prime(p) -> int:
    """Return p when it is an odd prime integer; raise UsageError otherwise."""
    if (
        not isinstance(p, int)
        or p < 3
        or p % 2 == 0
        or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2))
    ):
        raise UsageError(f"characteristic must be an odd prime, got {p!r}")
    return p


def parse_integer(text: str) -> int:
    """int(text) for a numeral in parsed text; UsageError when it has more
    digits than int() converts."""
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"integer {text[:20]}... has too many digits") from exc


def _numeral(x):
    if not isinstance(x, str):
        return x
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"unrecognized coefficient {x!r}") from exc


def _integral_as_int(q):
    """q as an int when it is integral, else q itself (a proper Fraction)."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """The field Q.  An integral coefficient is a Python int and any other is
    a Fraction with denominator > 1; int and Fraction mix exactly under
    + - * and agree on ==, hash and str, so the kernels need not tell them
    apart.  Characteristic zero is its own integral form, so the lift and the
    lowering return their argument."""

    def intake(self, x):
        """Normalize an int, Fraction or numeral string into the field."""
        if type(x) is int:
            return x
        return _integral_as_int(Fraction(_numeral(x)))

    def clean(self, terms: dict) -> dict:
        """Reduce raw sums and products of field elements: an integral
        Fraction becomes its numerator; drop the zeros."""
        return {mo: c if type(c) is int else _integral_as_int(c)
                for mo, c in terms.items() if c}

    def inv(self, a):
        if a == 0:
            raise UsageError("division by zero coefficient")
        return _integral_as_int(1 / Fraction(a))

    def lift(self, poly: "SuperPolynomial") -> "SuperPolynomial":
        return poly

    def lower(self, p0: "SuperPolynomial") -> "SuperPolynomial":
        return p0


class PrimeField:
    """The field F_p for an odd prime p: integer coefficients in 0..p-1.

    Divided powers are computed through the integral lift: coefficients are
    raised to Q, the operator runs there, and the result is lowered back
    once its denominators are known to be invertible mod p.
    """

    def __init__(self, p: int):
        self.char = p

    def intake(self, x):
        """Normalize an int, Fraction or numeral string into the field."""
        x = _numeral(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise UsageError(f"denominator of {x} is not invertible mod {self.char}")
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return int(x) % self.char

    def clean(self, terms: dict) -> dict:
        """Reduce raw sums and products of field elements; drop the zeros."""
        p = self.char
        return {mo: r for mo, c in terms.items() if (r := c % p)}

    def inv(self, a):
        if a % self.char == 0:
            raise UsageError("division by zero coefficient")
        return pow(a, -1, self.char)

    def lift(self, poly: "SuperPolynomial") -> "SuperPolynomial":
        """The same polynomial with its coefficients read in Q: the residues
        0..p-1 are already integral elements of Q."""
        amb0 = ambient(poly.ambient.m, poly.ambient.n, 0)
        return SuperPolynomial(amb0, poly.terms)

    def lower(self, p0: "SuperPolynomial") -> "SuperPolynomial":
        """Reduce a p-integral polynomial over Q into this field."""
        try:
            terms = {mo: self.intake(c) for mo, c in p0.terms.items()}
        except UsageError as exc:
            raise InternalError("a divided operator left the integral form") from exc
        return SuperPolynomial(ambient(p0.ambient.m, p0.ambient.n, self.char), terms)


FIELD_BITS = 16
EXPONENT_CAP = (1 << (FIELD_BITS - 1)) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1


def check_exponents(amb: "Ambient", monos) -> None:
    """Raise UsageError when a packed result exceeds EXPONENT_CAP anywhere."""
    guard = amb.guard_mask
    for mo in monos:
        if mo & guard:
            raise UsageError(f"exponent exceeds the monomial exponent cap {EXPONENT_CAP}")


@dataclass(frozen=True)
class Ambient:
    """Sizes (m, n) and coefficient characteristic shared by a family of values.

    Values created in distinct ambients never mix.  The characteristic fixes
    the coefficient field (Q or F_p) once, when the ambient is built.  The
    ambient also owns the cache of expensive per-ring data (determinants,
    adjugate tables, localized generator images); higher layers reach it only
    through cached().
    """

    m: int
    n: int
    char: int = 0
    field: Rationals | PrimeField = dataclass_field(
        init=False, compare=False, repr=False, hash=False
    )
    _cache: dict = dataclass_field(
        default_factory=dict, compare=False, repr=False, hash=False
    )
    # packing tables: the bits of the odd generators, the guard bit of every
    # field, and the generator of each field, least significant first
    odd_mask: int = dataclass_field(init=False, compare=False, repr=False, hash=False)
    guard_mask: int = dataclass_field(init=False, compare=False, repr=False, hash=False)
    field_gens: tuple = dataclass_field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise UsageError(f"sizes must be at least 1, got m={self.m}, n={self.n}")
        coeffs = PrimeField(check_odd_prime(self.char)) if self.char else Rationals()
        object.__setattr__(self, "field", coeffs)
        s = self.size
        gens = tuple((i, j) for i in range(s, 0, -1) for j in range(s, 0, -1))
        odd = sum(1 << (f * FIELD_BITS) for f, (i, j) in enumerate(gens)
                  if (i > self.m) != (j > self.m))
        guard = sum(1 << (f * FIELD_BITS) for f in range(s * s)) << (FIELD_BITS - 1)
        object.__setattr__(self, "odd_mask", odd)
        object.__setattr__(self, "guard_mask", guard)
        object.__setattr__(self, "field_gens", gens)

    @property
    def size(self) -> int:
        return self.m + self.n

    def index_parity(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise UsageError(f"index {i} out of range 1..{self.size}")
        return 0 if i <= self.m else 1

    def gen_parity(self, i: int, j: int) -> int:
        return (self.index_parity(i) + self.index_parity(j)) % 2

    def unit(self, i: int, j: int) -> int:
        """The packed monomial c[i,j]."""
        self.gen_parity(i, j)  # range check
        s = self.size
        return 1 << (((s - i) * s + (s - j)) * FIELD_BITS)

    def cached(self, key, build):
        """The per-ring value stored under key, built by build() on first use."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def coeff(self, x):
        """Normalize an int/Fraction/str into this ambient's coefficient field."""
        return self.field.intake(x)

    # -- element factories -------------------------------------------------

    def zero(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {})

    def one(self) -> "SuperPolynomial":
        return self.scalar(1)

    def scalar(self, c) -> "SuperPolynomial":
        return SuperPolynomial(self, {0: self.coeff(c)})

    def gen(self, i: int, j: int) -> "SuperPolynomial":
        return SuperPolynomial(self, {self.unit(i, j): self.coeff(1)})


@lru_cache(maxsize=None)
def ambient(m: int, n: int, char: int = 0) -> Ambient:
    """Shared Ambient instances, so per-ring caches are reused."""
    return Ambient(m, n, char)


# -- monomials --------------------------------------------------------------

Monomial = int  # packed exponents, c[1,1] in the most significant field


def monomial_items(amb: Ambient, mono: Monomial) -> list:
    """The ((row, col), exponent) pairs of a monomial, sorted by (row, col)."""
    gens = amb.field_gens
    items = []
    while mono:
        f = (mono.bit_length() - 1) // FIELD_BITS
        shift = f * FIELD_BITS
        e = mono >> shift
        items.append((gens[f], e))
        mono -= e << shift
    return items


def monomial_degree(mono: Monomial) -> int:
    deg = 0
    while mono:
        deg += mono & FIELD_MASK
        mono >>= FIELD_BITS
    return deg


def monomial_odd_degree(amb: Ambient, mono: Monomial) -> int:
    """Number of odd generator factors (each necessarily to the first power)."""
    return (mono & amb.odd_mask).bit_count()


def monomial_parity(amb: Ambient, mono: Monomial) -> int:
    return monomial_odd_degree(amb, mono) & 1


def koszul_mask(odd_bits: int) -> int:
    """Bit h is set when an odd number of the given bits lie above h.

    For a left factor with odd bits oa, the parity of (oa & koszul_mask(ob))
    counts, mod 2, the pairs of an odd factor of the right word and a greater
    odd factor of the left word: the crossings that bring the product into
    canonical order.
    """
    mask = 0
    while odd_bits:
        low = odd_bits & -odd_bits
        mask ^= low - 1
        odd_bits ^= low
    return mask


def monomial_column_content(amb: Ambient, mono: Monomial) -> tuple:
    counts = [0] * amb.size
    for (_, j), e in monomial_items(amb, mono):
        counts[j - 1] += e
    return tuple(counts)


# -- polynomials -------------------------------------------------------------


class SuperPolynomial:
    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: Ambient, terms: dict):
        # kernels combine coefficients with plain + - *; the field reduces
        # them and drops zeros here, once per result
        self.ambient = ambient
        self.terms = ambient.field.clean(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self):
        """0 for even, 1 for odd, None for mixed; the zero polynomial is even."""
        seen = {monomial_parity(self.ambient, mo) for mo in self.terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def total_degree(self) -> int:
        return max((monomial_degree(mo) for mo in self.terms), default=0)

    def _check_mate(self, other: "SuperPolynomial"):
        if self.ambient != other.ambient:
            raise UsageError("operands live in different ambients")

    def __eq__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __hash__(self):
        return hash((self.ambient.m, self.ambient.n, self.ambient.char,
                     tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for mo, c in other.terms.items():
            out[mo] = out.get(mo, 0) + c
        return SuperPolynomial(self.ambient, out)

    def __neg__(self):
        return SuperPolynomial(self.ambient, {mo: -c for mo, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "SuperPolynomial":
        c = self.ambient.coeff(c)
        return SuperPolynomial(self.ambient, {mo: v * c for mo, v in self.terms.items()})

    def __mul__(self, other):
        amb = self.ambient
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        self._check_mate(other)
        odd = amb.odd_mask
        right = [(mb, cb, mb & odd, koszul_mask(mb & odd)) for mb, cb in other.terms.items()]
        out: dict = {}
        for ma, ca in self.terms.items():
            oa = ma & odd
            for mb, cb, ob, kb in right:
                if oa & ob:
                    continue  # a shared odd generator squares to zero
                mo = ma + mb
                c = -ca * cb if (oa & kb).bit_count() & 1 else ca * cb
                prev = out.get(mo)
                out[mo] = c if prev is None else prev + c
        check_exponents(amb, out)
        return SuperPolynomial(amb, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise UsageError("negative polynomial powers are not defined here")
        out = self.ambient.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __repr__(self):
        return f"SuperPolynomial({render_poly(self)!r})"


def weight_of(p: SuperPolynomial):
    """Common column-content vector of all terms, or None when inhomogeneous.

    The zero polynomial reports the zero vector.
    """
    amb = p.ambient
    w = None
    for mono in p.terms:
        cur = monomial_column_content(amb, mono)
        if w is None:
            w = cur
        elif w != cur:
            return None
    return w if w is not None else tuple([0] * amb.size)


# -- exact division -----------------------------------------------------------


def _division_key(mono: Monomial):
    # graded lexicographic over the full generator grid (int order is the
    # lexicographic order from c[1,1]); multiplicative, so a single-divisor
    # remainder of zero is equivalent to exact divisibility
    return (monomial_degree(mono), mono)


def _even_monomial_divide(amb: Ambient, u: Monomial, v: Monomial):
    """u / v for monomials in even generators only; None when not divisible.

    Setting every guard bit of u first keeps each field's borrow inside the
    field; a guard bit that survives marks a field where u covers v.
    """
    guard = amb.guard_mask
    diff = (u | guard) - v
    if diff & guard != guard:
        return None
    return diff ^ guard


def _commutative_divide(x: SuperPolynomial, b0: SuperPolynomial):
    """Exact division by a polynomial in even generators, leading-term style.

    x may carry odd generators: adding a monomial of b0 neither signs a term
    nor changes its odd word, so each odd word divides on its own in one pass.
    The leading terms come off a heap keyed by (-degree, -monomial), a popped
    monomial that has left the remainder is skipped, and a new monomial's
    degree is deg(qm) + deg(mb) (Monagan & Pearce).  Each quotient term
    updates the one remainder dict in place; the field reduces the touched
    coefficients and drops zeros."""
    amb = x.ambient
    field = amb.field
    b_terms = [(mb, cb, monomial_degree(mb)) for mb, cb in b0.terms.items()]
    lead_b, lc_b, deg_b = max(b_terms, key=lambda t: (t[2], t[0]))
    lc_b_inv = field.inv(lc_b)
    quo: dict = {}
    rem = dict(x.terms)
    heap = [(-monomial_degree(mo), -mo) for mo in rem]
    heapify(heap)
    while heap:
        neg_deg, neg_u = heappop(heap)
        u = -neg_u
        if u not in rem:
            continue
        qm = _even_monomial_divide(amb, u, lead_b)
        if qm is None:
            return None
        qc = quo[qm] = rem[u] * lc_b_inv
        deg_q = -neg_deg - deg_b
        touched = {qm + mb: cb for mb, cb, _ in b_terms}
        check_exponents(amb, touched)
        for mb, _, db in b_terms:
            if qm + mb not in rem:
                heappush(heap, (-deg_q - db, -qm - mb))
        rem.update(field.clean({mo: rem.pop(mo, 0) - qc * cb for mo, cb in touched.items()}))
    return SuperPolynomial(amb, quo)


def _odd_layer(p: SuperPolynomial, k: int) -> SuperPolynomial:
    amb = p.ambient
    return SuperPolynomial(
        amb, {mo: c for mo, c in p.terms.items() if monomial_odd_degree(amb, mo) == k}
    )


def exact_divide(a: SuperPolynomial, b: SuperPolynomial):
    """Exact quotient a/b, or None when b does not divide a.

    The divisor must be even and a non-zero-divisor.  Writing b = b0 + higher,
    where the body b0 collects the terms free of odd generators, evenness makes
    b invertible-modulo-divisibility exactly when b0 is nonzero; the quotient is
    then recovered layer by layer in the number of odd factors, each layer being
    an ordinary leading-term division by b0.  The result is verified by
    multiplication before being returned.
    """
    if a.ambient != b.ambient:
        raise UsageError("operands live in different ambients")
    amb = a.ambient
    if b.is_zero():
        raise UsageError("division by the zero polynomial")
    if b.parity() != 0:
        raise UsageError("divisor must be even")
    b0 = _odd_layer(b, 0)
    if b0.is_zero():
        raise UsageError("divisor is a zero divisor (its even-generator body vanishes)")
    quo = amb.zero()
    rem = a
    max_layers = 2 * amb.m * amb.n + 1
    for _ in range(max_layers + 1):
        if rem.is_zero():
            break
        k = min(monomial_odd_degree(amb, mo) for mo in rem.terms)
        # one leading-term division clears the whole layer, odd word by odd word
        part = _commutative_divide(_odd_layer(rem, k), b0)
        if part is None:
            return None
        quo = quo + part
        rem = rem - part * b
        if not rem.is_zero():
            new_k = min(monomial_odd_degree(amb, mo) for mo in rem.terms)
            if new_k <= k:
                return None
    else:
        raise InternalError("layered division failed to terminate")
    if not (quo * b - a).is_zero():
        raise InternalError("division verification failed")
    return quo


# -- generic determinants ------------------------------------------------------


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sort_with_sign(items):
    """Sort a tuple, tracking the sign of the sorting permutation.

    Returns (sign, sorted tuple), or (1, None) when an item repeats, since an
    alternating form then vanishes.
    """
    arr = list(items)
    if len(set(arr)) != len(arr):
        return 1, None
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


#: Most rows a Leibniz determinant may have: it sums t! products, and 8! is
#: 40,320.  The tests, demos and benchmark use at most 4 rows.
DET_CAP = 8


def check_det_size(t: int) -> None:
    """Raise UsageError when a t-row Leibniz sum exceeds DET_CAP."""
    if t > DET_CAP:
        raise UsageError(
            f"determinant of {t} rows exceeds the cap DET_CAP = {DET_CAP} rows "
            "(a Leibniz sum has t! terms)"
        )


def leibniz_det(amb: Ambient, rows, cols) -> SuperPolynomial:
    """Determinant of the submatrix with the given rows/cols of (c[i,j]).

    The defining sum runs over permutations with factors multiplied in row
    order, which fixes the value when odd entries are present.  Repeated rows
    or columns return zero by convention.  More than DET_CAP rows raise
    UsageError.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise UsageError("minor specification must have equally many rows and columns")
    check_det_size(len(rows))
    for idx in (*rows, *cols):
        amb.index_parity(idx)
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return amb.zero()
    t = len(rows)
    if t == 0:
        return amb.one()
    acc: dict = {}
    for perm in permutations(range(t)):
        prod = amb.gen(rows[0], cols[perm[0]])
        for a in range(1, t):
            prod = prod * amb.gen(rows[a], cols[perm[a]])
        sign = perm_sign(perm)
        for mo, c in prod.terms.items():
            acc[mo] = acc.get(mo, 0) + sign * c
    return SuperPolynomial(amb, acc)


# -- text format ----------------------------------------------------------------


def render_poly(p: SuperPolynomial) -> str:
    """Canonical text form: sign-prefixed terms, leading monomials first."""
    if p.is_zero():
        return "0"
    amb = p.ambient
    ordered = sorted(p.terms, key=_division_key, reverse=True)
    parts = []
    for mono in ordered:
        c = p.terms[mono]
        # F_p coefficients live in 0..p-1, so only Q ever renders a minus
        sign, mag = ("-", -c) if c < 0 else ("+", c)
        chunks = [str(mag)]
        for (i, j), e in monomial_items(amb, mono):
            chunks.append(f"c[{i},{j}]" + (f"^{e}" if e > 1 else ""))
        parts.append(sign + "·".join(chunks))
    return " ".join(parts)


_FACTOR = r"(?:c\[\d+,\d+\](?:\^\d+)?|\d+(?:/\d+)?)"
_TERM = rf"{_FACTOR}(?:[·*]{_FACTOR})*"
_POLY_RE = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")
_GEN_RE = re.compile(r"c\[(\d+),(\d+)\](?:\^(\d+))?")


def parse_poly(amb: Ambient, text: str) -> SuperPolynomial:
    """Parse the render_poly grammar; whitespace-insensitive, '*' accepted for '·'.

    The whole string must match; anything else raises UsageError.
    """
    squeezed = re.sub(r"\s+", "", text)
    if not squeezed:
        return amb.zero()
    if not _POLY_RE.fullmatch(squeezed):
        raise UsageError(f"unrecognized polynomial text {text!r}")
    total = amb.zero()
    for sign, body in re.findall(r"([+-]?)([^+-]+)", squeezed):
        coeff = amb.coeff(-1 if sign == "-" else 1)
        mono_poly = amb.one()
        for chunk in re.split(r"[·*]", body):
            gm = _GEN_RE.fullmatch(chunk)
            if gm:
                i, j, e = (parse_integer(v) for v in (gm[1], gm[2], gm[3] or "1"))
                mono_poly = mono_poly * amb.gen(i, j) ** e
            else:
                coeff = coeff * amb.coeff(chunk)
        total = total + mono_poly.scale(coeff)
    return total
