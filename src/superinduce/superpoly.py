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
int in 0..p-1.  All arithmetic is exact; nothing here ever rounds.  dot is the
one product loop: it sums a·b over a list of pairs into one dict, and a * b is
dot over the one pair.  product is the one fold of an ordered product: it
starts from the first factor, never from one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, permutations
from math import isqrt
from operator import mul


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
    """The one reader of a numeral in a literal or an integer option: an
    optional '-' and ASCII digits.  Other text that int() takes, such as '+1',
    '1_0' or a non-ASCII digit, raises UsageError, as do more digits than
    int() converts."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise UsageError(f"unrecognized integer {text[:20]!r}")
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
    apart."""

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


class PrimeField:
    """The field F_p for an odd prime p: integer coefficients in 0..p-1."""

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


FIELD_BITS = 16
EXPONENT_CAP = (1 << (FIELD_BITS - 1)) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1

#: Largest block size m or n of a ring.  The packing tables hold (m+n)^2
#: fields and take time that grows as (m+n)^4 to build (Ambient(320, 1) took
#: 5.8 s of CPU and Ambient(160, 1) 0.34 s; --m 1000000 ran out of memory),
#: and a larger block also needs determinants past DET_CAP.  Rings within the
#: cap are not bounded in time: verify lemmas at (3,3) makes 3,456 rewrite
#: checks, which took 46 s of CPU (Python 3.11.7, 2-core Intel Xeon).
RING_SIZE_CAP = 8


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
    # field, the generator of each field, least significant first, the
    # slice of each column's fields in a native 16-bit view of a monomial,
    # and the (modulus, carry bits) of the row fold of weight_of
    odd_mask: int = dataclass_field(init=False, compare=False, repr=False, hash=False)
    guard_mask: int = dataclass_field(init=False, compare=False, repr=False, hash=False)
    field_gens: tuple = dataclass_field(init=False, compare=False, repr=False, hash=False)
    column_slices: tuple = dataclass_field(init=False, compare=False, repr=False, hash=False)
    row_fold: tuple = dataclass_field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if not (1 <= self.m <= RING_SIZE_CAP and 1 <= self.n <= RING_SIZE_CAP):
            raise UsageError(f"block sizes must lie in 1..{RING_SIZE_CAP} (RING_SIZE_CAP), "
                             f"got m={self.m}, n={self.n}")
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
        object.__setattr__(self, "column_slices", column_slices(s, sys.byteorder))
        # the carry bits: each field's bits from k up, for the largest k at
        # which s exponents below 2^k sum to less than FIELD_MASK
        k = max(k for k in range(1, FIELD_BITS) if s * ((1 << k) - 1) < FIELD_MASK)
        high = FIELD_MASK ^ ((1 << k) - 1)
        carry = sum(high << (f * FIELD_BITS) for f in range(s * s))
        object.__setattr__(self, "row_fold", ((1 << (s * FIELD_BITS)) - 1, carry))

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


def field_view(mono: Monomial, nbytes: int) -> memoryview:
    """The exponent fields of a monomial of at most nbytes bytes, read in C
    through one native-order 16-bit view: element f is field f (counted from
    the least significant) on a little-endian machine, and field
    nbytes/2 - 1 - f on a big-endian one."""
    return memoryview(mono.to_bytes(nbytes, sys.byteorder)).cast("H")


def column_slices(s: int, byteorder: str) -> tuple:
    """The slice of each column 1..s in a field view of an s-by-s monomial
    laid out in byteorder.  c[i,j] is field (s-i)·s + (s-j), so column j is
    every s-th field from s-j (little-endian) or, with the fields reversed,
    every s-th element from j-1 (big-endian)."""
    if byteorder == "little":
        return tuple(slice(s - j, None, s) for j in range(1, s + 1))
    return tuple(slice(j - 1, None, s) for j in range(1, s + 1))


def monomial_degree(mono: Monomial) -> int:
    return sum(field_view(mono, (mono.bit_length() + 15) >> 4 << 1))


def monomial_odd_degree(amb: Ambient, mono: Monomial) -> int:
    """Number of odd generator factors (each necessarily to the first power)."""
    return (mono & amb.odd_mask).bit_count()


def monomial_parity(amb: Ambient, mono: Monomial) -> int:
    return monomial_odd_degree(amb, mono) & 1


#: Most odd-bit patterns koszul_mask keeps.  Criterion 11's (2,3) loop asks
#: for 2,146 distinct ones and `verify lemmas --m 3 --n 3` for 63 (16,326 of
#: its 16,389 calls hit); a pattern is one of up to 2^(2mn), so the table is
#: bounded.
KOSZUL_CACHE = 1 << 13


@lru_cache(maxsize=KOSZUL_CACHE)
def koszul_mask(odd_bits: int) -> int:
    """Bit h is set when an odd number of the given bits lie above h.

    For a left factor with odd bits oa, the parity of (oa & koszul_mask(ob))
    counts, mod 2, the pairs of an odd factor of the right word and a greater
    odd factor of the left word: the crossings that bring the product into
    canonical order.  The mask depends on its argument alone, so the last
    KOSZUL_CACHE patterns asked for are kept.
    """
    mask = 0
    while odd_bits:
        low = odd_bits & -odd_bits
        mask ^= low - 1
        odd_bits ^= low
    return mask


def monomial_column_content(amb: Ambient, mono: Monomial) -> tuple:
    view = field_view(mono, 2 * len(amb.field_gens))
    return tuple(sum(view[cols]) for cols in amb.column_slices)


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
        self._check_mate(other)
        out = dict(self.terms)
        for mo, c in other.terms.items():
            out[mo] = out.get(mo, 0) - c
        return SuperPolynomial(self.ambient, out)

    def scale(self, c) -> "SuperPolynomial":
        c = self.ambient.coeff(c)
        return SuperPolynomial(self.ambient, {mo: v * c for mo, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return dot(self.ambient, ((self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise UsageError("negative polynomial powers are not defined here")
        # the repeated squares self^(2^k), each built only when the product
        # reaches it, multiplied at the set bits of e
        squares = accumulate(range(e.bit_length() - 1), lambda base, _: base * base,
                             initial=self)
        return product(self.ambient, (sq for k, sq in enumerate(squares) if e >> k & 1))

    def __repr__(self):
        return f"SuperPolynomial({render_poly(self)!r})"


def dot(amb: Ambient, pairs) -> SuperPolynomial:
    """The sum of the products a·b over the (a, b) pairs of polynomials in
    amb, accumulated in one dict: the one product loop of the ring.

    The right operand's terms run outermost and the left operand's innermost.
    The left terms are split once per pair into odd-free terms and odd terms
    with their odd bits.  A pair of terms with an odd-free factor on either
    side shares no odd generator and crosses no odd factor, so it is added
    unsigned and untested.  Only an odd left term against an odd right term
    tests for a shared odd generator (oa & ob) and reads its Koszul sign from
    the right term's koszul_mask, built once per right term.
    """
    odd = amb.odd_mask
    out: dict = {}
    get = out.get
    for a, b in pairs:
        # ambient() shares instances, so identity settles nearly every pair
        if not (a.ambient is amb is b.ambient or a.ambient == amb == b.ambient):
            raise UsageError("operands live in different ambients")
        left = a.terms.items()
        even_left = []
        odd_left = []
        for ma, ca in left:
            oa = ma & odd
            if oa:
                odd_left.append((ma, ca, oa))
            else:
                even_left.append((ma, ca))
        for mb, cb in b.terms.items():
            ob = mb & odd
            if not ob:
                for ma, ca in left:
                    mo = ma + mb
                    out[mo] = get(mo, 0) + ca * cb
                continue
            for ma, ca in even_left:
                mo = ma + mb
                out[mo] = get(mo, 0) + ca * cb
            kb = koszul_mask(ob)
            for ma, ca, oa in odd_left:
                if oa & ob:
                    continue  # a shared odd generator squares to zero
                mo = ma + mb
                if (oa & kb).bit_count() & 1:
                    out[mo] = get(mo, 0) - ca * cb
                else:
                    out[mo] = get(mo, 0) + ca * cb
    check_exponents(amb, out)
    return SuperPolynomial(amb, out)


def product(amb: Ambient, factors) -> SuperPolynomial:
    """The product of the polynomials in amb, multiplied in order: the one
    fold of an ordered product.  It starts from the first factor, so one
    factor is returned as it is, and it gives one only when there are none."""
    factors = iter(factors)
    first = next(factors, None)
    return amb.one() if first is None else reduce(mul, factors, first)


def weight_of(p: SuperPolynomial):
    """Common column-content vector of all terms, or None when inhomogeneous.

    A row of an s-by-s monomial is a block of s fields, column j in field
    s - j, so the sum of its rows holds each column's content in that field
    as long as no column sum reaches FIELD_MASK; that sum is then the
    monomial mod 2^(s·FIELD_BITS) - 1, one fold per term.  Below the carry
    bits of amb.row_fold no sum of s exponents reaches it; a term with a
    carry bit set sends the whole polynomial to monomial_column_content.
    The zero polynomial reports the zero vector.
    """
    amb = p.ambient
    modulus, carry = amb.row_fold
    fold = None
    for mono in p.terms:
        if mono & carry:
            contents = {monomial_column_content(amb, t) for t in p.terms}
            return contents.pop() if len(contents) == 1 else None
        cur = mono % modulus
        if fold is None:
            fold = cur
        elif cur != fold:
            return None
    fold = fold or 0
    return tuple((fold >> (f * FIELD_BITS)) & FIELD_MASK for f in range(amb.size - 1, -1, -1))


# -- exact division -----------------------------------------------------------


def _division_ranks(amb: Ambient, monos) -> list:
    """Where each monomial stands in the division order, leading terms first:
    fewer odd factors, then the larger packed int (lexicographic from
    c[1,1]).  Both parts add under a nonzero product, so the order is
    multiplicative, and it is well founded (the odd count is bounded, and a
    lexicographic order of exponent vectors is a well-order), with no degree
    to read.  An even divisor with a nonzero body leads with an odd-free
    term."""
    odd = amb.odd_mask
    return [((mo & odd).bit_count(), -mo) for mo in monos]


def exact_divide(a: SuperPolynomial, b: SuperPolynomial):
    """Exact quotient a/b, or None when b does not divide a.

    The divisor must be even and a non-zero-divisor.  Writing b = b0 + higher,
    where the body b0 collects the terms free of odd generators, evenness makes
    b invertible-modulo-divisibility exactly when b0 is nonzero.  Then b's
    leading term in the division order (fewer odd factors first, then the
    larger packed int) is odd-free, so its product with a quotient term never
    vanishes and is never signed, and one leading-term division recovers the
    quotient (Monagan & Pearce): the remainder's leading terms come off a
    heap, and each quotient term subtracts its product with every other
    divisor term, signed and skipped as `dot` does, from the remainder in
    place.  The other divisor terms are split once into odd-free and odd
    ones, as `dot` splits its left operand, so only an odd quotient term
    against an odd divisor term is tested and signed.  A coefficient that
    cancels leaves the remainder, so its stale heap entry is skipped when
    popped, and a monomial that enters it, anew or again, is pushed.  The result is verified by multiplication before being
    returned.
    """
    if a.ambient != b.ambient:
        raise UsageError("operands live in different ambients")
    amb = a.ambient
    if b.is_zero():
        raise UsageError("division by the zero polynomial")
    if b.parity() != 0:
        raise UsageError("divisor must be even")
    odd = amb.odd_mask
    guard = amb.guard_mask
    p = amb.char
    lead_b = -min(_division_ranks(amb, b.terms))[1]
    if lead_b & odd:
        raise UsageError("divisor is a zero divisor (its even-generator body vanishes)")
    lc_b_inv = amb.field.inv(b.terms[lead_b])
    # the other divisor terms, negated and split once: an odd-free one shares
    # no odd generator with a quotient term and crosses none of its odd
    # factors, and an odd-free quotient term meets every one unsigned
    unsigned = []
    odd_rest = []
    for mb, cb in b.terms.items():
        ob = mb & odd
        if ob:
            odd_rest.append((mb, cb, ob, koszul_mask(ob), ob.bit_count()))
        elif mb != lead_b:
            unsigned.append((mb, -cb, 0))
    even_rest = list(unsigned)
    unsigned += [(mb, -cb, odd_b) for mb, cb, _, _, odd_b in odd_rest]
    quo: dict = {}
    rem = dict(a.terms)
    heap = _division_ranks(amb, rem)
    heapify(heap)
    while heap:
        odd_u, neg_u = heappop(heap)
        u = -neg_u
        cu = rem.pop(u, None)
        if cu is None:
            continue  # the monomial cancelled after it was pushed
        # u / lead_b, lead_b being odd-free: setting every guard bit of u
        # first keeps each field's borrow inside the field, and a guard bit
        # that the subtraction clears marks a field where lead_b exceeds u
        qm = (u | guard) - lead_b
        if qm & guard != guard:
            return None
        qm ^= guard
        qc = quo[qm] = cu * lc_b_inv % p if p else cu * lc_b_inv
        oq = qm & odd
        subtract = unsigned if not oq else even_rest + [
            (mb, cb if (oq & kb).bit_count() & 1 else -cb, odd_b)
            for mb, cb, ob, kb, odd_b in odd_rest
            if not oq & ob]  # a shared odd generator squares to zero
        for mb, ncb, odd_b in subtract:
            mo = qm + mb
            if mo & guard:
                raise UsageError(f"exponent exceeds the monomial exponent cap {EXPONENT_CAP}")
            c = qc * ncb
            prev = rem.get(mo)
            if prev is None:
                # a monomial new to the remainder, or back after cancelling
                rem[mo] = c % p if p else c
                heappush(heap, (odd_u + odd_b, -mo))
                continue
            c = (prev + c) % p if p else prev + c
            if c:
                rem[mo] = c
            else:
                del rem[mo]
    quo_poly = SuperPolynomial(amb, quo)
    if quo_poly * b != a:
        raise InternalError("division verification failed")
    return quo_poly


# -- generic determinants ------------------------------------------------------


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


def det(amb: Ambient, entries) -> SuperPolynomial:
    """Determinant of a square matrix of polynomials: the Leibniz sum over
    permutations with factors multiplied in row order, which fixes the value
    when odd entries are present.  More than DET_CAP rows raise UsageError."""
    t = len(entries)
    check_det_size(t)
    if any(len(row) != t for row in entries):
        raise UsageError("determinant needs a square matrix")
    acc: dict = {}
    for perm in permutations(range(t)):  # the one empty permutation gives one
        sign = sort_with_sign(perm)[0]
        for mo, c in product(amb, (entries[a][perm[a]] for a in range(t))).terms.items():
            acc[mo] = acc.get(mo, 0) + sign * c
    return SuperPolynomial(amb, acc)


def leibniz_det(amb: Ambient, rows, cols) -> SuperPolynomial:
    """det of the submatrix of (c[i,j]) on the given rows and cols; a repeated
    row or column gives zero by convention.  More than DET_CAP rows raise
    UsageError in det."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise UsageError("minor specification must have equally many rows and columns")
    for idx in (*rows, *cols):
        amb.index_parity(idx)
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return amb.zero()
    return det(amb, [[amb.gen(r, c) for c in cols] for r in rows])


# -- text format ----------------------------------------------------------------


def _render_key(mono: Monomial):
    # graded lexicographic over the full generator grid (int order is the
    # lexicographic order from c[1,1])
    return (monomial_degree(mono), mono)


def render_poly(p: SuperPolynomial) -> str:
    """Canonical text form: sign-prefixed terms, leading monomials first."""
    if p.is_zero():
        return "0"
    amb = p.ambient
    ordered = sorted(p.terms, key=_render_key, reverse=True)
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


_FACTOR = r"(?:c\[[0-9]+,[0-9]+\](?:\^[0-9]+)?|[0-9]+(?:/[0-9]+)?)"
_TERM = rf"{_FACTOR}(?:[·*]{_FACTOR})*"
_POLY_RE = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")
_GEN_RE = re.compile(r"c\[([0-9]+),([0-9]+)\](?:\^([0-9]+))?")


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
        powers = []
        for chunk in re.split(r"[·*]", body):
            gm = _GEN_RE.fullmatch(chunk)
            if gm:
                i, j, e = (parse_integer(v) for v in (gm[1], gm[2], gm[3] or "1"))
                powers.append(amb.gen(i, j) ** e)
            else:
                coeff = coeff * amb.coeff(chunk)
        total = total + product(amb, powers).scale(coeff)
    return total
