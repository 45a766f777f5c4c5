"""Weight combinatorics of blocks: the atypicality grid, the half-sum weight,
the signed bilinear form, block linkage for the even subgroup, the odd-linkage
chain condition, alcove membership, and the odd-root chain search.

Everything here is exact integer or rational arithmetic on weights; no ring
elements appear.  The bilinear form carries signature +1 on the first block
and -1 on the second, which makes the atypicality grid entries show up as
pairings against mixed-direction roots.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .superpoly import InternalError, UsageError, check_odd_prime
from .weights_tableaux import (
    Weight,
    content_of_pairs,
    is_dominant,
    lambda_IJ,
    lambda_ij,
)

#: d-exponent of a sequence whose defining congruences hold vacuously.
ALL = "all"


def omega(w: Weight, i: int, j: int) -> int:
    if not (1 <= i <= w.m and 1 <= j <= w.n):
        raise UsageError("grid indices out of range")
    return w.plus[i - 1] + w.minus[j - 1] + w.m + 1 - i - j


def omega_grid(w: Weight) -> list:
    return [[omega(w, i, j) for j in range(1, w.n + 1)] for i in range(1, w.m + 1)]


def is_typical(w: Weight, p: int = 0) -> bool:
    if p == 0:
        return all(v != 0 for row in omega_grid(w) for v in row)
    check_odd_prime(p)
    return all(v % p != 0 for row in omega_grid(w) for v in row)


# -- the half-sum weight and the bilinear form ----------------------------------------


def positive_even_roots(m: int, n: int):
    roots = []
    for block_start, block_len in ((0, m), (m, n)):
        for a in range(block_len):
            for b in range(a + 1, block_len):
                vec = [0] * (m + n)
                vec[block_start + a] = 1
                vec[block_start + b] = -1
                roots.append(tuple(vec))
    return roots


def positive_odd_roots(m: int, n: int):
    roots = []
    for i in range(m):
        for j in range(n):
            vec = [0] * (m + n)
            vec[i] = 1
            vec[m + j] = -1
            roots.append(tuple(vec))
    return roots


@lru_cache(maxsize=None)
def rho_weight(m: int, n: int):
    """Half-sum of positive even roots minus half-sum of positive odd roots,
    as a length m+n tuple of rationals; cross-checked against the closed form
    on the first call for each size."""
    total = [Fraction(0)] * (m + n)
    for root in positive_even_roots(m, n):
        for k, v in enumerate(root):
            total[k] += Fraction(v, 2)
    for root in positive_odd_roots(m, n):
        for k, v in enumerate(root):
            total[k] -= Fraction(v, 2)
    closed = [Fraction(m - 2 * i + 1, 2) - Fraction(n, 2) for i in range(1, m + 1)]
    closed += [Fraction(n - 2 * j + 1, 2) + Fraction(m, 2) for j in range(1, n + 1)]
    if total != closed:
        raise InternalError("half-sum weight disagrees with its closed form")
    return tuple(total)


def bilinear_form(u, v, m: int, n: int):
    """Diagonal form with +1 on the first m coordinates and -1 on the rest."""
    u, v = tuple(u), tuple(v)
    if len(u) != m + n or len(v) != m + n:
        raise UsageError("vectors must have length m+n")
    # a root has two nonzero coordinates: skip the products that vanish
    plus = sum(a * b for a, b in zip(u[:m], v[:m]) if a and b)
    minus = sum(a * b for a, b in zip(u[m:], v[m:]) if a and b)
    return plus - minus


@lru_cache(maxsize=None)
def _twice_rho(m: int, n: int) -> tuple:
    """2ρ, which is integral, read from rho_weight once per size."""
    return tuple(int(2 * r) for r in rho_weight(m, n))


def omega_via_form(w: Weight, i: int, j: int) -> int:
    """The grid entry recomputed as a pairing of λ+ρ against a mixed root, in
    integers: 2λ+2ρ is paired, and the pairing halved."""
    m, n = w.m, w.n
    shifted = tuple(2 * a + r for a, r in zip(w.plus + w.minus, _twice_rho(m, n)))
    alpha = [0] * (m + n)
    alpha[i - 1] = 1
    alpha[m + j - 1] = -1
    twice = bilinear_form(shifted, alpha, m, n)
    if twice % 2:
        raise InternalError("the doubled pairing of λ+ρ with a mixed root is odd")
    return twice // 2


# -- block linkage for one general linear factor --------------------------------------


def d_exponent(entries, p: int):
    """Largest d with every consecutive difference ≡ -1 mod p^d; vacuous
    congruences (fewer than two entries, or differences exactly -1) give ALL."""
    check_odd_prime(p)
    entries = tuple(int(v) for v in entries)
    shifted = [a - b + 1 for a, b in zip(entries, entries[1:])]
    best = None
    for x in shifted:
        if x == 0:
            continue  # congruence holds for every power
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        best = v if best is None else min(best, v)
    return ALL if best is None else best


def block_key(entries, p: int) -> tuple:
    """Donkin's key of the block of one general linear factor:
    ``(d, residues)`` with d the d-exponent and residues the sorted shifted
    entries ``entry - index`` mod p^(d+1), or the sorted shifted entries
    themselves when d is ALL.  Two weights of one length share a block
    exactly when their keys are equal."""
    d = d_exponent(entries, p)
    shifted = [v - i for i, v in enumerate(entries, start=1)]
    if d == ALL:
        return ALL, tuple(sorted(shifted))
    mod = p ** (d + 1)
    return d, tuple(sorted(v % mod for v in shifted))


def donkin_linked(mu, nu, p: int) -> bool:
    """Same block for one general linear factor: equal d-exponents and a
    permutation matching the shifted entries mod p^(d+1).  Multiset equality
    of residues realizes the exact bipartite matching."""
    mu, nu = tuple(int(v) for v in mu), tuple(int(v) for v in nu)
    if len(mu) != len(nu):
        raise UsageError("block weights must have the same length")
    return block_key(mu, p) == block_key(nu, p)


def even_linked(wa: Weight, wb: Weight, p: int) -> bool:
    if (wa.m, wa.n) != (wb.m, wb.n):
        raise UsageError("weights must share block sizes")
    return donkin_linked(wa.plus, wb.plus, p) and donkin_linked(wa.minus, wb.minus, p)


def residues_agree(w: Weight, i: int, j: int, k: int, l: int, p: int) -> bool:
    """The grid entries at (i, j) and (k, l) vanish mod p together."""
    return (omega(w, i, j) % p == 0) == (omega(w, k, l) % p == 0)


# -- odd linkage ------------------------------------------------------------------------


def odd_linked(w: Weight, I, J, p: int):
    """Chain condition for an index family: some rearrangement makes the grid
    entries vanish mod p sequentially along the accumulated shifts.  Returns
    (verdict, witness rearrangement or None)."""
    check_odd_prime(p)
    I, J = tuple(I), tuple(J)
    content_of_pairs(w.m, w.n, I, J)  # validates lengths and ranges
    if not is_dominant(w) or not is_dominant(lambda_IJ(w, I, J)):
        raise UsageError("odd linkage is defined between dominant endpoints")
    if not I:
        return True, ((), ())
    # distinct rearrangements only, in first-occurrence order
    perms_j = list(dict.fromkeys(permutations(J)))
    for perm_i in dict.fromkeys(permutations(I)):
        for perm_j in perms_j:
            cur = w
            for a, b in zip(perm_i, perm_j):
                if omega(cur, a, b) % p != 0:
                    break
                cur = lambda_ij(cur, a, b)
            else:
                return True, (perm_i, perm_j)
    return False, None


# -- alcove membership and the chain search --------------------------------------------


def in_alcove(w: Weight, p: int) -> bool:
    """Strict alcove condition against the even coroots, evaluated per block:
    0 < entry_a - entry_b + (b - a) < p for a < b."""
    check_odd_prime(p)
    for block in (w.plus, w.minus):
        k = len(block)
        for a in range(k):
            for b in range(a + 1, k):
                val = block[a] - block[b] + (b - a)
                if not 0 < val < p:
                    return False
    return True


def dot_equivalent(wa: Weight, wb: Weight, p: int) -> bool:
    """Affine-orbit equality per even block: sorted residues of the shifted
    entries mod p agree."""
    check_odd_prime(p)
    if (wa.m, wa.n) != (wb.m, wb.n):
        raise UsageError("weights must share block sizes")
    for blocka, blockb in ((wa.plus, wb.plus), (wa.minus, wb.minus)):
        ra = sorted((v - i) % p for i, v in enumerate(blocka, start=1))
        rb = sorted((v - i) % p for i, v in enumerate(blockb, start=1))
        if ra != rb:
            return False
    return True


#: Most weights one chain search may reach.  A step along (i, j) keeps that
#: grid entry at 0, so the reachable set grows like a power of the step bound;
#: every search in the tests, the demos and the benchmark pool reaches at most
#: 15.
CHAIN_NODE_CAP = 20_000


def link_chain_search(w: Weight, target: Weight, p: int, max_steps: int):
    """Breadth-first search over single-index shifts whose grid entry vanishes
    exactly, ending at a weight in the target's affine orbit; returns the list
    of (i, j) steps, or None when the bounded search exhausts.  Reaching more
    than ``CHAIN_NODE_CAP`` weights is a UsageError."""
    check_odd_prime(p)
    if (w.m, w.n) != (target.m, target.n):
        raise UsageError("weights must share block sizes")
    if max_steps < 0:
        raise UsageError("step bound must be nonnegative")
    # each reached weight keeps the weight and the step it was reached from
    parent = {w: None}
    queue = deque([(w, 0)])
    while queue:
        node, depth = queue.popleft()
        if dot_equivalent(node, target, p):
            chain = []
            while parent[node] is not None:
                node, step = parent[node]
                chain.append(step)
            return chain[::-1]
        if depth >= max_steps:
            continue
        for i in range(1, w.m + 1):
            for j in range(1, w.n + 1):
                if omega(node, i, j) != 0:
                    continue
                nxt = lambda_ij(node, i, j)
                if nxt not in parent:
                    if len(parent) >= CHAIN_NODE_CAP:
                        raise UsageError(
                            f"chain search reached the cap of {CHAIN_NODE_CAP} weights "
                            "(CHAIN_NODE_CAP); lower --max-steps"
                        )
                    parent[nxt] = (node, (i, j))
                    queue.append((nxt, depth + 1))
    return None
