"""Brute-force Littlewood-Richardson counting as an independent oracle.

The multiplicity questions about even-primitive vectors in a fixed exterior
floor reduce, on transposed shapes, to counting semistandard skew fillings
whose reverse reading word is a lattice word.  This module enumerates those
fillings directly, with no shortcuts shared with the algebraic side, so the
two routes can audit each other: ``admissible_count`` walks 0/1 matrices of
index families, ``lr_coefficient`` walks tableau cells.

Partitions are tuples of weakly decreasing nonnegative integers; trailing
zeros are immaterial and stripped on entry.
"""

from __future__ import annotations

from itertools import combinations, product

from .superpoly import InternalError, UsageError
from .weights_tableaux import (
    Weight,
    is_admissible_pair,
    is_dominant,
    is_robust,
    lambda_IJ,
)


def _normal_partition(seq, what: str) -> tuple:
    """Validate and strip trailing zeros; raise UsageError if not a partition."""
    parts = tuple(seq)
    for v in parts:
        if not isinstance(v, int) or v < 0:
            raise UsageError(f"{what} must have nonnegative integer parts")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise UsageError(f"{what} must be weakly decreasing")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def conjugate(partition) -> tuple:
    """Transpose of a partition: column lengths read off as row lengths."""
    parts = _normal_partition(partition, "partition")
    if not parts:
        return ()
    return tuple(sum(1 for v in parts if v > c) for c in range(parts[0]))


def contains(outer, inner) -> bool:
    outer = _normal_partition(outer, "outer shape")
    inner = _normal_partition(inner, "inner shape")
    if len(inner) > len(outer):
        return False
    return all(o >= i for o, i in zip(outer, inner))


def is_horizontal_strip(outer, inner) -> bool:
    """No column of outer/inner holds two cells.

    Kept deliberately independent of the tableau enumerator so the one-row
    content case has a second opinion.
    """
    outer = _normal_partition(outer, "outer shape")
    inner = _normal_partition(inner, "inner shape")
    if not contains(outer, inner):
        return False
    padded = inner + (0,) * (len(outer) - len(inner))
    return all(outer[r + 1] <= padded[r] for r in range(len(outer) - 1))


def _skew_cells(outer, inner) -> list:
    """Cells of outer/inner in reverse-reading-word order.

    Rows top to bottom, each row right to left; this is the order in which
    the lattice condition can be checked one letter at a time.
    """
    padded = inner + (0,) * (len(outer) - len(inner))
    cells = []
    for r, (hi, lo) in enumerate(zip(outer, padded)):
        for c in range(hi - 1, lo - 1, -1):
            cells.append((r, c))
    return cells


def _checked_shapes(outer, inner, content):
    """Normalized (outer, inner, content) and None, or None and a short
    reason when the question is malformed."""
    try:
        outer = _normal_partition(outer, "outer shape")
        inner = _normal_partition(inner, "inner shape")
        content = _normal_partition(content, "content")
    except UsageError as exc:
        return None, str(exc)
    if not contains(outer, inner):
        return None, "inner shape is not contained in the outer shape"
    if sum(outer) != sum(inner) + sum(content):
        return None, "cell count of the skew shape does not match the content size"
    return (outer, inner, content), None


def _lattice_fillings(outer, inner, content, descending=False):
    """Yield every lattice semistandard filling of outer/inner with the given
    content, as the live list of rows (0 marks an inner cell); copy a filling
    to keep it past the next step of the walk.

    ``descending`` flips the per-cell candidate order.
    """
    cells = _skew_cells(outer, inner)
    width = outer[0] if outer else 0
    letters = len(content)
    filling = [[0] * width for _ in range(len(outer))]
    counts = [0] * (letters + 1)

    def candidates(r, c):
        # the right and upper neighbours come earlier in reading order, so
        # the row and column conditions are bounds known on arrival; an upper
        # neighbour holding 0 is inner shape and bounds nothing
        hi = filling[r][c + 1] if c + 1 < outer[r] else letters
        lo = filling[r - 1][c] + 1 if r > 0 and c < outer[r - 1] else 1
        return iter(range(hi, lo - 1, -1) if descending else range(lo, hi + 1))

    if not cells:
        yield filling
        return
    # depth-first over the cells in reading order: one entry per open cell,
    # holding the letters not yet tried there, in place of a recursion per cell
    last = len(cells) - 1
    stack = [(*cells[0], candidates(*cells[0]))]
    while stack:
        r, c, untried = stack[-1]
        row = filling[r]
        e = row[c]
        if e:  # withdraw the letter tried last in this cell
            counts[e] -= 1
            row[c] = 0
        for e in untried:
            # content, and the lattice prefix: e may not outnumber e-1
            n = counts[e]
            if n < content[e - 1] and (e == 1 or n < counts[e - 1]):
                row[c] = e
                counts[e] = n + 1
                break
        else:
            stack.pop()
            continue
        if len(stack) > last:
            yield filling
        else:
            cell = cells[len(stack)]
            stack.append((*cell, candidates(*cell)))


def lr_coefficient_flagged(outer, inner, content, descending=False):
    """Count lattice semistandard fillings of outer/inner with the given content.

    Returns ``(count, flag)``.  ``flag`` is None when the preconditions hold
    and a short reason string otherwise; a flagged call counts 0, which keeps
    "no tableaux" distinguishable from "the question was malformed".

    ``descending`` flips the per-cell candidate order.  The count may not
    depend on it; the property suite recomputes both ways.
    """
    shapes, flag = _checked_shapes(outer, inner, content)
    if flag is not None:
        return 0, flag
    return sum(1 for _ in _lattice_fillings(*shapes, descending)), None


def lr_coefficient(outer, inner, content) -> int:
    return lr_coefficient_flagged(outer, inner, content)[0]


def lr_tableaux(outer, inner, content) -> list:
    """The fillings themselves, each as a tuple of row tuples (0 = inner cell);
    empty when ``lr_coefficient_flagged`` flags the question."""
    shapes, flag = _checked_shapes(outer, inner, content)
    if flag is not None:
        return []
    outer = shapes[0]
    return [
        tuple(tuple(row[: outer[r]]) for r, row in enumerate(filling))
        for filling in _lattice_fillings(*shapes)
    ]


# -- the two counting routes for index families -----------------------------------


def admissible_families(w: Weight, content: Weight) -> list:
    """All admissible (K|L) with the given content, in canonical order.

    An index family is determined by the set of its pairs: equal first
    entries force distinct second entries, so the family is a 0/1 matrix
    with row sums given by the plus content and column sums by the minus
    content.  The canonical ordering sorts pairs lexicographically.
    """
    if content.m != w.m or content.n != w.n:
        raise UsageError("content must have the same block sizes as the weight")
    m, n = w.m, w.n
    row_sums = tuple(-v for v in content.plus)
    col_sums = content.minus
    if any(v < 0 or v > n for v in row_sums):
        return []
    if any(v < 0 for v in col_sums) or sum(row_sums) != sum(col_sums):
        return []
    families = []
    choices = [list(combinations(range(1, n + 1), r)) for r in row_sums]
    for rows in product(*choices):
        tally = [0] * (n + 1)
        for picked in rows:
            for j in picked:
                tally[j] += 1
        if tuple(tally[1:]) != col_sums:
            continue
        pairs = [(i, j) for i, picked in enumerate(rows, start=1) for j in picked]
        pairs.sort()
        K = tuple(i for i, _ in pairs)
        L = tuple(j for _, j in pairs)
        if is_admissible_pair(w, K, L):
            families.append((K, L))
    return families


def admissible_count(w: Weight, content: Weight) -> int:
    return len(admissible_families(w, content))


def hook_partition(w: Weight) -> tuple:
    """The single partition whose first rows are the plus entries and whose
    columns beyond those rows record the minus entries.

    Defined when the minus block is a nonnegative partition whose positive
    length fits under the last plus entry.
    """
    if not is_dominant(w):
        raise UsageError("only dominant weights fold into one partition")
    if w.minus[-1] < 0:
        raise UsageError("minus entries must be nonnegative to fold")
    tail = conjugate(w.minus)
    if tail and w.plus[-1] < tail[0]:
        raise UsageError(
            "the plus block is too short to sit above the minus columns"
        )
    if w.plus[-1] < 0:
        raise UsageError("plus entries must be nonnegative to fold")
    return _normal_partition(w.plus + tail, "folded weight")


def wedge_hypotheses_hold(w: Weight, I, J) -> bool:
    """Hypotheses under which the two counting routes must agree:
    the family is admissible, the weight absorbs its content, and the last
    plus entry of the shifted weight still dominates the minus block size."""
    I, J = tuple(I), tuple(J)
    if not is_admissible_pair(w, I, J):
        return False
    if not is_robust(w, I, J):
        return False
    if w.minus[-1] < 0:
        return False
    shifted = lambda_IJ(w, I, J)
    return shifted.plus[-1] >= w.n


def lr_multiplicity(w: Weight, I, J) -> int:
    """The multiplicity of the shifted weight's even-module in the induced
    module, computed purely on transposed shapes.

    Independent of ``admissible_count`` end to end: this route never looks
    at index families, only at the three partitions it derives.
    """
    if not wedge_hypotheses_hold(w, I, J):
        raise UsageError("the transposed-shape count needs the wedge hypotheses")
    shifted = lambda_IJ(w, I, J)
    outer = conjugate(hook_partition(w))
    inner = conjugate(_normal_partition(shifted.plus, "shifted plus block"))
    content = _normal_partition(shifted.minus, "shifted minus block")
    count, flag = lr_coefficient_flagged(outer, inner, content)
    if flag is not None:
        # the hypotheses guarantee containment and matching sizes
        raise InternalError(f"transposed shapes degenerated: {flag}")
    return count
