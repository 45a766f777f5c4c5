"""Brute-force Littlewood-Richardson counting as an independent oracle.

The multiplicity questions about even-primitive vectors in a fixed exterior
floor reduce, on transposed shapes, to counting semistandard skew fillings
whose reverse reading word is a lattice word.  This module enumerates those
fillings directly, with no shortcuts shared with the algebraic side, so the
two routes can audit each other: ``admissible_count`` walks 0/1 matrices of
index families, ``lr_coefficient_flagged`` walks tableau cells.

Partitions are tuples of weakly decreasing nonnegative integers; trailing
zeros are immaterial and stripped on entry.
"""

from __future__ import annotations

from itertools import combinations, product

from .superpoly import InternalError, UsageError
from .weights_tableaux import (
    Weight,
    content_of_pairs,
    is_admissible_pair,
    is_dominant,
    is_ordered_family,
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


def _transpose(parts: tuple) -> tuple:
    """Transpose of a normalized partition in one walk up its parts: the
    columns that row r reaches beyond row r + 1 have length r, so the walk
    takes O(rows + columns)."""
    out = []
    for r in range(len(parts), 0, -1):
        out.extend([r] * (parts[r - 1] - len(out)))
    return tuple(out)


def conjugate(partition) -> tuple:
    """Transpose of a partition: column lengths read off as row lengths."""
    return _transpose(_normal_partition(partition, "partition"))


def _fits(outer: tuple, inner: tuple) -> bool:
    """Containment of normalized partitions."""
    return len(inner) <= len(outer) and all(o >= i for o, i in zip(outer, inner))


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


def _shape_flag(outer: tuple, inner: tuple, content: tuple):
    """None when normalized shapes pose a well-formed question, else a short
    reason."""
    if not _fits(outer, inner):
        return "inner shape is not contained in the outer shape"
    if sum(outer) != sum(inner) + sum(content):
        return "cell count of the skew shape does not match the content size"
    return None


def _checked_shapes(outer, inner, content):
    """Normalized (outer, inner, content) and None, or None and a short
    reason when the question is malformed."""
    try:
        outer = _normal_partition(outer, "outer shape")
        inner = _normal_partition(inner, "inner shape")
        content = _normal_partition(content, "content")
    except UsageError as exc:
        return None, str(exc)
    flag = _shape_flag(outer, inner, content)
    if flag is not None:
        return None, flag
    return (outer, inner, content), None


def _lattice_fillings(outer, inner, content):
    """Yield every lattice semistandard filling of outer/inner with the given
    content, as the live list of rows (0 marks an inner cell); copy a filling
    to keep it past the next step of the walk."""
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
        return iter(range(lo, hi + 1))

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


def lr_coefficient_flagged(outer, inner, content):
    """Count lattice semistandard fillings of outer/inner with the given content.

    Returns ``(count, flag)``.  ``flag`` is None when the preconditions hold
    and a short reason string otherwise; a flagged call counts 0, which keeps
    "no tableaux" distinguishable from "the question was malformed".
    """
    shapes, flag = _checked_shapes(outer, inner, content)
    if flag is not None:
        return 0, flag
    return sum(1 for _ in _lattice_fillings(*shapes)), None


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


def ordered_families(content: Weight) -> list:
    """Every ordered family (K|L) with the given content, in canonical order;
    no weight enters, so one list serves every weight.

    An ordered family is determined by the set of its pairs: equal first
    entries force distinct second entries, so the family is a 0/1 matrix
    with row sums given by the plus content and column sums by the minus
    content.  The canonical ordering sorts pairs lexicographically.
    """
    n = content.n
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
        if not is_ordered_family(K, L):
            raise InternalError("a 0/1 matrix read in canonical order is not ordered")
        families.append((K, L))
    return families


def admissible_families(w: Weight, content: Weight) -> list:
    """All admissible (K|L) with the given content, in canonical order: the
    ``ordered_families`` of the content that pass ``is_admissible_pair``."""
    if content.m != w.m or content.n != w.n:
        raise UsageError("content must have the same block sizes as the weight")
    return [(K, L) for K, L in ordered_families(content) if is_admissible_pair(w, K, L)]


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


def _dominant_sum(a: tuple, b: tuple) -> bool:
    """``is_dominant`` of one block of the sum of two weights, without
    building the sum."""
    return all(x + y >= u + v for x, y, u, v in zip(a, b, a[1:], b[1:]))


def wedge_plus_holds(plus: tuple, cplus: tuple, n: int) -> bool:
    """The wedge hypotheses on a plus block and its content, n the minus block
    size: the last shifted entry reaches n, each gap (the last one down to 0)
    absorbs its content entry, and the shifted block is weakly decreasing."""
    if plus[-1] + cplus[-1] < n:
        return False
    gaps = zip(plus, plus[1:] + (0,), cplus)
    return all(a - b + c >= 0 for a, b, c in gaps) and _dominant_sum(plus, cplus)


def wedge_minus_holds(minus: tuple, cminus: tuple) -> bool:
    """The wedge hypotheses on a minus block and its content: the last entry
    is nonnegative, the gap above each later entry absorbs that entry's
    content, and the shifted block is weakly decreasing."""
    if minus[-1] < 0:
        return False
    gaps = zip(minus, minus[1:], cminus[1:])
    return all(a - b >= c for a, b, c in gaps) and _dominant_sum(minus, cminus)


def wedge_content_holds(w: Weight, content: Weight) -> bool:
    """The wedge hypotheses of every ordered family with this content, the
    conjunction of ``wedge_plus_holds`` and ``wedge_minus_holds``: the
    shifted weight stays dominant, the weight absorbs the content, the last
    minus entry is nonnegative, and the last plus entry of the shifted weight
    still dominates the minus block size."""
    if len(content.plus) != len(w.plus) or len(content.minus) != len(w.minus):
        raise UsageError("weights have different block sizes")
    return wedge_plus_holds(w.plus, content.plus, w.n) and wedge_minus_holds(
        w.minus, content.minus
    )


def wedge_hypotheses_hold(w: Weight, I, J) -> bool:
    """Hypotheses under which the two counting routes must agree: the family
    is ordered (``is_ordered_family``) and its content passes
    ``wedge_content_holds``."""
    I, J = tuple(I), tuple(J)
    return is_ordered_family(I, J) and wedge_content_holds(
        w, content_of_pairs(w.m, w.n, I, J)
    )


def shifted_inner(plus) -> tuple:
    """The inner shape of the transposed count: the conjugate of the shifted
    plus block."""
    return _transpose(_normal_partition(plus, "shifted plus block"))


def shifted_content(minus) -> tuple:
    """The content of the transposed count: the shifted minus block without
    its trailing zeros."""
    return _normal_partition(minus, "shifted minus block")


def skew_key(outer: tuple, inner: tuple, content: tuple) -> tuple:
    """The skew diagram outer/inner and the content, with what the lattice
    count cannot see dropped: normalized shapes in, ``(rows, content)`` out,
    each nonempty row as ``(outer_r - left, inner_r - left)`` where ``left``
    is the least inner part of those rows.  An empty diagram keys as
    ``((), ())``.

    A lattice count depends only on the cells of the skew diagram
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.5).  Dropping
    an empty row r keeps every column condition: a cell (r+1, c)
    has c < outer_{r+1} <= outer_r = inner_r <= inner_{r-1}, so the cell
    above it is still an inner cell.  Shifting every row by the same
    ``left`` keeps each cell's neighbours.  Shapes that are not contained,
    or whose sizes differ, are an InternalError.
    """
    flag = _shape_flag(outer, inner, content)
    if flag is not None:
        raise InternalError(f"transposed shapes degenerated: {flag}")
    padded = inner + (0,) * (len(outer) - len(inner))
    rows = [(o, i) for o, i in zip(outer, padded) if o > i]
    left = rows[-1][1] if rows else 0  # inner parts decrease down the rows
    return tuple((o - left, i - left) for o, i in rows), content


def skew_count(key: tuple) -> int:
    """Lattice fillings of a ``skew_key`` diagram, in one walk."""
    rows, content = key
    outer = tuple(o for o, _ in rows)
    inner = tuple(i for _, i in rows)
    return sum(1 for _ in _lattice_fillings(outer, inner, content))


def transposed_count(outer: tuple, plus, minus) -> int:
    """Lattice fillings of ``outer`` over the conjugate of the shifted plus
    block ``plus``, with the shifted minus block ``minus`` as content: the
    ``skew_count`` of the ``skew_key`` of ``shifted_inner(plus)`` and
    ``shifted_content(minus)``.

    ``outer`` is the conjugate of the unshifted weight's ``hook_partition``,
    so it is already normalized.  Under the wedge hypotheses the shapes are
    contained and their sizes match; anything else is an InternalError.
    """
    return skew_count(skew_key(outer, shifted_inner(plus), shifted_content(minus)))


def lr_multiplicity(w: Weight, I, J) -> int:
    """The multiplicity of the shifted weight's even-module in the induced
    module, computed purely on transposed shapes.

    Independent of ``admissible_count`` end to end: this route never looks
    at index families, only at the three partitions it derives.
    """
    if not wedge_hypotheses_hold(w, I, J):
        raise UsageError("the transposed-shape count needs the wedge hypotheses")
    shifted = lambda_IJ(w, I, J)
    return transposed_count(conjugate(hook_partition(w)), shifted.plus, shifted.minus)
