"""Shape and weight helpers that only the tests read.

Partition containment, and the horizontal-strip test that gives the one-row
content case of the Littlewood-Richardson count a second opinion,
independent of the tableau enumerator; the bare LR count; the semistandard
condition that `enumerate_semistandard` must meet; the determinant twist
under which the grid is invariant; and the Nakayama consequence, which keys
both single-step shifts of a weight before comparing their grid residues."""

from superinduce.linkage import even_linked, residues_agree
from superinduce.lr_oracle import _fits, _normal_partition, lr_coefficient_flagged
from superinduce.weights_tableaux import Tableau, Weight, lambda_ij, tableau_columns


def contains(outer, inner) -> bool:
    return _fits(
        _normal_partition(outer, "outer shape"), _normal_partition(inner, "inner shape")
    )


def is_horizontal_strip(outer, inner) -> bool:
    """No column of outer/inner holds two cells."""
    outer = _normal_partition(outer, "outer shape")
    inner = _normal_partition(inner, "inner shape")
    if not _fits(outer, inner):
        return False
    padded = inner + (0,) * (len(outer) - len(inner))
    return all(outer[r + 1] <= padded[r] for r in range(len(outer) - 1))


def lr_coefficient(outer, inner, content) -> int:
    return lr_coefficient_flagged(outer, inner, content)[0]


def is_semistandard(t: Tableau) -> bool:
    for row in t.cells:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
    for col in tableau_columns(t):
        if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
            return False
    return True


def normalize_berezinian(w: Weight):
    """Shift by the determinant character so the last minus entry becomes zero.

    Returns (shifted weight, twist): the twist is the last minus entry, and
    the shifted weight adds it to every plus entry and subtracts it from every
    minus entry.  The module for the original weight is the shifted one tensored
    by the twist-th power of the one-dimensional determinant character.
    """
    twist = w.minus[-1]
    norm = Weight(
        tuple(v + twist for v in w.plus), tuple(v - twist for v in w.minus)
    )
    return norm, twist


def nakayama_consequence_check(w: Weight, i: int, j: int, k: int, l: int, p: int) -> bool:
    """When the two single-step shifts land in one even block
    (``even_linked``), their grid entries vanish mod p together
    (``residues_agree``, which a caller that knows the blocks calls alone)."""
    if not even_linked(lambda_ij(w, i, j), lambda_ij(w, k, l), p):
        return True
    return residues_agree(w, i, j, k, l, p)
