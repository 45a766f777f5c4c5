"""Partition-shape predicates that only the tests read: containment of two
partitions, and the horizontal-strip test that gives the one-row content case
of the Littlewood-Richardson count a second opinion, independent of the
tableau enumerator."""

from superinduce.lr_oracle import _fits, _normal_partition


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
