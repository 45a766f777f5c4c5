"""Exact calculus of induced supermodules for the general linear supergroup.

The package builds, from the ground up: the supercommutative coordinate ring
of GL(m|n) with exact rational or mod-p coefficients; its localization at the
two block determinants; right superderivations and their divided powers; the
minors/adjugate identities behind the odd generators y[i,j]; bideterminants,
highest vectors and weights; primitive vectors on the floors of the induced
module; typicality and linkage predicates; and a Littlewood-Richardson oracle
that cross-checks the primitive-vector counts.  A CLI (`superinduce`) surfaces
verification suites and emitters producing deterministic JSON.
"""

from .superpoly import (
    Ambient,
    InternalError,
    SuperPolynomial,
    UsageError,
    ambient,
    exact_divide,
    leibniz_det,
    parse_poly,
    render_poly,
    weight_of,
)

__all__ = [
    "Ambient",
    "InternalError",
    "SuperPolynomial",
    "UsageError",
    "ambient",
    "exact_divide",
    "leibniz_det",
    "parse_poly",
    "render_poly",
    "weight_of",
]
