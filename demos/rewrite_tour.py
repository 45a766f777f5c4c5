"""A short tour of the derivation calculus on the localized ring.

One factor from each rewrite family is differentiated twice: once through
the closed-form rewrite table, once by embedding the factor as an honest
fraction and applying the raw super-Leibniz/quotient rule.  The two answers
are compared exactly.
"""

from superinduce.derivation import (
    FY,
    FDminus,
    FDplus,
    FPhi,
    apply_loc,
    embed_formal,
    embed_formal_factor,
    structured_rule,
)
from superinduce.fraction import loc_eq, render_loc
from superinduce.superpoly import ambient


def _short(x) -> str:
    text = render_loc(x)
    if len(text) <= 120:
        return text
    return (
        f"({len(x.num.terms)} terms) / D^{x.d_exp} D22^{x.d22_exp}"
    )


def main():
    amb = ambient(2, 2)
    showcases = [
        (FY(1, 3), (1, 3), "a fraction entry under an upward mixed step"),
        (FY(1, 3), (3, 1), "the same entry under the reversed step"),
        (FPhi(3, 4), (3, 4), "a twisted odd-block generator"),
        (FDminus((3, 4)), (2, 3), "an odd-column minor leaving its block"),
        (FDplus((1, 2)), (2, 4), "an even-column minor raised out of its block"),
    ]
    for factor, (k, l), blurb in showcases:
        closed = embed_formal(amb, structured_rule(amb, factor, (k, l)))
        raw = apply_loc((k, l), embed_formal_factor(amb, factor))
        agree = loc_eq(closed, raw)
        print(f"{blurb}:")
        print(f"  operator      d[{k},{l}]")
        print(f"  closed form   {_short(closed)}")
        print(f"  raw route     {_short(raw)}")
        print(f"  exact match   {agree}")
        print()
        assert agree
    print("every rewrite above matches the raw quotient-rule derivative.")


if __name__ == "__main__":
    main()
