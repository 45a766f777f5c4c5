"""A tuple-word model of the supercommutative ring, kept only as a test oracle.

A monomial is the sorted word of its generators, an even generator repeated
once per power.  Products concatenate words and sort them, with the sign of
the odd letters' inversions; a repeated odd letter makes the product zero.
It shares nothing with the packed kernel except the final unpacking of the
kernel's results.
"""

from hypothesis import strategies as st

from superinduce.superpoly import SuperPolynomial, monomial_items

# the sizes the oracle properties sweep: every shape up to (2,2), and (3,2)
SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]


def canonical(amb, word):
    """(sign, sorted word), or (1, None) when an odd generator repeats."""
    odd = [g for g in word if amb.gen_parity(*g)]
    if len(set(odd)) != len(odd):
        return 1, None
    inversions = sum(1 for x, a in enumerate(odd) for b in odd[x + 1 :] if a > b)
    return (-1) ** inversions, tuple(sorted(word))


def pack(amb, words: dict) -> SuperPolynomial:
    """The polynomial with these canonical words, packed letter by letter."""
    return SuperPolynomial(
        amb, {sum(amb.unit(*g) for g in w): amb.coeff(c) for w, c in words.items()}
    )


def unpack(p: SuperPolynomial) -> dict:
    amb = p.ambient
    return {
        tuple(g for g, e in monomial_items(amb, mo) for _ in range(e)): c
        for mo, c in p.terms.items()
    }


def word_mul(amb, a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            sign, w = canonical(amb, wa + wb)
            if w is not None:
                out[w] = out.get(w, 0) + sign * amb.coeff(ca) * amb.coeff(cb)
    return amb.field.clean(out)


def word_derivative(amb, a: dict, k: int, l: int) -> dict:
    """The right derivation d[k,l] letter by letter: c[i,k] becomes c[i,l],
    with the sign of the odd operator passing the odd letters after it."""
    dpar = amb.gen_parity(k, l)
    out: dict = {}
    for w, c in a.items():
        for t, (i, j) in enumerate(w):
            if j != k:
                continue
            passed = sum(amb.gen_parity(*g) for g in w[t + 1 :])
            sign, nw = canonical(amb, w[:t] + ((i, l),) + w[t + 1 :])
            if nw is None:
                continue
            if dpar and passed % 2:
                sign = -sign
            out[nw] = out.get(nw, 0) + sign * amb.coeff(c)
    return amb.field.clean(out)


def random_words(amb, data, max_terms=4, max_letters=4) -> dict:
    """hypothesis helper: canonical words with small integer coefficients."""
    gens = [(i, j) for i in range(1, amb.size + 1) for j in range(1, amb.size + 1)]
    out: dict = {}
    for _ in range(data.draw(st.integers(0, max_terms))):
        word = data.draw(st.lists(st.sampled_from(gens), max_size=max_letters))
        _, w = canonical(amb, word)
        if w is not None:
            out[w] = data.draw(st.integers(-3, 3))
    return {w: c for w, c in out.items() if amb.coeff(c)}
