"""Acceptance sweeps for the headline behaviors, one test per criterion.

Every check is exact (rational or mod-p arithmetic end to end); the elapsed
ceilings are part of the contract and asserted too.  Each test emits a single
``criterion N: PASS/FAIL`` line directly to the terminal so the whole gate is
readable at a glance even in a captured run.
"""

import random
import time

import pytest
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement, permutations, product

from superinduce.derivation import FY, FDminus, FDplus, FPhi, basic, rewrite_rule_check
from superinduce.floors_primitives import (
    divide_floor,
    fe_add,
    fe_eq,
    fe_scale,
    fe_zero,
    floor_is_polynomial,
    generation_identity_check,
    is_primitive,
    phi_floor,
    pi_IJ,
    pi_IJ_raw,
    pi_ij,
    pi_minus,
    pi_plus,
    search_module_combinations,
)
from superinduce.fraction import embed_poly, loc_eq, loc_mul
from superinduce.linkage import (
    even_linked,
    nakayama_consequence_check,
    odd_linked,
    omega,
    omega_via_form,
)
from superinduce.lr_oracle import admissible_count, lr_multiplicity, wedge_hypotheses_hold
from superinduce.minors import jacobi_identity_check, muir_identity_check
from superinduce.superpoly import UsageError, ambient
from superinduce.weights_tableaux import (
    Weight,
    bideterminant_minus,
    bideterminant_plus,
    content_of_pairs,
    enumerate_semistandard,
    is_admissible_pair,
    is_robust,
    lambda_IJ,
    lambda_ij,
    make_weight,
    random_dominant_weight,
)


@contextmanager
def _criterion(number, budget: float, info: dict, capsys):
    started = time.monotonic()
    done = False
    try:
        yield
        elapsed = time.monotonic() - started
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s of {budget}s"
        done = True
    finally:
        elapsed = time.monotonic() - started
        verdict = "PASS" if done else "FAIL"
        # one visible verdict line per criterion, capture or not
        with capsys.disabled():
            print(
                f"criterion {number}: {verdict} — "
                f"{info.get('detail', 'see traceback')}"
                f" [{elapsed:.1f}s of {budget:.0f}s allowed]",
                flush=True,
            )


def _dominant_weights(m: int, n: int, top: int):
    for plus in combinations_with_replacement(range(top + 1), m):
        for minus in combinations_with_replacement(range(top + 1), n):
            yield Weight(tuple(reversed(plus)), tuple(reversed(minus)))


def _pair_families(m: int, n: int, max_size: int):
    pool = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    for k in range(1, max_size + 1):
        for combo in combinations(pool, k):
            yield tuple(p[0] for p in combo), tuple(p[1] for p in combo)


def _eigenvalue_sweep_weights():
    rng = random.Random(41)
    weights = [make_weight((2, 1), (1, 0))]
    while len(weights) < 11:
        weights.append(random_dominant_weight(2, 2, rng, max_entry=4))
    return weights


def test_criterion_1_rewrite_lemmas_exact_at_small_sizes(capsys):
    info = {}
    with _criterion(1, 120, info, capsys):
        checked = 0
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            amb = ambient(m, n)
            even = range(1, m + 1)
            odd = range(m + 1, m + n + 1)
            factors = [FY(i, j) for i in even for j in odd]
            factors += [FPhi(i, j) for i in odd for j in odd]
            for s in range(1, n + 1):
                factors += [FDminus(cols) for cols in product(odd, repeat=s)]
            for s in range(1, m + 1):
                factors += [FDplus(cols) for cols in product(even, repeat=s)]
            for factor in factors:
                for k, l in product(range(1, m + n + 1), repeat=2):
                    assert rewrite_rule_check(amb, factor, basic(k, l)), (
                        m,
                        n,
                        factor,
                        k,
                        l,
                    )
                    checked += 1
        assert checked == 543
        info["detail"] = (
            f"{checked} rewrite instances across sizes (1,1),(2,1),(1,2),(2,2) "
            "match the raw quotient-rule derivative exactly"
        )


def test_criterion_2_determinant_identities(capsys):
    info = {}
    with _criterion(2, 60, info, capsys):
        exhaustive = 0
        for m in (1, 2, 3):
            amb = ambient(m, 1)
            for i, k in combinations(range(1, m + 1), 2):
                for a, b in product(range(1, m + 1), repeat=2):
                    assert jacobi_identity_check(amb, i, k, a, b), (m, i, k, a, b)
                    exhaustive += 1
            for j in range(m):
                for ks in product(range(1, m + 1), repeat=j):
                    assert muir_identity_check(amb, ks, m + 1), (m, ks)
                    exhaustive += 1
        assert exhaustive == 48
        rng = random.Random(20260816)
        amb = ambient(4, 1)
        for _ in range(100):
            if rng.random() < 0.5:
                i, k = sorted(rng.sample(range(1, 5), 2))
                a, b = rng.randint(1, 4), rng.randint(1, 4)
                assert jacobi_identity_check(amb, i, k, a, b), (i, k, a, b)
            else:
                j = rng.randint(0, 3)
                ks = tuple(rng.randint(1, 4) for _ in range(j))
                assert muir_identity_check(amb, ks, 5), ks
        info["detail"] = (
            f"{exhaustive} exhaustive adjugate/expansion identities through m=3 "
            "plus 100 random draws at m=4, all exact"
        )


def test_criterion_3_generation_on_random_bideterminant_products(capsys):
    info = {}
    with _criterion(3, 120, info, capsys):
        amb = ambient(2, 2)
        rng = random.Random(31)
        # one stream: 50 draws with entries <= 3, then 50 more with entries <= 5
        for max_entry in [3] * 50 + [5] * 50:
            w = random_dominant_weight(2, 2, rng, max_entry=max_entry)
            tp = rng.choice(
                list(enumerate_semistandard(tuple(v for v in w.plus if v > 0), 1, 2))
            )
            tq = rng.choice(
                list(enumerate_semistandard(tuple(v for v in w.minus if v > 0), 3, 4))
            )
            element = loc_mul(
                embed_poly(bideterminant_plus(amb, tp)), bideterminant_minus(amb, tq)
            )
            for k in (1, 2):
                for l in (3, 4):
                    assert generation_identity_check(amb, element, k, l), (w, k, l)
        info["detail"] = (
            "100 random bideterminant products at (2,2), 50 with weight entries "
            "<= 3 and 50 with entries <= 5: every mixed derivative "
            "is generated in even directions and the reversed direction vanishes"
        )


def test_criterion_4_first_floor_eigenvalues_across_characteristics(capsys):
    info = {}
    with _criterion(4, 120, info, capsys):
        cells = 0
        zero_cells = 0
        for char in (0, 3, 5):
            amb = ambient(2, 2, char)
            for w in _eigenvalue_sweep_weights():
                for i in (1, 2):
                    for j in (1, 2):
                        try:
                            vec = pi_ij(amb, w, i, j)
                        except UsageError:
                            continue
                        value = omega(w, i, j)
                        assert fe_eq(phi_floor(vec), fe_scale(vec, value)), (
                            char,
                            w,
                            i,
                            j,
                        )
                        reduced = value % char if char else value
                        if reduced == 0:
                            assert fe_eq(phi_floor(vec), fe_zero(amb, vec.floor))
                            zero_cells += 1
                        cells += 1
        assert zero_cells >= 3
        info["detail"] = (
            f"{cells} defined first-floor cells across chars 0, 3, 5 carry their "
            f"grid eigenvalue ({zero_cells} vanishing cells give the zero element)"
        )


def test_criterion_5_wedge_multiplicities_match_transposed_count(capsys):
    info = {}
    with _criterion(5, 300, info, capsys):
        checked = 0
        for w in _dominant_weights(2, 2, 6):
            seen = set()
            for I, J in _pair_families(2, 2, 4):
                if not wedge_hypotheses_hold(w, I, J):
                    continue
                cont = content_of_pairs(2, 2, I, J)
                key = (cont.plus, cont.minus)
                if key in seen:
                    continue
                seen.add(key)
                assert admissible_count(w, cont) == lr_multiplicity(w, I, J), (w, I, J)
                checked += 1
        assert checked == 1847
        info["detail"] = (
            f"{checked} deduplicated (weight, content) instances with entries <= 6 "
            "agree with the transposed-shape tableau count"
        )


def test_criterion_6_equal_entry_weights_need_signed_combinations(capsys):
    info = {}
    with _criterion(6, 60, info, capsys):
        amb = ambient(2, 2)
        cases = (
            (make_weight((3, 3), (1, 0)), (-1, -1)),
            (make_weight((3, 2), (1, 1)), (-1, 1)),
        )
        for w, signs in cases:
            raw_a, defect = pi_IJ_raw(amb, w, (1, 2), (1, 2))
            raw_b, defect_b = pi_IJ_raw(amb, w, (1, 2), (2, 1))
            assert loc_eq(defect, defect_b)
            # singles do not divide by the defect: they are not module
            # elements, so in particular they are not polynomial
            assert pi_IJ(amb, w, (1, 2), (1, 2)) is None
            assert pi_IJ(amb, w, (1, 2), (2, 1)) is None
            assert divide_floor(raw_a, defect) is None
            assert divide_floor(raw_b, defect) is None
            combo = fe_add(fe_scale(raw_a, signs[0]), fe_scale(raw_b, signs[1]))
            vec = divide_floor(combo, defect)
            assert vec is not None, w
            assert floor_is_polynomial(vec), w
            assert is_primitive(vec), w
            assert search_module_combinations([raw_a, raw_b], defect), w
        info["detail"] = (
            "equal-entry weights at (2,2): both paired families fail the defect "
            "division alone while the signed combinations divide, are polynomial, "
            "and are primitive"
        )


def test_criterion_7_linkage_bridge_and_residue_transport(capsys):
    info = {}
    with _criterion(7, 120, info, capsys):
        rng = random.Random(73)
        sizes = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3))
        for t in range(100):
            m, n = sizes[t % len(sizes)]
            w = random_dominant_weight(m, n, rng, max_entry=6)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    assert omega_via_form(w, i, j) == omega(w, i, j), (w, i, j)

        transported = 0
        for w in _dominant_weights(2, 2, 4):
            cells = [(i, j) for i in (1, 2) for j in (1, 2)]
            for (i, j), (k, l) in combinations(cells, 2):
                if not even_linked(lambda_ij(w, i, j), lambda_ij(w, k, l), 3):
                    continue
                assert nakayama_consequence_check(w, i, j, k, l, 3), (w, i, j, k, l)
                transported += 1
        assert transported == 198

        families = list(_pair_families(2, 2, 2))
        rng = random.Random(71)
        found = 0
        distinct = 0
        attempts = 0
        while found < 50 and attempts < 3000:
            attempts += 1
            w = random_dominant_weight(2, 2, rng, max_entry=5)
            adm = [fam for fam in families if is_admissible_pair(w, *fam)]
            per_weight = 0
            for fam_a, fam_b in permutations(adm, 2):
                if per_weight >= 4 or found >= 50:
                    break
                wa = lambda_IJ(w, *fam_a)
                wb = lambda_IJ(w, *fam_b)
                if not even_linked(wa, wb, 3):
                    continue
                if not odd_linked(w, fam_a[0], fam_a[1], 3)[0]:
                    continue
                found += 1
                per_weight += 1
                if (wa.plus, wa.minus) != (wb.plus, wb.minus):
                    distinct += 1
                assert odd_linked(w, fam_b[0], fam_b[1], 3)[0], (w, fam_a, fam_b)
        assert found >= 50
        info["detail"] = (
            "grid/bilinear bridge exact on 100 random weights; "
            f"{transported} even-linked shift pairs transport vanishing mod 3; "
            f"{found} searched family pairs ({distinct} with distinct shifted "
            "weights) transport the chain condition"
        )


def test_criterion_8_primitivity_of_every_floor_vector_family(capsys):
    info = {}
    with _criterion(8, 180, info, capsys):
        rng = random.Random(83)
        plus_weights = [make_weight((2, 1), (1,))]
        minus_weights = [make_weight((2,), (2, 1))]
        while len(plus_weights) < 11:
            plus_weights.append(random_dominant_weight(2, 1, rng, max_entry=4))
            minus_weights.append(random_dominant_weight(1, 2, rng, max_entry=4))
        grid_weights = _eigenvalue_sweep_weights()

        checked = 0
        for char in (0, 3, 5):
            # in char p the annihilation includes all divided powers too
            amb_plus = ambient(2, 1, char)
            for w in plus_weights:
                for i in (1, 2):
                    try:
                        vec = pi_plus(amb_plus, w, i)
                    except UsageError:
                        continue
                    assert is_primitive(vec), (char, w, i)
                    checked += 1
            amb_minus = ambient(1, 2, char)
            for w in minus_weights:
                for j in (1, 2):
                    try:
                        vec = pi_minus(amb_minus, w, j)
                    except UsageError:
                        continue
                    assert is_primitive(vec), (char, w, j)
                    checked += 1
            amb = ambient(2, 2, char)
            for w in grid_weights:
                for i in (1, 2):
                    for j in (1, 2):
                        try:
                            vec = pi_ij(amb, w, i, j)
                        except UsageError:
                            continue
                        assert is_primitive(vec), (char, w, i, j)
                        checked += 1
                for I, J in _pair_families(2, 2, 4):
                    if not (is_admissible_pair(w, I, J) and is_robust(w, I, J)):
                        continue
                    vec = pi_IJ(amb, w, I, J)
                    assert vec is not None, (char, w, I, J)
                    assert is_primitive(vec), (char, w, I, J)
                    checked += 1
        info["detail"] = (
            f"{checked} floor vectors (single-row, grid, and robust family "
            "forms) are primitive, chars 0, 3, 5 with divided powers included"
        )


# Criterion 9 widens criteria 4 and 8 past (2,2): three weights drawn at seed
# 41 with entries at most 3, every defined first-floor cell.  The weights are
# drawn, never picked, and each case has its own ceiling, set before any run.
CRITERION_9_BUDGET_S = 120


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("m,n", [(3, 1), (1, 3)])
def test_criterion_9_first_floor_eigenvalues_and_primitivity_beyond_2_2(capsys, m, n, char):
    info = {}
    with _criterion(f"9 ({m},{n}) char {char}", CRITERION_9_BUDGET_S, info, capsys):
        rng = random.Random(41)
        weights = [random_dominant_weight(m, n, rng, max_entry=3) for _ in range(3)]
        amb = ambient(m, n, char)
        cells = []
        for w in weights:
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    try:
                        vec = pi_ij(amb, w, i, j)
                    except UsageError:
                        continue
                    assert not vec.is_zero(), (w, i, j)
                    value = omega(w, i, j)
                    assert fe_eq(phi_floor(vec), fe_scale(vec, value)), (w, i, j)
                    assert is_primitive(vec), (w, i, j)
                    cells.append((w, i, j))
        info["detail"] = (
            f"{len(cells)} defined first-floor cells of {len(weights)} weights at "
            f"({m},{n}) char {char} carry their grid eigenvalue and are primitive"
        )


# Criterion 10 widens criterion 5 past (2,2): every family of distinct pairs
# at (3,1), (1,3), (3,2) and (2,3), every dominant weight with entries at most
# 6, deduplicated by content per weight.  The ceiling was set before any run.
CRITERION_10_BUDGET_S = 120


def test_criterion_10_wedge_multiplicities_beyond_2_2(capsys):
    info = {}
    with _criterion(10, CRITERION_10_BUDGET_S, info, capsys):
        checked = {}
        for m, n in [(3, 1), (1, 3), (3, 2), (2, 3)]:
            count = 0
            for w in _dominant_weights(m, n, 6):
                seen = set()
                for I, J in _pair_families(m, n, m * n):
                    if not wedge_hypotheses_hold(w, I, J):
                        continue
                    cont = content_of_pairs(m, n, I, J)
                    key = (cont.plus, cont.minus)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert admissible_count(w, cont) == lr_multiplicity(w, I, J), (w, I, J)
                    count += 1
            checked[m, n] = count
        assert checked == {(3, 1): 1225, (1, 3): 917, (3, 2): 6833, (2, 3): 4721}
        info["detail"] = (
            f"{sum(checked.values())} deduplicated (weight, content) instances with "
            "entries <= 6 at (3,1), (1,3), (3,2), (2,3) agree with the "
            "transposed-shape tableau count"
        )


# Criterion 11 widens criterion 4 to the first sizes with two rows on each
# side of the wall: every defined first-floor cell of every dominant weight
# with entries at most 2 at (2,3) and at most 1 at (3,2), chars 0 and 3.
# Entries <= 2 at (3,2) ran past 900 s, so that size keeps the smaller bound.
# Each case has its own ceiling, set before any run.
CRITERION_11_BUDGET_S = 120


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("m,n,top", [(2, 3, 2), (3, 2, 1)])
def test_criterion_11_first_floor_eigenvalues_at_every_small_weight(capsys, m, n, top, char):
    info = {}
    with _criterion(f"11 ({m},{n}) char {char}", CRITERION_11_BUDGET_S, info, capsys):
        amb = ambient(m, n, char)
        weights = list(_dominant_weights(m, n, top))
        cells = 0
        for w in weights:
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    try:
                        vec = pi_ij(amb, w, i, j)
                    except UsageError:
                        continue
                    assert not vec.is_zero(), (w, i, j)
                    value = omega(w, i, j)
                    assert fe_eq(phi_floor(vec), fe_scale(vec, value)), (w, i, j)
                    cells += 1
        assert cells > 0
        info["detail"] = (
            f"{cells} defined first-floor cells of all {len(weights)} dominant weights "
            f"with entries <= {top} at ({m},{n}) char {char} carry their grid eigenvalue"
        )
