"""The mutation catalog: deliberate faults that named tests must catch.

Each entry plants one fault in a file under `src/`: it replaces the exact
`old` snippet, which occurs once in that file, by `new`.  `tests` holds the
pytest node ids that must fail on the planted copy.  `origin` names the
change whose tests first caught the fault.  An entry whose code has since
been rewritten stays in the list with `retired` set to the reason, and is not
run.

`tests/run_mutants.py` runs the live entries one at a time on a copy of the
tree; `tests/test_mutation_catalog.py` checks in tier-1 that every live
snippet still applies and every named test exists.
"""

PRIMITIVITY_ORACLE = "tests/test_factored_primitivity.py"
ODD_ONLY = f"{PRIMITIVITY_ORACLE}::test_a_map_that_fails_one_odd_direction_only_is_not_primitive"
INHOMOGENEOUS = f"{PRIMITIVITY_ORACLE}::test_an_inhomogeneous_map_raises_on_every_call"
FALLBACK = "tests/test_defect_division.py::test_the_fallback_and_its_retry_decide_divisions_at_2_3"
WARM_FIRST_FLOOR = ("tests/test_work_pins.py::"
                    "test_warm_first_floor_primitivity_at_2_2_makes_no_divided_power")
PHI1_AT_2_2 = "tests/test_work_pins.py::test_verify_phi1_at_2_2_builds_its_vectors_in_lowest_terms"
# subprocess tests under a time and a memory limit: without the ring cap the
# in-process tests would build a ring of any size, and the runner has no timeout
LONG_BLOCK = "tests/test_cli.py::test_a_640_entry_block_exits_2_at_once"
NINE_ROWS = "tests/test_cli.py::test_oversized_determinant_exits_2_naming_the_cap"
PHI1_RING_FIRST = "tests/test_cli.py::test_verify_phi1_builds_its_ring_before_drawing_a_weight"
FLOOR_0 = ("tests/test_floor_caches.py::test_the_empty_family_maps_the_empty_word_to_one",
           "tests/test_cli_golden.py::test_cli_output_is_byte_identical")

MUTANTS = [
    {
        "id": "is-primitive-always-true",
        "origin": "primitivity decided on a higher-floor vector's map",
        "file": "src/superinduce/floors_primitives.py",
        "old": "        raise UsageError(\"primitivity is defined for weight-homogeneous elements\")\n"
               "    return verdict\n",
        "new": "        raise UsageError(\"primitivity is defined for weight-homogeneous elements\")\n"
               "    return True\n",
        "tests": [ODD_ONLY],
    },
    {
        "id": "is-primitive-skips-the-weight-test",
        "origin": "primitivity decided on a higher-floor vector's map",
        "file": "src/superinduce/floors_primitives.py",
        "old": "    if loc_weight(emb) is None:\n        return None\n",
        "new": "",
        "tests": [INHOMOGENEOUS],
    },
    {
        "id": "is-primitive-even-block-directions-only",
        "origin": "primitivity decided on a higher-floor vector's map",
        "file": "src/superinduce/floors_primitives.py",
        "old": "    dirs += [(l + 1, l) for l in range(amb.m + 1, amb.size)]\n",
        "new": "",
        "tests": [ODD_ONLY],
    },
    {
        "id": "lowest-terms-lowers-the-exponent-without-dividing",
        "origin": "floor vectors from factors in lowest terms in D",
        "file": "src/superinduce/fraction.py",
        "old": "        num, s = q, s - 1\n",
        "new": "        num, s = num, s - 1\n",
        "tests": ["tests/test_lowest_terms.py::test_first_floor_vectors_render_as_the_unreduced_route"],
    },
    {
        "id": "minus-minor-power-over-a-lower-exponent",
        "origin": "floor vectors from factors in lowest terms in D",
        "file": "src/superinduce/weights_tableaux.py",
        "old": "        return lowest_terms(bideterminant_minus(amb, Tableau((e,) * size, rows)))\n",
        "new": "        x = lowest_terms(bideterminant_minus(amb, Tableau((e,) * size, rows)))\n"
               "        return LocalizedElement(x.num, max(x.d_exp - 1, 0), x.d22_exp)\n",
        "tests": ["tests/test_lowest_terms.py::test_first_floor_vectors_render_as_the_unreduced_route"],
    },
    {
        "id": "rho-quotient-drops-the-defects-power-of-d",
        "origin": "defect divisions decided on the per-ring rho product",
        "file": "src/superinduce/floors_primitives.py",
        "old": "lambda: _divide_each(factors, defect))",
        "new": "lambda: _divide_each(factors, LocalizedElement(defect.num, 0, 0)))",
        "tests": ["tests/test_defect_division.py::test_divisions_write_what_the_parent_route_writes"],
    },
    {
        "id": "rho-quotient-over-a-prefactor-of-one",
        "origin": "defect divisions decided on the per-ring rho product",
        "file": "src/superinduce/floors_primitives.py",
        "old": "(prefactor, quotients, qkey))",
        "new": "(embed_poly(x.ambient.one()), quotients, qkey))",
        "tests": ["tests/test_defect_division.py::test_divisions_write_what_the_parent_route_writes"],
    },
    {
        "id": "divide-floor-without-the-multiplied-out-fallback",
        "origin": "basic derivations only, with the fallback divisions pinned",
        "file": "src/superinduce/floors_primitives.py",
        "old": "        if quotients is not None:\n"
               "            return FloorElement(x.ambient, x.floor, None, x.render_exp, "
               "(prefactor, quotients, qkey))\n",
        "new": "        if quotients is None:\n"
               "            return None\n"
               "        return FloorElement(x.ambient, x.floor, None, x.render_exp, "
               "(prefactor, quotients, qkey))\n",
        "tests": [FALLBACK],
    },
    {
        "id": "divide-each-without-the-retry-over-render-exp",
        "origin": "basic derivations only, with the fallback divisions pinned",
        "file": "src/superinduce/floors_primitives.py",
        "old": "            q = loc_divide_exact(raised_to(c, render_exp), defect)\n",
        "new": "            pass\n",
        "tests": [FALLBACK],
    },
    {
        "id": "weight-of-never-reads-the-field-view",
        "origin": "defect divisions decided on the per-ring rho product",
        "file": "src/superinduce/superpoly.py",
        "old": "        if mono & carry:\n",
        "new": "        if False:\n",
        "tests": ["tests/test_closed_forms.py::test_weight_of_folds_rows_as_the_field_view_reads_columns"],
    },
    {
        "id": "pi-ij-without-its-factored-slot",
        "origin": "first-floor primitivity decided once per ring",
        "file": "src/superinduce/floors_primitives.py",
        "old": "    vec.terms  # multiplied out once, here\n    return vec\n",
        "new": "    return FloorElement(amb, 1, vec.terms, vec.render_exp)\n",
        "tests": [WARM_FIRST_FLOOR],
    },
    {
        "id": "rho-product-skips-lowest-terms-on-every-factor",
        "origin": "first-floor primitivity decided once per ring",
        "file": "src/superinduce/floors_primitives.py",
        "old": "            words = {key: lowest_terms(loc_sum(amb, pieces)) for key, pieces in new.items()}\n",
        "new": "            words = {key: loc_sum(amb, pieces) for key, pieces in new.items()}\n",
        "tests": ["tests/test_work_pins.py::test_an_unread_higher_floor_vector_multiplies_nothing_out",
                  FALLBACK],
    },
    {
        "id": "rho-product-reduces-the-first-factor-again",
        "origin": "first-floor primitivity decided once per ring",
        "file": "src/superinduce/floors_primitives.py",
        "old": "        words = {(pair,): c for pair, c in rho_pair(amb, I[0], J[0]).items()}\n",
        "new": "        words = {(pair,): lowest_terms(c) for pair, c in rho_pair(amb, I[0], J[0]).items()}\n",
        "tests": [PHI1_AT_2_2],
    },
    {
        "id": "rho-product-without-the-empty-family",
        "origin": "first-floor primitivity decided once per ring",
        "file": "src/superinduce/floors_primitives.py",
        "old": "        if not I:\n            return MappingProxyType({(): embed_poly(amb.one())})\n",
        "new": "",
        "tests": [*FLOOR_0],
    },
    {
        "id": "ambient-without-the-ring-cap",
        "origin": "the ring size cap checked where every ring is built",
        "file": "src/superinduce/superpoly.py",
        "old": "        if not (1 <= self.m <= RING_SIZE_CAP and 1 <= self.n <= RING_SIZE_CAP):\n",
        "new": "        if not (1 <= self.m and 1 <= self.n):\n",
        "tests": [NINE_ROWS, LONG_BLOCK],
    },
    {
        "id": "suite-phi1-draws-its-weights-before-its-ring",
        "origin": "the ring size cap checked where every ring is built",
        "file": "src/superinduce/cli.py",
        "old": "    amb = ambient(m, n, args.p)\n"
               "    weights = _phi1_weights(args, m, n, rng) if given is None else [given]\n",
        "new": "    weights = _phi1_weights(args, m, n, rng) if given is None else [given]\n"
               "    amb = ambient(m, n, args.p)\n",
        "tests": [PHI1_RING_FIRST],
    },
]
