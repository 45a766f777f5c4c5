"""Deterministic work pins: exact counts of the work a fixed call does.

Time on a shared machine moves by tens of percent between runs; these counts
do not.  Each pin counts calls through a monkeypatched function during one
fixed call, or reads the tracemalloc peak of one call on warm caches.  A
change that lowers a count lowers its pin with it; a pin is never raised to
let a change pass.
"""

import gc
import importlib
import json
import pkgutil
import random
import tracemalloc
from functools import lru_cache

import superinduce
import superinduce.cli as cli
import superinduce.floors_primitives as floors_primitives
import superinduce.linkage as linkage
import superinduce.lr_oracle as lr_oracle
import superinduce.superpoly as superpoly
import superinduce.weights_tableaux as weights_tableaux
from superinduce.cli import build_parser, suite_fwedge, suite_linkage
from superinduce.floors_primitives import (
    divide_floor,
    is_primitive,
    phi_floor,
    pi_IJ,
    pi_IJ_raw,
    pi_ij,
)

LINKAGE_ARGV = ["verify", "linkage", "--m", "3", "--n", "3", "--p", "3"]


def _count_calls(monkeypatch, owners, name, calls):
    """Count every call of ``name`` made through any module in ``owners``."""
    fn = getattr(owners[0], name)

    def counting(*args):
        calls[name] += 1
        return fn(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)


def _count_products(monkeypatch, counts):
    """Count the calls of superpoly.dot, and the term pairs they are offered
    (the sum of |a|·|b| over their pairs), and the calls of
    superpoly.exact_divide, through every module that holds each."""
    real_dot = superpoly.dot
    real_divide = superpoly.exact_divide

    def counting(amb, pairs):
        pairs = list(pairs)
        counts["calls"] += 1
        counts["term_pairs"] += sum(len(a.terms) * len(b.terms) for a, b in pairs)
        return real_dot(amb, pairs)

    def counting_divide(a, b):
        counts["divides"] += 1
        return real_divide(a, b)

    modules = [importlib.import_module(f"superinduce.{info.name}")
               for info in pkgutil.iter_modules(superinduce.__path__)]
    owners = [module for module in modules if vars(module).get("dot") is real_dot]
    for owner in owners:
        monkeypatch.setattr(owner, "dot", counting)
    for module in modules:
        if vars(module).get("exact_divide") is real_divide:
            monkeypatch.setattr(module, "exact_divide", counting_divide)
    return owners


def _counts():
    return {"calls": 0, "term_pairs": 0, "divides": 0}


def test_phi_floor_at_3_2_offers_no_more_term_pairs(monkeypatch):
    # phi_floor of the (3,2) floor vector of [2,1,0|2,1] at cell (1,1), in
    # char 0, on a fresh Ambient so that no earlier test has warmed its
    # per-ring cache: 105 dot calls offered 4,489,888 term pairs, and no
    # division was made, both before and after the floor factors were kept
    # in lowest terms in D (this cell's prefactor has no D to cancel, and no
    # product of factors is divided per call); the pin was 121 calls and
    # 4,490,199 pairs when the product loop was split into odd-free and odd
    # left terms
    amb = superpoly.Ambient(3, 2, 0)
    vec = pi_ij(amb, weights_tableaux.parse_weight("[2,1,0|2,1]"), 1, 1)
    counts = _counts()
    owners = _count_products(monkeypatch, counts)
    assert {owner.__name__ for owner in owners} >= {
        "superinduce.superpoly", "superinduce.derivation", "superinduce.fraction",
        "superinduce.floors_primitives", "superinduce.minors"}
    phi_floor(vec)
    assert counts["calls"] <= 105
    assert counts["term_pairs"] <= 4489888
    assert counts["divides"] == 0


def test_phi_floor_at_2_3_offers_no_more_term_pairs(monkeypatch):
    # phi_floor of the (2,3) floor vector of [2,1|2,1,0] at cell (2,3), in
    # char 0, on a fresh Ambient, the vector built before counting: 239 dot
    # calls offered 17,459 term pairs, and no division was made, when the
    # ring's size cap moved into Ambient; pinned with no margin
    amb = superpoly.Ambient(2, 3, 0)
    vec = pi_ij(amb, weights_tableaux.parse_weight("[2,1|2,1,0]"), 2, 3)
    counts = _counts()
    _count_products(monkeypatch, counts)
    phi_floor(vec)
    assert counts["calls"] <= 239
    assert counts["term_pairs"] <= 17459
    assert counts["divides"] == 0


def test_char_3_defect_division_at_2_2(monkeypatch):
    # the cleared vector of [3,2|1,1] for the family (1,2|1,2) in char 3,
    # then its defect division, which fails, on warm per-ring caches as a
    # benchmark round runs it: 6 dot calls over 3,146 term pairs and one
    # division when the factors were multiplied out unreduced; in lowest
    # terms 1,755 pairs, and two divisions, since a coefficient whose
    # division fails is asked again over the exponent it renders at
    amb = superpoly.Ambient(2, 2, 3)
    w = weights_tableaux.parse_weight("[3,2|1,1]")
    family = ((1, 2), (1, 2))
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is None
    counts = _counts()
    _count_products(monkeypatch, counts)
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is None
    assert counts["calls"] <= 6
    assert counts["term_pairs"] <= 1755
    assert counts["divides"] <= 2


# the first division of floors.json in char 0 whose defect has a factor, and
# which succeeds: [2,1|1,0] for (1,1,2|1,2,1), whose defect is c[1,1]
FIRST_DIVISION = (weights_tableaux.parse_weight("[2,1|1,0]"), ((1, 1, 2), (1, 2, 1)))


def test_warm_defect_division_at_2_2_reads_the_cached_rho_quotient(monkeypatch):
    # the cleared vector and its defect division on warm per-ring caches, as
    # a benchmark round runs it: 2 dot calls over 12 term pairs and 2
    # divisions when every coefficient of the multiplied-out vector was
    # divided; none once the rho product's division by the defect is cached
    amb = superpoly.Ambient(2, 2, 0)
    w, family = FIRST_DIVISION
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is not None
    counts = _counts()
    _count_products(monkeypatch, counts)
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is not None
    assert counts["calls"] <= 0
    assert counts["term_pairs"] <= 0
    assert counts["divides"] <= 0


def test_fresh_defect_division_at_2_2(monkeypatch):
    # the same division on a fresh Ambient, per-ring factors included: 33
    # dot calls over 156 term pairs and 12 divisions both when every
    # coefficient of the multiplied-out vector was divided and when the rho
    # product is divided (this vector's prefactor is one)
    amb = superpoly.Ambient(2, 2, 0)
    w, family = FIRST_DIVISION
    counts = _counts()
    _count_products(monkeypatch, counts)
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is not None
    assert counts["calls"] <= 33
    assert counts["term_pairs"] <= 156
    assert counts["divides"] <= 12


def test_an_unread_higher_floor_vector_multiplies_nothing_out(monkeypatch):
    # [2,1|2,1] for (1,1,2|1,2,2) in char 0 on warm caches, with a prefactor
    # of 58 terms over 4 coefficients: building the vector and its defect
    # made 5 dot calls over 2,210 term pairs when every coefficient was
    # multiplied out; now only the defect's product, 1 call over 6 pairs.
    # The first read of terms makes the 4 products and a second read none;
    # the successful division and its quotient's first read made 8 calls
    # over 4,200 pairs and 4 divisions, now 4 calls over 1,392 pairs and no
    # division (the rho product's quotient is cached)
    amb = superpoly.Ambient(2, 2, 0)
    w, family = weights_tableaux.parse_weight("[2,1|2,1]"), ((1, 1, 2), (1, 2, 2))
    divide_floor(*pi_IJ_raw(amb, w, *family)).terms
    counts = _counts()
    _count_products(monkeypatch, counts)
    raw, defect = pi_IJ_raw(amb, w, *family)
    assert counts["calls"] <= 1
    assert counts["term_pairs"] <= 6
    counts.update(_counts())
    assert len(raw.terms) == 4
    assert counts["calls"] <= 4
    assert counts["term_pairs"] <= 2204
    counts.update(_counts())
    raw.terms
    assert counts["calls"] == 0
    quotient = divide_floor(raw, defect)
    assert len(quotient.terms) == 4
    quotient.terms  # a second read multiplies nothing out
    assert counts["calls"] <= 4
    assert counts["term_pairs"] <= 1392
    assert counts["divides"] == 0


def test_fallback_division_at_2_3_multiplies_out_and_divides_each_coefficient(monkeypatch):
    # [2,0|2,2,1] for (1,1,2|1,2,3) in char 3 at (2,3), on warm caches: the
    # defect does not divide the rho product's map (cached as None), so every
    # call multiplies the vector out and divides it coefficient by
    # coefficient, and succeeds.  Recorded before the derivation layer kept
    # basic operators only: 25 dot calls over 255,056 term pairs and 8
    # exact_divide calls, the same under PYTHONHASHSEED 0, 1 and 7.  The
    # margin is zero: the counts are exact
    amb = superpoly.Ambient(2, 3, 3)
    w, family = weights_tableaux.parse_weight("[2,0|2,2,1]"), ((1, 1, 2), (1, 2, 3))
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is not None
    counts = _counts()
    _count_products(monkeypatch, counts)
    assert divide_floor(*pi_IJ_raw(amb, w, *family)) is not None
    assert counts["calls"] <= 25
    assert counts["term_pairs"] <= 255056
    assert counts["divides"] <= 8


def test_primitivity_of_a_three_pair_vector_is_decided_on_its_map_once(monkeypatch):
    # pi_IJ then is_primitive for [3,2|4,0] and (1,2,2|1,1,2) in char 5, the
    # first three-pair primitive-IJ entry of floors.json.  On a fresh
    # Ambient: 36 dot calls over 371 term pairs and 2 divided_power calls
    # when the whole multiplied-out vector was embedded; 35 over 262 and 2
    # now that only its map is.  Warm: 2 calls over 153 pairs and 2
    # divided_power calls, now none (the verdict is cached per ring and map)
    amb = superpoly.Ambient(2, 2, 5)
    w, family = weights_tableaux.parse_weight("[3,2|4,0]"), ((1, 2, 2), (1, 1, 2))
    counts = _counts()
    _count_products(monkeypatch, counts)
    calls = {"divided_power": 0}
    _count_calls(monkeypatch, [floors_primitives], "divided_power", calls)
    assert is_primitive(pi_IJ(amb, w, *family))
    assert counts["calls"] <= 35
    assert counts["term_pairs"] <= 262
    assert calls["divided_power"] <= 2
    counts.update(_counts())
    calls["divided_power"] = 0
    assert is_primitive(pi_IJ(amb, w, *family))
    assert counts["calls"] == 0
    assert counts["term_pairs"] == 0
    assert calls["divided_power"] == 0


def _count_primitivity(monkeypatch, decide):
    """The dot calls, term pairs and divisions of decide(), and the
    divided_power calls made through floors_primitives, on the ring as the
    call finds it."""
    counts = _counts()
    with monkeypatch.context() as patch:
        _count_products(patch, counts)
        calls = {"divided_power": 0}
        _count_calls(patch, [floors_primitives], "divided_power", calls)
        assert decide()
    return {**counts, **calls}


def test_primitivity_of_a_first_floor_vector_at_3_2_is_decided_on_its_map_once(monkeypatch):
    # pi_ij then is_primitive for [2,1,0|2,1] at cell (1,1) in char 5, the
    # cell of the phi_floor pin.  On a fresh Ambient: 62 dot calls over
    # 218,771 term pairs, 2 divisions and 3 divided_power calls when the
    # whole multiplied-out vector was embedded; 62 over 66,437, 2 and 3 now
    # that only its one-pair map is.  Warm: 6 calls over 217,398 pairs and
    # 3 divided_power calls, now 5 over 65,046 (the build of the vector's
    # coefficients) and none (the verdict is cached per ring and map).  The
    # counts are the same under PYTHONHASHSEED 0, 1 and 7: the margin is zero
    amb = superpoly.Ambient(3, 2, 5)
    w = weights_tableaux.parse_weight("[2,1,0|2,1]")

    def decide():
        return is_primitive(pi_ij(amb, w, 1, 1))

    fresh = _count_primitivity(monkeypatch, decide)
    assert fresh["calls"] <= 62
    assert fresh["term_pairs"] <= 66437
    assert fresh["divides"] <= 2
    assert fresh["divided_power"] <= 3
    warm = _count_primitivity(monkeypatch, decide)
    assert warm["calls"] <= 5
    assert warm["term_pairs"] <= 65046
    assert warm["divides"] == 0
    assert warm["divided_power"] == 0


def test_warm_first_floor_primitivity_at_2_2_makes_no_divided_power(monkeypatch):
    # the first char-5 primitive-ij entry of floors.json, [2,1|1,0] at cell
    # (1,1), on warm caches as a benchmark round runs it: 3 dot calls over
    # 36 term pairs and 2 divided_power calls when the multiplied-out vector
    # was embedded on every call; 2 over 12 and none once the verdict on its
    # one-pair map is cached
    amb = superpoly.Ambient(2, 2, 5)
    w = weights_tableaux.parse_weight("[2,1|1,0]")

    def decide():
        return is_primitive(pi_ij(amb, w, 1, 1))

    assert decide()
    warm = _count_primitivity(monkeypatch, decide)
    assert warm["calls"] <= 2
    assert warm["term_pairs"] <= 12
    assert warm["divided_power"] == 0


def test_pi_ij_then_phi_floor_at_2_3_peaks_below_its_pin():
    # tracemalloc peak of pi_ij then phi_floor for [2,1|2,1,0] at cell
    # (2,3) in char 0 on warm caches, read in this test: 659,176 bytes with
    # the factors multiplied out unreduced, 518,200 in lowest terms (under
    # PYTHONHASHSEED 0 and 1 alike); the pin leaves 1.9 % of margin
    amb = superpoly.Ambient(2, 3, 0)
    w = weights_tableaux.parse_weight("[2,1|2,1,0]")
    for _ in range(2):
        phi_floor(pi_ij(amb, w, 2, 3))
    gc.collect()
    tracemalloc.start()
    try:
        phi_floor(pi_ij(amb, w, 2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 528_000, peak


def _count_cli_products(monkeypatch, argv):
    """The dot calls and term pairs of one CLI run on rings of its own, so
    that no per-ring cache warmed by an earlier test lowers the counts."""
    monkeypatch.setattr(cli, "ambient", lru_cache(maxsize=None)(superpoly.Ambient))
    counts = _counts()
    _count_products(monkeypatch, counts)
    assert cli.main(argv) == 0
    return counts


def test_verify_lemmas_multiplies_no_formal_term_from_one(monkeypatch, capsys):
    # the rewrite table checks at the default sizes: 518 dot calls over 5,419
    # term pairs once every product starts from its first factor; each
    # embedded formal term folded from one made 794 calls over 7,442 pairs
    counts = _count_cli_products(monkeypatch, ["verify", "lemmas"])
    assert all(e["ok"] for e in json.loads(capsys.readouterr().out)["entries"])
    assert counts["calls"] <= 518
    assert counts["term_pairs"] <= 5419


def test_verify_gen_round_multiplies_no_power_from_one(monkeypatch, capsys):
    # five criterion-3 draws at (2,2) char 0, seed 0: 98 dot calls over
    # 40,662 term pairs; powers and bideterminants folded from one made 110
    # calls over 40,861 pairs
    argv = ["verify", "gen", "--m", "2", "--n", "2", "--count", "5", "--seed", "0"]
    counts = _count_cli_products(monkeypatch, argv)
    assert all(e["ok"] for e in json.loads(capsys.readouterr().out)["entries"])
    assert counts["calls"] <= 98
    assert counts["term_pairs"] <= 40662


def test_verify_phi1_at_3_1_builds_its_vectors_in_lowest_terms(monkeypatch, capsys):
    # ten random (3,1) weights in char 0, seed 0: 547 dot calls over
    # 16,892,977 term pairs and no division with the floor factors
    # multiplied out unreduced; 495 calls over 1,584,925 pairs in lowest
    # terms, at the cost of 10 divisions that reduce the per-ring factors
    argv = ["verify", "phi1", "--m", "3", "--n", "1", "--seed", "0"]
    counts = _count_cli_products(monkeypatch, argv)
    assert all(e["ok"] for e in json.loads(capsys.readouterr().out)["entries"])
    assert counts["calls"] <= 495
    assert counts["term_pairs"] <= 1584925
    assert counts["divides"] <= 10


def test_verify_phi1_at_2_2_builds_its_vectors_in_lowest_terms(monkeypatch, capsys):
    # [2,1|1,0] and ten random (2,2) weights in char 0, seed 0: 4,457 dot
    # calls over 1,418,142 term pairs and no division unreduced; 4,429 calls
    # over 755,404 pairs and 18 divisions in lowest terms
    argv = ["verify", "phi1", "--m", "2", "--n", "2", "--seed", "0"]
    counts = _count_cli_products(monkeypatch, argv)
    assert all(e["ok"] for e in json.loads(capsys.readouterr().out)["entries"])
    assert counts["calls"] <= 4429
    assert counts["term_pairs"] <= 755404
    assert counts["divides"] <= 18


def test_linkage_sweep_keys_each_distinct_block_once_in_all(monkeypatch):
    # counted through cli and through linkage, so a shift keyed anywhere in
    # either module counts too: 40 distinct blocks at (3,3) p = 3
    calls = {"block_key": 0}
    _count_calls(monkeypatch, [linkage, cli], "block_key", calls)
    suite_linkage(build_parser().parse_args(LINKAGE_ARGV), random.Random(0))
    assert calls["block_key"] == 40


def test_linkage_sweep_builds_no_weight_per_shift(monkeypatch):
    # 859 Weights; one per (i, j) shift of a swept weight would add 3,600,
    # and two per key-equal pair re-keyed through lambda_ij 1,316 more
    calls = {"weights": 0}
    post_init = weights_tableaux.Weight.__post_init__

    def counting(self):
        calls["weights"] += 1
        post_init(self)

    monkeypatch.setattr(weights_tableaux.Weight, "__post_init__", counting)
    suite_linkage(build_parser().parse_args(LINKAGE_ARGV), random.Random(0))
    assert calls["weights"] <= 859


def test_fwedge_sweep_walks_each_distinct_skew_diagram_once(monkeypatch):
    # 6,833 entries at (3,2) with entries <= 6 are 869 distinct skew diagrams
    # once empty rows and the columns left of every cell are dropped; one
    # walk per entry made 6,833 walks and yielded 7,796 fillings
    calls = {"walks": 0, "fillings": 0}
    walk = lr_oracle._lattice_fillings

    def counting(*args):
        calls["walks"] += 1
        for filling in walk(*args):
            calls["fillings"] += 1
            yield filling

    monkeypatch.setattr(lr_oracle, "_lattice_fillings", counting)
    argv = ["verify", "fwedge", "--m", "3", "--n", "2", "--max-entry", "6"]
    suite_fwedge(build_parser().parse_args(argv), random.Random(0))
    assert calls["walks"] == 869
    assert calls["fillings"] <= 1049


def _count_encodes(monkeypatch, calls):
    """Count every call of the encoders of cli._level, and of any encoder
    the cli module holds at module level."""

    def counting(encode):
        def counted(value):
            calls["encodes"] += 1
            return encode(value)

        return counted

    level = cli._level

    @lru_cache(maxsize=None)
    def counted_level(depth):
        inner, outer, comma, encode = level(depth)
        return inner, outer, comma, counting(encode)

    monkeypatch.setattr(cli, "_level", counted_level)
    # an encoder held at module level, outside _level, counts as well
    for name, value in list(vars(cli).items()):
        if getattr(value, "__qualname__", "").startswith("_encoder."):
            monkeypatch.setattr(cli, name, counting(value))


def test_fwedge_report_encodes_each_entry_once(monkeypatch, capsys):
    # 6,833 entries at (3,2) with entries <= 6, each encoded once for its
    # sort key and its text, and 4 more for the rest of the document; a
    # second encoding of every entry, to sort or to write, made 13,670
    calls = {"encodes": 0}
    _count_encodes(monkeypatch, calls)
    argv = ["verify", "fwedge", "--m", "3", "--n", "2", "--max-entry", "6"]
    assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["entries"]) == 6833
    assert calls["encodes"] == 6833 + 4


def test_linkage_report_encodes_each_run_of_scalars_once(monkeypatch, capsys):
    # 794 entries: each encoded once for its sort key; a pairs entry writes
    # its scalars before and after the pairs as two runs and each of its two
    # pairs as one leaf (4 calls), a chain entry its one-link chain and the
    # scalars after it (2 calls), a flat entry its sort text; 4 more for the
    # rest of the document.  One call per scalar made 4,962
    calls = {"encodes": 0}
    _count_encodes(monkeypatch, calls)
    assert cli.main(LINKAGE_ARGV) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert len(entries) == 794
    assert sum("pairs" in e for e in entries) == 658
    assert sum("chain" in e for e in entries) == 36
    assert calls["encodes"] == 794 + 4 * 658 + 2 * 36 + 4
