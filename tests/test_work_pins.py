"""Deterministic work pins: exact counts of the work a fixed call does.

Time on a shared machine moves by tens of percent between runs; these counts
do not.  Each pin counts calls through a monkeypatched function during one
fixed call.  A change that lowers a count lowers its pin with it; a pin is
never raised to let a change pass.
"""

import importlib
import json
import pkgutil
import random
from functools import lru_cache

import superinduce
import superinduce.cli as cli
import superinduce.linkage as linkage
import superinduce.lr_oracle as lr_oracle
import superinduce.superpoly as superpoly
import superinduce.weights_tableaux as weights_tableaux
from superinduce.cli import build_parser, suite_fwedge, suite_linkage
from superinduce.floors_primitives import phi_floor, pi_ij

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
    (the sum of |a|·|b| over their pairs), through every module that holds
    it."""
    real = superpoly.dot

    def counting(amb, pairs):
        pairs = list(pairs)
        counts["calls"] += 1
        counts["term_pairs"] += sum(len(a.terms) * len(b.terms) for a, b in pairs)
        return real(amb, pairs)

    modules = [importlib.import_module(f"superinduce.{info.name}")
               for info in pkgutil.iter_modules(superinduce.__path__)]
    owners = [module for module in modules if vars(module).get("dot") is real]
    for owner in owners:
        monkeypatch.setattr(owner, "dot", counting)
    return owners


def test_phi_floor_at_3_2_offers_no_more_term_pairs(monkeypatch):
    # phi_floor of the (3,2) floor vector of [2,1,0|2,1] at cell (1,1), in
    # char 0, on a fresh Ambient so that no earlier test has warmed its
    # per-ring cache: 121 dot calls offered 4,490,199 term pairs when the
    # product loop was split into odd-free and odd left terms, which changed
    # the cost of a pair but not the number of pairs
    amb = superpoly.Ambient(3, 2, 0)
    vec = pi_ij(amb, weights_tableaux.parse_weight("[2,1,0|2,1]"), 1, 1)
    counts = {"calls": 0, "term_pairs": 0}
    owners = _count_products(monkeypatch, counts)
    assert {owner.__name__ for owner in owners} >= {
        "superinduce.superpoly", "superinduce.derivation", "superinduce.fraction",
        "superinduce.floors_primitives", "superinduce.minors"}
    phi_floor(vec)
    assert counts["calls"] <= 121
    assert counts["term_pairs"] <= 4490199


def _count_cli_products(monkeypatch, argv):
    """The dot calls and term pairs of one CLI run on rings of its own, so
    that no per-ring cache warmed by an earlier test lowers the counts."""
    monkeypatch.setattr(cli, "ambient", lru_cache(maxsize=None)(superpoly.Ambient))
    counts = {"calls": 0, "term_pairs": 0}
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
