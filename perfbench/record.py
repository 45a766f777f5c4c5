"""Record the oracles of the floors and queries workloads.

    python3 perfbench/record.py [floors|queries]

Builds each workload's op pool and runs every op once with the current code,
writing the outcome next to the op in ``perfbench/expected/``.  The recorded
files are the reference later revisions are checked against, so rerun this
only when a change of output is intended, and say so.  Recording stops with
an error if an op fails a check that needs no recording: an eigenvalue that
is not omega, a vector that is not primitive, or a search that finds nothing.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import superinduce.floors_primitives as fp  # noqa: E402
import superinduce.linkage as linkage  # noqa: E402
import superinduce.superpoly as superpoly  # noqa: E402
import superinduce.weights_tableaux as wt  # noqa: E402
from workloads import (  # noqa: E402
    CHARS,
    EXPECTED,
    QUERY_POOL_SEED,
    digest,
    eigenvalue_sweep_weights,
    pair_families,
    row_weights,
    run_cli,
)

# Char-0 eigenvalue checks on weights whose minus block sums past 4 take
# 2.4-9 s each on 2 cores, and one round with them takes about 80 s, so the
# floors pool leaves those weights to criterion 4 of the acceptance gate.
MAX_MINUS_SUM = 4

# criterion 6: equal-entry weights whose two paired families only divide by
# the defect in a signed combination
SEARCH_WEIGHTS = ("[3,3|1,0]", "[3,2|1,1]")
SEARCH_FAMILIES = [[[1, 2], [1, 2]], [[1, 2], [2, 1]]]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"record: oracle failed at the current code: {what}")


def record_floors() -> list:
    grid = [w for w in eigenvalue_sweep_weights() if sum(w.minus) <= MAX_MINUS_SUM]
    plus_weights, minus_weights = row_weights()
    entries = []
    for char in CHARS:
        amb = superpoly.ambient(2, 2, char)
        for w in grid:
            text = wt.render_weight(w)
            for i in (1, 2):
                for j in (1, 2):
                    try:
                        vec = fp.pi_ij(amb, w, i, j)
                    except superpoly.UsageError:
                        continue
                    value = linkage.omega(w, i, j)
                    image = fp.phi_floor(vec)
                    _require(fp.fe_eq(image, fp.fe_scale(vec, value)), f"{char} {text} {i},{j}")
                    reduced = value % char if char else value
                    vanishes = fp.fe_eq(image, fp.fe_zero(amb, 1))
                    _require(vanishes == (reduced == 0), f"vanishing {char} {text} {i},{j}")
                    base = {"char": char, "weight": text, "cell": [i, j]}
                    entries.append({"kind": "eigenvalue", **base, "omega": reduced,
                                    "vanishes": vanishes})
                    entries.append({"kind": "primitive", "form": "ij", **base})
            for I, J in pair_families(2, 2, 4):
                if not wt.is_admissible_pair(w, I, J):
                    continue
                family = [list(I), list(J)]
                base = {"char": char, "weight": text, "family": family}
                if wt.is_robust(w, I, J):
                    vec = fp.pi_IJ(amb, w, I, J)
                    _require(vec is not None and fp.is_primitive(vec), f"{char} {text} {family}")
                    entries.append({"kind": "primitive", "form": "IJ", **base})
                else:
                    raw, defect = fp.pi_IJ_raw(amb, w, I, J)
                    divides = fp.divide_floor(raw, defect) is not None
                    entries.append({"kind": "divide", **base, "divides": divides})
        for form, weights, m, n in (("plus", plus_weights, 2, 1), ("minus", minus_weights, 1, 2)):
            amb_row = superpoly.ambient(m, n, char)
            for w in weights:
                for k in (1, 2):
                    cell = [k, 1] if form == "plus" else [1, k]
                    try:
                        vec = (fp.pi_plus(amb_row, w, k) if form == "plus"
                               else fp.pi_minus(amb_row, w, k))
                    except superpoly.UsageError:
                        continue
                    _require(fp.is_primitive(vec), f"{char} {form} {w} {k}")
                    entries.append({"kind": "primitive", "form": form, "char": char,
                                    "weight": wt.render_weight(w), "cell": cell})
        for text in SEARCH_WEIGHTS:
            w = wt.parse_weight(text)
            raws = [fp.pi_IJ_raw(amb, w, tuple(I), tuple(J)) for I, J in SEARCH_FAMILIES]
            found = len(fp.search_module_combinations([r for r, _ in raws], raws[0][1]))
            _require(found > 0, f"search {char} {text}")
            entries.append({"kind": "search", "char": char, "weight": text,
                            "families": SEARCH_FAMILIES, "found": found})
    return entries


# -- queries ----------------------------------------------------------------------

FWEDGE_SIZES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))
LINKAGE_SIZES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
ONE_SHOT_POOL = 40


def _partition(rng, rows: int, top: int) -> list:
    return sorted((rng.randint(0, top) for _ in range(rows)), reverse=True)


def _one_shot(kind: str, rng):
    m, n = rng.choice(((2, 2), (3, 2), (2, 3)))
    w = wt.random_dominant_weight(m, n, rng, max_entry=6)
    lam = wt.render_weight(w)
    if kind == "odd-chain":
        m, n = rng.choice(((2, 3), (3, 2)))
        w = wt.random_dominant_weight(m, n, rng, max_entry=6)
        pool = [[i, j] for i in range(1, m + 1) for j in range(1, n + 1)]
        pairs = rng.sample(pool, rng.randint(1, 5))
        I = tuple(p[0] for p in pairs)
        J = tuple(p[1] for p in pairs)
        if not wt.is_dominant(wt.lambda_IJ(w, I, J)):
            return None
        return ["odd-chain", "--lambda", wt.render_weight(w), "--pairs",
                json.dumps(pairs), "--p", str(rng.choice((3, 5)))]
    if kind == "lr":
        outer = _partition(rng, 3, 4)
        inner = [min(a, b) for a, b in zip(outer, _partition(rng, 3, 3))]
        size = sum(outer) - sum(inner)
        content = []
        while size > 0:
            part = rng.randint(1, min(size, content[-1] if content else 4))
            content.append(part)
            size -= part
        return ["lr", "--outer", json.dumps(outer), "--inner", json.dumps(inner),
                "--content", json.dumps(content), "--tableaux"]
    if kind == "linkage":
        i, j = rng.randint(1, m), rng.randint(1, n)
        mu = wt.lambda_ij(w, i, j) if rng.random() < 0.5 else wt.random_dominant_weight(
            m, n, rng, max_entry=6)
        return ["linkage", "--lambda", lam, "--mu", wt.render_weight(mu),
                "--p", str(rng.choice((3, 5)))]
    if kind == "alcove":
        return ["alcove", "--lambda", lam, "--p", str(rng.choice((3, 5, 7)))]
    return ["typicality", "--lambda", lam, "--p", str(rng.choice((0, 3, 5)))]


def _command(kind: str, argv: list, slot=None) -> dict:
    code, text = run_cli(argv)
    entry = {"kind": kind, "argv": argv, "rc": code, "sha256": digest(text)}
    if slot is not None:
        entry["slot"] = slot
    return entry


def record_queries() -> list:
    rng = random.Random(QUERY_POOL_SEED)
    commands = []
    for m, n in FWEDGE_SIZES:
        for seed in range(4):
            argv = ["verify", "fwedge", "--m", str(m), "--n", str(n), "--max-entry", "6",
                    "--seed", str(seed)]
            commands.append(_command("verify-fwedge", argv, f"{m}x{n}"))
    for m, n in LINKAGE_SIZES:
        for p in (3, 5):
            for seed in range(4):
                argv = ["verify", "linkage", "--m", str(m), "--n", str(n), "--p", str(p),
                        "--seed", str(seed)]
                commands.append(_command("verify-linkage", argv, f"{m}x{n} p{p}"))
    for kind in ("odd-chain", "lr", "linkage", "alcove", "typicality"):
        seen = set()
        while len(seen) < ONE_SHOT_POOL:
            argv = _one_shot(kind, rng)
            if argv is None or tuple(argv) in seen:
                continue
            entry = _command(kind, argv)
            if entry["rc"] != 0:
                continue
            seen.add(tuple(argv))
            commands.append(entry)
    for entry in commands:
        _require(entry["rc"] == 0, " ".join(entry["argv"]))
    return commands


def _write(name: str, key: str, records: list) -> None:
    """One record a line, so a changed outcome shows as a one-line diff."""
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    (EXPECTED / name).write_text(f'{{"{key}": [\n{lines}\n]}}\n')
    print(f"{name}: {len(records)} {key} recorded")


def main(argv) -> int:
    which = argv[1:] or ["floors", "queries"]
    EXPECTED.mkdir(exist_ok=True)
    if "floors" in which:
        _write("floors.json", "entries", record_floors())
    if "queries" in which:
        _write("queries.json", "commands", record_queries())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
