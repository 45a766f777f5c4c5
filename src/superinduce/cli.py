"""Command-line surface: verification suites, emitters, and linkage queries.

Every handler returns one JSON document and `main` hands it to `_publish`,
which writes it to ``--out`` and then to stdout as ``json.dumps(document,
indent=2, sort_keys=True)`` would spell it, but piece by piece: `_write_json`
encodes each container of scalars with one C encoder built once per indent
depth, so the whole text is never held.  A report's entries are encoded once
each, and that text is both an entry's sort key and what `_write_report`
writes of it.  The same configuration (seed
included) produces byte-identical output, so reports can be diffed across
runs.  Exit codes: 0 when every check passed, 1 when at least one
verification failed, 2 for a malformed request, an ``--out`` or a stdout
that cannot be written included (a reader that closes stdout early changes
nothing).

Suite report entries carry short rule ids ("y-raise", "wedge-count", ...)
naming the rewrite family or property they exercised, plus enough of the
instance to reproduce it by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import comb
from operator import add

from .derivation import FDminus, FDplus, FPhi, FY, direction_class, rewrite_rule_check
from .floors_primitives import (
    defect_exponent,
    divide_floor,
    fe_eq,
    fe_scale,
    floor_element_to_json,
    floor_is_polynomial,
    generation_identity_check,
    is_primitive,
    phi_floor,
    pi_IJ,
    pi_IJ_raw,
    pi_ij,
)
from .fraction import embed_poly, loc_mul, raised_to, render_loc
from .linkage import (
    ALL,
    block_key,
    dot_equivalent,
    even_linked,
    in_alcove,
    is_typical,
    link_chain_search,
    odd_linked,
    omega,
    omega_grid,
    omega_via_form,
    residues_agree,
)
from .lr_oracle import (
    conjugate,
    hook_partition,
    lr_coefficient_flagged,
    lr_tableaux,
    ordered_families,
    shifted_content,
    shifted_inner,
    skew_count,
    skew_key,
    wedge_minus_holds,
    wedge_plus_holds,
)
from .minors import jacobi_identity_check, muir_identity_check
from .superpoly import UsageError, ambient, check_odd_prime, parse_integer
from .weights_tableaux import (
    Weight,
    bideterminant_minus,
    bideterminant_plus,
    content_of_pairs,
    enumerate_semistandard,
    exponent_ledger,
    highest_vector,
    is_admissible_pair,
    is_dominant,
    is_robust,
    lambda_ij,
    ledger_exponent,
    parse_weight,
    random_dominant_weight,
    render_weight,
)


# -- argument plumbing -------------------------------------------------------------


def _integers(data) -> bool:
    """Whether ``data`` is a list of JSON integers (``true`` and ``2.9`` are not)."""
    return isinstance(data, list) and all(type(v) is int for v in data)


def _parse_pairs(text: str):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise UsageError(f"--pairs must be JSON like [[1,1],[2,2]]: {exc}") from exc
    if not isinstance(data, list) or not all(_integers(p) and len(p) == 2 for p in data):
        raise UsageError("--pairs must be a JSON list of [i,j] integer pairs")
    I = tuple(p[0] for p in data)
    J = tuple(p[1] for p in data)
    return I, J


def _parse_partition(text: str) -> tuple:
    squeezed = text.strip() or "[]"
    try:
        if squeezed.startswith("["):
            data = json.loads(squeezed)
        else:
            data = [parse_integer(v.strip()) for v in squeezed.split(",")]
    except ValueError as exc:
        raise UsageError(f"unrecognized partition literal {text!r}") from exc
    if not _integers(data):
        raise UsageError(f"unrecognized partition literal {text!r}")
    return tuple(data)


def _require_weight(args) -> Weight:
    if args.weight is None:
        raise UsageError("this command needs --lambda '[a,b,..|c,d,..]'")
    w = parse_weight(args.weight)
    if args.m is not None and args.m != w.m:
        raise UsageError("--m disagrees with the plus block of --lambda")
    if args.n is not None and args.n != w.n:
        raise UsageError("--n disagrees with the minus block of --lambda")
    return w


def _sizes(args, default=(2, 2)):
    m = args.m if args.m is not None else default[0]
    n = args.n if args.n is not None else default[1]
    if m < 1 or n < 1:
        raise UsageError("block sizes --m and --n must be positive")
    return m, n


def _config_echo(args, **extra) -> dict:
    cfg = {
        "m": args.m,
        "n": args.n,
        "p": args.p,
        "seed": args.seed,
    }
    if args.weight is not None:
        cfg["lambda"] = render_weight(parse_weight(args.weight))
    cfg.update(extra)
    return cfg


@lru_cache(maxsize=None)
def _encoder(item_separator: str):
    """``json.dumps(value, sort_keys=True)`` with ``item_separator`` between
    items, built once: ``json.dumps`` builds a fresh encoder on every call."""
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(item_separator, ": ")).encode
    # no cycle check (a document is a tree); then default, string encoder,
    # indent, separators, sort_keys, skipkeys and allow_nan
    encode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii,
        None, ": ", item_separator, True, False, True,
    )
    return lambda value: "".join(encode(value, 0))


def _json_key(key) -> str:
    """A dict key as ``json`` spells it: a str as is, a float, int, bool or
    None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _level(0)[3](key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


#: What json writes as an object or an array.
_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _level(depth: int):
    """The indents around and between the items of a container ``depth``
    levels deep, and the encoder whose item separator carries them."""
    inner = "\n" + "  " * (depth + 1)
    return inner, inner[:-2], "," + inner, _encoder("," + inner)


def _write_json(write, value, depth: int = 0, prefix: str = "") -> None:
    """Write ``prefix`` and then ``value`` as ``json.dumps(value, indent=2,
    sort_keys=True)`` spells it ``depth`` levels deep.

    A container whose children are all scalars or empty containers is one
    call of that depth's encoder, whose item separator carries the indent
    between its items; its own brackets take the indents around them.  Any
    other container recurses, except that in a dict each run of consecutive
    sorted items whose values are scalars or empty containers is one call of
    that depth's encoder too, its text written between the braces.  So no
    text longer than one such leaf or run is built, and ``write`` is called
    about once a leaf or run.
    """
    inner, outer, comma, encode = _level(depth)
    if not value or not isinstance(value, _CONTAINERS):
        write(prefix + encode(value))
        return
    children = value.values() if isinstance(value, dict) else value
    if all(not c or not isinstance(c, _CONTAINERS) for c in children):
        text = encode(value)
        write(prefix + text[0] + inner + text[1:-1] + outer + text[-1])
        return
    separator = inner
    if isinstance(value, dict):
        write(prefix + "{")
        run = {}
        for key, child in sorted(value.items()):
            if not child or not isinstance(child, _CONTAINERS):
                run[key] = child
                continue
            if run:
                write(separator + encode(run)[1:-1])
                separator = comma
                run = {}
            label = encode_basestring_ascii(_json_key(key)) + ": "
            _write_json(write, child, depth + 1, separator + label)
            separator = comma
        if run:
            write(separator + encode(run)[1:-1])
        write(outer + "}")
        return
    write(prefix + "[")
    for child in value:
        _write_json(write, child, depth + 1, separator)
        separator = comma
    write(outer + "]")


#: Pieces of report entries joined into one ``write``.
_RUN = 1024


def _write_report(write, document: dict, texts) -> None:
    """Write a report as `_write_json` would, its sorted ``entries`` from
    ``texts``, their depth-2 texts, and their pieces joined `_RUN` at a time.

    An entry is a dict holding ``ok``, so never empty.  A flat one (its values
    scalars or empty containers) is its text with the indents put inside its
    braces; any other entry recurses through `_write_json`.
    """
    inner, outer, comma, _ = _level(0)
    item_inner, item_outer, item_comma, _ = _level(1)
    entry_inner, entry_outer = _level(2)[:2]
    write("{")
    separator = inner
    for key, child in sorted(document.items()):
        label = separator + encode_basestring_ascii(key) + ": "
        separator = comma
        if key != "entries" or not child:
            _write_json(write, child, 1, label)
            continue
        run = [label + "["]
        item = item_inner
        for entry, text in zip(child, texts):
            if all(not c or not isinstance(c, _CONTAINERS) for c in entry.values()):
                run += item, "{", entry_inner, text[1:-1], entry_outer, "}"
            else:
                _write_json(run.append, entry, 2, item)
            item = item_comma
            if len(run) >= _RUN:
                write("".join(run))
                run.clear()
        write("".join(run) + item_outer + "]")
    write(outer + "}")


def _publish(document: dict, out) -> int:
    """Print a command's document, and write it to ``out`` first if given.

    A report is a document with ``entries``: its entries are sorted, and its
    ``failures`` and ``ok`` are counted from their ``ok`` fields.  Returns the
    exit code, 1 when any entry failed.  The text is that of
    ``json.dumps(document, indent=2, sort_keys=True)``, written piece by piece
    by `_write_json`, or by `_write_report` for a report.  A reader that
    closes stdout early changes neither the exit code nor ``out``; any other
    failure to write stdout, like one to write ``out``, is a `UsageError`.

    Each entry is encoded once, by the depth-2 encoder of `_level`; that text
    is its sort key and, for a flat entry, its written text.  The order is
    still that of the compact ``json.dumps(entry, sort_keys=True)``.  The two
    encoders differ only in their item separator: ``", "`` against a comma,
    a newline and six spaces; both start with ``,``.  Two texts agree up to
    their first difference, so a JSON lexer is in the same state there under
    either encoder, and a ``,`` outside a string is always a separator.  So
    at the first difference at most one of the texts starts a separator, and
    both encoders compare a ``,`` with the same character there.  A key taken
    from the fully indented text would not do: it puts ``{"a": [1]}`` before
    ``{"a": [1, 2]}``, the reverse of the compact order.
    """
    failures = 0
    texts = None
    if "entries" in document:
        entries = document["entries"]
        texts = list(map(_level(2)[3], entries))
        order = sorted(range(len(texts)), key=texts.__getitem__)
        entries = [entries[i] for i in order]
        texts = [texts[i] for i in order]
        failures = sum(not e["ok"] for e in entries)
        document.update(entries=entries, failures=failures, ok=failures == 0)

    def emit(write):
        if texts is None:
            _write_json(write, document)
        else:
            _write_report(write, document, texts)
        write("\n")

    if out:
        try:
            with open(out, "w") as handle:
                emit(handle.write)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from exc
    try:
        emit(sys.stdout.write)
        sys.stdout.flush()
    except OSError as exc:
        # stop the interpreter's final flush from raising on fd 1 again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise UsageError(f"cannot write stdout: {exc}") from exc
    return 1 if failures else 0


# -- the verify suites --------------------------------------------------------------


def _rewrite_rule_id(factor, m: int, k: int, l: int) -> str:
    cls = direction_class(m, k, l)
    if isinstance(factor, FY):
        return f"y-{cls}"
    if isinstance(factor, FPhi):
        return f"phi-{cls}"
    if isinstance(factor, FDminus):
        return f"dminus-{cls}"
    if cls in ("lower", "bottom"):
        # both vanishing direction classes of the plus minor collapse
        return "dplus-source-odd"
    return f"dplus-{cls}"


def _render_factor(factor) -> str:
    if isinstance(factor, FY):
        return f"y[{factor.i},{factor.j}]"
    if isinstance(factor, FPhi):
        return f"phi[{factor.i},{factor.j}]"
    name = "dminus" if isinstance(factor, FDminus) else "dplus"
    return name + "[" + ",".join(str(c) for c in factor.cols) + "]"


def _rewrite_factors(amb):
    m, n = amb.m, amb.n
    even = range(1, m + 1)
    odd = range(m + 1, m + n + 1)
    factors = [FY(i, j) for i in even for j in odd]
    factors += [FPhi(i, j) for i in odd for j in odd]
    for s in range(1, n + 1):
        factors += [FDminus(cols) for cols in product(odd, repeat=s)]
    for s in range(1, m + 1):
        factors += [FDplus(cols) for cols in product(even, repeat=s)]
    return factors


def suite_lemmas(args, rng) -> dict:
    if (args.m is None) != (args.n is None):
        raise UsageError("verify lemmas takes both --m and --n, or neither")
    sizes = [(args.m, args.n)] if args.m is not None else [(1, 1), (2, 1), (1, 2), (2, 2)]
    entries = []
    for m, n in sizes:
        amb = ambient(m, n, args.p)
        for factor in _rewrite_factors(amb):
            for k, l in product(range(1, m + n + 1), repeat=2):
                entries.append(
                    {
                        "rule": _rewrite_rule_id(factor, m, k, l),
                        "size": [m, n],
                        "factor": _render_factor(factor),
                        "direction": [k, l],
                        "ok": rewrite_rule_check(amb, factor, (k, l)),
                    }
                )
    return {"command": "verify lemmas", "config": _config_echo(args), "entries": entries}


def _jacobi_entry(amb, i: int, k: int, a: int, b: int) -> dict:
    ok = jacobi_identity_check(amb, i, k, a, b)
    return {"rule": "jacobi", "m": amb.m, "tuple": [i, k, a, b], "ok": ok}


def _muir_entry(amb, ks) -> dict:
    ok = muir_identity_check(amb, ks, amb.m + 1)
    return {"rule": "muir", "m": amb.m, "tuple": list(ks) + [amb.m + 1], "ok": ok}


def suite_identities(args, rng) -> dict:
    if args.m is not None and args.count is not None:
        raise UsageError("verify identities draws --count instances only without --m")
    entries = []
    exhaustive = [args.m] if args.m is not None else [1, 2, 3]
    for m in exhaustive:
        amb = ambient(m, 1, args.p)
        for i, k in combinations(range(1, m + 1), 2):
            for a, b in product(range(1, m + 1), repeat=2):
                entries.append(_jacobi_entry(amb, i, k, a, b))
        for j in range(0, m):
            for ks in product(range(1, m + 1), repeat=j):
                entries.append(_muir_entry(amb, ks))
    if args.m is None:
        m = 4
        amb = ambient(m, 1, args.p)
        for _ in range(args.count if args.count is not None else 100):
            if rng.random() < 0.5:
                i, k = sorted(rng.sample(range(1, m + 1), 2))
                a, b = rng.randint(1, m), rng.randint(1, m)
                entries.append(_jacobi_entry(amb, i, k, a, b))
            else:
                j = rng.randint(0, m - 1)
                ks = tuple(rng.randint(1, m) for _ in range(j))
                entries.append(_muir_entry(amb, ks))
    return {"command": "verify identities", "config": _config_echo(args), "entries": entries}


def _positive_shape(block) -> tuple:
    return tuple(v for v in block if v > 0)


def _random_bideterminant(amb, rng, max_entry: int):
    w = random_dominant_weight(amb.m, amb.n, rng, max_entry=max_entry)
    plus_choices = list(enumerate_semistandard(_positive_shape(w.plus), 1, amb.m))
    minus_choices = list(
        enumerate_semistandard(_positive_shape(w.minus), amb.m + 1, amb.m + amb.n)
    )
    tp = rng.choice(plus_choices)
    tq = rng.choice(minus_choices)
    element = loc_mul(
        embed_poly(bideterminant_plus(amb, tp)), bideterminant_minus(amb, tq)
    )
    return w, tp, tq, element


def suite_gen(args, rng) -> dict:
    m, n = _sizes(args)
    amb = ambient(m, n, args.p)
    entries = []
    for _ in range(args.count if args.count is not None else 50):
        w, tp, tq, element = _random_bideterminant(amb, rng, max_entry=3)
        for k in range(1, m + 1):
            for l in range(m + 1, m + n + 1):
                entries.append(
                    {
                        "rule": "floor-generation",
                        "shape": render_weight(w),
                        "plus-tableau": [list(r) for r in tp.cells],
                        "minus-tableau": [list(r) for r in tq.cells],
                        "direction": [k, l],
                        "ok": generation_identity_check(amb, element, k, l),
                    }
                )
    return {"command": "verify gen", "config": _config_echo(args), "entries": entries}


def _phi1_weights(args, m: int, n: int, rng):
    """The weights verify phi1 draws at (m, n) when no --lambda is given."""
    weights = []
    if (m, n) == (2, 2):
        weights.append(parse_weight("[2,1|1,0]"))
    count = args.count if args.count is not None else 10
    weights.extend(random_dominant_weight(m, n, rng, max_entry=4) for _ in range(count))
    return weights


def _eigenvalue_entries(amb, w, char: int):
    """One entry per first-floor vector of the weight: the twisting map must
    scale it by the corresponding grid value (taken mod p in char p)."""
    out = []
    for i in range(1, w.m + 1):
        for j in range(1, w.n + 1):
            try:
                vec = pi_ij(amb, w, i, j)
            except UsageError:
                continue
            value = omega(w, i, j)
            ok = fe_eq(phi_floor(vec), fe_scale(vec, value))
            out.append(
                {
                    "rule": "first-floor-eigenvalue",
                    "char": char,
                    "weight": render_weight(w),
                    "i": i,
                    "j": j,
                    "omega": value if char == 0 else value % char,
                    "ok": ok,
                }
            )
    return out


def suite_phi1(args, rng) -> dict:
    if args.weight is not None and args.count is not None:
        raise UsageError("verify phi1 draws --count weights only without --lambda")
    given = None if args.weight is None else _require_weight(args)
    m, n = _sizes(args) if given is None else (given.m, given.n)
    # the ring comes first: its size cap refuses a huge --m before a weight
    # of that length is drawn
    amb = ambient(m, n, args.p)
    weights = _phi1_weights(args, m, n, rng) if given is None else [given]
    return {
        "command": "verify phi1",
        "config": _config_echo(args),
        "grids": {render_weight(w): omega_grid(w) for w in weights},
        "entries": [e for w in weights for e in _eigenvalue_entries(amb, w, args.p)],
    }


#: Most checks one dominant-weight sweep may make: its weights (entries in
#: 0..--max-entry) times the checks each weight gets.  The largest sweep in the
#: tests and the benchmark pool, verify fwedge at (3,2) with entries <= 6,
#: makes 148,176.
SWEEP_CAP = 500_000


def _dominant_weights(m: int, n: int, max_entry: int, checks_per_weight: int):
    """Every dominant weight with entries in 0..max_entry, once its count
    times ``checks_per_weight`` is known to stay within ``SWEEP_CAP``."""
    if max_entry < 0:
        return []
    checks = checks_per_weight
    for size in (m, n):
        if checks > SWEEP_CAP:
            break
        checks *= comb(max_entry + size, size)
    if checks > SWEEP_CAP:
        raise UsageError(
            f"sweep exceeds the cap of {SWEEP_CAP} checks (dominant weights with "
            f"entries <= {max_entry}, {checks_per_weight} checks each); lower "
            "--max-entry, --m or --n"
        )
    plus_blocks = [
        tuple(reversed(c))
        for c in combinations_with_replacement(range(max_entry + 1), m)
    ]
    minus_blocks = [
        tuple(reversed(c))
        for c in combinations_with_replacement(range(max_entry + 1), n)
    ]
    return [Weight(p, q) for p in plus_blocks for q in minus_blocks]


def _families_by_content(m: int, n: int) -> dict:
    """Each content of a nonempty family of distinct pairs, in the order its
    first family comes in the combinations of the lexicographic pair pool,
    with every ordered family of that content: ``{key: (content, families)}``
    under the rendered content.

    The wedge hypotheses read only the weight and the content, and so does
    the transposed count; the direct count tests each family against the
    weight.  No weight enters the table, so one serves the whole sweep.
    """
    pair_pool = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    table = {}
    for size in range(1, len(pair_pool) + 1):
        for chosen in combinations(pair_pool, size):
            I = tuple(i for i, _ in chosen)
            J = tuple(j for _, j in chosen)
            cont = content_of_pairs(m, n, I, J)
            key = render_weight(cont)
            if key not in table:
                table[key] = (cont, ordered_families(cont))
    return table


def _row_mask(flags) -> int:
    """The rows whose flag is true, as the set bits of an int."""
    return sum(1 << r for r, flag in enumerate(flags) if flag)


def suite_fwedge(args, rng) -> dict:
    m, n = _sizes(args)
    # the last-plus hypothesis needs entries of at least n plus the content,
    # so a default below n + 1 would sweep without a single check
    top = args.max_entry if args.max_entry is not None else max(3, n + 1)
    # a per-weight count past the cap fails it alike, so clamp the exponent
    families = 2 ** min(m * n, SWEEP_CAP.bit_length()) - 1
    weights = _dominant_weights(m, n, top, families)
    # no weights, no families: a negative --max-entry sweeps nothing at any size
    table = _families_by_content(m, n) if weights else {}
    rows = list(table.items())
    contents = [cont for cont, _ in table.values()]
    # each half of the wedge hypotheses reads one block: one bitmask over the
    # rows per distinct block, whose AND is a weight's passing contents
    plus_masks = {
        plus: _row_mask(wedge_plus_holds(plus, cont.plus, n) for cont in contents)
        for plus in {w.plus for w in weights}
    }
    minus_masks = {
        minus: _row_mask(wedge_minus_holds(minus, cont.minus) for cont in contents)
        for minus in {w.minus for w in weights}
    }
    # the transposed count's inner shape per distinct shifted plus block, its
    # content per distinct shifted minus block, and one walk per skew diagram
    inner_of = lru_cache(None)(shifted_inner)
    content_of = lru_cache(None)(shifted_content)
    count_of = lru_cache(None)(skew_count)
    entries = []
    for w in weights:
        bits = plus_masks[w.plus] & minus_masks[w.minus]
        if not bits:
            continue
        name = render_weight(w)
        outer = conjugate(hook_partition(w))  # the transposed count's outer shape
        while bits:  # lowest row first, in the table's order
            low = bits & -bits
            bits ^= low
            key, (cont, ordered) = rows[low.bit_length() - 1]
            direct = sum(is_admissible_pair(w, K, L) for K, L in ordered)
            # the shifted weight's blocks, already known to be dominant
            plus = tuple(map(add, w.plus, cont.plus))
            minus = tuple(map(add, w.minus, cont.minus))
            transposed = count_of(skew_key(outer, inner_of(plus), content_of(minus)))
            entries.append(
                {
                    "rule": "wedge-count",
                    "weight": name,
                    "content": key,
                    "direct": direct,
                    "transposed": transposed,
                    "ok": direct == transposed,
                }
            )
    return {
        "command": "verify fwedge",
        "config": _config_echo(args, max_entry=top),
        "entries": entries,
    }


def _decreasing_moves(block: tuple, step: int):
    """Each index (from 1) whose entry moved by ``step`` leaves the block
    weakly decreasing, with the moved block."""
    for k, v in enumerate(block):
        moved = block[:k] + (v + step,) + block[k + 1 :]
        if all(a >= b for a, b in zip(moved, moved[1:])):
            yield k + 1, moved


def suite_linkage(args, rng) -> dict:
    m, n = _sizes(args)
    p = args.p if args.p else 3
    top = args.max_entry if args.max_entry is not None else 3
    # residue transport checks each cell and each pair of cells of a weight
    weights = _dominant_weights(m, n, top, comb(m * n + 1, 2))
    entries = []

    for _ in range(args.count if args.count is not None else 100):
        w = random_dominant_weight(m, n, rng, max_entry=6)
        ok = all(
            omega_via_form(w, i, j) == omega(w, i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
        )
        entries.append(
            {"rule": "omega-bridge", "weight": render_weight(w), "ok": ok}
        )

    # one Donkin key per distinct block of this run, whose p is fixed
    key_of = lru_cache(None)(lambda block: block_key(block, p))

    for w in weights:
        name = render_weight(w)
        # a shift (i, j) is dominant when both of its moved blocks are, and
        # two dominant shifts with equal keys share an even block
        lowered = [(i, key_of(b)) for i, b in _decreasing_moves(w.plus, -1)]
        raised = [(j, key_of(b)) for j, b in _decreasing_moves(w.minus, 1)]
        shifts = [((i, j), (a, b)) for i, a in lowered for j, b in raised]
        for ((i, j), a), ((k, l), b) in combinations(shifts, 2):
            if a != b:
                continue
            entries.append(
                {
                    "rule": "residue-transport",
                    "weight": name,
                    "pairs": [[i, j], [k, l]],
                    "p": p,
                    "ok": residues_agree(w, i, j, k, l, p),
                }
            )

    for w in _dominant_weights(m, n, min(top, 2), m * n):
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if omega(w, i, j) != 0:
                    continue
                target = lambda_ij(w, i, j)
                if not is_dominant(target):
                    continue
                chain = link_chain_search(w, target, p, max_steps=4)
                ok = chain is not None
                if ok:
                    cur = w
                    for a, b in chain:
                        ok = ok and omega(cur, a, b) == 0
                        cur = lambda_ij(cur, a, b)
                    ok = ok and dot_equivalent(cur, target, p)
                entries.append(
                    {
                        "rule": "chain-certificate",
                        "weight": render_weight(w),
                        "target": render_weight(target),
                        "chain": None if chain is None else [list(s) for s in chain],
                        "p": p,
                        "ok": ok,
                    }
                )

    return {
        "command": "verify linkage",
        "config": _config_echo(args, p=p, max_entry=top),
        "entries": entries,
    }


# -- emitters -----------------------------------------------------------------------


def emit_highest_vector(args) -> dict:
    w = _require_weight(args)
    amb = ambient(w.m, w.n, args.p)
    return {
        "kind": "highest-vector",
        "weight": render_weight(w),
        "element": render_loc(raised_to(highest_vector(amb, w),
                                        ledger_exponent(*exponent_ledger(w)))),
    }


def emit_pi_ij(args) -> dict:
    w = _require_weight(args)
    if args.i is None or args.j is None:
        raise UsageError("emit pi-ij needs --i and --j")
    amb = ambient(w.m, w.n, args.p)
    vec = pi_ij(amb, w, args.i, args.j)
    return {
        "kind": "pi-ij",
        "weight": render_weight(w),
        "i": args.i,
        "j": args.j,
        "floor": 1,
        "element": floor_element_to_json(vec),
    }


def emit_pi_IJ(args) -> dict:
    w = _require_weight(args)
    if args.pairs is None:
        raise UsageError("emit pi-IJ needs --pairs '[[i,j],...]'")
    I, J = _parse_pairs(args.pairs)
    amb = ambient(w.m, w.n, args.p)
    raw, defect = pi_IJ_raw(amb, w, I, J)
    vec = divide_floor(raw, defect)
    return {
        "kind": "pi-IJ",
        "weight": render_weight(w),
        "pairs": [[i, j] for i, j in zip(I, J)],
        "defect": render_loc(raised_to(defect, defect_exponent(w, I, J))),
        "in_module": vec is not None,
        "element": None if vec is None else floor_element_to_json(vec),
        "cleared": floor_element_to_json(raw),
    }


def emit_omega_grid(args) -> dict:
    w = _require_weight(args)
    return {
        "kind": "omega-grid",
        "weight": render_weight(w),
        "grid": omega_grid(w),
        "typical": is_typical(w, args.p),
    }


def emit_linkage_graph(args) -> dict:
    m, n = _sizes(args)
    p = args.p if args.p else 3
    top = args.max_entry if args.max_entry is not None else 3
    weights = _dominant_weights(m, n, top, m * n)
    names = {render_weight(w): w for w in weights}
    nodes = [
        {
            "weight": name,
            "grid": omega_grid(w),
            "typical": is_typical(w, p),
        }
        for name, w in sorted(names.items())
    ]
    edges = []
    for name, w in sorted(names.items()):
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if omega(w, i, j) != 0:
                    continue
                t = lambda_ij(w, i, j)
                tname = render_weight(t)
                if tname not in names:
                    continue
                edges.append(
                    {"from": name, "to": tname, "pair": [i, j], "omega": 0}
                )
    return {
        "kind": "linkage-graph",
        "m": m,
        "n": n,
        "p": p,
        "max_entry": top,
        "nodes": nodes,
        "edges": edges,
    }


# -- direct queries -----------------------------------------------------------------


def cmd_primitive(args) -> dict:
    w = _require_weight(args)
    if args.i is None or args.j is None:
        raise UsageError("primitive needs --i and --j")
    amb = ambient(w.m, w.n, args.p)
    vec = pi_ij(amb, w, args.i, args.j)
    return {
        "kind": "primitive",
        "weight": render_weight(w),
        "i": args.i,
        "j": args.j,
        "p": args.p,
        "element": floor_element_to_json(vec),
        "primitive": is_primitive(vec),
    }


def cmd_primitive_k(args) -> dict:
    w = _require_weight(args)
    if args.pairs is None:
        raise UsageError("primitive-k needs --pairs '[[i,j],...]'")
    I, J = _parse_pairs(args.pairs)
    amb = ambient(w.m, w.n, args.p)
    admissible = is_admissible_pair(w, I, J)
    robust = is_robust(w, I, J)
    artifact = {
        "kind": "primitive-k",
        "weight": render_weight(w),
        "pairs": [[i, j] for i, j in zip(I, J)],
        "p": args.p,
        "admissible": admissible,
        "robust": robust,
        "in_module": None,
        "polynomial": None,
        "element": None,
        "primitive": None,
    }
    if admissible:
        vec = pi_IJ(amb, w, I, J)
        artifact["in_module"] = vec is not None
        if vec is not None:
            artifact["element"] = floor_element_to_json(vec)
            artifact["polynomial"] = floor_is_polynomial(vec)
            artifact["primitive"] = is_primitive(vec)
    return artifact


def cmd_phi1(args) -> dict:
    w = _require_weight(args)
    amb = ambient(w.m, w.n, args.p)
    return {
        "command": "phi1",
        "config": _config_echo(args),
        "grid": omega_grid(w),
        "entries": _eigenvalue_entries(amb, w, args.p),
    }


def cmd_typicality(args) -> dict:
    w = _require_weight(args)
    return {
        "kind": "typicality",
        "weight": render_weight(w),
        "p": args.p,
        "grid": omega_grid(w),
        "typical": is_typical(w, args.p),
    }


def _block_certificate(entries, p: int):
    d, residues = block_key(entries, p)
    if d == ALL:
        return {"d": "all", "residues": None}
    return {"d": d, "residues": list(residues)}


def cmd_linkage(args) -> dict:
    w = _require_weight(args)
    if args.other is None:
        raise UsageError("linkage needs --mu '[a,b,..|c,d,..]'")
    other = parse_weight(args.other)
    p = args.p
    if not p:
        raise UsageError("linkage needs --p (an odd prime)")
    linked = even_linked(w, other, p)
    chain = link_chain_search(
        w, other, p, args.max_steps if args.max_steps is not None else 6
    )
    return {
        "kind": "linkage",
        "lambda": render_weight(w),
        "mu": render_weight(other),
        "p": p,
        "even_linked": linked,
        "certificates": {
            "lambda": {
                "plus": _block_certificate(w.plus, p),
                "minus": _block_certificate(w.minus, p),
            },
            "mu": {
                "plus": _block_certificate(other.plus, p),
                "minus": _block_certificate(other.minus, p),
            },
        },
        "dot_equivalent": dot_equivalent(w, other, p),
        "chain": None if chain is None else [list(s) for s in chain],
    }


def cmd_odd_chain(args) -> dict:
    w = _require_weight(args)
    if args.pairs is None:
        raise UsageError("odd-chain needs --pairs '[[i,j],...]'")
    if not args.p:
        raise UsageError("odd-chain needs --p (an odd prime)")
    I, J = _parse_pairs(args.pairs)
    holds, witness = odd_linked(w, I, J, args.p)
    return {
        "kind": "odd-chain",
        "weight": render_weight(w),
        "pairs": [[i, j] for i, j in zip(I, J)],
        "p": args.p,
        "holds": holds,
        "witness": None if witness is None else [list(witness[0]), list(witness[1])],
    }


def cmd_alcove(args) -> dict:
    w = _require_weight(args)
    if not args.p:
        raise UsageError("alcove needs --p (an odd prime)")
    return {
        "kind": "alcove",
        "weight": render_weight(w),
        "p": args.p,
        "inside": in_alcove(w, args.p),
    }


#: Most cells --outer may have: the walk keeps one row list per row of the
#: outer shape, so a part of 10**30 cells ran out of memory.
LR_CELL_CAP = 100_000


def cmd_lr(args) -> dict:
    if args.outer is None or args.content is None:
        raise UsageError("lr needs --outer and --content (and optionally --inner)")
    outer = _parse_partition(args.outer)
    inner = _parse_partition(args.inner) if args.inner is not None else ()
    content = _parse_partition(args.content)
    cells = sum(v for v in outer if v > 0)
    if cells > LR_CELL_CAP:
        raise UsageError(
            f"--outer has {cells} cells, past the cap of {LR_CELL_CAP} (LR_CELL_CAP)"
        )
    count, flag = lr_coefficient_flagged(outer, inner, content)
    artifact = {
        "kind": "lr",
        "outer": list(outer),
        "inner": list(inner),
        "content": list(content),
        "count": count,
        "flag": flag,
    }
    if args.tableaux:
        artifact["tableaux"] = [
            [list(row) for row in filling]
            for filling in lr_tableaux(outer, inner, content)
        ]
    return artifact




# -- the command table --------------------------------------------------------------


def _seeded(suite):
    """A verify suite as a handler: its random draws come from ``--seed``."""
    return lambda args: suite(args, random.Random(args.seed))


#: Every command form: its handler, the options it reads besides --p and
#: --out, and its help line.  A form rejects every option outside its row.
COMMANDS = {
    "verify lemmas": (_seeded(suite_lemmas), "--m --n --seed", None),
    "verify identities": (_seeded(suite_identities), "--m --seed --count", None),
    "verify gen": (_seeded(suite_gen), "--m --n --seed --count", None),
    "verify phi1": (_seeded(suite_phi1), "--m --n --seed --count --lambda", None),
    "verify fwedge": (_seeded(suite_fwedge), "--m --n --seed --max-entry", None),
    "verify linkage": (_seeded(suite_linkage), "--m --n --seed --count --max-entry", None),
    "verify-lemmas": (_seeded(suite_lemmas), "--m --n --seed", "shorthand for: verify lemmas"),
    "verify-identities": (
        _seeded(suite_identities), "--m --seed --count", "shorthand for: verify identities"
    ),
    "emit highest-vector": (emit_highest_vector, "--lambda --m --n", None),
    "emit pi-ij": (emit_pi_ij, "--lambda --m --n --i --j", None),
    "emit pi-IJ": (emit_pi_IJ, "--lambda --m --n --pairs", None),
    "emit omega-grid": (emit_omega_grid, "--lambda --m --n", None),
    "emit linkage-graph": (emit_linkage_graph, "--m --n --max-entry", None),
    "primitive": (
        cmd_primitive, "--lambda --m --n --i --j",
        "build one first-floor vector and test primitivity",
    ),
    "primitive-k": (
        cmd_primitive_k, "--lambda --m --n --pairs",
        "build a higher-floor vector and test primitivity",
    ),
    "phi1": (
        cmd_phi1, "--lambda --m --n --seed",
        "eigenvalue table of the first-floor twisting map",
    ),
    "typicality": (cmd_typicality, "--lambda --m --n", "typicality of a weight"),
    "linkage": (
        cmd_linkage, "--lambda --m --n --mu --max-steps",
        "even linkage of two weights, with certificates",
    ),
    "odd-chain": (
        cmd_odd_chain, "--lambda --m --n --pairs",
        "sequential vanishing condition for an index family",
    ),
    "alcove": (cmd_alcove, "--lambda --m --n", "alcove membership"),
    "lr": (cmd_lr, "--outer --inner --content --tableaux", "skew lattice-filling count"),
}


def form_options(form: str) -> list:
    """The options ``form`` reads: its row's, and --p and --out, which main
    checks and writes for every form."""
    return ["--p", "--out", *COMMANDS[form][1].split()]


#: Every option of some form, with its argparse keywords.
_OPTIONS = {
    "--m": {"type": parse_integer, "help": "even block size"},
    "--n": {"type": parse_integer, "help": "odd block size"},
    "--p": {"type": parse_integer, "default": 0, "help": "characteristic: 0 or an odd prime"},
    "--lambda": {"dest": "weight", "help": "weight literal '[a,b,..|c,d,..]'"},
    "--seed": {"type": parse_integer, "default": 0, "help": "seed for random suites"},
    "--out": {"help": "also write the JSON here"},
    "--i": {"type": parse_integer, "help": "row of the floor cell"},
    "--j": {"type": parse_integer, "help": "column of the floor cell"},
    "--pairs": {"help": "index family as JSON [[i,j],...]"},
    "--count": {"type": parse_integer, "help": "number of random instances"},
    "--max-entry": {"type": parse_integer, "help": "bound on weight entries in sweeps"},
    "--max-steps": {"type": parse_integer, "help": "bound on chain search length"},
    "--mu": {"dest": "other", "help": "second weight literal"},
    "--outer": {"help": "outer partition, '3,2,1' or '[3,2,1]'"},
    "--inner": {"help": "inner partition (default empty)"},
    "--content": {"help": "content partition"},
    "--tableaux": {"action": "store_true", "help": "also list the fillings"},
}

#: The two-word forms: their group's help line and the dest of the second word.
_GROUPS = {
    "verify": ("run a named verification suite", "suite"),
    "emit": ("emit a deterministic JSON artifact", "kind"),
}


class _JsonErrorParser(argparse.ArgumentParser):
    """Rejected command lines end like every other malformed request: one
    JSON error line on stderr and exit code 2.  No option is read from a
    prefix: with per-form options, ``lr --i 2`` would otherwise be --inner."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        error = {"error": f"{self.prog}: {message}"}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="superinduce",
        description="Exact verification suites and artifacts for the induced-supermodule calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups, defaults = {}, {}
    for form, (_, _, blurb) in COMMANDS.items():
        group, _, name = form.rpartition(" ")
        if group and group not in groups:
            group_blurb, dest = _GROUPS[group]
            groups[group] = sub.add_parser(group, help=group_blurb).add_subparsers(
                dest=dest, required=True
            )
        leaf = groups.get(group, sub).add_parser(name, help=blurb)
        for option in form_options(form):
            action = leaf.add_argument(option, **_OPTIONS[option])
            defaults[action.dest] = action.default
        leaf.set_defaults(form=form)
    # handlers and _config_echo read every dest, also of options a form lacks
    parser.set_defaults(**defaults)
    return parser


# parsing leaves the parser unchanged (no append actions, no mutable
# defaults), so one instance serves every call in a process
_shared_parser = lru_cache(maxsize=None)(build_parser)


#: Largest --count a random suite accepts (verify gen, phi1, identities and
#: the omega bridge of linkage).  Defaults, tests and the benchmark pool use
#: at most 100.
COUNT_CAP = 1_000


def main(argv=None) -> int:
    parser = _shared_parser()
    args, extra = parser.parse_known_args(argv)
    # an option of another form is a UsageError naming it; anything else
    # left over is unknown to every form, and argparse rejects it as before
    unread = list(dict.fromkeys(o for o in (a.partition("=")[0] for a in extra) if o in _OPTIONS))
    if extra and not unread:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    handler, _, _ = COMMANDS[args.form]
    try:
        if args.p:
            check_odd_prime(args.p)
        if args.count is not None and not 0 <= args.count <= COUNT_CAP:
            raise UsageError(
                f"--count must lie in 0..{COUNT_CAP} (COUNT_CAP), got {args.count}"
            )
        if unread:
            raise UsageError(f"{args.form} does not read {', '.join(unread)}")
        return _publish(handler(args), args.out)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
