import json
import os
import random
import resource
import shlex
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import superinduce.cli as cli
import superinduce.weights_tableaux as weights_tableaux
from superinduce.cli import (
    COUNT_CAP,
    LR_CELL_CAP,
    SWEEP_CAP,
    build_parser,
    main,
    suite_fwedge,
    suite_linkage,
)
from superinduce.floors_primitives import (
    FloorElement,
    fe_eq,
    pi_ij,
)
from superinduce.linkage import (
    CHAIN_NODE_CAP,
    dot_equivalent,
    even_linked,
    link_chain_search,
    omega,
    omega_via_form,
)
from superinduce.lr_oracle import admissible_count, lr_multiplicity, wedge_hypotheses_hold
from superinduce.superpoly import RING_SIZE_CAP, ambient
from superinduce.weights_tableaux import (
    content_of_pairs,
    is_dominant,
    lambda_ij,
    make_weight,
    random_dominant_weight,
    render_weight,
)
from floor_oracle import floor_decompose
from ring_oracle import parse_loc
from shape_oracle import nakayama_consequence_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_omega_grid_artifact(capsys):
    code, doc = run_json(capsys, "emit", "omega-grid", "--lambda", "[2,1|1,0]")
    assert code == 0
    assert doc["grid"] == [[4, 2], [2, 0]]
    assert doc["typical"] is False


def test_pi_ij_artifact_roundtrips(capsys):
    code, doc = run_json(
        capsys, "emit", "pi-ij", "--lambda", "[1|0]", "--i", "1", "--j", "1"
    )
    assert code == 0
    amb = ambient(1, 1)
    w = make_weight((1,), (0,))
    rebuilt = FloorElement(
        amb,
        doc["floor"],
        {
            tuple(tuple(p) for p in item["pairs"]): parse_loc(
                amb, item["coefficient"]
            )
            for item in doc["element"]
        },
    )
    direct = pi_ij(amb, w, 1, 1)
    assert fe_eq(rebuilt, direct)
    # and the serialized element decomposes back into floor coordinates
    from superinduce.floors_primitives import embed_floor

    coords = floor_decompose(embed_floor(rebuilt), w)
    assert coords is not None and len(coords) == 1
    assert fe_eq(coords[0], direct)


def test_seeded_suite_is_byte_identical(capsys):
    code1, out1 = run_cli(capsys, "verify", "gen", "--count", "3", "--seed", "5")
    code2, out2 = run_cli(capsys, "verify", "gen", "--count", "3", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_errors_exit_2(capsys):
    assert main(["emit", "omega-grid", "--lambda", "oops"]) == 2
    assert main(["emit", "omega-grid"]) == 2  # missing --lambda
    assert main(["verify", "lemmas", "--p", "4"]) == 2
    assert (
        main(["emit", "highest-vector", "--lambda", "[2,1|1,-1]"]) == 2
    )  # constructor precondition surfaces
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_failure_exit_code_plumbing(capsys):
    from superinduce.cli import _publish

    passing = [{"rule": "b", "ok": True}, {"rule": "a", "ok": True}]
    assert _publish({"command": "x", "entries": passing}, None) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["failures"] == 0
    assert [e["rule"] for e in doc["entries"]] == ["a", "b"]
    failing = [{"rule": r, "ok": False} for r in "cde"]
    assert _publish({"command": "x", "entries": passing + failing}, None) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["failures"] == 3
    # an artifact has no entries, so no verdict is added to it
    assert _publish({"kind": "x"}, None) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "x"}


def test_lr_command_counts_and_lists(capsys):
    code, doc = run_json(
        capsys,
        "lr",
        "--outer",
        "[3,2,2,1]",
        "--inner",
        "[2,2,1]",
        "--content",
        "[2,1]",
        "--tableaux",
    )
    assert code == 0
    assert doc["count"] == 2 and doc["flag"] is None
    assert len(doc["tableaux"]) == 2
    # bare comma-list literals work too
    code, doc = run_json(
        capsys, "lr", "--outer", "3,2,2,1", "--inner", "2,2,1", "--content", "2,1"
    )
    assert code == 0 and doc["count"] == 2


def test_lr_walk_is_not_bounded_by_the_recursion_limit(capsys):
    # one cell per letter; a walk recursing per cell overflows the stack here
    code, doc = run_json(capsys, "lr", "--outer", "1200", "--content", "1200")
    assert code == 0
    assert doc["count"] == 1 and doc["flag"] is None


def test_linkage_graph_certificates(capsys):
    code, doc = run_json(
        capsys, "emit", "linkage-graph", "--p", "3", "--max-entry", "2"
    )
    assert code == 0
    names = {node["weight"] for node in doc["nodes"]}
    assert len(names) == 36  # 6 dominant pairs per block at entries <= 2
    from superinduce.linkage import omega
    from superinduce.weights_tableaux import parse_weight

    assert doc["edges"], "expected at least one vanishing-entry edge"
    for edge in doc["edges"]:
        assert edge["from"] in names and edge["to"] in names
        i, j = edge["pair"]
        assert omega(parse_weight(edge["from"]), i, j) == 0


def test_verify_suites_pass_small(capsys):
    assert run_cli(capsys, "verify", "lemmas", "--m", "1", "--n", "1")[0] == 0
    assert run_cli(capsys, "verify", "identities", "--m", "2")[0] == 0
    assert run_cli(capsys, "verify-identities", "--m", "2")[0] == 0
    assert run_cli(capsys, "verify-lemmas", "--m", "1", "--n", "1")[0] == 0
    assert (
        run_cli(capsys, "verify", "fwedge", "--max-entry", "2")[0] == 0
    )
    assert (
        run_cli(
            capsys, "verify", "linkage", "--p", "3", "--count", "5", "--max-entry", "2"
        )[0]
        == 0
    )


def test_phi1_command_reports_grid(capsys):
    code, doc = run_json(capsys, "phi1", "--lambda", "[2,1|1,0]")
    assert code == 0
    assert doc["grid"] == [[4, 2], [2, 0]]
    cells = {(e["i"], e["j"]): e["omega"] for e in doc["entries"]}
    assert cells == {(1, 1): 4, (1, 2): 2, (2, 1): 2, (2, 2): 0}
    assert all(e["ok"] for e in doc["entries"])


def test_verify_phi1_without_weights_is_an_empty_report(capsys):
    # no --lambda and sizes other than (2,2), so --count 0 leaves no weight
    code, doc = run_json(capsys, "verify", "phi1", "--m", "1", "--n", "1", "--count", "0")
    assert code == 0
    assert (doc["entries"], doc["grids"], doc["failures"], doc["ok"]) == ([], {}, 0, True)
    # the ambient is still built, so a bad characteristic is still refused
    assert main(["verify", "phi1", "--m", "1", "--n", "1", "--count", "0", "--p", "9"]) == 2
    assert "odd prime" in _one_json_error_line(capsys)["error"]


def test_primitive_query(capsys):
    code, doc = run_json(
        capsys, "primitive", "--lambda", "[2,1|1,0]", "--i", "1", "--j", "1"
    )
    assert code == 0 and doc["primitive"] is True


def test_primitive_k_on_flat_weight(capsys):
    # equal plus rows: the single family is admissible but not robust, and
    # its cleared form does not divide back into the module
    code, doc = run_json(
        capsys,
        "primitive-k",
        "--lambda",
        "[3,3|1,0]",
        "--pairs",
        "[[1,1],[2,2]]",
    )
    assert code == 0
    assert doc["admissible"] is True
    assert doc["robust"] is False
    assert doc["in_module"] is False
    assert doc["element"] is None and doc["primitive"] is None
    # a robust weight sails through
    code, doc = run_json(
        capsys,
        "primitive-k",
        "--lambda",
        "[4,3|1,0]",
        "--pairs",
        "[[1,1],[2,2]]",
    )
    assert code == 0
    assert doc["robust"] is True and doc["in_module"] is True
    assert doc["primitive"] is True and doc["polynomial"] is True


def test_odd_chain_witness_rearrangement(capsys):
    code, doc = run_json(
        capsys,
        "odd-chain",
        "--lambda",
        "[2,1|2,0]",
        "--pairs",
        "[[1,1],[2,1]]",
        "--p",
        "3",
    )
    assert code == 0
    assert doc["holds"] is True
    assert doc["witness"] == [[2, 1], [1, 1]]


def test_odd_chain_with_repeated_pairs_finishes():
    # 8 pairs with every entry repeated: 8!^2 rearrangement pairs, of which
    # only 70^2 are distinct
    pairs = "[[1,1],[1,2],[2,1],[2,2],[1,1],[1,2],[2,1],[2,2]]"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "superinduce.cli", "odd-chain",
         "--lambda", "[40,40|0,0]", "--pairs", pairs, "--p", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=30,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert (doc["holds"], doc["witness"]) == (False, None)


def test_out_flag_duplicates_stdout(tmp_path, capsys):
    target = tmp_path / "grid.json"
    code, out = run_cli(
        capsys,
        "emit",
        "omega-grid",
        "--lambda",
        "[2,1|1,0]",
        "--out",
        str(target),
    )
    assert code == 0
    assert target.read_text() == out
    report = tmp_path / "lemmas.json"
    code, out = run_cli(
        capsys, "verify", "lemmas", "--m", "1", "--n", "1", "--out", str(report)
    )
    assert code == 0 and json.loads(out)["ok"] is True
    assert report.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["emit", "omega-grid", "--lambda", "[2,1|1,0]"],
        ["verify", "lemmas", "--m", "1", "--n", "1"],
    ],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "x.json"
    assert main(argv + ["--out", str(target)]) == 2
    assert "--out" in _one_json_error_line(capsys)["error"]
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, out",
    [
        (["typicality", "--lambda", "[2,2|0,0]", "--p", "3"], False),
        (["verify", "lemmas", "--m", "1", "--n", "1"], True),
    ],
)
def test_closed_stdout_keeps_exit_code_and_out_file(tmp_path, argv, out):
    # the read end is closed before the spawn, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    target = tmp_path / "doc.json"
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superinduce.cli", *argv]
            + (["--out", str(target)] if out else []),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if out:
        assert json.loads(target.read_text())["ok"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv, out",
    [
        (["typicality", "--lambda", "[2,2|0,0]", "--p", "3"], False),
        (["verify", "lemmas", "--m", "1", "--n", "1"], True),
    ],
)
def test_unwritable_stdout_is_a_usage_error(tmp_path, argv, out):
    # every write to /dev/full fails with ENOSPC: a usage error naming
    # stdout, never exit 1 ("a verification failed") with a traceback
    target = tmp_path / "doc.json"
    src = Path(__file__).resolve().parent.parent / "src"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "superinduce.cli", *argv]
            + (["--out", str(target)] if out else []),
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])
    assert set(error) == {"error"} and "stdout" in error["error"]
    if out:
        assert json.loads(target.read_text())["ok"] is True


def test_parser_covers_mandated_grammar():
    parser = build_parser()
    args = parser.parse_args(
        ["verify", "phi1", "--m", "2", "--n", "2", "--p", "3", "--lambda", "[2,1|1,0]", "--seed", "9"]
    )
    assert args.suite == "phi1" and args.seed == 9
    args = parser.parse_args(["emit", "pi-IJ", "--lambda", "[4,3|1,0]", "--pairs", "[[1,1]]"])
    assert args.kind == "pi-IJ"


def test_module_entry_point_subprocess():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "superinduce.cli",
            "typicality",
            "--lambda",
            "[2,2|0,0]",
            "--p",
            "3",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["typical"] is False and doc["grid"] == [[3, 2], [2, 1]]


def _one_json_error_line(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"error"}
    return doc


# every subcommand takes --p; each one must refuse a composite characteristic
COMPOSITE_P = [
    ["verify", "lemmas", "--m", "1", "--n", "1", "--p", "9"],
    ["verify", "identities", "--m", "2", "--p", "15"],
    ["verify", "gen", "--count", "1", "--p", "9"],
    ["verify", "phi1", "--lambda", "[2,1|1,0]", "--p", "15"],
    ["verify", "fwedge", "--p", "9"],
    ["verify", "linkage", "--p", "15"],
    ["verify-lemmas", "--m", "1", "--n", "1", "--p", "9"],
    ["verify-identities", "--m", "2", "--p", "15"],
    ["emit", "highest-vector", "--lambda", "[2,1|1,0]", "--p", "9"],
    ["emit", "pi-ij", "--lambda", "[2,1|1,0]", "--i", "1", "--j", "1", "--p", "15"],
    ["emit", "pi-IJ", "--lambda", "[4,3|1,0]", "--pairs", "[[1,1]]", "--p", "9"],
    ["emit", "omega-grid", "--lambda", "[2,1|1,0]", "--p", "15"],
    ["emit", "linkage-graph", "--max-entry", "1", "--p", "9"],
    ["primitive", "--lambda", "[2,1|1,0]", "--i", "1", "--j", "1", "--p", "15"],
    ["primitive-k", "--lambda", "[4,3|1,0]", "--pairs", "[[1,1]]", "--p", "9"],
    ["phi1", "--lambda", "[2,1|1,0]", "--p", "15"],
    ["typicality", "--lambda", "[2,2|0,0]", "--p", "9"],
    ["linkage", "--lambda", "[2,1|1,0]", "--mu", "[2,0|1,1]", "--p", "15"],
    ["odd-chain", "--lambda", "[2,1|2,0]", "--pairs", "[[1,1]]", "--p", "9"],
    ["alcove", "--lambda", "[2,1|1,0]", "--p", "15"],
    ["lr", "--outer", "3", "--content", "1", "--p", "9"],
]


@pytest.mark.parametrize("argv", COMPOSITE_P, ids=[" ".join(a[:2]) for a in COMPOSITE_P])
def test_composite_characteristic_exits_2(capsys, argv):
    assert main(list(argv)) == 2
    assert "odd prime" in _one_json_error_line(capsys)["error"]


def test_lr_tableaux_agrees_with_lr_on_malformed_shapes(capsys):
    code, doc = run_json(capsys, "lr", "--outer", "2,3", "--content", "1")
    assert code == 0 and doc["count"] == 0 and doc["flag"] is not None
    code, listed = run_json(capsys, "lr", "--outer", "2,3", "--content", "1", "--tableaux")
    assert code == 0
    assert listed == {**doc, "tableaux": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["alcove", "--lambda", "[1|0]", "--p", "True"],
        ["emit", "omega-grid", "--lambda", "[2,1|1,0]", "--no-such-flag"],
        ["verify", "no-such-suite"],
        ["no-such-command"],
        [],
    ],
)
def test_argparse_rejections_print_one_json_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    _one_json_error_line(capsys)


def test_consecutive_calls_share_no_parsed_state(capsys):
    lr = ("lr", "--outer", "3,2,2,1", "--inner", "2,2,1", "--content", "2,1")
    code, listed = run_json(capsys, *lr, "--tableaux")
    assert code == 0 and len(listed["tableaux"]) == 2
    code, plain = run_json(capsys, *lr)
    assert code == 0 and plain == {k: v for k, v in listed.items() if k != "tableaux"}
    # the shorthand's fixed suite and a seeded char-3 run leave no defaults behind
    code, seeded = run_json(capsys, "verify-lemmas", "--m", "1", "--n", "1", "--p", "3", "--seed", "7")
    assert code == 0 and seeded["config"] == {"m": 1, "n": 1, "p": 3, "seed": 7}
    code, short = run_cli(capsys, "verify-lemmas", "--m", "1", "--n", "1")
    assert code == 0
    code, full = run_cli(capsys, "verify", "lemmas", "--m", "1", "--n", "1")
    assert code == 0 and full == short
    assert json.loads(full)["config"] == {"m": 1, "n": 1, "p": 0, "seed": 0}
    # a rejected command line after successful ones still ends in one JSON line
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "1", "--n", "1"])
    assert exc.value.code == 2
    _one_json_error_line(capsys)


def _per_family_fwedge_entries(m, n, top):
    """The fwedge sweep family by family: every family of distinct pairs is
    tested against every weight, and a per-weight set keeps the first family
    of each content."""
    pool = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    entries = []
    for plus in combinations(range(top + m), m):
        for minus in combinations(range(top + n), n):
            # strictly increasing picks minus their offsets: weakly
            # decreasing blocks with entries in 0..top, in sweep order
            w = make_weight(
                reversed([v - k for k, v in enumerate(plus)]),
                reversed([v - k for k, v in enumerate(minus)]),
            )
            seen = set()
            for size in range(1, len(pool) + 1):
                for chosen in combinations(pool, size):
                    I = tuple(i for i, _ in chosen)
                    J = tuple(j for _, j in chosen)
                    if not wedge_hypotheses_hold(w, I, J):
                        continue
                    cont = content_of_pairs(m, n, I, J)
                    key = render_weight(cont)
                    if key in seen:
                        continue
                    seen.add(key)
                    direct = admissible_count(w, cont)
                    transposed = lr_multiplicity(w, I, J)
                    entries.append(
                        {
                            "rule": "wedge-count",
                            "weight": render_weight(w),
                            "content": key,
                            "direct": direct,
                            "transposed": transposed,
                            "ok": direct == transposed,
                        }
                    )
    return entries


FWEDGE_SIZES = [(m, n) for m in range(1, 4) for n in range(1, 4) if m * n <= 6]


# entries <= 2 leave most sizes with n >= 2 without a single entry (the shifted
# weight's last plus entry must reach n), so entries <= 4 run too
@pytest.mark.parametrize("top", [2, 4])
@pytest.mark.parametrize("m, n", FWEDGE_SIZES)
def test_fwedge_suite_equals_the_per_family_sweep(m, n, top):
    args = build_parser().parse_args(
        ["verify", "fwedge", "--m", str(m), "--n", str(n), "--max-entry", str(top)]
    )
    entries = suite_fwedge(args, random.Random(0))["entries"]
    assert entries == _per_family_fwedge_entries(m, n, top)
    assert entries or top == 2


def test_sweep_cap_admits_the_largest_recorded_sweep():
    # verify fwedge at (3,2) with entries <= 6, in the benchmark's query pool
    assert comb(6 + 3, 3) * comb(6 + 2, 2) * (2 ** 6 - 1) == 148_176 <= SWEEP_CAP


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "fwedge", "--m", "4", "--n", "4"],
        ["verify", "linkage", "--p", "3", "--max-entry", "1000"],
    ],
)
def test_oversized_sweeps_exit_2_naming_the_cap(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "superinduce.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert f"cap of {SWEEP_CAP} checks" in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv, words",
    [
        (["emit", "linkage-graph", "--m", "3", "--n", "3", "--max-entry", "1000"], "cap of"),
        (["verify", "fwedge", "--m", "40", "--n", "40", "--max-entry", "0"], "cap of"),
        (["verify", "fwedge", "--m", "-1"], "must be positive"),
        (["emit", "linkage-graph", "--n", "0"], "must be positive"),
        (["verify", "linkage", "--m", "-1"], "must be positive"),
    ],
)
def test_sweep_sizes_are_checked_before_the_sweep(capsys, argv, words):
    assert main(argv) == 2
    assert words in _one_json_error_line(capsys)["error"]


def test_negative_max_entry_sweeps_no_weights(capsys):
    code, doc = run_json(capsys, "verify", "fwedge", "--m", "5", "--n", "5", "--max-entry", "-1")
    assert (code, doc["entries"]) == (0, [])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_fwedge_sweep_checks_something_or_exits_2(capsys, m, n):
    # the last-plus hypothesis needs entries of at least n plus the content
    code = main(["verify", "fwedge", "--m", str(m), "--n", str(n)])
    out, err = capsys.readouterr()
    if code == 2:
        assert "cap of" in json.loads(err)["error"]
        return
    doc = json.loads(out)
    assert (code, doc["config"]["max_entry"]) == (0, max(3, n + 1))
    assert len(doc["entries"]) >= 1


def _limit_memory():
    # a runaway allocation fails its call instead of the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _module_run(argv, timeout):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "superinduce.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=timeout,
        preexec_fn=_limit_memory,
    )


def _one_error_line(proc) -> str:
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_huge_count_exits_2_naming_the_cap():
    proc = _module_run(["verify", "linkage", "--m", "1", "--n", "1", "--count", "100000000"], 30)
    assert f"0..{COUNT_CAP} (COUNT_CAP)" in _one_error_line(proc)


@pytest.mark.parametrize("suite", ["gen", "phi1", "identities", "linkage"])
@pytest.mark.parametrize("count", [-1, COUNT_CAP + 1])
def test_count_outside_the_cap_is_a_usage_error(capsys, suite, count):
    assert main(["verify", suite, "--m", "1", "--n", "1", "--count", str(count)]) == 2
    assert "COUNT_CAP" in _one_json_error_line(capsys)["error"]


def test_oversized_determinant_exits_2_naming_the_cap():
    # a 9-entry block needed a 9-row determinant past DET_CAP; the ring's
    # own size cap now refuses it first
    proc = _module_run(["emit", "highest-vector", "--lambda", "[1,1,1,1,1,1,1,1,1|0]"], 30)
    assert f"{RING_SIZE_CAP} (RING_SIZE_CAP)" in _one_error_line(proc)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "linkage", "--m", "2", "--n", "2", "--p", "3", "--max-steps", "0"],
         "--max-steps"),
        (["verify", "linkage", "--m", "2", "--n", "2", "--p", "3", "--max-steps", "1"],
         "--max-steps"),
        (["verify", "linkage", "--p", "3", "--lambda", "[2,1|1,0]"], "--lambda"),
        (["verify", "fwedge", "--lambda", "[9,9|9]"], "--lambda"),
        (["verify", "fwedge", "--m", "1", "--n", "1", "--max-steps", "2"], "--max-steps"),
        (["verify", "fwedge", "--m", "1", "--n", "1", "--count", "2"], "--count"),
        (["verify", "fwedge", "--pairs", "[[1,1]]"], "--pairs"),
        (["verify", "gen", "--pairs", "[[1,1],[2,2]]"], "--pairs"),
        (["verify", "gen", "--count", "1", "--max-entry", "2"], "--max-entry"),
        (["verify", "phi1", "--lambda", "[2,1|1,0]", "--i", "1"], "--i"),
        (["verify", "phi1", "--m", "1", "--n", "1", "--max-steps", "2"], "--max-steps"),
        (["verify", "lemmas", "--m", "1", "--n", "1", "--count", "3"], "--count"),
        (["verify", "lemmas", "--j", "1"], "--j"),
        (["verify", "identities", "--m", "2", "--max-entry", "0"], "--max-entry"),
        (["verify", "identities", "--pairs", "[[1,1]]"], "--pairs"),
    ],
)
def test_sweeps_reject_options_they_never_read(capsys, argv, option):
    assert main(argv) == 2
    error = _one_json_error_line(capsys)["error"]
    assert option in error and "does not read" in error


def test_both_fwedge_routes_run_for_every_entry(monkeypatch):
    calls = {"plus": 0, "minus": 0, "admissible": 0, "transposed": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(cli, "wedge_plus_holds", counting("plus", cli.wedge_plus_holds))
    monkeypatch.setattr(cli, "wedge_minus_holds", counting("minus", cli.wedge_minus_holds))
    monkeypatch.setattr(cli, "is_admissible_pair", counting("admissible", cli.is_admissible_pair))
    monkeypatch.setattr(cli, "skew_count", counting("transposed", cli.skew_count))
    m, n, top = 3, 2, 4
    args = build_parser().parse_args(
        ["verify", "fwedge", "--m", str(m), "--n", str(n), "--max-entry", str(top)]
    )
    entries = suite_fwedge(args, random.Random(0))["entries"]
    table = cli._families_by_content(m, n)
    weights = cli._dominant_weights(m, n, top, 1)
    # each half of the predicate once per (distinct block, content): 1,855 +
    # 795 calls, the transposed count once per distinct skew diagram, and the
    # admissibility test once per family of each entry's content
    assert calls["plus"] == len({w.plus for w in weights}) * len(table) == 1855
    assert calls["minus"] == len({w.minus for w in weights}) * len(table) == 795
    assert calls["transposed"] == 193 < len(entries) == 423
    assert calls["admissible"] == sum(len(table[e["content"]][1]) for e in entries)
    assert all(e["direct"] >= 1 for e in entries)


def test_fwedge_admissibility_builds_no_weight(monkeypatch):
    built = {"weights": 0, "inside": 0, "admissible": 0}
    post_init = weights_tableaux.Weight.__post_init__
    is_admissible_pair = cli.is_admissible_pair

    def counting_post_init(self):
        built["weights"] += 1
        post_init(self)

    def admissible(*args):
        built["admissible"] += 1
        before = built["weights"]
        out = is_admissible_pair(*args)
        built["inside"] += built["weights"] - before
        return out

    monkeypatch.setattr(weights_tableaux.Weight, "__post_init__", counting_post_init)
    monkeypatch.setattr(cli, "is_admissible_pair", admissible)
    args = build_parser().parse_args(
        ["verify", "fwedge", "--m", "3", "--n", "2", "--max-entry", "4"]
    )
    suite_fwedge(args, random.Random(0))
    # the sweep still builds weights, but no admissibility test does
    assert built["admissible"] > 0 and built["weights"] > 0
    assert built["inside"] == 0


def test_linkage_keys_each_distinct_block_once(monkeypatch):
    keyed = []
    block_key = cli.block_key

    def counting(entries, p):
        keyed.append((entries, p))
        return block_key(entries, p)

    monkeypatch.setattr(cli, "block_key", counting)
    m, n, p = 3, 3, 3
    args = build_parser().parse_args(
        ["verify", "linkage", "--m", str(m), "--n", str(n), "--p", str(p)]
    )
    suite_linkage(args, random.Random(0))
    blocks = set()
    for w in cli._dominant_weights(m, n, 3, 1):
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                shifted = lambda_ij(w, i, j)
                if is_dominant(shifted):
                    blocks |= {shifted.plus, shifted.minus}
    assert sorted(keyed) == sorted((block, p) for block in blocks)


def test_linkage_block_keys_live_for_one_run(monkeypatch, capsys):
    calls = {"keys": 0}
    block_key = cli.block_key

    def counting(*args):
        calls["keys"] += 1
        return block_key(*args)

    monkeypatch.setattr(cli, "block_key", counting)
    counts = []
    for p in ("3", "5", "3"):
        argv = ["verify", "linkage", "--m", "2", "--n", "2", "--p", p, "--seed", "4"]
        calls["keys"] = 0
        code, out = run_cli(capsys, *argv)
        fresh = _module_run(argv, timeout=60)
        assert code == fresh.returncode == 0
        assert out == fresh.stdout
        counts.append(calls["keys"])
    # a table that outlived its run would key nothing the second time at p = 3
    assert counts[0] == counts[2] > 0


def _per_pair_linkage_entries(m, n, p, count, seed):
    """verify linkage as it ran before block keys: every pair of dominant
    shifts of a weight filtered through even_linked."""
    rng = random.Random(seed)
    entries = []
    for _ in range(count):
        w = random_dominant_weight(m, n, rng, max_entry=6)
        ok = all(
            omega_via_form(w, i, j) == omega(w, i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
        )
        entries.append({"rule": "omega-bridge", "weight": render_weight(w), "ok": ok})
    for w in cli._dominant_weights(m, n, 3, 1):
        shifts = {}
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                shifted = lambda_ij(w, i, j)
                if is_dominant(shifted):
                    shifts[i, j] = shifted
        for ((i, j), a), ((k, l), b) in combinations(shifts.items(), 2):
            if not even_linked(a, b, p):
                continue
            entries.append(
                {
                    "rule": "residue-transport",
                    "weight": render_weight(w),
                    "pairs": [[i, j], [k, l]],
                    "p": p,
                    "ok": nakayama_consequence_check(w, i, j, k, l, p),
                }
            )
    for w in cli._dominant_weights(m, n, 2, 1):
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
    return entries


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_linkage_suite_equals_the_per_pair_sweep(m, n, p):
    args = build_parser().parse_args(
        ["verify", "linkage", "--m", str(m), "--n", str(n), "--p", str(p), "--count", "5",
         "--seed", "7"]
    )
    entries = suite_linkage(args, random.Random(7))["entries"]
    assert entries == _per_pair_linkage_entries(m, n, p, 5, 7)
    # with six cells or more some shifts share an even block at both primes
    assert m * n < 6 or any(e["rule"] == "residue-transport" for e in entries)


HUGE = "1" + "0" * 30


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemmas", "--m", "1000000", "--n", "1"],
        ["verify", "identities", "--m", HUGE],
        ["verify-identities", "--m", "9"],
        ["verify", "gen", "--n", "1000000", "--count", "1"],
        ["verify", "phi1", "--m", HUGE],
        ["verify", "phi1", "--m", "1000000", "--count", "0"],
    ],
)
def test_ring_sizes_past_the_cap_are_usage_errors(capsys, argv):
    # these ran out of memory (or, at 10**30, never returned) building the ring
    assert main(argv) == 2
    assert f"{RING_SIZE_CAP} (RING_SIZE_CAP)" in _one_json_error_line(capsys)["error"]


# every form that builds a ring from --lambda, with the options it needs
LAMBDA_RING_FORMS = [
    ["emit", "highest-vector"],
    ["emit", "pi-ij", "--i", "1", "--j", "1"],
    ["emit", "pi-IJ", "--pairs", "[[1,1]]"],
    ["primitive", "--i", "1", "--j", "1"],
    ["primitive-k", "--pairs", "[[1,1]]"],
    ["phi1"],
    ["verify", "phi1"],
]


@pytest.mark.parametrize("form", LAMBDA_RING_FORMS,
                         ids=lambda form: "-".join(w for w in form if w[0].isalpha()))
@pytest.mark.parametrize("literal", ["[0,0,0,0,0,0,0,0,0|0]", "[0|0,0,0,0,0,0,0,0,0]"],
                         ids=["plus", "minus"])
def test_lambda_blocks_past_the_cap_are_usage_errors(capsys, form, literal):
    # a --lambda literal sized its ring with no check: the plus block here
    # made emit highest-vector exit 0
    assert main([*form, "--lambda", literal]) == 2
    assert f"{RING_SIZE_CAP} (RING_SIZE_CAP)" in _one_json_error_line(capsys)["error"]


def test_a_640_entry_block_exits_2_at_once():
    # the ring's packing tables take time that grows as the fourth power of
    # its size: this literal was still building them after 100 s
    literal = "[" + ",".join(["0"] * 640) + "|0]"
    proc = _module_run(["emit", "highest-vector", "--lambda", literal], 30)
    assert f"{RING_SIZE_CAP} (RING_SIZE_CAP)" in _one_error_line(proc)


def test_verify_phi1_builds_its_ring_before_drawing_a_weight():
    # a weight drawn first would have 10**30 plus entries
    proc = _module_run(["verify", "phi1", "--m", HUGE], 30)
    assert f"{RING_SIZE_CAP} (RING_SIZE_CAP)" in _one_error_line(proc)


@pytest.mark.parametrize("outer", [HUGE, "1000000", f"{LR_CELL_CAP},1"])
def test_lr_shapes_past_the_cell_cap_are_usage_errors(capsys, outer):
    assert main(["lr", "--outer", outer, "--content", outer]) == 2
    assert "LR_CELL_CAP" in _one_json_error_line(capsys)["error"]


def test_lr_at_the_cell_cap_still_counts(capsys):
    code, doc = run_json(capsys, "lr", "--outer", str(LR_CELL_CAP), "--content", str(LR_CELL_CAP))
    assert (code, doc["count"], doc["flag"]) == (0, 1, None)


def test_unbounded_chain_search_exits_2_naming_the_cap(capsys):
    # every step along (1,1) keeps its grid entry at 0, so a million steps
    # reached weights without end
    argv = ["linkage", "--lambda", "[2,1|1,0]", "--mu", "[0,0|0,0]", "--p", "3"]
    assert main(argv + ["--max-steps", "1000000"]) == 2
    assert f"cap of {CHAIN_NODE_CAP} weights" in _one_json_error_line(capsys)["error"]


def test_verify_lemmas_takes_both_sizes_or_neither(capsys):
    # one size alone used to run the four default sizes and echo the size given
    for size in ("--m", "--n"):
        assert main(["verify", "lemmas", size, "1"]) == 2
        error = _one_json_error_line(capsys)["error"]
        assert "--m" in error and "--n" in error


@pytest.mark.parametrize(
    "argv, options",
    [
        # identities fixes n = 1, and phi1 and identities draw --count only
        # when neither --lambda nor --m fixes what they check
        (["verify", "identities", "--m", "1", "--n", "7"], ["--n"]),
        (["verify", "identities", "--m", "1", "--count", "3"], ["--count", "--m"]),
        (["verify", "phi1", "--lambda", "[2,1|1,0]", "--count", "2"], ["--count", "--lambda"]),
    ],
)
def test_options_a_suite_ignores_on_some_path_are_usage_errors(capsys, argv, options):
    assert main(argv) == 2
    error = _one_json_error_line(capsys)["error"]
    assert all(option in error for option in options)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["odd-chain", "--lambda", "[2,1|2,0]", "--pairs", "[[true,1]]", "--p", "3"],
         "integer pairs"),
        (["emit", "pi-IJ", "--lambda", "[4,3|1,0]", "--pairs", "[[1.0,1]]"], "integer pairs"),
        (["odd-chain", "--lambda", "[2,1|2,0]", "--pairs", f"[[{'1' * 5000},1]]", "--p", "3"],
         "--pairs must be JSON"),
        (["lr", "--outer", "[2.9,1.5]", "--content", "[1,1]"], "partition literal"),
        (["lr", "--outer", "[2,1]", "--content", "[true,false,1]"], "partition literal"),
        (["lr", "--outer", "[1e400]", "--content", "1"], "partition literal"),
        (["lr", "--outer", "[2,1]", "--inner", '["1"]', "--content", "2"], "partition literal"),
        (["lr", "--outer", f"[{'1' * 5000}]", "--content", "1"], "partition literal"),
    ],
)
def test_index_and_partition_literals_take_json_integers_only(capsys, argv, message):
    # booleans and floats used to pass as indices or be truncated to parts;
    # infinite and over-long numbers ended in a traceback
    assert main(argv) == 2
    assert message in _one_json_error_line(capsys)["error"]


@pytest.mark.parametrize(
    "argv, ascii_argv",
    [
        (["typicality", "--lambda", "[\u0663,1|1,0]"], ["typicality", "--lambda", "[3,1|1,0]"]),
        (["lr", "--outer", "1_0", "--content", "1_0"], ["lr", "--outer", "10", "--content", "10"]),
        (["lr", "--outer", "+2, 1", "--content", "2,1"], ["lr", "--outer", "2, 1", "--content", "2,1"]),
        (["primitive", "--lambda", "[2,1|1,0]", "--i", "\u0661", "--j", "1"],
         ["primitive", "--lambda", "[2,1|1,0]", "--i", "1", "--j", "1"]),
        (["alcove", "--lambda", "[2,1|1,0]", "--p", "+3"],
         ["alcove", "--lambda", "[2,1|1,0]", "--p", "3"]),
    ],
)
def test_numerals_are_an_optional_minus_and_ascii_digits(capsys, argv, ascii_argv):
    # int() and \d also took Unicode digits, '_' and '+': an Arabic-Indic
    # three read as 3, and 1_0 as 10
    try:
        code = main(argv)
    except SystemExit as exc:  # an integer option is refused by the parser
        code = exc.code
    assert code == 2
    _one_json_error_line(capsys)
    assert main(ascii_argv) == 0
    assert json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("literal", [f"[{'1' * 5000}|0]", f"[2,1|1,-{'1' * 5000}]"])
def test_weight_literals_with_over_long_entries_are_usage_errors(capsys, literal):
    # int() refuses more than 4,300 digits; the refusal used to end in a
    # ValueError traceback with exit 1
    assert main(["typicality", "--lambda", literal]) == 2
    assert "too many digits" in _one_json_error_line(capsys)["error"]


EVERY_OPTION = sorted({option for form in cli.COMMANDS for option in cli.form_options(form)})


@pytest.mark.parametrize("form", list(cli.COMMANDS))
def test_a_form_takes_exactly_the_options_of_its_row(capsys, form):
    reads = cli.form_options(form)
    for option in reads:
        argv = form.split() + [option] + ([] if option == "--tableaux" else ["1"])
        assert build_parser().parse_known_args(argv)[1] == [], argv
    for option in EVERY_OPTION:
        if option in reads:
            continue
        assert main(form.split() + [option, "1"]) == 2, option
        error = _one_json_error_line(capsys)["error"]
        assert error == f"{form} does not read {option}"


def test_options_follow_the_suite_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "1", "--n", "1", "lemmas"])
    assert exc.value.code == 2
    _one_json_error_line(capsys)


def _readme_command_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("superinduce ")
    ]


def test_readme_examples_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 13
    for line in lines:
        args, extra = build_parser().parse_known_args(shlex.split(line, comments=True)[1:])
        assert args.form in cli.COMMANDS and extra == [], line
