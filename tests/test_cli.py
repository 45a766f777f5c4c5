import json
import subprocess
import sys

import pytest

from superinduce.cli import build_parser, main
from superinduce.floors_primitives import (
    FloorElement,
    fe_eq,
    floor_decompose,
    pi_ij,
)
from superinduce.fraction import parse_loc
from superinduce.superpoly import ambient
from superinduce.weights_tableaux import make_weight


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
    from superinduce.cli import _finish

    class Args:
        out = None

    assert _finish(Args(), {"command": "x"}, 0) == 0
    capsys.readouterr()
    assert _finish(Args(), {"command": "x"}, 3) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["failures"] == 3


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


def test_parser_covers_mandated_grammar():
    parser = build_parser()
    args = parser.parse_args(
        ["verify", "phi1", "--m", "2", "--n", "2", "--p", "3", "--lambda", "[2,1|1,0]", "--seed", "9"]
    )
    assert args.suite == "phi1" and args.seed == 9
    args = parser.parse_args(["emit", "pi-IJ", "--lambda", "[4,3|1,0]", "--pairs", "[[1,1]]"])
    assert args.kind == "pi-IJ"


def test_module_entry_point_subprocess():
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
