import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from oligorep import acceptance, cli, finstruct, kazhdan, oligo
from oligorep.errors import FreenessViolation, InvariantViolation


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def test_catalog_linear_order(capsys):
    report = run_json(capsys, ["catalog", "--class", "linear_order",
                               "--max-base", "5"])
    assert report["count"] == 6
    assert len(report["labels"]) == 6
    assert all(label["sigma_degree"] == 1 for label in report["labels"])


def test_catalog_default_max_base_follows_limits(capsys, monkeypatch):
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"max_base": {"linear_order": 2}}')
    report = run_json(capsys, ["catalog", "--class", "linear_order"])
    assert report["max_base"] == 2
    assert report["count"] == 3


def test_catalog_linear_order_on_300_points(capsys, monkeypatch):
    # the bases' packed elements hold code points above 255
    monkeypatch.setenv("OLIGOREP_LIMITS",
                       '{"max_base": {"linear_order": 300}}')
    report = run_json(capsys, ["catalog", "--class", "linear_order"])
    assert report["max_base"] == 300
    assert report["count"] == len(report["labels"]) == 301


def test_catalog_empty_base_only(capsys):
    report = run_json(capsys, ["catalog", "--class", "graph",
                               "--max-base", "0"])
    assert report["count"] == 1
    assert report["labels"][0]["base_size"] == 0


def test_catalog_csv(capsys):
    code, out = run(capsys, ["catalog", "--class", "pure_set",
                             "--max-base", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split(",")[0] == "base_code"
    assert len(lines) == 5


def test_decompose_pure_cube(capsys):
    report = run_json(capsys, ["decompose", "--class", "pure_set",
                               "--n", "3"])
    assert report["total_degree"] == 13
    assert len(report["terms"]) == 6
    assert report["recursion"]["ok"] is True
    assert report["recursion"]["max_abs_residual"] == 0


def test_decompose_moving_part_has_no_trivial_label(capsys):
    report = run_json(capsys, ["decompose", "--class", "boolean_algebra",
                               "--n", "1", "--x0"])
    assert all(term["base_size"] > 0 for term in report["terms"])


def test_subgroups_listing(capsys):
    report = run_json(capsys, ["subgroups", "--class", "pure_set",
                               "--max-base", "2"])
    assert report["count"] == 4


class TwoTagGraph(finstruct.GraphClass):
    """Graphs with cells for the inherited orbit closure, as in
    ``tests/test_oligo.py``: tag 0 the matching, tag 1 the cross edges."""

    def config_cells(self, base_b, base_c):
        nb, nc = len(base_b), len(base_c)
        cells = [(t, x, y) for t in range(2)
                 for x in range(nb) for y in range(nc)]

        def mask_of(config):
            return sum(1 << ((t * nb + x) * nc + y)
                       for t, pairs in enumerate(config[1:])
                       for x, y in pairs)

        return cells, mask_of


@pytest.mark.parametrize("class_id, max_base, count", [
    ("vector_space", 1, 2),
    ("graph", 3, 18),
], ids=["vector_space", "graph"])
def test_cosets_listing(capsys, class_id, max_base, count):
    # graph profiles hold packed witnesses, so the listing decodes them;
    # the reference is the orbit closure every class inherits.  The finite
    # count, read once per run of witnesses, must equal the count over
    # every decoded witness and the brute-force |K\Aut(B)/K|
    report = run_json(capsys, ["cosets", "--class", class_id,
                               "--max-base", str(max_base)])
    subs = oligo.enumerate_open_subgroups(class_id, max_base)
    assert report["count"] == len(subs) == count
    cls = finstruct.get_class(class_id)
    for pair, v in zip(report["pairs"], subs):
        assert pair["subgroup"] == v.to_json()
        assert pair["profile"]["count"] == len(
            pair["profile"]["witnesses"])
        per_witness = sum(
            1 for config in oligo.double_coset_profile(v).configs
            if oligo.finitely_many_left_cosets(v, config))
        assert pair["finite_left_classes"] == per_witness == (
            acceptance._double_coset_count(v.aut, v.group)), v
        reps = finstruct.FraisseClass.double_coset_reps(
            TwoTagGraph() if class_id == "graph" else cls,
            v.base, v.group, v.base, v.group)
        assert pair["profile"]["witnesses"] == [
            {"class": class_id, "payload": json.loads(json.dumps(config))}
            for config in sorted(reps)]


def test_kazhdan_relational_report(capsys):
    report = run_json(capsys, ["kazhdan", "--class", "pure_set",
                               "--depth", "4", "--trials", "50"])
    assert report["Q"] == [[1], [2]]
    assert report["tree"]["conditions_ok"] is True
    assert report["tree"]["level_sizes"] == [1, 4, 16, 128]
    assert report["freeness"]["pass"] is True
    trials = report["displacement_trials"]
    assert trials["count"] == 50
    assert trials["at_least_half"] is True
    assert Fraction(trials["min_value"]) >= Fraction(1, 2)


def test_kazhdan_without_tree_for_algebraic_class(capsys):
    report = run_json(capsys, ["kazhdan", "--class", "vector_space"])
    assert "tree" not in report
    assert report["freeness"]["pass"] is True


def test_kazhdan_graph_cayley_section(capsys):
    report = run_json(capsys, ["kazhdan", "--class", "graph",
                               "--seed", "7", "--trials", "50",
                               "--depth", "4"])
    assert report["cayley"]["edge_invariance"] is True
    assert 0 <= Fraction(report["cayley"]["extension_rate"]) <= 1


def test_kazhdan_report_names_its_seed(capsys):
    argv = ["kazhdan", "--class", "graph", "--depth", "1", "--trials", "1",
            "--words", "1"]
    outs = [run(capsys, argv + ["--seed", seed]) for seed in ("0", "1")]
    assert [code for code, _ in outs] == [0, 0]
    assert outs[0][1] != outs[1][1]
    assert json.loads(outs[1][1])["seed"] == 1


def test_output_file_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _ = run(capsys, ["decompose", "--class", "graph", "--n", "2",
                               "--out", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert not (tmp_path / "a.json.tmp").exists()


@pytest.mark.parametrize("target", ["missing/x.json", "directory"])
def test_unwritable_out_exits_one_and_leaves_no_temp_file(
        tmp_path, capsys, target):
    # a missing parent fails to open the temp file; an existing directory
    # takes the temp file but refuses the rename
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    code = cli.main(["catalog", "--class", "pure_set", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"oligorep: error: cannot write {out}: " + (
        "No such file or directory\n" if "/" in target
        else "Is a directory\n")
    assert "Traceback" not in captured.err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["catalog"])
    assert info.value.code == 1
    code, _ = run(capsys, ["catalog", "--class", "not_a_class"])
    assert code == 1
    code, _ = run(capsys, ["kazhdan", "--class", "pure_set",
                           "--format", "csv"])
    assert code == 1


@pytest.mark.parametrize("cls", ["pure_set", "linear_order", "graph",
                                 "vector_space"])
@pytest.mark.parametrize("flag", ["--depth", "--trials", "--words",
                                  "--degree"])
def test_kazhdan_counts_below_one_exit_one(capsys, cls, flag):
    code, out = run(capsys, ["kazhdan", "--class", cls, flag, "0"])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("raw", ['{bad', '[1]', '{"tree_nodes": -5}',
                                 '{"max_base": {"graph": -1}}',
                                 '{"max_base": {"grph": 3}}',
                                 '{"subgroup_order": 0}'])
def test_malformed_limits_exit_one(capsys, monkeypatch, raw):
    monkeypatch.setenv("OLIGOREP_LIMITS", raw)
    code, out = run(capsys, ["catalog", "--class", "pure_set",
                             "--max-base", "1"])
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["catalog", "--class", "pure_set"],
    ["decompose", "--class", "pure_set", "--n", "2"],
    ["subgroups", "--class", "pure_set"],
    ["cosets", "--class", "pure_set"],
    ["kazhdan", "--class", "vector_space"],
    ["selftest"]], ids=lambda argv: argv[0])
def test_every_verb_exits_one_on_malformed_limits(capsys, monkeypatch, argv):
    # the stub criterion reads no limit, so only the read before dispatch
    # can refuse them
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("1", "stub", 10.0, lambda: (True, {})),))
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"table_order": 0}')
    assert run(capsys, argv) == (1, "")


def test_no_function_takes_a_limit_argument():
    # limits come from get_limits() where they bind, never from a caller
    src = Path(cli.__file__).parent
    taking = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)]
                if "limit" in names:
                    taking.append(f"{path.name}:{node.lineno}")
    assert taking == []


def test_size_limit_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"tree_nodes": 50}')
    code, _ = run(capsys, ["kazhdan", "--class", "pure_set",
                           "--depth", "6"])
    assert code == 2


def test_a_tree_past_the_node_budget_exits_two(capsys, monkeypatch):
    monkeypatch.delenv("OLIGOREP_LIMITS", raising=False)
    assert cli.main(["kazhdan", "--class", "graph", "--depth", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("oligorep: size limit: tree would exceed 400000 "
                            "nodes at level 8; lower the depth\n")


@pytest.mark.parametrize("cls", ["pure_set", "vector_space"])
def test_a_word_ball_past_the_budget_exits_two(capsys, monkeypatch, cls):
    # ball(5) holds 485 words and ball(4) 161: the count is refused before
    # any word is built, on the shared sweep and on the per-point loop
    monkeypatch.setenv("OLIGOREP_LIMITS", '{"ball_words": 200}')

    def refuse(*args):
        raise AssertionError("built words before counting them")

    refuse.__wrapped__ = refuse
    with monkeypatch.context() as patch:
        patch.setattr(kazhdan, "ball", refuse)
        assert cli.main(["kazhdan", "--class", cls, "--words", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "oligorep: size limit: ball(5) would hold 2*3^5 - 1 words, beyond "
        "the 200 word budget; lower the word length\n")
    code, _ = run(capsys, ["kazhdan", "--class", cls, "--words", "4"])
    assert code == 0


def test_out_of_memory_exits_two(capsys, monkeypatch):
    # a profile too large for the process is a size limit, reported in one
    # line, not a traceback under the usage code
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(oligo, "double_coset_profile", exhausted)
    assert cli.main(["cosets", "--class", "graph"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oligorep: size limit: out of memory\n"
    assert "Traceback" not in captured.err


def refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before checking the length")

    monkeypatch.setattr(finstruct, "set_partitions", refuse)
    monkeypatch.setattr(finstruct, "_relation_spaces", refuse)
    monkeypatch.setattr(finstruct.GraphClass, "_enumerate_nonempty", refuse)


@pytest.mark.parametrize("cls, n, code", [("boolean_algebra", "5", 2),
                                           ("graph", "9", 2),
                                           ("graph", "8", 2),
                                           ("vector_space", "8", 2),
                                           ("vector_space_q3", "7", 2),
                                           ("graph", "-1", 1),
                                           ("vector_space", "-1", 1)])
def test_decompose_refuses_a_tuple_length_before_enumerating(
        capsys, monkeypatch, cls, n, code):
    # 2**32 cell patterns or 2**36 graphs on nine blocks would never finish;
    # 8! and |GL(8, 2)| or |GL(7, 3)| are beyond the table bound
    refuse_enumeration(monkeypatch)
    argv = ["decompose", "--class", cls, "--n", n]
    assert run(capsys, argv) == (code, "")
    assert run(capsys, argv + ["--x0"]) == (code, "")


@pytest.mark.parametrize("cls, n, code", [("graph", "1000000000", 2),
                                           ("vector_space", "100000", 2),
                                           ("vector_space_q3", "100000", 2),
                                           ("graph", "9", 2),
                                           ("graph", "-1", 1)])
def test_decompose_checks_the_tuple_length_before_the_group_order(
        capsys, monkeypatch, cls, n, code):
    # (10**9)! or |GL(10**5, 2)| alone would exhaust time and memory
    def refuse(*args):
        raise AssertionError("formed the group order before the length check")

    refuse_enumeration(monkeypatch)
    monkeypatch.setattr(type(finstruct.get_class(cls)), "max_aut_order",
                        refuse)
    argv = ["decompose", "--class", cls, "--n", n]
    assert run(capsys, argv) == (code, "")
    assert run(capsys, argv + ["--x0"]) == (code, "")


def test_decompose_refuses_the_recursion_power_first(capsys, monkeypatch):
    # the 7th power's hulls have at most 7! automorphisms, within the table
    # bound, but the recursion check forms the 8th power; with --x0 there
    # is no recursion and the 7th power runs
    refuse_enumeration(monkeypatch)
    assert run(capsys, ["decompose", "--class", "graph", "--n", "7"]) == (
        2, "")


def test_decompose_refusal_names_the_recursion_power(capsys):
    # --n 4 itself is within desk scale; its recursion check is not
    code = cli.main(["decompose", "--class", "boolean_algebra", "--n", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "oligorep: size limit: the recursion check of --n 4 forms the 5th "
        "power: tuple length 5 beyond desk scale for boolean_algebra; --x0 "
        "runs --n 4 without it\n")
    assert run(capsys, ["decompose", "--class", "boolean_algebra", "--n",
                        "4", "--x0"])[0] == 0


@pytest.mark.parametrize("argv", [
    ["catalog", "--class", "pure_set", "--max-base", "-1"],
    ["subgroups", "--class", "graph", "--max-base", "-2"],
    ["cosets", "--class", "pure_set", "--max-base", "-1"]],
    ids=lambda argv: argv[0])
def test_negative_max_base_exits_one(capsys, argv):
    assert run(capsys, argv) == (1, "")


def test_invariant_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli.oligo, "tensor_recursion_check",
                        lambda *a, **k: {"ok": False})
    code, _ = run(capsys, ["decompose", "--class", "pure_set", "--n", "2"])
    assert code == 3


@pytest.mark.parametrize("class_id, certificate, error", [
    ("pure_set", "greedy_witness", InvariantViolation(
        "certified displacement 1/4 below the guaranteed bound 5/8")),
    ("vector_space", "freeness_check", FreenessViolation(
        "word (1,) fixes point () in vector_space")),
], ids=["walk", "freeness"])
def test_kazhdan_exits_three_on_a_broken_certificate(
        capsys, monkeypatch, class_id, certificate, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(kazhdan, certificate, broken)
    code = cli.main(["kazhdan", "--class", class_id])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"oligorep: invariant failure: {error}\n"


@pytest.mark.parametrize("degree", ["1", "2"])
def test_kazhdan_order_undecided_at_a_low_degree_exits_three(capsys, degree):
    # at degree 1 the density comparison of the identity with a commutator
    # is counted as undecided, as every other comparison of the check is
    code = cli.main(["kazhdan", "--class", "linear_order", "--degree", degree])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "oligorep: invariant failure: order axioms failed on a sample\n")


def test_kazhdan_exits_three_when_the_order_axioms_fail(capsys, monkeypatch):
    # an order that answers "<" to every comparison is not antisymmetric
    monkeypatch.setattr(kazhdan, "magnus_compare",
                        lambda u, v, max_degree=10: "<")
    code = cli.main(["kazhdan", "--class", "linear_order", "--trials", "50"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "oligorep: invariant failure: order axioms failed on a sample\n")


def test_kazhdan_exits_three_when_the_tree_fails_verification(
        capsys, monkeypatch):
    verify = kazhdan.KazhdanTree.verify
    monkeypatch.setattr(kazhdan.KazhdanTree, "verify",
                        lambda tree: {**verify(tree), "ok": False})
    code = cli.main(["kazhdan", "--class", "pure_set", "--depth", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "oligorep: invariant failure: tree conditions failed verification\n")


def test_selftest_exit_codes(capsys, monkeypatch):
    rows = [{"id": "1", "desc": "stub", "passed": True, "elapsed": 0.0,
             "details": {}}]
    monkeypatch.setattr("oligorep.acceptance.run_all", lambda: rows)
    report = run_json(capsys, ["selftest"])
    assert report["ok"] is True
    assert "elapsed" not in report["criteria"][0]

    rows[0]["passed"] = False
    code, _ = run(capsys, ["selftest"])
    assert code == 3


def test_selftest_stdout_is_the_json_report(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("1", "stub", 10.0, lambda: (True, {"checked": 1})),))
    code = cli.main(["selftest"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["ok"] is True
    assert report["criteria"][0]["details"] == {"checked": 1}
    assert captured.err.startswith("criterion 1: PASS (")
    assert "s / budget 10.0s, " in captured.err
    assert "%) - stub" in captured.err
