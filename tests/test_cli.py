import json
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from taurank.algebra import MAX_RESIDUES, MAX_TIP_INSERTS
from taurank.cli import main
from taurank.io import MAX_MODULE_DIM, module_from_expr, module_to_dict
from taurank.examples_suite import cok_f_100
from taurank.fixtures import FIXTURE_NAMES, FIXTURE_SOURCES, load_fixture
from taurank.reps import direct_sum

from helpers import commutative_square


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_info_fixture(capsys):
    code, out = run(capsys, ["info", "ALG-A"])
    assert code == 0
    assert "dim A = 12" in out
    assert "(1, 0, 0)" in out and "(3, 1, 0)" in out and "(3, 3, 1)" in out


def test_info_json_deterministic(capsys):
    code1, out1 = run(capsys, ["info", "ALG-B", "--json"])
    code2, out2 = run(capsys, ["info", "ALG-B", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["dim"] == 5


def test_info_algebra_file(capsys, tmp_path):
    qa = tmp_path / "kron.qa"
    qa.write_text("vertices: 1 2\narrow u: 2 -> 1\narrow v: 2 -> 1\n")
    code, out = run(capsys, ["info", str(qa)])
    assert code == 0
    assert "dim A = 4" in out


def test_info_malformed_file_exits_2(capsys, tmp_path):
    qa = tmp_path / "bad.qa"
    qa.write_text("vertices: 1 2\narrow a: 1 => 2\n")
    code, _ = run(capsys, ["info", str(qa)])
    assert code == 2


def run_bounded(argv, timeout=20):
    """The CLI in a child process with 800 MB of address space."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run(
        [sys.executable, "-m", "taurank.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20)),
    )


def test_info_on_a_free_algebra_exits_2_at_the_residue_cap(tmp_path):
    # k<x, y> has 2^L paths of length L; the build must stop at the cap,
    # long before the depth limit, in a process with 800 MB of address space
    qa = tmp_path / "free.qa"
    qa.write_text("vertices: 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n")
    proc = run_bounded(["info", str(qa)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_one_error_line(proc.stderr)
    assert f"more than {MAX_RESIDUES} path residues" in proc.stderr


def test_info_on_a_large_ideal_exits_2_at_the_insert_cap(tmp_path):
    # k[x, y]/(x^10, y^10, xy - yx) has dimension 100, but closing its
    # ideal visits nearly every path of length below 19
    qa = tmp_path / "square.qa"
    qa.write_text(commutative_square(10))
    proc = run_bounded(["info", str(qa)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_one_error_line(proc.stderr)
    assert f"more than {MAX_TIP_INSERTS} tip-table inserts" in proc.stderr


def test_info_on_an_ideal_that_does_not_close_exits_2(tmp_path):
    # terms of unlike lengths: the closure stops short and the build's
    # associativity check fails; one error line, no traceback
    qa = tmp_path / "unclosed.qa"
    qa.write_text("vertices: 1 2\narrow a: 1 -> 2\narrow b: 2 -> 2\narrow c: 2 -> 2\n"
                  "relations:\nb*a - c*c*a\nb*b\nc*c*c\nb*c\nc*b - 2 c*c\n")
    proc = run_bounded(["info", str(qa)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_one_error_line(proc.stderr)
    assert "the relation ideal did not close (associativity fails" in proc.stderr


def test_info_missing_file_exits_2(capsys):
    code, _ = run(capsys, ["info", "/nonexistent/path.qa"])
    assert code == 2


def test_check_expression(capsys):
    code, out = run(capsys, ["check", "ALG-B", "S(2)+S(3)", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["tau_regular"] is True
    assert data["tau_rigid"] is False
    assert data["proj_dim"]["value"] == 2


def test_check_projective_all_yes(capsys):
    code, out = run(capsys, ["check", "ALG-A", "P(2)", "--json"])
    assert code == 0
    data = json.loads(out)
    assert all(
        data[k] for k in
        ["projective", "pd_le_1", "rigid", "tau_rigid", "partial_tilting", "tau_regular"]
    )


def test_check_module_file_certified_no(capsys, tmp_path, alg_a):
    m = cok_f_100(alg_a)
    mm = direct_sum([m, m])
    path = tmp_path / "double.mod.json"
    path.write_text(json.dumps(module_to_dict(mm)))
    code, out = run(capsys, ["check", "ALG-A", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["outcome"] == "certified-no"
    assert data["verdict"]["witness_rank"] == 8


def test_check_on_a_module_past_the_size_cap_exits_3():
    # I(1)^40 over ALG-A has dimension 280; its Hom system once ran out of
    # memory, so the loader must refuse it before building any of it
    proc = run_bounded(["check", "ALG-A", "I(1)^40"], timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert_one_error_line(proc.stderr)
    assert f"total dimension 280 is above the cap of {MAX_MODULE_DIM}" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["hom", "ALG-A", "S(2)", "S(2)^1000000000000"],
    ["reduce", "ALG-B", "{file}"],
])
def test_module_inputs_past_the_size_cap_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "big.mod.json"
    path.write_text(json.dumps({"dim": [MAX_MODULE_DIM, 1, 0], "arrows": {}}))
    code, err = run_err(capsys, [a.format(file=path) for a in argv])
    assert code == 3
    assert_one_error_line(err)
    assert f"is above the cap of {MAX_MODULE_DIM}" in err


def test_a_module_at_the_size_cap_is_read(capsys):
    code, out = run(capsys, ["check", "ALG-K", f"S(1)^{MAX_MODULE_DIM}", "--json"])
    assert code == 0
    assert json.loads(out)["dim"] == [MAX_MODULE_DIM, 0]


def test_check_invalid_module_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.mod.json"
    bad.write_text(json.dumps({
        "algebra": "ALG-B",
        "dim": [1, 1, 1],
        "arrows": {"a": [[1]], "b": [[1]]},
    }))
    code, _ = run(capsys, ["check", "ALG-B", str(bad)])
    assert code == 3


def test_hom_command(capsys):
    code, out = run(capsys, ["hom", "ALG-A", "P(2)", "P(3)", "--json"])
    assert code == 0
    assert json.loads(out)["hom_dim"] == 3


def test_ext1_command(capsys):
    code, out = run(capsys, ["ext1", "ALG-B", "S(2)", "S(1)", "--json"])
    assert code == 0
    assert json.loads(out)["ext1_dim"] == 1


def test_tau_command(capsys):
    code, out = run(capsys, ["tau", "ALG-B", "S(2)", "--json"])
    assert code == 0
    assert json.loads(out)["dim"] == [1, 0, 0]
    code, out = run(capsys, ["tau", "ALG-B", "S(1)", "--minus", "--json"])
    assert code == 0
    assert json.loads(out)["dim"] == [0, 1, 0]


def test_scan_alg_a_exits_10(capsys):
    code, out = run(capsys, [
        "scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1",
        "--tmax", "2", "--json",
    ])
    assert code == 10
    data = json.loads(out)
    assert data["r"] == [3, 8]
    assert data["violations"] == [2]


def test_scan_kronecker_exits_0(capsys):
    code, out = run(capsys, [
        "scan", "ALG-K", "--p1", "0,1", "--p0", "1,1", "--tmax", "4",
        "--trials", "4", "--json",
    ])
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_scan_zero_target(capsys):
    code, out = run(capsys, [
        "scan", "ALG-B", "--p1", "1,0,0", "--p0", "0,0,0", "--tmax", "3", "--json",
    ])
    assert code == 0
    assert json.loads(out)["r"] == [0, 0, 0]


def test_scan_json_deterministic(capsys):
    argv = ["scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1", "--tmax", "2",
            "--seed", "7", "--json"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


def test_reduce_annihilator_mode(capsys):
    code, out = run(capsys, ["reduce", "ALG-B0", "P(2)+I(2)+S(3)", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["pd_A"]["value"] == 1
    assert data["pd_B"]["value"] == 2
    assert data["tau_regular_A"]["outcome"] == "certified-yes"
    assert data["tau_regular_B"]["outcome"] == "certified-no"
    assert data["e_B"] <= data["e_A"] and data["E_B"] <= data["E_A"]


def test_reduce_ideal_file(capsys, tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("a*b\n")
    code, out = run(capsys, [
        "reduce", "ALG-B0", "P(2)+I(2)+S(3)", "--ideal", str(ideal), "--json",
    ])
    assert code == 0
    assert json.loads(out)["quotient_dim"] == 5


def test_reduce_zero_ideal_reproduces_check(capsys, tmp_path):
    # quotient by 0: both sides agree with the plain check
    ideal = tmp_path / "zero.txt"
    ideal.write_text("# nothing\n")
    code, out = run(capsys, [
        "reduce", "ALG-B", "S(2)+S(3)", "--ideal", str(ideal), "--json",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["pd_A"] == data["pd_B"]
    assert data["tau_regular_A"]["outcome"] == data["tau_regular_B"]["outcome"]


def test_reduce_non_annihilating_exits_4(capsys, tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("a\n")
    code, _ = run(capsys, ["reduce", "ALG-B0", "P(2)", "--ideal", str(ideal)])
    assert code == 4


def test_paper_examples_pass(capsys):
    code, out = run(capsys, ["paper-examples", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert len(data["checks"]) == 10


def test_paper_examples_adversarial_seed_keeps_certified(capsys):
    # probable-yes may appear, but certified expectations must not flip
    code, out = run(capsys, ["paper-examples", "--trials", "1", "--seed", "13"])
    assert code == 0


def test_module_expr_powers(alg_a):
    m = module_from_expr(alg_a, "P(1)^2+I(2)")
    assert m.dims[0] >= 2


def test_fp_mode_hom(capsys):
    code, out = run(capsys, ["hom", "ALG-A", "P(2)", "P(3)", "--field", "fp:10007",
                             "--json"])
    assert code == 0
    assert json.loads(out)["hom_dim"] == 3


def run_err(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.err


def assert_one_error_line(err):
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_scan_trials_zero_exits_2(capsys):
    code, err = run_err(capsys, ["scan", "ALG-K", "--p1", "1,0", "--p0", "0,1",
                                 "--trials", "0"])
    assert code == 2
    assert_one_error_line(err)


def test_scan_tmax_zero_exits_2(capsys):
    code, err = run_err(capsys, ["scan", "ALG-K", "--p1", "1,0", "--p0", "0,1",
                                 "--tmax", "0"])
    assert code == 2
    assert_one_error_line(err)


def test_check_cap_zero_exits_2(capsys):
    code, err = run_err(capsys, ["check", "ALG-B", "S(2)", "--cap", "0"])
    assert code == 2
    assert_one_error_line(err)


def run_rejected(capsys, argv):
    """(exit code, stderr) of a command line that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


def test_cap_belongs_to_check_and_reduce_only(capsys):
    code, err = run_err(capsys, ["reduce", "ALG-B", "S(2)", "--cap", "0"])
    assert code == 2
    assert_one_error_line(err)
    for argv in (["scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1", "--cap", "3"],
                 ["paper-examples", "--cap", "3"]):
        code, err = run_rejected(capsys, argv)
        assert code == 2
        assert_one_error_line(err)
        assert "unrecognized arguments: --cap 3" in err


@pytest.mark.parametrize("argv, message", [
    (["hom", "ALG-B", "S(1)"], "taurank hom: the following arguments are required: other"),
    ([], "taurank: the following arguments are required: command"),
    (["check", "ALG-B", "S(1)", "--trials", "x"], "invalid int value: 'x'"),
], ids=["missing-positional", "no-command", "bad-int"])
def test_rejected_command_line_prints_one_error_line(capsys, argv, message):
    code, err = run_rejected(capsys, argv)
    assert code == 2
    assert_one_error_line(err)
    assert message in err


TWO_PATHS = ("vertices: 1 2 3\narrow a1: 2 -> 1\narrow a2: 2 -> 1\n"
             "arrow b1: 3 -> 2\narrow b2: 3 -> 2\nrelations:\n")


def test_a_repeated_relation_word_sums_its_coefficients(capsys, tmp_path):
    # a1*b1 - a1*b1 + a2*b2 is the relation a2*b2, so the module with
    # a1 = b1 = 1 is a module over the algebra either text builds
    module = tmp_path / "m.mod.json"
    module.write_text(json.dumps({"dim": [1, 1, 1], "arrows": {"a1": [[1]], "b1": [[1]]}}))
    outs = []
    for name, relation in (("repeated", "a1*b1 - a1*b1 + a2*b2"), ("plain", "a2*b2")):
        qa = tmp_path / f"{name}.qa"
        qa.write_text(TWO_PATHS + relation + "\n")
        outs.append([run(capsys, [cmd, str(qa), *more, "--json"])
                     for cmd, *more in (["info"], ["check", str(module)])])
    assert outs[0] == outs[1]
    assert all(code == 0 for code, _ in outs[0])


def test_a_relation_that_cancels_exits_2(capsys, tmp_path):
    qa = tmp_path / "loop.qa"
    qa.write_text("vertices: 1\narrow x: 1 -> 1\nrelations:\nx*x*x - x*x*x\n")
    code, err = run_err(capsys, ["info", str(qa)])
    assert code == 2
    assert_one_error_line(err)
    assert "empty relation (line 4)" in err


@pytest.mark.parametrize("argv, text", [
    (["info", "zero.qa"], "vertices: 1 2 3\narrow a: 2 -> 1\narrow b: 3 -> 2\nrelations:\n1/0 a*b\n"),
    (["reduce", "ALG-B", "S(2)", "--ideal", "zero.txt"], "1/0 a*b\n"),
], ids=["algebra-file", "ideal-file"])
def test_a_zero_denominator_exits_2(capsys, tmp_path, argv, text):
    path = tmp_path / argv[-1]
    path.write_text(text)
    code, err = run_err(capsys, argv[:-1] + [str(path)])
    assert code == 2
    assert_one_error_line(err)
    assert "zero denominator in '1/0'" in err


def test_field_composite_modulus_exits_2(capsys):
    code, err = run_err(capsys, ["hom", "ALG-B", "S(2)", "S(2)", "--field", "fp:4"])
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("relation", ["a1*b1 - 7 a2*b2", "a1*b1 - 1/7 a2*b2"])
def test_a_prime_that_divides_a_denominator_of_the_algebra_exits_2(capsys, tmp_path, relation):
    # the algebra has the structure constant 1/7, or the relation
    # coefficient -1/7: defined over Q and F_11, but not over F_7
    qa = tmp_path / "x.qa"
    qa.write_text(TWO_PATHS + relation + "\n")
    module = tmp_path / "s3.mod.json"
    module.write_text(json.dumps({"dim": [0, 0, 1], "arrows": {}}))
    m = str(module)
    for command, *rest in (["info"], ["check", m], ["tau", m], ["hom", m, m], ["ext1", m, m],
                           ["scan", "--p1", "0,0,1", "--p0", "1,0,0"]):
        for field in ("q", "fp:11"):
            assert run(capsys, [command, str(qa), *rest, "--field", field])[0] == 0
        code, err = run_err(capsys, [command, str(qa), *rest, "--field", "fp:7"])
        assert code == 2
        assert_one_error_line(err)
        assert "is not defined over F_7: 7 divides a denominator" in err


def test_paper_examples_prime_field_exits_2(capsys):
    code, err = run_err(capsys, ["paper-examples", "--field", "fp", "--json"])
    assert code == 2
    assert_one_error_line(err)


@pytest.mark.parametrize("arrows, field", [
    ({"a1": [["1/0"]]}, "q"),
    ({"a1": [["abc"]]}, "q"),
    ([], "q"),
    ({"a1": 5}, "q"),
    ({"a1": [["1/7"]]}, "fp:7"),
], ids=["zero-denominator", "not-a-number", "arrows-list", "arrow-int", "denominator-mod-p"])
def test_check_malformed_module_file_exits_3(capsys, tmp_path, arrows, field):
    bad = tmp_path / "bad.mod.json"
    bad.write_text(json.dumps({"algebra": "ALG-A", "dim": [1, 1, 0], "arrows": arrows}))
    code, err = run_err(capsys, ["check", "ALG-A", str(bad), "--field", field])
    assert code == 3
    assert_one_error_line(err)


@pytest.mark.parametrize("algebra, data", [
    ("ALG-A", {"dim": [True, 0, 0]}),
    ("ALG-B", {"dim": [1, 1, 0], "arrows": {"a": [[True]]}}),
], ids=["boolean-dim", "boolean-entry"])
@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
def test_check_boolean_module_input_exits_3(capsys, tmp_path, algebra, data, as_json):
    bad = tmp_path / "b.mod.json"
    bad.write_text(json.dumps({"algebra": algebra, **data}))
    argv = ["check", algebra, str(bad)] + (["--json"] if as_json else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert_one_error_line(captured.err)


def test_check_misspelled_arrows_key_exits_3(capsys, tmp_path):
    # read with the key ignored, this would be S(1)+S(2) and exit 0
    bad = tmp_path / "m.mod.json"
    bad.write_text(json.dumps({"dim": [1, 1, 0], "arrow": {"a": [[1]]}}))
    code = main(["check", "ALG-B", str(bad)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "'arrow'" in captured.err


@pytest.mark.parametrize("line", ["e9", "zz", "b*a", "a*(b)"],
                         ids=["unknown-idempotent", "unknown-arrow", "non-composable", "syntax"])
def test_reduce_ideal_unknown_idempotent_exits_2(capsys, tmp_path, line):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text(f"# the bad line is line 2\n{line}\n")
    code, err = run_err(capsys, ["reduce", "ALG-B0", "P(2)+I(2)+S(3)", "--ideal", str(ideal)])
    assert code == 2
    assert_one_error_line(err)
    assert err.count("(line 2") == 1


@pytest.mark.parametrize("argv, code", [
    (["check", "ALG-A", "bad.mod.json"], 3),
    (["info", "bad.qa"], 2),
    (["reduce", "ALG-A", "S(1)", "--ideal", "bad.txt"], 2),
], ids=["module-file", "algebra-file", "ideal-file"])
def test_input_file_that_is_not_utf8_exits_with_one_error_line(capsys, tmp_path, argv, code):
    bad = tmp_path / argv[-1]
    bad.write_bytes(b'{"dim": [1, 0, 0], "x": "caf\xe9"}\n')  # Latin-1, not UTF-8
    got, err = run_err(capsys, argv[:-1] + [str(bad)])
    assert got == code
    assert_one_error_line(err)


def test_reduce_zero_module_exits_3(capsys, tmp_path):
    zero = tmp_path / "zero.mod.json"
    zero.write_text(json.dumps({"algebra": "ALG-A", "dim": [0, 0, 0]}))
    code, err = run_err(capsys, ["reduce", "ALG-A", str(zero)])
    assert code == 3
    assert_one_error_line(err)
    assert "the module is zero" in err


def test_reduce_ideal_with_an_arrow_named_e(capsys, tmp_path):
    qa = tmp_path / "e.qa"
    qa.write_text("vertices: 1 2 3\narrow e: 2 -> 1\narrow x: 3 -> 2\n")
    ideal = tmp_path / "ideal.txt"
    # e*x is a path of two arrows, not the idempotent of a vertex named x
    ideal.write_text("e*x\n")
    code, out = run(capsys, ["reduce", str(qa), "P(2)+S(3)", "--ideal", str(ideal), "--json"])
    assert code == 0
    assert json.loads(out)["quotient_dim"] == 5
    # no arrow is named e1, so e1 still reads as an idempotent; the ideal
    # it generates is spanned by e1, e and e*x, and it kills S(2)
    ideal.write_text("e1\n")
    code, out = run(capsys, ["reduce", str(qa), "S(2)", "--ideal", str(ideal), "--json"])
    assert code == 0
    assert json.loads(out)["ideal_dim"] == 3


def test_scan_negative_oracle_params_exits_2(capsys):
    argv = ["scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1", "--tmax", "2"]
    code, err = run_err(capsys, argv + ["--oracle-params", "-1"])
    assert code == 2
    assert_one_error_line(err)
    # 0 stays valid and runs no oracle, so r(1) is left uncertified
    code, out = run(capsys, argv + ["--oracle-params", "0", "--json"])
    assert code == 11
    assert json.loads(out)["certified"][0] is False


# byte-for-byte outputs of the scanner, pinned across its optimizations
PINNED_SCANS = [
    (["scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1", "--tmax", "3", "--json"], 10,
     '{"certified": [true, true, true], "field": "Q", "methods": ["oracle", '
     '"dimension-bound", "dimension-bound"], "p0": [0, 0, 1], "p1": [0, 1, 0], '
     '"r": [3, 8, 12], "seed": 42, "t_max": 3, "trials": 8, "violations": [2, 3]}\n'),
    (["scan", "ALG-K", "--p1", "1,2", "--p0", "2,1", "--tmax", "3", "--trials", "3",
      "--seed", "11", "--json"], 0,
     '{"certified": [true, true, true], "field": "Q", "methods": ["dimension-bound", '
     '"dimension-bound", "dimension-bound"], "p0": [2, 1], "p1": [1, 2], '
     '"r": [4, 8, 12], "seed": 11, "t_max": 3, "trials": 3, "violations": []}\n'),
    (["scan", "ALG-B0", "--p1", "1,0,1", "--p0", "0,2,1", "--tmax", "4", "--trials", "3",
      "--seed", "7", "--json"], 0,
     '{"certified": [true, true, true, true], "field": "Q", "methods": ["dimension-bound", '
     '"dimension-bound", "dimension-bound", "dimension-bound"], "p0": [0, 2, 1], '
     '"p1": [1, 0, 1], "r": [4, 8, 12, 16], "seed": 7, "t_max": 4, "trials": 3, '
     '"violations": []}\n'),
    (["scan", "ALG-K", "--p1", "2,1", "--p0", "1,2", "--tmax", "3", "--trials", "3",
      "--seed", "11", "--field", "fp", "--json"], 0,
     '{"certified": [true, true, true], "field": "F_2147483647", "methods": '
     '["dimension-bound", "dimension-bound", "dimension-bound"], "p0": [1, 2], '
     '"p1": [2, 1], "r": [5, 10, 15], "seed": 11, "t_max": 3, "trials": 3, '
     '"violations": []}\n'),
]


def test_scan_json_bytes_pinned(capsys):
    for argv, want_code, want_out in PINNED_SCANS:
        code, out = run(capsys, argv)
        assert code == want_code
        assert out == want_out


# byte-for-byte outputs of check, reduce and tau, pinned across the
# call-scoped module analysis: an oracle-certified verdict (cok_f_100 on
# ALG-A, written to a file by the test), certified-no verdicts, an
# infinite and a ">= cap" projective dimension, a prime field, tau^-, and
# a scan whose r(1) only the cancellation of the common summand P(2) + P(3)
# certifies: (P(2), P(3)) has oracle value 3, so r(1) = 3 + dim(P(2) + P(3))
PINNED_CHECKS = [
    (["scan", "ALG-A", "--p1", "0,2,1", "--p0", "0,1,2", "--tmax", "2", "--json"], 10,
     '{"certified": [true, true], "field": "Q", "methods": ["cancellation", '
     '"dimension-bound"], "p0": [0, 1, 2], "p1": [0, 2, 1], "r": [14, 30], "seed": 42, '
     '"t_max": 2, "trials": 8, "violations": [2]}\n'),
    (["scan", "ALG-A", "--p1", "0,2,1", "--p0", "0,1,2", "--tmax", "2"], 10,
     "t=1: r = 14 (certified)\nt=2: r = 30 (certified)  <-- violates additivity\n"),
    (["check", "ALG-A", "cok_f_100.mod.json", "--json"], 0,
     '{"E": 2, "dim": [1, 2, 1], "e": 2, "partial_tilting": false, "pd_le_1": false, '
     '"proj_dim": {"detail": "", "kind": "finite", "value": 2}, "projective": false, '
     '"rigid": false, "tau_regular": true, "tau_rigid": false, "verdict": '
     '{"certified": true, "generic_rank": 3, "method": "oracle", "note": "", '
     '"outcome": "certified-yes", "presentation_rank": 3, "witness_rank": 3}}\n'),
    (["reduce", "ALG-A", "cok_f_100.mod.json", "--json"], 0,
     '{"E_A": 2, "E_B": 0, "e_A": 2, "e_B": 0, "ideal_dim": 4, "pd_A": {"detail": '
     '"", "kind": "finite", "value": 2}, "pd_B": {"detail": "", "kind": "finite", '
     '"value": 0}, "quotient_dim": 8, "tau_regular_A": {"certified": true, '
     '"generic_rank": 3, "method": "oracle", "note": "", "outcome": "certified-yes", '
     '"presentation_rank": 3, "witness_rank": 3}, "tau_regular_B": {"certified": '
     'true, "generic_rank": 0, "method": "dimension-bound", "note": "", "outcome": '
     '"certified-yes", "presentation_rank": 0, "witness_rank": 0}, "tau_rigid_A": '
     'false, "tau_rigid_B": true}\n'),
    (["tau", "ALG-A", "cok_f_100.mod.json", "--json"], 0,
     '{"arrows": {"a1": [], "a2": [], "a3": [], "b1": [[0, 0]], "b2": [[1, 0]], '
     '"b3": [[0, 1]]}, "dim": [0, 1, 2]}\n'),
    (["check", "ALG-A", "I(1)", "--json"], 0,
     '{"E": 10, "dim": [1, 3, 3], "e": 0, "partial_tilting": false, "pd_le_1": '
     'false, "proj_dim": {"detail": "", "kind": "finite", "value": 2}, "projective": '
     'false, "rigid": true, "tau_regular": false, "tau_rigid": false, "verdict": '
     '{"certified": true, "generic_rank": 15, "method": "dimension-bound", "note": '
     '"witness of strictly larger rank found", "outcome": "certified-no", '
     '"presentation_rank": 14, "witness_rank": 15}}\n'),
    (["check", "ALG-C", "S(1)+S(2)", "--json"], 0,
     '{"E": 3, "dim": [1, 1], "e": 3, "partial_tilting": false, "pd_le_1": false, '
     '"proj_dim": {"detail": "syzygy 2 is isomorphic to 2 copies of syzygy 0", '
     '"kind": "infinite", "value": null}, "projective": false, "rigid": false, '
     '"tau_regular": false, "tau_rigid": false, "verdict": {"certified": true, '
     '"generic_rank": 5, "method": "dimension-bound", "note": "witness of strictly '
     'larger rank found", "outcome": "certified-no", "presentation_rank": 3, '
     '"witness_rank": 5}}\n'),
    (["reduce", "ALG-C", "S(1)+S(2)", "--json"], 0,
     '{"E_A": 3, "E_B": 0, "e_A": 3, "e_B": 0, "ideal_dim": 3, "pd_A": {"detail": '
     '"syzygy 2 is isomorphic to 2 copies of syzygy 0", "kind": "infinite", "value": '
     'null}, "pd_B": {"detail": "", "kind": "finite", "value": 0}, "quotient_dim": '
     '2, "tau_regular_A": {"certified": true, "generic_rank": 5, "method": '
     '"dimension-bound", "note": "witness of strictly larger rank found", "outcome": '
     '"certified-no", "presentation_rank": 3, "witness_rank": 5}, "tau_regular_B": '
     '{"certified": true, "generic_rank": 0, "method": "dimension-bound", "note": '
     '"", "outcome": "certified-yes", "presentation_rank": 0, "witness_rank": 0}, '
     '"tau_rigid_A": false, "tau_rigid_B": true}\n'),
    (["tau", "ALG-C", "S(1)+S(2)", "--json"], 0,
     '{"arrows": {"a": [[0, 0], [0, 0], [0, 0], [0, 0]], "b": [[0, 0, -1, 0], [0, 1, '
     '0, 0]], "c": [[1, 0, 0, 0], [0, 0, 1, 0]]}, "dim": [2, 4]}\n'),
    (["check", "ALG-B", "S(2)+S(3)", "--json", "--cap", "1"], 0,
     '{"E": 1, "dim": [0, 1, 1], "e": 1, "partial_tilting": false, "pd_le_1": false, '
     '"proj_dim": {"detail": ">= 1", "kind": "unknown", "value": null}, '
     '"projective": false, "rigid": false, "tau_regular": true, "tau_rigid": false, '
     '"verdict": {"certified": true, "generic_rank": 2, "method": "dimension-bound", '
     '"note": "", "outcome": "certified-yes", "presentation_rank": 2, '
     '"witness_rank": 2}}\n'),
    (["reduce", "ALG-B", "S(2)+S(3)", "--json"], 0,
     '{"E_A": 1, "E_B": 0, "e_A": 1, "e_B": 0, "ideal_dim": 3, "pd_A": {"detail": '
     '"", "kind": "finite", "value": 2}, "pd_B": {"detail": "", "kind": "finite", '
     '"value": 0}, "quotient_dim": 2, "tau_regular_A": {"certified": true, '
     '"generic_rank": 2, "method": "dimension-bound", "note": "", "outcome": '
     '"certified-yes", "presentation_rank": 2, "witness_rank": 2}, "tau_regular_B": '
     '{"certified": true, "generic_rank": 0, "method": "dimension-bound", "note": '
     '"", "outcome": "certified-yes", "presentation_rank": 0, "witness_rank": 0}, '
     '"tau_rigid_A": false, "tau_rigid_B": true}\n'),
    (["check", "ALG-B0", "P(2)+I(2)+S(3)", "--json"], 0,
     '{"E": 2, "dim": [1, 2, 2], "e": 2, "partial_tilting": false, "pd_le_1": true, '
     '"proj_dim": {"detail": "", "kind": "finite", "value": 1}, "projective": false, '
     '"rigid": false, "tau_regular": true, "tau_rigid": false, "verdict": '
     '{"certified": true, "generic_rank": 3, "method": "dimension-bound", "note": '
     '"", "outcome": "certified-yes", "presentation_rank": 3, "witness_rank": 3}}\n'),
    (["reduce", "ALG-B0", "P(2)+I(2)+S(3)", "--json"], 0,
     '{"E_A": 2, "E_B": 1, "e_A": 2, "e_B": 0, "ideal_dim": 1, "pd_A": {"detail": '
     '"", "kind": "finite", "value": 1}, "pd_B": {"detail": "", "kind": "finite", '
     '"value": 2}, "quotient_dim": 5, "tau_regular_A": {"certified": true, '
     '"generic_rank": 3, "method": "dimension-bound", "note": "", "outcome": '
     '"certified-yes", "presentation_rank": 3, "witness_rank": 3}, "tau_regular_B": '
     '{"certified": true, "generic_rank": 2, "method": "dimension-bound", "note": '
     '"witness of strictly larger rank found", "outcome": "certified-no", '
     '"presentation_rank": 1, "witness_rank": 2}, "tau_rigid_A": false, '
     '"tau_rigid_B": false}\n'),
    (["tau", "ALG-B0", "P(2)+I(2)+S(3)", "--json"], 0,
     '{"arrows": {"a": [[1, 0]], "b": [[], []]}, "dim": [1, 2, 0]}\n'),
    (["check", "ALG-K", "S(2)", "--json", "--field", "fp"], 0,
     '{"E": 0, "dim": [0, 1], "e": 0, "partial_tilting": true, "pd_le_1": true, '
     '"proj_dim": {"detail": "", "kind": "finite", "value": 1}, "projective": false, '
     '"rigid": true, "tau_regular": true, "tau_rigid": true, "verdict": '
     '{"certified": true, "generic_rank": 2, "method": "dimension-bound", "note": '
     '"", "outcome": "certified-yes", "presentation_rank": 2, "witness_rank": 2}}\n'),
    (["tau", "ALG-K", "S(2)", "--json"], 0,
     '{"arrows": {"a1": [[0, 0, -1], [0, 1, 0]], "a2": [[1, 0, 0], [0, 0, 1]]}, '
     '"dim": [2, 3]}\n'),
    (["tau", "ALG-K", "S(2)", "--field", "fp", "--json"], 0,
     '{"arrows": {"a1": [[0, 0, 2147483646], [0, 1, 0]], "a2": [[1, 0, 0], [0, 0, 1]]}, '
     '"dim": [2, 3]}\n'),
    (["tau", "ALG-A", "S(1)", "--minus", "--json"], 0,
     '{"arrows": {"a1": [[0, 0, 0], [0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, 0, 0], '
     '[0, 0, 1], [0, 0, 0], [-1, 0, 0]], "a2": [[1, 0, 0], [0, 0, 0], [0, 0, 0], '
     '[0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]], "a3": [[0, 0, 0], '
     '[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1]], '
     '"b1": [[], [], []], "b2": [[], [], []], "b3": [[], [], []]}, "dim": [8, 3, 0]}\n'),
]


def test_check_reduce_tau_json_bytes_pinned(capsys, tmp_path, monkeypatch, alg_a):
    (tmp_path / "cok_f_100.mod.json").write_text(json.dumps(module_to_dict(cok_f_100(alg_a))))
    monkeypatch.chdir(tmp_path)
    for argv, want_code, want_out in PINNED_CHECKS:
        code, out = run(capsys, argv)
        assert code == want_code, argv
        assert out == want_out, argv


def test_scan_uncertified_violations_exit_11(capsys):
    # over F_p, r(1) = 3 is only a lower bound, so t = 2, 3 may not violate
    argv = ["scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1", "--tmax", "3",
            "--field", "fp"]
    code, out = run(capsys, argv + ["--json"])
    assert code == 11
    assert out == (
        '{"certified": [false, true, true], "field": "F_2147483647", "methods": '
        '[null, "dimension-bound", "dimension-bound"], "p0": [0, 0, 1], '
        '"p1": [0, 1, 0], "r": [3, 8, 12], "seed": 42, "t_max": 3, "trials": 8, '
        '"violations": [2, 3]}\n'
    )
    code, out = run(capsys, argv)
    assert code == 11
    assert out.splitlines() == [
        "t=1: r = 3",
        "t=2: r = 8 (certified)  <-- violates additivity (uncertified)",
        "t=3: r = 12 (certified)  <-- violates additivity (uncertified)",
    ]


DETERMINISM_COMMANDS = [
    ["info", "ALG-B"],
    ["scan", "ALG-A", "--p1", "0,1,0", "--p0", "0,0,1", "--tmax", "3"],
    ["scan", "ALG-K", "--p1", "1,0", "--p0", "0,1", "--tmax", "3", "--field", "fp:2147483647"],
    ["check", "ALG-B", "S(2)+S(3)"],
    ["check", "ALG-B", "S(9)"],
    ["tau", "ALG-B", "S(3)"],
    ["reduce", "ALG-B0", "P(2)+I(2)+S(3)"],
    ["paper-examples"],
]


def test_cli_output_does_not_depend_on_the_hash_seed():
    # string hashing is salted per process: set or dict iteration order
    # leaking into an output would show up as a difference here
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    codes = []
    for argv in DETERMINISM_COMMANDS:
        procs = [  # one process per hash seed, the two side by side
            subprocess.Popen([sys.executable, "-m", "taurank.cli", *argv, "--json"],
                             env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for seed in ("0", "12345")
        ]
        (out_a, err_a), (out_b, err_b) = (p.communicate(timeout=120) for p in procs)
        a, b = procs
        assert (a.returncode, out_a, err_a) == (b.returncode, out_b, err_b), argv
        assert out_a or err_a.startswith("error: ")
        codes.append(a.returncode)
    assert codes == [0, 10, 0, 0, 3, 0, 0, 0]


@pytest.mark.parametrize("argv", [["paper-examples", "--json"], ["hom", "ALG-B", "S(2)", "S(2)"]],
                         ids=["paper-examples", "hom"])
def test_a_reader_that_closes_stdout_early_gives_exit_141(argv):
    # the read end is closed before the child writes, as `| head -c 10`
    # does once it has its bytes: every write fails with EPIPE
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "taurank.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# -- random input through the command line ------------------------------------

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 10, 11}
# no lone surrogates (a file could not hold them) and no NUL (an argument
# cannot)
noise = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                max_size=12)
QA_LINES = ["vertices: 1 2", "vertices: 1 2 3", "vertices:", "vertices: 0 1", "vertices: x",
            "arrow a: 2 -> 1", "arrow b: 1 -> 2", "arrow a: 3 -> 2", "arrow c: 2 => 1",
            "arrow x: 1 -> 1", "arrow: 1 -> 2", "relations:", "a*b", "b*a - a*b", "x*x*x",
            "2/3*a*b", "1/0*a", "a +", "e1", "compose: before", "# a comment", "",
            # parallel paths 3 -> 2 -> 1, whose coefficients 7 and 1/7 leave
            # the algebra undefined over F_7
            "arrow b: 3 -> 2", "arrow c: 2 -> 1", "arrow d: 3 -> 2", "a*b - 7 c*d",
            "a*b - 1/7 c*d"]


def spliced(draw, text):
    """text with a short slice replaced by noise, or as it is."""
    if draw(st.booleans()):
        return text
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 12)))
    return text[:i] + draw(noise) + text[j:]


@st.composite
def qa_texts(draw):
    """A bundled fixture's source, spliced, or lines drawn from valid and
    broken .qa lines."""
    if draw(st.booleans()):
        return spliced(draw, FIXTURE_SOURCES[draw(st.sampled_from(FIXTURE_NAMES))])
    return "\n".join(draw(st.lists(st.sampled_from(QA_LINES), max_size=8))) + "\n"


expr_terms = st.builds(
    "{}({}){}".format, st.sampled_from("SPISPIQ"),
    st.sampled_from(["1", "2", "1", "2", "3", "0", "9", "", "x"]),
    st.sampled_from(["", "", "", "^2", "^0", "^99", "^", "^-1", "^" + "9" * 30]))
expressions = st.one_of(st.lists(expr_terms, min_size=1, max_size=3).map("+".join), noise)
json_cells = st.one_of(st.integers(-2, 2), st.sampled_from(
    ["1/2", "-3/4", "1/0", "x", "", 2.5, None, True, [], 10**30, "9" * 40]))


@st.composite
def module_texts(draw, algebra):
    """.mod.json text: a module of the fixture `algebra`, with a cell, the
    dimension vector or a key redrawn or not, spliced or not."""
    alg = load_fixture(algebra if algebra in FIXTURE_NAMES else "ALG-B")
    try:
        obj = module_to_dict(module_from_expr(alg, draw(expressions)))
    except ValueError:
        obj = {"dim": [1] * alg.quiver.n, "arrows": {}}
    change = draw(st.sampled_from(["none", "none", "cell", "dim", "key"]))
    if change == "cell" and obj["arrows"]:
        rows = obj["arrows"][draw(st.sampled_from(sorted(obj["arrows"])))]
        if rows and rows[0]:
            rows[draw(st.integers(0, len(rows) - 1))][0] = draw(json_cells)
    elif change == "dim":
        obj["dim"] = draw(st.sampled_from([[], [-1, 1, 0], [10**9, 0, 0], "1", None, [1, 1]]))
    elif change == "key":
        obj[draw(st.sampled_from(["dims", "arrow", "algebra"]))] = obj.pop("arrows")
    return spliced(draw, json.dumps(obj))


@st.composite
def ideal_texts(draw, algebra):
    """An ideal file: lines that sum arrow names of the algebra and e1..e3,
    with or without coefficients, spliced or not."""
    names = ([a.name for a in load_fixture(algebra).quiver.arrows]
             if algebra in FIXTURE_NAMES else ["a", "b", "c", "x"]) + ["e1", "e2", "e3"]
    term = st.builds("{}{}".format, st.sampled_from(["", "", "2 ", "-1/2 ", "0 "]),
                     st.sampled_from(names))
    line = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    return spliced(draw, "\n".join(draw(st.lists(line, max_size=3))) + "\n")


@st.composite
def command_lines(draw):
    """(argv, files): a command on a fixture or a drawn .qa file, with
    modules given inline or as drawn .mod.json files, and for `reduce` a
    drawn ideal file or none."""
    files = {}
    algebra = draw(st.sampled_from([*FIXTURE_NAMES, "alg.qa"]))
    if algebra == "alg.qa":
        files[algebra] = draw(qa_texts())

    def module(name):
        if draw(st.booleans()):
            return draw(expressions)
        files[name] = draw(module_texts(algebra))
        return name

    command = draw(st.sampled_from(["info", "check", "hom", "ext1", "tau", "reduce"]))
    argv = [command, algebra]
    if command != "info":
        argv.append(module("m.mod.json"))
    if command in ("hom", "ext1"):
        argv.append(module("n.mod.json"))
    if command in ("check", "reduce"):
        argv += ["--trials", "1"]
    if command == "reduce" and draw(st.booleans()):
        files["ideal.txt"] = draw(ideal_texts(algebra))
        argv += ["--ideal", "ideal.txt"]
    argv += ["--field", draw(st.sampled_from(["q", "fp:7", "fp:11"]))]
    return argv, files


@settings(max_examples=25, deadline=None)
@given(command_lines())
def test_random_input_exits_with_a_documented_code_and_one_error_line(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        proc = run_bounded([os.path.join(tmp, a) if a in files else a for a in argv])
    assert proc.returncode in DOCUMENTED_EXITS, (argv, proc.stderr)
    assert "Traceback" not in proc.stdout + proc.stderr, (argv, proc.stderr)
    assert proc.stderr.count("\n") <= 1, (argv, proc.stderr)
    assert not proc.stderr or proc.stderr.startswith("error:"), (argv, proc.stderr)
