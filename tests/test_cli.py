import argparse
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tfuprob.checks
import tfuprob.classical
import tfuprob.cli
import tfuprob.errors
import tfuprob.kernels
import tfuprob.quantum
import tfuprob.report
import tfuprob.wde
from tfuprob.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_fixture(capsys, name, *extra):
    code, out, err = run_cli(capsys, "eval", str(FIXTURES / name), *extra)
    assert code == 0, err
    return json.loads(out)


def test_eval_tfu_table_fixture(capsys):
    out = eval_fixture(capsys, "tfu_table.json")
    assert out["mode"] == "tfu-table"
    assert out["results"]["derived"] == {"p": "U", "q": "U"}
    assert out["results"]["conjunctions"]["p&q"] == "F"
    assert out["results"]["nexus"] == ["p => ~q"]
    assert out["results"]["states"]["++"] == "F"
    assert out["input"] == json.loads((FIXTURES / "tfu_table.json").read_text())


def test_eval_classical_fixture(capsys):
    out = eval_fixture(capsys, "classical.json")
    res = out["results"]
    assert res["propositions"]["p"]["|p|"] == 0.5
    pair = res["pairs"]["p,q"]
    assert pair["|p&q|"] == 0.25
    assert pair["|q|_p"] == 0.5
    assert pair["|p|_q"] == 0.5
    assert pair["cos2(P,Q)"] == 0.25
    assert pair["cos2(P,PQ)"] == 0.5


def test_eval_tfu_measure_fixture(capsys):
    out = eval_fixture(capsys, "tfu_measure.json")
    res = out["results"]
    assert res["propositions"]["p"]["[p]"] == 1
    assert res["propositions"]["q"]["[q]"] == 0.75
    pair = res["pairs"]["p,q"]
    assert pair["[q]_p"] == 0.5
    assert pair["[p]_q"] == 1
    assert pair["gap(p,q)"] == -0.25


def test_eval_quantum_fixture(capsys):
    out = eval_fixture(capsys, "quantum.json")
    res = out["results"]
    assert res["projectors"]["P"]["born(P)"] == 0.5
    assert res["projectors"]["Q"]["born(Q)"] == 1
    pair = res["pairs"]["P,Q"]
    assert pair["cond(Q|P)"] == 0.5
    assert pair["asymmetry(P,Q)"] == -0.25
    assert pair["commutator(P,Q)"] == 0.5


def test_eval_wde_classical_fixture(capsys):
    out = eval_fixture(capsys, "wde_classical.json")
    res = out["results"]
    assert res["variant"] == "classical"
    assert res["ab"] == 0.25 and res["not_b_c"] == 0.25 and res["ac"] == 0.25
    assert res["violation"] == -0.25
    assert res["holds"] is True


def test_eval_wde_tfu_sets_fixture(capsys):
    out = eval_fixture(capsys, "wde_tfu_sets.json")
    res = out["results"]
    assert res["variant"] == "tfu-sets"
    assert res["ab"] == 0.5 and res["not_b_c"] == 0 and res["ac"] == 1.5
    assert res["violation"] == 1
    assert res["holds"] is False


def test_eval_wde_quantum_fixture(capsys):
    out = eval_fixture(capsys, "wde_quantum.json")
    res = out["results"]
    assert res["variant"] == "quantum"
    assert res["protocol"] == "paired"
    assert out["ordering"] == "symmetrized"
    half = 0.5 * np.sin(np.pi / 8) ** 2
    assert abs(res["ab"] - half) < 1e-9
    assert abs(res["not_b_c"] - half) < 1e-9
    assert abs(res["ac"] - 0.25) < 1e-9
    assert abs(res["violation"] - (0.25 - np.sin(np.pi / 8) ** 2)) < 1e-9
    assert res["holds"] is False


def test_eval_wde_shared_fixture(capsys):
    out = eval_fixture(capsys, "wde_shared.json")
    res = out["results"]
    assert res["protocol"] == "shared"
    assert res["ab"] == 1 and res["not_b_c"] == 0 and res["ac"] == 1
    assert res["violation"] == 0
    assert res["holds"] is True


def test_eval_ordering_flag(capsys):
    out = eval_fixture(capsys, "wde_quantum.json", "--ordering", "sequential")
    assert out["ordering"] == "sequential"
    assert out["results"]["ordering"] == "sequential"


def test_search_finds_singlet_witness(capsys):
    code, out, err = run_cli(capsys, "search", str(FIXTURES / "wde_quantum.json"))
    assert code == 0, err
    report = json.loads(out)
    assert report["grid"][0]["points"] == 3
    witness = report["results"]["witness"]
    assert witness is not None
    want = [0.0, np.pi / 4, np.pi / 2]
    np.testing.assert_allclose(witness["thetas"], want, atol=1e-9)
    assert abs(witness["magnitude"] - (0.25 - np.sin(np.pi / 8) ** 2)) < 1e-9
    assert witness["holds"] is False


def test_search_reports_no_witness_on_commuting_grid(capsys, tmp_path):
    # wde_shared.json's state and grid, with no tests: on the product state
    # |00> every shared-protocol tuple of directions on qubit 0 satisfies
    # the inequality
    shared = json.loads((FIXTURES / "wde_shared.json").read_text())
    del shared["projectors"]
    path = tmp_path / "shared_grid_only.json"
    path.write_text(json.dumps(shared))
    code, out, err = run_cli(capsys, "search", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["results"]["witness"] is None
    assert report["grid"][0]["points"] == 2


def test_search_grid_step_override(capsys):
    base = json.loads(run_cli(capsys, "search", str(FIXTURES / "wde_quantum.json"))[1])
    fine = json.loads(
        run_cli(
            capsys, "search", str(FIXTURES / "wde_quantum.json"),
            "--grid-step", str(np.pi / 8),
        )[1]
    )
    assert fine["grid"][0]["points"] == 5
    # the finer grid contains the coarse one, so the best cannot get worse
    assert (
        fine["results"]["witness"]["magnitude"]
        >= base["results"]["witness"]["magnitude"] - 1e-12
    )


def test_search_rejects_oversized_grid_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "search", str(FIXTURES / "wde_quantum.json"), "--grid-step", "1e-12"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "1570796326795 points" in err and "limit of 2048" in err
    assert peak < 2**20  # 1.6e12 points would need terabytes


@pytest.mark.parametrize(
    "payload, size",
    [
        ({"version": 1, "mode": "tfu-measure", "n": 30, "measures": {"TT": 1}}, "3^30"),
        ({"version": 1, "mode": "classical", "n": 45, "probs": {"+" * 45: 1.0}}, "2^45"),
        ({"version": 1, "mode": "tfu-table", "n": 30, "values": {}}, "2^30"),
    ],
)
def test_eval_rejects_oversized_n_before_allocating(capsys, tmp_path, payload, size):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert f"{size} cells" in err and "limit of 1048576" in err
    assert peak < 2**20  # 3^30 float64 cells would need 1.5 PB


def test_search_rejects_non_quantum_file(capsys):
    code, out, err = run_cli(capsys, "search", str(FIXTURES / "wde_classical.json"))
    assert code == 2
    assert "error:" in err and "quantum" in err


def test_classical_eval_peak_holds_one_ray_per_proposition(capsys, tmp_path):
    # eval keeps the unit vector of each proposition's projection, n vectors
    # of 2^n floats, besides the state, the parsed file and the report: its
    # peak is about (n + 10) * 2^n * 8 bytes
    n = 16
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(
        {"version": 1, "mode": "classical", "n": n, "probs": [2.0 ** -n] * 2 ** n}
    ))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert peak <= (n + 12) * 2 ** n * 8, peak


def test_search_requires_grid(capsys, tmp_path):
    payload = {
        "version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",
        "state": [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],
        "directions": {"a": {"theta": 0.0}, "b": {"theta": 0.5}, "c": {"theta": 1.0}},
    }
    path = tmp_path / "no_grid.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "search", str(path))
    assert code == 2
    assert "grid" in err


def test_eval_grid_only_file_cannot_evaluate(capsys, tmp_path):
    payload = {
        "version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",
        "state": [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],
        "grid": {"start": 0.0, "stop": 1.5, "step": 0.5},
    }
    path = tmp_path / "grid_only.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "eval", str(path))
    assert code == 2
    assert "directions" in err


def test_exit_code_parse_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "eval", str(bad))
    assert code == 2 and "not valid JSON" in err


def test_exit_code_validation_error(capsys, tmp_path):
    two_true = tmp_path / "two_true.json"
    two_true.write_text(
        '{"version": 1, "mode": "tfu-table", "n": 1, "values": ["T", "T"]}'
    )
    code, _, err = run_cli(capsys, "eval", str(two_true))
    assert code == 3
    assert "more than one" in err


def test_exit_code_undefined_conditional(capsys, tmp_path):
    all_u = tmp_path / "all_u.json"
    all_u.write_text(
        '{"version": 1, "mode": "tfu-measure", "n": 1, "measures": {"U": 1.0}}'
    )
    code, _, err = run_cli(capsys, "eval", str(all_u))
    assert code == 4
    assert "[p]" in err and "undecidable" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("verb", ["eval", "search", "check"])
def test_non_finite_tolerance_exits_3_before_any_work(capsys, monkeypatch, tmp_path, verb, value):
    ran = []

    def refuse(*args, **kwargs):
        ran.append(args)
        raise AssertionError("work started")

    monkeypatch.setattr(tfuprob.cli, "load_path", refuse)
    monkeypatch.setattr(tfuprob.checks, "run_checks", refuse)
    argv = [verb] if verb == "check" else [verb, str(FIXTURES / "wde_quantum.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, f"--tolerance={value}")
    assert (code, out, ran, caught) == (3, "", [], [])
    assert err == f"error: --tolerance must be a finite number, got {float(value)!r}\n"


def test_non_finite_tolerance_on_a_null_proposition_prints_one_line(capsys, tmp_path):
    # before the up-front check, NaN let a null condition reach 0/0, and the
    # numpy RuntimeWarning put more lines on stderr
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"version": 1, "mode": "classical", "n": 2,
                                "probs": [0.0, 0.0, 0.5, 0.5]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "eval", str(path), "--tolerance", "nan")
    assert (code, out, caught) == (3, "", [])
    assert err.count("\n") == 1 and "tolerance" in err


@pytest.mark.parametrize("verb", ["eval", "search", "check"])
def test_negative_tolerance_exits_3_before_any_work(capsys, monkeypatch, tmp_path, verb):
    # a null classical proposition used to pass "probability > tolerance" and
    # exit 3 with "zero vector has no direction"
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"version": 1, "mode": "classical", "n": 2,
                                "probs": [0.0, 0.0, 0.5, 0.5]}))
    ran = []
    monkeypatch.setattr(tfuprob.checks, "run_checks", lambda *a, **k: ran.append(a))
    argv = [verb] if verb == "check" else [verb, str(path)]
    for value in ("-1", "-1e-300"):
        code, out, err = run_cli(capsys, *argv, f"--tolerance={value}")
        assert (code, out, ran) == (3, "", [])
        assert err == f"error: --tolerance must not be negative, got {float(value)!r}\n"
    # zero is a tolerance, and the default exit 4 of the null condition stands
    if verb == "eval":
        code, out, err = run_cli(capsys, "eval", str(path), "--tolerance", "0")
        assert (code, out) == (4, "") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval"], "the following arguments are required: file"),
        (["eval", "FILE", "--tolerance", "-inf"], "argument --tolerance: expected one argument"),
        (["frob"], "argument command: invalid choice: 'frob'"),
        (["eval", "FILE", "--tolerance", "x"], "argument --tolerance: invalid float value: 'x'"),
        (["check", "--ordering", "sequential"], "unrecognized arguments: --ordering sequential"),
    ],
    ids=["missing-file", "tolerance-minus-inf", "unknown-verb", "tolerance-x", "check-ordering"],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    argv = [str(FIXTURES / "classical.json") if a == "FILE" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


def _options(verb: str) -> set[str]:
    (verbs,) = (a for a in tfuprob.cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for a in verbs.choices[verb]._actions for flag in a.option_strings} - {"-h", "--help"}


def test_each_verb_takes_exactly_its_options():
    common = {"--format", "--seed", "--tolerance"}
    assert _options("eval") == common | {"--ordering"}
    assert _options("search") == common | {"--ordering", "--grid-step"}
    assert _options("check") == common


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_print_and_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main([flag])
    captured = capsys.readouterr()
    assert stop.value.code == 0 and captured.err == ""
    assert ("usage: tfuprob" if flag == "--help" else "tfuprob 0.1.0") in captured.out


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"version": 1, "mode": "quantum", "state": [1.0, 1e308],
          "projectors": {"P": {"type": "diagonal", "mask": [1, 0]}}},
         "error: state norm inf is not 1 within 1e-12\n"),
        ({"version": 1, "mode": "classical", "n": 1, "probs": [1e308, 1e308]},
         "error: distribution sums to inf, expected 1 within 1e-12\n"),
    ],
    ids=["quantum-state", "classical-probs"],
)
def test_overflowing_inputs_print_no_numpy_warning(capsys, tmp_path, payload, message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out, err) == (3, "", message)
    assert [str(w.message) for w in caught] == []


_WDE_THETAS = '"b": {"theta": 1}, "c": {"theta": 2}'


@pytest.mark.parametrize(
    "text, field, value",
    [
        pytest.param('{"version": 1, "mode": "classical", "n": 1, "probs": [NaN, 1.0]}',
                     "classical.probs", "nan", id="classical-probs-list"),
        pytest.param('{"version": 1, "mode": "classical", "n": 1, "probs": [1e400, 0.5]}',
                     "classical.probs", "inf", id="classical-probs-overflow"),
        pytest.param('{"version": 1, "mode": "classical", "n": 1, "probs": {"+": NaN}}',
                     "classical.probs", "nan", id="classical-probs-mapping"),
        pytest.param('{"version": 1, "mode": "wde", "variant": "classical",'
                     ' "probs": [NaN, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]}',
                     "wde.probs", "nan", id="wde-classical-probs"),
        pytest.param('{"version": 1, "mode": "tfu-measure", "n": 1, "measures": [1.0, NaN, 1.0]}',
                     "tfu-measure.measures", "nan", id="tfu-measure-list"),
        pytest.param('{"version": 1, "mode": "tfu-measure", "n": 1, "measures": {"T": Infinity}}',
                     "tfu-measure.measures", "inf", id="tfu-measure-mapping-infinity"),
        pytest.param('{"version": 1, "mode": "quantum", "state": [NaN, 1.0],'
                     ' "projectors": {"P": {"type": "diagonal", "mask": [1, 0]}}}',
                     "quantum.state", "nan", id="quantum-state"),
        pytest.param('{"version": 1, "mode": "quantum", "state": [[1.0, 0.0], [0.0, -Infinity]],'
                     ' "projectors": {"P": {"type": "diagonal", "mask": [1, 0]}}}',
                     "quantum.state", "-inf", id="quantum-state-pairs"),
        pytest.param('{"version": 1, "mode": "quantum", "state": [1.0, 0.0], "projectors":'
                     ' {"P": {"type": "subspace", "vectors": [[[1.0, 0.0], [NaN, 0.0]]]}}}',
                     "quantum.projectors.P", "nan", id="subspace-vectors"),
        pytest.param('{"version": 1, "mode": "quantum", "state": [1.0, 0.0],'
                     ' "projectors": {"P": {"type": "qubit-direction", "theta": NaN}}}',
                     "quantum.projectors.P", "nan", id="qubit-direction-theta"),
        pytest.param('{"version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",'
                     ' "state": [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],'
                     ' "directions": {"a": {"theta": NaN}, ' + _WDE_THETAS + '}}',
                     "wde.directions.a", "nan", id="wde-direction-theta"),
        pytest.param('{"version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",'
                     ' "state": [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],'
                     ' "grid": {"start": 0, "stop": Infinity, "step": 1}}',
                     "wde.grid", "inf", id="wde-grid"),
        pytest.param('{"version": 1, "mode": "wde", "variant": "tfu-sets",'
                     ' "items": [{"tags": "TUT", "weight": NaN}]}',
                     "wde.items[0]", "nan", id="tfu-sets-weight"),
    ],
)
def test_non_finite_numbers_exit_3_naming_their_field(capsys, tmp_path, text, field, value):
    path = tmp_path / "non_finite.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {field}: expected a finite number, got {value}\n"


@pytest.mark.parametrize(
    "n, measures, keys",
    [(1, {"T": 1, "t": 5, "F": 1}, "'T' and 't'"), (2, {"tU": 1, "FF": 2, "Tu": 3}, "'tU' and 'Tu'")],
)
def test_cell_keys_naming_one_cell_exit_3(capsys, tmp_path, n, measures, keys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"version": 1, "mode": "tfu-measure", "n": n, "measures": measures}))
    code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out, err) == (3, "", f"error: cell keys {keys} name the same cell\n")


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param({"version": 1, "mode": "classical", "n": 1, "probs": [1.5, -0.5]},
                     "distribution entry 1 is negative (-0.5)", id="classical"),
        pytest.param({"version": 1, "mode": "tfu-measure", "n": 1, "measures": [1, -0.5, 2]},
                     "cell F carries negative measure -0.5", id="tfu-measure"),
    ],
)
def test_negative_entries_exit_3_printing_the_entry(capsys, tmp_path, payload, message):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, key",
    [
        pytest.param('{"version": 1, "mode": "classical", "n": 1, "n": 1, "probs": [0.5, 0.5]}',
                     "n", id="top-level"),
        pytest.param('{"version": 1, "mode": "tfu-table", "n": 1,'
                     ' "values": {"+": "T", "+": "T", "-": "F"}}', "+", id="tfu-table-values"),
        pytest.param('{"version": 1, "mode": "classical", "n": 1,'
                     ' "probs": {"+": 0.5, "+": 0.5, "-": 0.5}}', "+", id="classical-probs"),
        pytest.param('{"version": 1, "mode": "tfu-measure", "n": 1,'
                     ' "measures": {"T": 1, "T": 5, "F": 1}}', "T", id="tfu-measure-measures"),
        pytest.param('{"version": 1, "mode": "quantum", "state": [1.0, 0.0], "projectors":'
                     ' {"P": {"type": "diagonal", "mask": [1, 0]},'
                     ' "P": {"type": "diagonal", "mask": [0, 1]}}}', "P", id="quantum-projectors"),
        pytest.param('{"version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",'
                     ' "state": [0.0, 0.7071067811865476, -0.7071067811865476, 0.0],'
                     ' "directions": {"a": {"theta": 0.0}, "b": {"theta": 0.5},'
                     ' "b": {"theta": 0.7}, "c": {"theta": 1.0}}}', "b", id="wde-directions"),
    ],
)
def test_repeated_keys_exit_2_naming_the_key(capsys, tmp_path, text, key):
    # json.loads alone keeps the last value of a repeated key
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "eval", str(path))
    assert (code, out, err) == (2, "", f"error: repeated key {key!r} in a JSON object\n")


def _documented_codes(text: str) -> set[int]:
    return {int(code) for code in re.findall(r"(?m)^\| (\d+) \|", text)}


def test_exit_code_table_matches_readme_and_docstring():
    readme = (FIXTURES.parent / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    docstring = tfuprob.cli.__doc__.split("Exit codes:", 1)[1]
    in_docstring = {int(code) for code in re.findall(r"(\d+) [a-z]", docstring)}
    cli = tfuprob.cli
    in_table = {cli.EXIT_OK, cli.EXIT_CHECK_FAILED, *cli.EXIT_CODES.values()}
    assert _documented_codes(section) == in_docstring == in_table == {0, 1, 2, 3, 4, 5, 6}


def test_readme_library_use_block_runs_and_prints_its_values():
    readme = (FIXTURES.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(block, ns)
    assert ns["probability"](ns["p"], ns["vec"]) == 0.5
    assert abs(ns["conditional"](ns["q"], ns["p"], ns["vec"]) - 0.5) <= 1e-12
    assert ns["witness"].thetas == (0.0, np.pi / 4, np.pi / 2)
    assert abs(ns["witness"].magnitude - 0.10355339059327376) <= 1e-12


@pytest.mark.parametrize(
    "error, code",
    [
        (tfuprob.errors.ProblemFileError("x"), 2),
        (argparse.ArgumentError(None, "x"), 2),
        (tfuprob.errors.ValidationError("x"), 3),
        (tfuprob.errors.UndefinedConditionalError("x"), 4),
        (tfuprob.errors.TfuProbError("x"), 3),
        (type("OtherError", (tfuprob.errors.TfuProbError,), {})("x"), 3),
        (type("Both", (tfuprob.errors.UndefinedConditionalError,
                       tfuprob.errors.ValidationError), {})("x"), 4),
        (MemoryError(), 5),
    ],
)
def test_errors_take_the_code_of_their_first_listed_class(capsys, monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(tfuprob.cli, "cmd_check", fail)
    got, out, err = run_cli(capsys, "check")
    assert (got, out) == (code, "")
    assert err == ("error: out of memory\n" if code == 5 else "error: x\n")


SINGLET_STATE = [0, 0.7071067811865476, -0.7071067811865476, 0]
WDE_PAIRED = {
    "version": 1, "mode": "wde", "variant": "quantum", "protocol": "paired",
    "state": SINGLET_STATE,
    "directions": {"a": {"theta": 0}, "b": {"theta": 1}, "c": {"theta": 2}},
}


def _quantum_with(spec):
    return {"version": 1, "mode": "quantum", "state": [1, 0], "projectors": {"P": spec}}


QUBIT = {"type": "qubit-direction", "theta": 0}


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(
            json.dumps({**WDE_PAIRED, "factor": "x"}), "'factor' must be an integer, got 'x'",
            id="wde-factor-string",
        ),
        pytest.param(
            json.dumps({**WDE_PAIRED, "factor": None}), "'factor' must be an integer, got None",
            id="wde-factor-null",
        ),
        pytest.param(
            json.dumps({**WDE_PAIRED, "factor": 1.5}), "'factor' must be an integer, got 1.5",
            id="wde-factor-fraction",
        ),
        pytest.param(
            json.dumps({**WDE_PAIRED, "factor": True}), "'factor' must be an integer, got True",
            id="wde-factor-bool",
        ),
        pytest.param(
            json.dumps(_quantum_with({**QUBIT, "factor": "x"})), "'factor' must be an integer",
            id="qubit-factor-string",
        ),
        pytest.param(
            # the pair keys "a,b,c" of (a,b; c) and (a; b,c) would be one key
            json.dumps({**_quantum_with(QUBIT),
                        "projectors": {name: QUBIT for name in ("a,b", "c", "a", "b,c")}}),
            "quantum.projectors.a,b: a projector name may not contain ','",
            id="projector-name-comma",
        ),
        pytest.param(
            json.dumps(_quantum_with({**QUBIT, "factor": 0.0})), "'factor' must be an integer",
            id="qubit-factor-float",
        ),
        pytest.param(
            json.dumps(_quantum_with({**QUBIT, "n_factors": None})),
            "'n_factors' must be an integer",
            id="qubit-n-factors-null",
        ),
        pytest.param(
            json.dumps(_quantum_with({**QUBIT, "n_factors": 1.5})),
            "'n_factors' must be an integer",
            id="qubit-n-factors-fraction",
        ),
        pytest.param(
            '{"version": 1, "mode": "classical", "n": 1, "probs": [1' + "0" * 400 + ", 0]}",
            "classical.probs: integer of 1329 bits is out of float range",
            id="probs-int-beyond-float",
        ),
        pytest.param(
            '{"version": 1, "mode": "tfu-measure", "n": 1, "measures": {"T": 1' + "0" * 400 + "}}",
            "out of float range",
            id="measures-int-beyond-float",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "subspace", "vectors": [[1, 0], [1]]})),
            "vectors differ in length ([1, 2])",
            id="subspace-ragged",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "diagonal", "mask": [[1, "a"], 1]})),
            "mask must be a non-empty list of 0/1 values",
            id="mask-ragged",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "diagonal", "mask": [[1, 0], [0, 1]]})),
            "mask must be a non-empty list of 0/1 values",
            id="mask-nested",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "diagonal", "mask": []})),
            "diagonal mask has dim 0, expected 2",
            id="mask-empty-for-state",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "diagonal", "mask": [True, False]})),
            "mask must be a non-empty list of 0/1 values",
            id="mask-bools",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "diagonal", "mask": [1, 2]})),
            "mask must be a non-empty list of 0/1 values",
            id="mask-two",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "diagonal", "mask": ["1", 0]})),
            "mask must be a non-empty list of 0/1 values",
            id="mask-string",
        ),
        pytest.param(
            json.dumps(_quantum_with({"type": "subspace", "vectors": [1, 0]})),
            "each of the vectors must be a list",
            id="subspace-not-rows",
        ),
        pytest.param(
            '{"version": 1, "mode": "classical", "n": 1, "probs": [1' + "0" * 5000 + ", 0]}",
            "not valid JSON",
            id="int-over-digit-limit",
        ),
        pytest.param(
            '{"version": 1, "mode": "classical", "n": 1, "probs": '
            + "[" * 100000 + "]" * 100000 + "}",
            "not valid JSON",
            id="nesting-over-recursion-limit",
        ),
    ],
)
def test_malformed_fields_exit_2_with_one_line(capsys, tmp_path, text, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "eval", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert fragment in err


def test_qubit_factor_count_checked_against_state_before_building(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_quantum_with({**QUBIT, "n_factors": 1_000_000})))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == "" and err.count("\n") == 1
    assert "1000000 qubit factors do not match the required dim 2" in err
    assert peak < 2**20


def test_state_over_dim_limit_rejected_before_building(capsys, tmp_path):
    dim = 4 * tfuprob.quantum.MAX_DIM
    path = tmp_path / "wide-state.json"
    path.write_text(json.dumps({
        "version": 1, "mode": "quantum", "state": [1] + [0] * (dim - 1),
        "projectors": {"P": {"type": "diagonal", "mask": [1] * dim}},
    }))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == "" and err.count("\n") == 1
    assert f"state has {dim} amplitudes, over the limit of 1024" in err
    assert peak < 2**20


H = 0.7071067811865476


def _state_case(state):
    return {"version": 1, "mode": "quantum", "state": state,
            "projectors": {"P": {"type": "diagonal", "mask": [1, 0]}}}


def _span_case(vectors):
    return {"version": 1, "mode": "quantum", "state": [[H, 0.0], [H, 0.0]],
            "projectors": {"P": {"type": "subspace", "vectors": vectors}}}


# Amplitude lists that are neither all [re, im] pairs of floats nor all
# plain floats are read item by item; the exit codes and messages of every
# kind of list are the ones that reading always gave.
@pytest.mark.parametrize(
    "payload, code, err",
    [
        pytest.param(_state_case([H, H]), 0, "", id="state-floats"),
        pytest.param(_state_case([1.0, 0]), 0, "", id="state-float-and-int"),
        pytest.param(_state_case([H, float("nan")]), 3,
                     "error: quantum.state: expected a finite number, got nan\n",
                     id="state-floats-nan"),
        pytest.param(_span_case([[1.0, 0.0]]), 0, "", id="span-floats"),
        pytest.param(_span_case([[1.0, 0.0], [0.0, -float("inf")]]), 3,
                     "error: quantum.projectors.P: expected a finite number, got -inf\n",
                     id="span-floats-inf"),
        pytest.param(_state_case([1, 0]), 0, "", id="state-ints"),
        pytest.param(_state_case([[1, 0], [0, 0]]), 0, "", id="state-int-pairs"),
        pytest.param(_state_case([[H, 0.0], H]), 0, "", id="state-mixed"),
        pytest.param(_state_case([[H, 0.0], [0, H]]), 0, "", id="state-int-in-pair"),
        pytest.param(_state_case([True, False]), 2,
                     "error: quantum.state: expected a number, got True\n", id="state-bool"),
        pytest.param(_state_case([[H, 0.0], [H, False]]), 2,
                     "error: quantum.state: expected a number, got False\n",
                     id="state-bool-in-pair"),
        pytest.param(_state_case([[H, 0.0], [H]]), 2,
                     "error: quantum.state: amplitude pair must be [re, im]\n",
                     id="state-ragged"),
        pytest.param(_state_case([[H, 0.0, 0.0], [H, 0.0]]), 2,
                     "error: quantum.state: amplitude pair must be [re, im]\n",
                     id="state-triple"),
        pytest.param(_state_case([[H, None], [H, 0.0]]), 2,
                     "error: quantum.state: expected a number, got None\n", id="state-null"),
        pytest.param(_state_case([]), 3,
                     "error: state dimension 0 is not a power of two >= 2\n", id="state-empty"),
        pytest.param(_span_case([[1, 0]]), 0, "", id="span-ints"),
        pytest.param(_span_case([[[1.0, 0.0], 0.5], [[0.5, 0.5], [1.0, 0.0]]]), 0, "",
                     id="span-mixed"),
        pytest.param(_span_case([[[1.0, 0.0], [True, 0.0]]]), 2,
                     "error: quantum.projectors.P: expected a number, got True\n",
                     id="span-bool"),
        pytest.param(_span_case([[[1.0, 0.0], [0.5]]]), 2,
                     "error: quantum.projectors.P: amplitude pair must be [re, im]\n",
                     id="span-ragged-pair"),
        pytest.param(_span_case([[[1.0, 0.0], [0.5, 0.0]], [["x", 0.0], [0.5, 0.0]]]), 2,
                     "error: quantum.projectors.P: expected a number, got 'x'\n",
                     id="span-string-in-second-row"),
        pytest.param(_span_case([[], []]), 3,
                     "error: quantum.projectors.P: projector dim 0 does not match required 2\n",
                     id="span-empty-rows"),
    ],
)
def test_amplitude_lists_keep_exit_codes_and_messages(capsys, tmp_path, payload, code, err):
    path = tmp_path / "amplitudes.json"
    path.write_text(json.dumps(payload))
    got_code, out, got_err = run_cli(capsys, "eval", str(path))
    assert (got_code, got_err) == (code, err)
    assert (out == "") == (code != 0)


def test_one_parser_serves_every_call(capsys, monkeypatch):
    first = tfuprob.cli.PARSER.parse_args(["eval", "in.json", "--format", "csv"])
    second = tfuprob.cli.PARSER.parse_args(["check", "--seed", "3"])
    assert first is not second
    assert (first.command, first.file, first.format, first.seed) == ("eval", "in.json", "csv", 0)
    assert (second.command, second.format, second.seed) == ("check", "structured", 3)
    assert not hasattr(second, "file")
    # main reuses the module's parser: it never builds another one
    monkeypatch.setattr(tfuprob.cli, "build_parser", None)
    code, csv_out, _ = run_cli(capsys, "eval", str(FIXTURES / "quantum.json"), "--format", "csv")
    assert code == 0 and csv_out.startswith("label,value\n")
    code, json_out, _ = run_cli(capsys, "eval", str(FIXTURES / "quantum.json"))
    assert code == 0 and json.loads(json_out)["mode"] == "quantum"


def test_eval_classical_cosines_match_fresh_directions(capsys, tmp_path):
    # each projected direction is computed once and reused across pairs;
    # every cosine must equal one taken from directions built on the spot
    rng = np.random.default_rng(97)
    probs = rng.uniform(size=16) * (rng.random(16) < 0.7)
    probs[[0, 5]] += 0.1  # no proposition is null
    probs = (probs / probs.sum()).tolist()
    path = tmp_path / "classical4.json"
    path.write_text(json.dumps({"version": 1, "mode": "classical", "n": 4, "probs": probs}))
    code, out, err = run_cli(capsys, "eval", str(path))
    assert code == 0, err
    res = json.loads(out)["results"]
    cl = tfuprob.classical
    vec = cl.build_state_vector(cl.ClassicalDistribution(np.array(probs)))
    names = "p0 p1 p2 p3".split()
    projs = [cl.projector_for(i, 4) for i in range(4)]
    fmt = tfuprob.report.format_float
    for i, pn in enumerate(names):
        want = cl.cos2(cl.state_direction(vec), cl.projected_direction(projs[i], vec))
        assert fmt(res["propositions"][pn][f"cos2({pn.upper()},S)"]) == fmt(want)
        for j in range(i + 1, 4):
            qn = names[j]
            entry = res["pairs"][f"{pn},{qn}"]
            dir_p = cl.projected_direction(projs[i], vec)
            dir_q = cl.projected_direction(projs[j], vec)
            dir_pq = cl.projected_direction(cl.and_op(projs[i], projs[j]), vec)
            P, Q = pn.upper(), qn.upper()
            assert fmt(entry[f"cos2({P},{Q})"]) == fmt(cl.cos2(dir_p, dir_q))
            assert fmt(entry[f"cos2({P},{P}{Q})"]) == fmt(cl.cos2(dir_p, dir_pq))
            assert fmt(entry[f"cos2({Q},{P}{Q})"]) == fmt(cl.cos2(dir_q, dir_pq))


# sha256 of stdout for the fixtures whose eval paths run through the cached
# digit and affirm tables, the reused classical directions and the bulk
# float rendering. These are the bytes the per-state loops and per-item
# rendering printed, so a later speed-up must print them too.
GOLDEN_EVAL_SHA256 = {
    ("tfu_table.json", "structured"): "89f6c1b4364b0569cb3a7e4bdd315a5969cf3af42ee8bb001773d97bc02b6703",
    ("tfu_table.json", "csv"): "74f061a942075c76744dfc4a89e94b66231875d30bd439d0dbf84fec7156cfc3",
    ("tfu_table.json", "table"): "b182b6a7904318c5e0803053e469da66055809551b7afac2c5e0add52ccbb3b0",
    ("tfu_measure.json", "structured"): "e26c138a47cfafc8dfd8cffc000d3c21030c0d09d57d5b087bb544fb02e4fc2a",
    ("tfu_measure.json", "csv"): "8b68f8540d46015f76414574dc95c7c9518686bd52c1930065b7781396d533c4",
    ("tfu_measure.json", "table"): "bd8f5353d54ddf20e3dfb1a52e22d5d0918c69d98f6b3273aa8ac9f01d9d8b4b",
    ("classical.json", "structured"): "95be2b97232ed08e6c89240c92d86338a13ef5ec4ed6d3d2ebb78cf4d223d406",
    ("classical.json", "csv"): "e39bcc5f62cdc49ac8b01bbf9f4d2c31ca863799e30b29b32db90f39cf2f78e8",
    ("classical.json", "table"): "881e682134562437aa90e923ff07426988853f54b979bab735c5c55d7047df0f",
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_EVAL_SHA256))
def test_eval_output_bytes_are_pinned(capsys, name, fmt):
    code, out, err = run_cli(capsys, "eval", str(FIXTURES / name), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EVAL_SHA256[name, fmt]


def _generated_payload(mode: str) -> dict:
    """A seeded input large enough to exercise the per-proposition tables
    and the flat csv/table rendering: classical n=10, tfu-measure n=7, and
    a quantum dim-16 state with a mask, a qubit direction and a span."""
    rng = np.random.default_rng(["classical", "tfu-measure", "quantum"].index(mode) + 70)
    if mode == "classical":
        probs = rng.random(1 << 10) * (rng.random(1 << 10) < 0.8)
        return {"version": 1, "mode": mode, "n": 10, "probs": (probs / probs.sum()).tolist()}
    if mode == "tfu-measure":
        measures = rng.random(3**7) * (rng.random(3**7) < 0.8) * 4.0
        return {"version": 1, "mode": mode, "n": 7, "measures": measures.tolist()}
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state /= np.linalg.norm(state)
    span = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    return {
        "version": 1, "mode": mode,
        "state": [[z.real, z.imag] for z in state.tolist()],
        "projectors": {
            "M": {"type": "diagonal", "mask": rng.integers(2, size=16).tolist()},
            "D": {"type": "qubit-direction", "theta": 1.1, "phi": 0.3,
                  "factor": 2, "n_factors": 4},
            "S": {"type": "subspace",
                  "vectors": [[[z.real, z.imag] for z in row] for row in span.tolist()]},
        },
    }


# sha256 of stdout for the generated inputs, taken before the pair loops
# read per-proposition tables and csv/table printed float lists in bulk.
GOLDEN_GENERATED_SHA256 = {
    ("classical", "structured"): "0a7e6fad1e6b3bedd05b105cb3f331bf6936250f136ca4c4af35f1bdc74b42b3",
    ("classical", "csv"): "5d9cbd3dfab7240502071d7f0a9b88c328b2e09f33cec744244176ae9b2f9207",
    ("classical", "table"): "8b371ce5baa98229fc815794c40b3ddc8de35b3093b0e6055c66c1ff0f49edee",
    ("tfu-measure", "structured"): "089f314c7cbb2f3683f6d4d5c1657130535a0ec4b770170a7bef5224c00dd022",
    ("tfu-measure", "csv"): "b58990b887b5310643b37da18274bb9edd0adaa260f9f37a4d5cb5803c285eeb",
    ("tfu-measure", "table"): "133fb6af7d521cb977e1adbade7632357e718cbf869ed55155c376c493709cb5",
    ("quantum", "structured"): "71a16d4834cc155154b68ae29cf262a1b4ef01eada7aadaa2a6b5cc2e1edc04a",
    ("quantum", "csv"): "d5e620efe3d93da500d04c15b9d73fb988c6ab7aad3bdb843701a396a7ff08fb",
    ("quantum", "table"): "5bb60a39278e15c94eb7d790ce3020030709b149f0463ffe350eeec89d5cc317",
}


@pytest.mark.parametrize("mode, fmt", sorted(GOLDEN_GENERATED_SHA256))
def test_generated_eval_output_bytes_are_pinned(capsys, tmp_path, mode, fmt):
    path = tmp_path / "generated.json"
    path.write_text(json.dumps(_generated_payload(mode)))
    code, out, err = run_cli(capsys, "eval", str(path), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GENERATED_SHA256[mode, fmt]


def _large_payload(mode: str) -> dict:
    """The large end of each pair-table mode: classical n=14 (with exact
    zeros), tfu-measure n=9 (with zero cells), and a quantum dim-64 state
    with a mask, a qubit direction and two spans, whose [re, im] pair lists
    dominate the csv and table echo."""
    rng = np.random.default_rng(["classical", "tfu-measure", "quantum"].index(mode) + 140)
    if mode == "classical":
        probs = rng.random(1 << 14) * (rng.random(1 << 14) < 0.8)
        return {"version": 1, "mode": mode, "n": 14, "probs": (probs / probs.sum()).tolist()}
    if mode == "tfu-measure":
        measures = rng.random(3**9) * (rng.random(3**9) < 0.8) * 4.0
        return {"version": 1, "mode": mode, "n": 9, "measures": measures.tolist()}

    def amps(rows):
        return [[[z.real, z.imag] for z in row] for row in rows.tolist()]

    state = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    state /= np.linalg.norm(state)
    return {
        "version": 1, "mode": mode,
        "state": amps(state[None, :])[0],
        "projectors": {
            "M": {"type": "diagonal", "mask": rng.integers(2, size=64).tolist()},
            "D": {"type": "qubit-direction", "theta": 0.7, "phi": 2.1,
                  "factor": 3, "n_factors": 6},
            "S": {"type": "subspace",
                  "vectors": amps(rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64)))},
            "T": {"type": "subspace",
                  "vectors": amps(rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64)))},
        },
    }


# sha256 of stdout for the large inputs, taken before the eval path read
# propositions as slabs of the state and cell arrays and before csv/table
# printed lists of [re, im] pairs in one block.
GOLDEN_LARGE_SHA256 = {
    ("classical", "structured"): "df9ca66e5b64cc34fe842788f7904d0f1bb3201049e3b7a907eb2aa81bafcaa0",
    ("classical", "csv"): "cc0f7cf58e1d7ac08c7ce1cfa849332372d32e6a38588cc1d197d2e130e0570e",
    ("classical", "table"): "f0ed68c9839368d4e26002d3e5cd1699631787438cfba57b246fd3185a9a3fa4",
    ("tfu-measure", "structured"): "4e5334c390506487ec5930bd6892c7a71f985bd31085c3d7f151bc29d78e1e30",
    ("tfu-measure", "csv"): "38b7e8b469aafcc8955ada92660d248d5c4a7b7a6ab3c163a27317a1212ca668",
    ("tfu-measure", "table"): "f632a2455a3c0c12d5158cdafb3627440d6cd24348234b647bcda04e1160398c",
    ("quantum", "structured"): "0d0c3eaf7b71740df8bb9d838dc337a6dcbdca63d1310a12650cd10e5f65db46",
    ("quantum", "csv"): "dd2f43dbad7d342cee7f75f6caae318b6b07665740b389724c498bb39a9e8871",
    ("quantum", "table"): "beb4415e2de818cfca4a1af8cefd0f3993c6a0f0fb66116a3edb49614607ffb5",
}


@pytest.mark.parametrize("mode, fmt", sorted(GOLDEN_LARGE_SHA256))
def test_large_eval_output_bytes_are_pinned(capsys, tmp_path, mode, fmt):
    path = tmp_path / "large.json"
    path.write_text(json.dumps(_large_payload(mode)))
    code, out, err = run_cli(capsys, "eval", str(path), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LARGE_SHA256[mode, fmt]


def _quantum_scale_payload(dim: int) -> dict:
    """A quantum file at dim 256 or 1024: a complex state, a qubit direction
    with phi != 0, a mask, a rank-4 span given as [re, im] pairs and a
    rank-64 span given as plain real floats."""
    rng = np.random.default_rng(dim)

    def pairs(rows):
        return [[[z.real, z.imag] for z in row] for row in rows.tolist()]

    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state /= np.linalg.norm(state)
    return {
        "version": 1, "mode": "quantum",
        "state": pairs(state[None, :])[0],
        "projectors": {
            "M": {"type": "diagonal", "mask": rng.integers(2, size=dim).tolist()},
            "D": {"type": "qubit-direction", "theta": 1.3, "phi": 0.9,
                  "factor": 2, "n_factors": dim.bit_length() - 1},
            "S": {"type": "subspace",
                  "vectors": pairs(rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim)))},
            "R": {"type": "subspace", "vectors": rng.standard_normal((64, dim)).tolist()},
        },
    }


# sha256 of stdout for quantum evals at dim 256 (every format) and 1024
# (structured: one run there costs over a second of CPU), taken before
# plain real amplitude lists were read in bulk.
GOLDEN_QUANTUM_SCALE_SHA256 = {
    (256, "structured"): "d7df15f5013173cee1a65d8e2bd634e923340b0d440a15aab8cf0e759d4cd0b2",
    (256, "csv"): "9fa1a6178d3640c00c8410a7903deae2b3fb23f91f884d5dd764f913c417cdc1",
    (256, "table"): "6f286d941e108e3ab4997c64364729ab11259f8c9c92c8b7c8f2bf89483b87bc",
    (1024, "structured"): "5446f99247968d19ec5a572a77d450aa7baa67d311122f0db7dd0da5dd3bf5a0",
}


@pytest.mark.parametrize("dim, fmt", sorted(GOLDEN_QUANTUM_SCALE_SHA256))
def test_quantum_scale_eval_output_bytes_are_pinned(capsys, tmp_path, dim, fmt):
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(_quantum_scale_payload(dim)))
    code, out, err = run_cli(capsys, "eval", str(path), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_QUANTUM_SCALE_SHA256[dim, fmt]


def _wde_state(seed: int, dim: int, pairs: bool = True) -> list:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if pairs else 0)
    v = v / np.linalg.norm(v)
    return [[z.real, z.imag] for z in v.tolist()] if pairs else v.tolist()


def _wde_quantum(protocol: str, state: list, **fields) -> dict:
    return {"version": 1, "mode": "wde", "variant": "quantum", "protocol": protocol,
            "state": state, **fields}


_WDE_DIRECTIONS = {"a": {"theta": 0.3}, "b": {"theta": 1.1, "phi": 0.4}, "c": {"theta": 2.0}}
_WDE_GRID = {"start": 0.0, "stop": np.pi, "step": np.pi / 4}
_WDE_MASKS = {
    name: {"type": "diagonal", "mask": mask}
    for name, mask in zip("abc", ([1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]))
}

# wde quantum files at the edges of the eval and search paths: where the
# shared protocol places its directions, which ordering a file, a flag or
# the default picks, and which error wins when several apply.
WDE_EDGE_FILES = {
    "shared-3q-factor2": _wde_quantum(
        "shared", _wde_state(1, 8), factor=2, directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "shared-2q-grids": _wde_quantum(
        "shared", _wde_state(2, 4, pairs=False), factor=1, ordering="sequential",
        directions=_WDE_DIRECTIONS,
        grids={"a": {"start": 0.0, "stop": np.pi, "step": np.pi / 6},
               "b": {"start": 0.5, "stop": 2.5, "step": 0.25},
               "c": {"start": 0.0, "stop": 2 * np.pi, "step": np.pi / 3}}),
    "shared-projectors-bad-factor": _wde_quantum(
        "shared", [1.0, 0.0, 0.0, 0.0], factor=5, projectors=_WDE_MASKS, grid=_WDE_GRID),
    "paired-grid-only": _wde_quantum("paired", SINGLET_STATE, grid=_WDE_GRID),
    "shared-grid-only-bad-factor": _wde_quantum(
        "shared", _wde_state(3, 4), factor=7, grid=_WDE_GRID),
    "paired-no-grid": _wde_quantum("paired", SINGLET_STATE, directions=_WDE_DIRECTIONS),
    "shared-factor-5": _wde_quantum(
        "shared", _wde_state(4, 4), factor=5, directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "shared-factor-minus-1": _wde_quantum(
        "shared", _wde_state(5, 4), factor=-1, directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "shared-1q": _wde_quantum("shared", [0.6, 0.8], directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "paired-file-sequential-factor-3": _wde_quantum(
        "paired", SINGLET_STATE, ordering="sequential", factor=3,
        directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "shared-ordering-null": _wde_quantum(
        "shared", _wde_state(6, 4), ordering=None, factor=1,
        directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "paired-random-grids": _wde_quantum(
        "paired", _wde_state(7, 4), directions=_WDE_DIRECTIONS,
        grids={"a": {"start": 0.0, "stop": np.pi, "step": np.pi / 5},
               "b": {"start": 0.0, "stop": np.pi, "step": np.pi / 7},
               "c": {"start": 1.0, "stop": 3.0, "step": 0.5}}),
    "paired-dim8": _wde_quantum(
        "paired", _wde_state(8, 8), directions=_WDE_DIRECTIONS, grid=_WDE_GRID),
    "shared-directions-and-projectors": _wde_quantum(
        "shared", _wde_state(9, 4), factor=1, directions=_WDE_DIRECTIONS,
        projectors=_WDE_MASKS, grid=_WDE_GRID),
}
WDE_EDGE_FLAGS = ((), ("--ordering", "sequential"), ("--format", "table", "--ordering", "symmetrized"))
WDE_FIXTURES = ("wde_classical.json", "wde_quantum.json", "wde_shared.json", "wde_tfu_sets.json")


def _run_digest(capsys, *argv) -> str:
    """sha256 of the exit code, stdout and stderr of one run."""
    code, out, err = run_cli(capsys, *argv)
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


# sha256 of (exit code, stdout, stderr) of every wde fixture and edge file,
# taken before the shared protocol's direction placement moved into `wde`
# and `cli` evaluated every mode from one table. Re-taken for the files
# whose tests are projectors under `search`, which now refuses them, and
# for "shared-directions-and-projectors", which gives both kinds of test
# and is now refused by both verbs. Re-taken for the four `search` runs
# whose witness is one of two exactly tied tuples (see
# test_search_witness_is_one_of_two_tied_tuples) when the shared overlap
# sheets came to be built from the direction amplitudes.
GOLDEN_WDE_SHA256 = {
    ("wde_classical.json", "eval", "structured"): "42bf28e814ce1fc62a12599e46f1c7d45f08fba1ca362bce55a4a46ea1729232",
    ("wde_classical.json", "eval", "csv"): "c15b8ead67d6649b50ca7b3d55926bb65ca525d1fef379b30d122f39dc073692",
    ("wde_classical.json", "eval", "table"): "d88896d92378b4e37904697742ab6c1609989080154e184014021086c4b355fb",
    ("wde_classical.json", "search", "structured"): "72892fc901dd24e213109014134c7041bbeb47393f5bbd822ccd6bb01a3f128d",
    ("wde_classical.json", "search", "csv"): "72892fc901dd24e213109014134c7041bbeb47393f5bbd822ccd6bb01a3f128d",
    ("wde_classical.json", "search", "table"): "72892fc901dd24e213109014134c7041bbeb47393f5bbd822ccd6bb01a3f128d",
    ("wde_quantum.json", "eval", "structured"): "ba293e2d065fd5f2f1740a44a89398512b97844b80b8505692245499de6c0ffd",
    ("wde_quantum.json", "eval", "csv"): "565891c942f557a3f0ee0c6a90b9e45282e8379baaa5e3c022f278d05d79f921",
    ("wde_quantum.json", "eval", "table"): "52a97383a7888a1e9f29ac6188007e1fe5c68ae09b453819f52edd3b4a73e40f",
    ("wde_quantum.json", "search", "structured"): "91284c270136f6adb824b5bd9ee6bf80c9175b34d953a0643aaeebbfcd444ca5",
    ("wde_quantum.json", "search", "csv"): "b132ccc3b28e999ae69036b15a95e0beaea4aaa3c16f958f65f2c64adad0d629",
    ("wde_quantum.json", "search", "table"): "1b5316688f5bfbc31566eba2c7a2b63de726d2de62471f388321d1f8a63caf26",
    ("wde_shared.json", "eval", "structured"): "faa9626e1936b8cc475245aabf46d633afcb9d85ab7c88329111760ec313eda0",
    ("wde_shared.json", "eval", "csv"): "017fe96ee8c72f6486524c4e5d0ca2fd775f2cb83c633073c17e2d69f7a8ab93",
    ("wde_shared.json", "eval", "table"): "eea3ea9e96e669c2e71bf75f4dd90cca7fad46046a603205afc4ac363bcc168d",
    ("wde_shared.json", "search", "structured"): "7f1c6ee85471f39a97913d6d759a3c9220357779f5fbcfcb32e2cd89f2b3f462",
    ("wde_shared.json", "search", "csv"): "7f1c6ee85471f39a97913d6d759a3c9220357779f5fbcfcb32e2cd89f2b3f462",
    ("wde_shared.json", "search", "table"): "7f1c6ee85471f39a97913d6d759a3c9220357779f5fbcfcb32e2cd89f2b3f462",
    ("wde_tfu_sets.json", "eval", "structured"): "e46f5ee1c65044ea8c94f2b4c58a8a47f63a62cd91aad6df1ebac699fd560e74",
    ("wde_tfu_sets.json", "eval", "csv"): "b6488a7b9f3204444d80cae1da69fb17c85b16fd42584c657f78b686945656c0",
    ("wde_tfu_sets.json", "eval", "table"): "34a5d433febc59d05ca610b7368f97ccca1dc065742a2b207a346f91f8fc00bf",
    ("wde_tfu_sets.json", "search", "structured"): "72892fc901dd24e213109014134c7041bbeb47393f5bbd822ccd6bb01a3f128d",
    ("wde_tfu_sets.json", "search", "csv"): "72892fc901dd24e213109014134c7041bbeb47393f5bbd822ccd6bb01a3f128d",
    ("wde_tfu_sets.json", "search", "table"): "72892fc901dd24e213109014134c7041bbeb47393f5bbd822ccd6bb01a3f128d",
    ("paired-dim8", "eval", 0): "de8154458363935d9bf830f41786fe4905660557e138f544e69d71e039e987a5",
    ("paired-dim8", "eval", 1): "de8154458363935d9bf830f41786fe4905660557e138f544e69d71e039e987a5",
    ("paired-dim8", "eval", 2): "de8154458363935d9bf830f41786fe4905660557e138f544e69d71e039e987a5",
    ("paired-dim8", "search", 0): "842e2dab8b71f7ccb6508858aefa61cf0d1735e3963fe6ce79890242d2f0e885",
    ("paired-dim8", "search", 1): "842e2dab8b71f7ccb6508858aefa61cf0d1735e3963fe6ce79890242d2f0e885",
    ("paired-dim8", "search", 2): "842e2dab8b71f7ccb6508858aefa61cf0d1735e3963fe6ce79890242d2f0e885",
    ("paired-file-sequential-factor-3", "eval", 0): "b229911430a60acce302a939fbbae71b56da8914fb39c49436d3206bcaa9bc7f",
    ("paired-file-sequential-factor-3", "eval", 1): "b229911430a60acce302a939fbbae71b56da8914fb39c49436d3206bcaa9bc7f",
    ("paired-file-sequential-factor-3", "eval", 2): "66f72d9a9e10f677969a9a2da5264f37807357e0e6da5f7e6b880160191cbd16",
    ("paired-file-sequential-factor-3", "search", 0): "05dfdde2034c37d927c10f9e6531337b46b90ddfcb44aea048650263aa012f0b",
    ("paired-file-sequential-factor-3", "search", 1): "05dfdde2034c37d927c10f9e6531337b46b90ddfcb44aea048650263aa012f0b",
    ("paired-file-sequential-factor-3", "search", 2): "05d1bc6c9c23dbcceb712bc7acfdf29e82b79ce67c2d51a24db18bd6f34a67f4",
    ("paired-grid-only", "eval", 0): "6cbca792175e408983f3c41765f493a087c988d12feaef1fc376d07e0f5c680e",
    ("paired-grid-only", "eval", 1): "6cbca792175e408983f3c41765f493a087c988d12feaef1fc376d07e0f5c680e",
    ("paired-grid-only", "eval", 2): "6cbca792175e408983f3c41765f493a087c988d12feaef1fc376d07e0f5c680e",
    ("paired-grid-only", "search", 0): "7a019fd318b426547474543519eac29a3eac71375870a0c19fd67ac733f07e32",
    ("paired-grid-only", "search", 1): "35a41fd294e1bd51fd509ef668be0647ded6e55fb910e7c84b684b3de4037c3f",
    ("paired-grid-only", "search", 2): "9441dfe84524149c0e2919cd624e88aec7b269a7f3137e33b9ea91505eabfb17",
    ("paired-no-grid", "eval", 0): "91d1479ff3bee523289837042e289e645c25f3d5c3149ce2c79c38bf3b1d16ba",
    ("paired-no-grid", "eval", 1): "d19758c680e03dc3519418780d7204b900252af7cbc531c3866db914c1a80b12",
    ("paired-no-grid", "eval", 2): "f42710ca1cdfc7a79555896523677aa36ab7ed1fc5a4465c4b518faa24bb72e0",
    ("paired-no-grid", "search", 0): "7f8c81ddc0093c1644dd4f45a7065cf6e0d50976b66f2224c309177c14edc03e",
    ("paired-no-grid", "search", 1): "7f8c81ddc0093c1644dd4f45a7065cf6e0d50976b66f2224c309177c14edc03e",
    ("paired-no-grid", "search", 2): "7f8c81ddc0093c1644dd4f45a7065cf6e0d50976b66f2224c309177c14edc03e",
    ("paired-random-grids", "eval", 0): "3eba67ef00006f8ba9e5883dbd2b98175ac16e667311dea39cf5825eac455149",
    ("paired-random-grids", "eval", 1): "7f7af438f62fa9465d27adfc6b29c50d9b2d96632757e9b1d4401bfc58aa981c",
    ("paired-random-grids", "eval", 2): "fee6876ae9a246bc110a5d3513092028e34d1825ea36706af7f08f89ae0ae0de",
    ("paired-random-grids", "search", 0): "7bda96bbef1c0a2ec0e9327d7782fefa64c0773fd902cbcfd4ffde8f2792fd27",
    ("paired-random-grids", "search", 1): "afa62a91e52bf1ebc9010a3f8af892fb6b416d9c4182470c9ba3da64218dccf6",
    ("paired-random-grids", "search", 2): "45664b8e8998c2cab784dda49c2d9d31093c7c1335ea6ce616a17e672acf2a5a",
    ("shared-1q", "eval", 0): "29a65cb0dd69ce30805371900c8000138dd3615dbc07003df216a20ada945d75",
    ("shared-1q", "eval", 1): "356e9a6d15a18d42afb8ffb00543f1ee08a9a158e7b2ff3a05ab3c01895aec0a",
    ("shared-1q", "eval", 2): "6f45cb9fea5126325129ff4c1eddfc11d264689798080161804720e233d3ef7b",
    ("shared-1q", "search", 0): "f257d56ddb9ae6d724db7fe07719704b0b82bcce57899a7b2e56bac6f21d64ef",
    ("shared-1q", "search", 1): "b8e5b4647491ef9d1b9f22f4854bca4b49cb921413b6497a9f5d4e1df9c9e1e5",
    ("shared-1q", "search", 2): "8c43d7364ca66305f2ce05bfb95677cac03bb94c1a0d74f48891f2588891ffe5",
    ("shared-2q-grids", "eval", 0): "2e3815d52547f96c8c68f02e8bf4f5f1ea761eece5e8773a6e1dd4a8c7e3f628",
    ("shared-2q-grids", "eval", 1): "2e3815d52547f96c8c68f02e8bf4f5f1ea761eece5e8773a6e1dd4a8c7e3f628",
    ("shared-2q-grids", "eval", 2): "65763d82d88f361c601b23d52b8c49c4e7961e752af615afe0364651a67d2518",
    ("shared-2q-grids", "search", 0): "8570521b00ab9a96754f9397782c4d4542db0ac6d89a0a353fc2386df55eb4b9",
    ("shared-2q-grids", "search", 1): "8570521b00ab9a96754f9397782c4d4542db0ac6d89a0a353fc2386df55eb4b9",
    ("shared-2q-grids", "search", 2): "5770f12591ed50957acbca5344b95629030e46bc929c274b7cf252241414c8bb",
    ("shared-3q-factor2", "eval", 0): "f6f24b9f70f808e0b36aa836dfed44f846999270339e702bcadd8bb6b9d2a02a",
    ("shared-3q-factor2", "eval", 1): "e895bf8c2e5ddd714adbb37e7eef9253a97accfa48ba9019edeb8968b4b610b2",
    ("shared-3q-factor2", "eval", 2): "61a49f11395a7a14c096c4d885ed8c9fbdee2bfca532e3656c848260a5df42fd",
    ("shared-3q-factor2", "search", 0): "840406340b411a5abc29620476d0379be707d633fece9870a756b188fcf5f607",
    ("shared-3q-factor2", "search", 1): "88bb7f37bd7e223fd42f753efe45724222d2ef7b1af7ad05b504b804737f4adf",
    ("shared-3q-factor2", "search", 2): "91a04952c323a9d42b25938dba4dcb9aeaf95534c84494f5949c2f8b59786112",
    ("shared-directions-and-projectors", "eval", 0): "1af81b682e3ba9c11a4efda5df2a28b23f764c13b0329591bf1084d6c69c69e5",
    ("shared-directions-and-projectors", "eval", 1): "1af81b682e3ba9c11a4efda5df2a28b23f764c13b0329591bf1084d6c69c69e5",
    ("shared-directions-and-projectors", "eval", 2): "1af81b682e3ba9c11a4efda5df2a28b23f764c13b0329591bf1084d6c69c69e5",
    ("shared-directions-and-projectors", "search", 0): "1af81b682e3ba9c11a4efda5df2a28b23f764c13b0329591bf1084d6c69c69e5",
    ("shared-directions-and-projectors", "search", 1): "1af81b682e3ba9c11a4efda5df2a28b23f764c13b0329591bf1084d6c69c69e5",
    ("shared-directions-and-projectors", "search", 2): "1af81b682e3ba9c11a4efda5df2a28b23f764c13b0329591bf1084d6c69c69e5",
    ("shared-factor-5", "eval", 0): "e56951c43ef45bf26e427f19fd43f19ded1cdf8245abbc6aa223594deb7eed46",
    ("shared-factor-5", "eval", 1): "e56951c43ef45bf26e427f19fd43f19ded1cdf8245abbc6aa223594deb7eed46",
    ("shared-factor-5", "eval", 2): "e56951c43ef45bf26e427f19fd43f19ded1cdf8245abbc6aa223594deb7eed46",
    ("shared-factor-5", "search", 0): "e56951c43ef45bf26e427f19fd43f19ded1cdf8245abbc6aa223594deb7eed46",
    ("shared-factor-5", "search", 1): "e56951c43ef45bf26e427f19fd43f19ded1cdf8245abbc6aa223594deb7eed46",
    ("shared-factor-5", "search", 2): "e56951c43ef45bf26e427f19fd43f19ded1cdf8245abbc6aa223594deb7eed46",
    ("shared-factor-minus-1", "eval", 0): "f653cd18952dd073f9f7ecdd4cec6e0ab38e3b7457d526759303e6ae13e52959",
    ("shared-factor-minus-1", "eval", 1): "f653cd18952dd073f9f7ecdd4cec6e0ab38e3b7457d526759303e6ae13e52959",
    ("shared-factor-minus-1", "eval", 2): "f653cd18952dd073f9f7ecdd4cec6e0ab38e3b7457d526759303e6ae13e52959",
    ("shared-factor-minus-1", "search", 0): "f653cd18952dd073f9f7ecdd4cec6e0ab38e3b7457d526759303e6ae13e52959",
    ("shared-factor-minus-1", "search", 1): "f653cd18952dd073f9f7ecdd4cec6e0ab38e3b7457d526759303e6ae13e52959",
    ("shared-factor-minus-1", "search", 2): "f653cd18952dd073f9f7ecdd4cec6e0ab38e3b7457d526759303e6ae13e52959",
    ("shared-grid-only-bad-factor", "eval", 0): "4060b6b3e5ae7db8541a1e1832b852c752822234abca30c983ba60adeb93bc7e",
    ("shared-grid-only-bad-factor", "eval", 1): "4060b6b3e5ae7db8541a1e1832b852c752822234abca30c983ba60adeb93bc7e",
    ("shared-grid-only-bad-factor", "eval", 2): "4060b6b3e5ae7db8541a1e1832b852c752822234abca30c983ba60adeb93bc7e",
    ("shared-grid-only-bad-factor", "search", 0): "9a7d174f352b3a14dd59289a7f8bc30d9ddc012f37a8ec5f4bd42814e632d73f",
    ("shared-grid-only-bad-factor", "search", 1): "9a7d174f352b3a14dd59289a7f8bc30d9ddc012f37a8ec5f4bd42814e632d73f",
    ("shared-grid-only-bad-factor", "search", 2): "9a7d174f352b3a14dd59289a7f8bc30d9ddc012f37a8ec5f4bd42814e632d73f",
    ("shared-ordering-null", "eval", 0): "25dee5f6ab2b72c5118831732d80cd953b800cf2b45c849ebeab561c76e115e0",
    ("shared-ordering-null", "eval", 1): "d127783de4aeec117371e44498ed2fd702e390a51487790333ca9dbd6e894f58",
    ("shared-ordering-null", "eval", 2): "3330a6947d95355a5b635881a048d0c3c9a34542c7f48dff8e7f030ae9eae61a",
    ("shared-ordering-null", "search", 0): "8b7d2c9eed96f5cf8e71d6e056c16205effb1ab75c5ae0d42cc573c1aacaeb03",
    ("shared-ordering-null", "search", 1): "30d6ebe718366176e0804ad6ff35535842781f5407b2d0b45c7c931356e9d569",
    ("shared-ordering-null", "search", 2): "37d847975a632d1ca84903963341cc1825968312e2cd5d5bf23cdbdcb875f1d3",
    ("shared-projectors-bad-factor", "eval", 0): "bf9e6d8041bc7cd72c65d6694e0059f1e04daebc4515d5b66e48b697b3dea091",
    ("shared-projectors-bad-factor", "eval", 1): "dbe25aa9b951808dc26eec31cc4ad253c6272334d2e2cda25e4bc4873ef41639",
    ("shared-projectors-bad-factor", "eval", 2): "06cb92c1352d33b19e2d304d5ccfdfde831473592c4d2e92ccab00001cd3d843",
    ("shared-projectors-bad-factor", "search", 0): "7f1c6ee85471f39a97913d6d759a3c9220357779f5fbcfcb32e2cd89f2b3f462",
    ("shared-projectors-bad-factor", "search", 1): "7f1c6ee85471f39a97913d6d759a3c9220357779f5fbcfcb32e2cd89f2b3f462",
    ("shared-projectors-bad-factor", "search", 2): "7f1c6ee85471f39a97913d6d759a3c9220357779f5fbcfcb32e2cd89f2b3f462",
}


@pytest.mark.parametrize("name", WDE_FIXTURES)
@pytest.mark.parametrize("verb", ["eval", "search"])
def test_wde_fixture_output_bytes_are_pinned(capsys, name, verb):
    got = {fmt: _run_digest(capsys, verb, str(FIXTURES / name), "--format", fmt)
           for fmt in tfuprob.report.FORMATS}
    assert got == {fmt: GOLDEN_WDE_SHA256[name, verb, fmt] for fmt in tfuprob.report.FORMATS}


@pytest.mark.parametrize("name", sorted(WDE_EDGE_FILES))
@pytest.mark.parametrize("verb", ["eval", "search"])
def test_wde_edge_output_bytes_are_pinned(capsys, tmp_path, name, verb):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(WDE_EDGE_FILES[name]))
    got = [_run_digest(capsys, verb, str(path), *flags) for flags in WDE_EDGE_FLAGS]
    assert got == [GOLDEN_WDE_SHA256[name, verb, pos] for pos in range(len(WDE_EDGE_FLAGS))]


# On the 5-point pi/4 grid, theta = 0 and theta = pi are complementary
# directions, so these searches have two tuples that tie exactly in real
# arithmetic, and rounding in the pair sheets picks between them. Flags
# 0 and 2 of "shared-1q" run the same symmetrized search.
@pytest.mark.parametrize("name, pos, ordering, tuples", [
    ("shared-1q", 0, "symmetrized", ((2, 4, 3), (3, 0, 2))),
    ("shared-1q", 1, "sequential", ((1, 4, 2), (3, 0, 2))),
    ("shared-1q", 2, "symmetrized", ((2, 4, 3), (3, 0, 2))),
    ("shared-ordering-null", 1, "sequential", ((1, 4, 2), (3, 0, 2))),
])
def test_search_witness_is_one_of_two_tied_tuples(capsys, tmp_path, name, pos, ordering, tuples):
    payload = WDE_EDGE_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "search", str(path), *WDE_EDGE_FLAGS[pos], "--format", "structured")
    assert code == 0, err
    grid = tfuprob.wde.AngleGrid(**_WDE_GRID).values()
    thetas = json.loads(out)["results"]["witness"]["thetas"]
    found = tuple(int(np.argmin(abs(grid - t))) for t in thetas)
    assert np.allclose(grid[list(found)], thetas, rtol=0, atol=1e-11)
    assert found in tuples
    state = tfuprob.quantum.ComplexStateVector(
        [complex(*z) if isinstance(z, list) else z for z in payload["state"]])
    factor = payload.get("factor", 0)
    violations = [
        tfuprob.wde.wde_quantum(*(tfuprob.quantum.QubitDirection(grid[x]) for x in t),
                                state, ordering, "shared", factor).violation
        for t in tuples
    ]
    assert abs(violations[0] - violations[1]) <= 1e-15


def _axis(start: float, step: float, points: int) -> dict:
    return {"start": start, "stop": start + step * (points - 1), "step": step}


# `search` files whose score cubes are too large for one block, so the scan
# bounds its blocks and prunes: per-axis and shared grids, both protocols and
# orderings, up to 1024 points per axis.
SEARCH_SCALE_FILES = {
    "shared-2q-symmetrized-grids-128": _wde_quantum(
        "shared", _wde_state(11, 4), factor=1, ordering="symmetrized",
        grids={"a": _axis(0.0, np.pi / 127, 128), "b": _axis(0.5, 0.02, 128),
               "c": _axis(-1.0, 0.05, 128)}),
    "shared-3q-sequential-grid-384": _wde_quantum(
        "shared", _wde_state(12, 8), factor=2, ordering="sequential",
        grid=_axis(0.0, np.pi / 383, 384)),
    "paired-random-2q-grid-128": _wde_quantum(
        "paired", _wde_state(13, 4), grid=_axis(0.0, np.pi / 127, 128)),
    "paired-singlet-grid-1024": _wde_quantum(
        "paired", SINGLET_STATE, grid=_axis(0.0, np.pi / 1023, 1024)),
    "shared-3q-grid-1024": _wde_quantum(
        "shared", _wde_state(14, 8), factor=0, grid=_axis(0.0, np.pi / 1023, 1024)),
}

# sha256 of (exit code, stdout, stderr) of `search` on each file above,
# taken before the shared protocol's overlap sheets were built from the
# direction amplitudes and before the scan walked surviving blocks only.
GOLDEN_SEARCH_SCALE_SHA256 = {
    "paired-random-2q-grid-128": "ba2bf854b5918bfa6f7703bcc050fc0e54ff30c3b803bbfce25c81ec5f840287",
    "paired-singlet-grid-1024": "448dc999d3be7416eddf29f5c3d7f1904d4bcbdbb8004231dc53c5e8aa3561c9",
    "shared-2q-symmetrized-grids-128": "3cd601b2ba18c5b15b2bd2f57b7aeded127fa95bc71cdadc2edc31521e71ca86",
    "shared-3q-grid-1024": "046de37251e902b0d963a3f74a223b1a4504088c0b20bb4d57eb72564352db35",
    "shared-3q-sequential-grid-384": "a4d4d2bf42c29edc6e22e0483227a4344e9c89d75ce71a09bcc20c76303d861f",
}


@pytest.mark.parametrize("name", sorted(SEARCH_SCALE_FILES))
def test_search_scale_output_bytes_are_pinned(capsys, tmp_path, name):
    payload = SEARCH_SCALE_FILES[name]
    grids = payload.get("grids") or dict.fromkeys("abc", payload.get("grid"))
    points = [tfuprob.wde.AngleGrid(**grids[axis]).points for axis in "abc"]
    assert 8 * np.prod(points) > tfuprob.kernels._SINGLE_BLOCK_BYTES  # a tiled, pruned scan
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    assert _run_digest(capsys, "search", str(path)) == GOLDEN_SEARCH_SCALE_SHA256[name]


# shared-protocol files whose tests are projectors, which `eval` tests and
# `search`, a scan of one-qubit directions, refuses
PROJECTOR_FILES = {
    "wde_shared.json": json.loads((FIXTURES / "wde_shared.json").read_text()),
    "shared-projectors-bad-factor": WDE_EDGE_FILES["shared-projectors-bad-factor"],
    "shared-3q-projectors": _wde_quantum("shared", _wde_state(10, 8), grid=_WDE_GRID, projectors={
        "a": {"type": "qubit-direction", "theta": 0.7, "phi": 0.2, "factor": 1, "n_factors": 3},
        "b": {"type": "subspace", "vectors": [[1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0, 0, 0]]},
        "c": {"type": "diagonal", "mask": [1, 0, 0, 1, 1, 0, 1, 0]},
    }),
}


@pytest.mark.parametrize("name", sorted(PROJECTOR_FILES))
def test_search_refuses_a_file_whose_tests_are_projectors(capsys, tmp_path, name):
    path = tmp_path / "projectors.json"
    path.write_text(json.dumps(PROJECTOR_FILES[name]))
    code, out, err = run_cli(capsys, "eval", str(path))
    assert code == 0 and err == "", err
    code, out, err = run_cli(capsys, "search", str(path))
    assert (code, out, err) == (
        2, "", "error: search scans qubit directions; this file's tests are projectors\n")


@pytest.mark.parametrize("verb", ["eval", "search"])
@pytest.mark.parametrize("protocol", ["paired", "shared"])
def test_wde_file_gives_directions_or_projectors_not_both(capsys, tmp_path, protocol, verb):
    payload = _wde_quantum(protocol, SINGLET_STATE, directions=_WDE_DIRECTIONS,
                           projectors=_WDE_MASKS, grid=_WDE_GRID)
    path = tmp_path / "both.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, verb, str(path))
    assert (code, out, err) == (
        2, "", "error: wde: give the tests as directions or as projectors, not both\n")


# sha256 of stdout of `check --seed S --format F`, taken before the
# classical engine's projectors became the mask form of HermitianProjector.
GOLDEN_CHECK_SHA256 = {
    ("0", "structured"): "a519b2e63cad6551ce8cfdc309933becbd341c2e75297e004cfd0ecff29df5dd",
    ("0", "csv"): "ecadb60de2581242d61ca93776e1ca922fe7e56d160c3218a88d9b9c2394ec49",
    ("0", "table"): "2e8b15c4dcfd84471665a8c0bec7e9e7b031f8832cfc7b2cb1f62badcb16d571",
    ("1", "structured"): "2eaf96a0f743ffdda8178c2c29e45bffe2d689e8d8f27c9dd52ba3db605b7ff7",
    ("1", "csv"): "cf8a174a872da8700a67e3207f30772ad55b26d3523b0efc17beef4f03153f31",
    ("1", "table"): "60016c96a62923c63c884baa27171be1faca6ada75e8e07ff20b502b2f4b94d2",
}


@pytest.mark.parametrize("seed, fmt", sorted(GOLDEN_CHECK_SHA256))
def test_check_output_bytes_are_pinned(capsys, seed, fmt):
    code, out, err = run_cli(capsys, "check", "--seed", seed, "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CHECK_SHA256[seed, fmt]


def test_check_passes_and_is_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "check")
    code2, out2, _ = run_cli(capsys, "check")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert report["seed"] == 0
    assert {s["name"] for s in report["suites"]} == {
        "logic", "classical", "measures", "quantum", "wde", "kernels"
    }
    assert all(s["passed"] and s["failure"] is None for s in report["suites"])
    assert all(s["cases"] > 0 for s in report["suites"])


def test_check_seed_changes_cases(capsys):
    base = json.loads(run_cli(capsys, "check")[1])
    other = json.loads(run_cli(capsys, "check", "--seed", "7")[1])
    assert other["seed"] == 7
    base_cases = [s["cases"] for s in base["suites"]]
    other_cases = [s["cases"] for s in other["suites"]]
    # rejection sampling makes at least one suite draw a different number
    assert base_cases != other_cases


def test_check_rejects_negative_seed_before_any_suite(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(tfuprob.checks, "SUITES", (lambda rng, tol: ran.append(1),))
    code, out, err = run_cli(capsys, "check", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "seed" in err and "-1" in err
    assert ran == []


def test_any_other_exception_exits_6_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise KeyError("suites")

    monkeypatch.setattr(tfuprob.cli, "cmd_check", broken)
    code, out, err = run_cli(capsys, "check")
    assert (code, out, err) == (6, "", "error: internal error (KeyError): 'suites'\n")


def test_line_breaks_in_error_messages_are_escaped_onto_one_line(capsys, monkeypatch, tmp_path):
    # str.splitlines breaks at U+2028 too, not only at \r and \n
    for name, escaped in (("a\nb", "a\\nb"), ("a\u2028b", "a\\u2028b")):
        path = tmp_path / "names.json"
        path.write_text(json.dumps({
            "version": 1, "mode": "quantum", "state": [0.6, 0.8],
            "projectors": {name: {"type": "diagonal", "mask": [1, 1]},
                           "c": {"type": "diagonal", "mask": [0, 0]}},
        }))
        code, out, err = run_cli(capsys, "eval", str(path))
        assert (code, out) == (4, "")
        assert err.startswith(f'error: cannot evaluate "cond({escaped}|c)": ')
        assert len(err.splitlines()) == err.count("\n") == 1

    def broken(args):
        raise RuntimeError("first\r\nsecond")

    monkeypatch.setattr(tfuprob.cli, "cmd_check", broken)
    code, out, err = run_cli(capsys, "check")
    assert (code, out, err) == (6, "", "error: internal error (RuntimeError): first\\r\\nsecond\n")


def test_a_vertical_tab_in_a_key_is_escaped_in_its_table_row(capsys, tmp_path):
    tree = json.loads((FIXTURES / "classical.json").read_text())
    path = tmp_path / "key.json"
    path.write_text(json.dumps({**tree, "k\x0b": 1}))
    code, out, err = run_cli(capsys, "eval", str(path), "--format", "table")
    assert (code, err) == (0, "")
    assert "input.k\\x0b" in out and "\x0b" not in out
    assert len(out.splitlines()) == out.count("\n")


def test_memory_error_has_its_own_exit_code(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(tfuprob.cli, "cmd_check", exhausted)
    code, out, err = run_cli(capsys, "check")
    assert code == 5
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"


def test_check_detects_skewed_value(capsys, monkeypatch):
    real = tfuprob.classical.cos2

    def skewed(a, b):
        return min(real(a, b) + 1e-3, 1.0)

    monkeypatch.setattr(tfuprob.classical, "cos2", skewed)
    code, out, err = run_cli(capsys, "check")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    broken = [s for s in report["suites"] if not s["passed"]]
    assert broken
    assert broken[0]["failure"]  # the counterexample is reported


def test_check_survives_mid_case_domain_error(capsys, monkeypatch):
    # a fault that raises instead of returning wrong numbers must still
    # produce a structured red report, not a crash
    real = tfuprob.classical.probability

    def lifted(p, s):
        return min(real(p, s) + 1e-3, 1.0)

    monkeypatch.setattr(tfuprob.classical, "probability", lifted)
    code, out, err = run_cli(capsys, "check")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    broken = [s for s in report["suites"] if not s["passed"]]
    assert broken and broken[0]["failure"]


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "eval", str(FIXTURES / "classical.json"), "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,value"
    assert '"results.pairs.p,q.|p&q|",0.25' in lines


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "eval", str(FIXTURES / "tfu_measure.json"), "--format", "table"
    )
    assert code == 0
    row = next(line for line in out.splitlines() if "gap(p,q)" in line)
    assert row.endswith("-0.25")


def test_module_entry_point_matches_in_process(capsys):
    code, inproc, _ = run_cli(capsys, "eval", str(FIXTURES / "tfu_table.json"))
    proc = subprocess.run(
        [sys.executable, "-m", "tfuprob", "eval", str(FIXTURES / "tfu_table.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == inproc


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "tfuprob", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "tfuprob 0.1.0"
