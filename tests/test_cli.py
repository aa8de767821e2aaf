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
import tfuprob.quantum
import tfuprob.report
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


def test_search_reports_no_witness_on_commuting_grid(capsys):
    code, out, err = run_cli(capsys, "search", str(FIXTURES / "wde_shared.json"))
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
    ],
    ids=["missing-file", "tolerance-minus-inf", "unknown-verb", "tolerance-x"],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    argv = [str(FIXTURES / "classical.json") if a == "FILE" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


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


def _documented_codes(text: str) -> set[int]:
    return {int(code) for code in re.findall(r"(?m)^\| (\d+) \|", text)}


def test_exit_code_table_matches_readme_and_docstring():
    readme = (FIXTURES.parent / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    docstring = tfuprob.cli.__doc__.split("Exit codes:", 1)[1]
    in_docstring = {int(code) for code in re.findall(r"(\d+) [a-z]", docstring)}
    cli = tfuprob.cli
    in_table = {cli.EXIT_OK, cli.EXIT_CHECK_FAILED, *cli.EXIT_CODES.values()}
    assert _documented_codes(section) == in_docstring == in_table == {0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize(
    "error, code",
    [
        (tfuprob.errors.ProblemFileError("x"), 2),
        (tfuprob.errors.FormulaError("x"), 2),
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


# Amplitude lists that are not all [re, im] pairs of floats are read item by
# item; their exit codes and messages are the ones that reading always gave.
@pytest.mark.parametrize(
    "payload, code, err",
    [
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
