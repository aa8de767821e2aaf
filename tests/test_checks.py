"""The `check` suites' bookkeeping: failure records are built only for a
failing case, and the seed-independent tfu populations are built once per
process. Red reports are pinned byte for byte under three injected faults."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfuprob.checks
import tfuprob.classical
import tfuprob.formulas
import tfuprob.measures
import tfuprob.wde
from tfuprob.cli import main
from tfuprob.logic import T, U
from tfuprob.report import FORMATS

SRC = Path(tfuprob.checks.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _skewed_cos2(monkeypatch):
    real = tfuprob.classical.cos2
    monkeypatch.setattr(tfuprob.classical, "cos2", lambda a, b: min(real(a, b) + 1e-3, 1.0))


def _always_violated(monkeypatch):
    monkeypatch.setattr(tfuprob.wde, "wde_tfu_sets",
                        lambda pop: tfuprob.wde.WdeTriple(ab=0.0, not_b_c=0.0, ac=1.0))


def _skewed_tfu_probability(monkeypatch):
    real = tfuprob.measures.tfu_probability
    monkeypatch.setattr(tfuprob.measures, "tfu_probability", lambda p, m: real(p, m) + 1e-3)


FAULTS = {
    "cos2": _skewed_cos2,
    "wde_tfu_sets": _always_violated,
    "tfu_probability": _skewed_tfu_probability,
}

# sha256 of stdout of `check --seed 1 --format F` under each fault above,
# taken before failure records were built only on failure.
GOLDEN_RED_CHECK_SHA256 = {
    ("cos2", "structured"): "c9c035356fc9764956dbf6739acb79de61fa40b6e4c927fe8879bd0c4564779e",
    ("cos2", "csv"): "4828a5606427a5689fa20f55dbca6a5fbdef59058463830b5420d56d70a28fe1",
    ("cos2", "table"): "73a909f1858eefed187d20ef5a92cb03ace67319fe3aeb4beca0f629c8aac6f4",
    ("wde_tfu_sets", "structured"): "a01525e4487030b68bd770ff5788e1033cba58c8cdc68be17de8ffcb423236fa",
    ("wde_tfu_sets", "csv"): "82f9b539290a6d1f21d3917c62b9018e379969e46825bfb853fac62d1c50ea9f",
    ("wde_tfu_sets", "table"): "15b0425a27d0fb0db23a455d51796f2b2d2f5b7d40ec4afe9be79e0e3e4ade5f",
    ("tfu_probability", "structured"): "f5b4940c379dc77db77a7ab80df785ef44833bff54de8287804577dee1dff5c6",
    ("tfu_probability", "csv"): "24126ee911beca71ba0e6e9dbf46ff74f266792cdcebaa27753a9bdf69dd8ceb",
    ("tfu_probability", "table"): "772a0cc9b56a1f94651b3bb1819981f9ed0228051b8cf6c9f4e57e0c13cb78cd",
}


@pytest.mark.parametrize("fault, fmt", sorted(GOLDEN_RED_CHECK_SHA256))
def test_red_check_output_bytes_are_pinned(capsys, monkeypatch, fault, fmt):
    FAULTS[fault](monkeypatch)
    code, out, err = run_cli(capsys, "check", "--seed", "1", "--format", fmt)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RED_CHECK_SHA256[fault, fmt]


@pytest.fixture
def unparse_calls(monkeypatch):
    calls = []
    real = tfuprob.formulas.unparse

    def counting(formula):
        calls.append(real(formula))
        return calls[-1]

    monkeypatch.setattr(tfuprob.formulas, "unparse", counting)
    return calls


def test_green_run_builds_no_failure_record(capsys, unparse_calls):
    # the classical suite's record unparses both formulas of its case
    code, out, _ = run_cli(capsys, "check", "--seed", "0")
    assert code == 0
    assert json.loads(out)["suites"][1]["cases"] > 0
    assert unparse_calls == []


def test_red_run_builds_one_record_per_red_suite(capsys, monkeypatch, unparse_calls):
    _skewed_cos2(monkeypatch)
    code, out, _ = run_cli(capsys, "check", "--seed", "0")
    assert code == 1
    failure = json.loads(out)["suites"][1]["failure"]
    # unparse recurses through its module, so sub-formulas are counted too
    assert {failure["p"], failure["q"]} <= set(unparse_calls)
    assert all(text in failure["p"] or text in failure["q"] for text in unparse_calls)


def test_suite_calls_details_only_for_the_first_failure():
    suite = tfuprob.checks._Suite("s")
    built = []

    def details(i):
        return lambda: built.append(i) or {"i": i}

    for i, ok in enumerate([True, False, True, False]):
        assert suite.check(ok, "p", details(i)) is ok
    suite.check(False, "q")
    assert built == [1]
    assert suite.report() == {"name": "s", "cases": 5, "passed": False,
                              "failure": {"property": "p", "i": 1}}


def test_tfu_population_table_holds_every_one_and_two_member_population():
    table = tfuprob.checks._tfu_populations()
    assert table is tfuprob.checks._tfu_populations()
    assert len(table) == 27 + 27 * 27
    assert len({tuple(pop.items) for pop, _ in table}) == len(table)
    for pop, has_escape in table:
        assert len(pop.items) in (1, 2)
        assert pop.weights.tolist() == [1.0] * len(pop.items)
        assert not pop.weights.flags.writeable
        recount = sum(a is T and b is U and c is T for a, b, c in pop.items)
        assert has_escape == (recount > 0)
    assert sum(has_escape for _, has_escape in table) == 1 + 2 * 27 - 1


def test_tfu_population_table_is_built_on_first_use_not_at_import():
    probe = "import tfuprob.checks as c; print(c._tfu_populations.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_patched_tfu_counting_turns_the_wde_suite_red_after_the_table_exists(capsys, monkeypatch):
    tfuprob.checks._tfu_populations()
    _always_violated(monkeypatch)
    code, out, _ = run_cli(capsys, "check")
    assert code == 1
    wde_suite = next(s for s in json.loads(out)["suites"] if s["name"] == "wde")
    assert wde_suite["failure"] == {"property": "tfu-escape-direction", "members": ["TTT"]}


@pytest.mark.parametrize("fmt", FORMATS)
def test_fresh_process_prints_the_bytes_of_a_warm_in_process_run(capsys, fmt):
    argv = ["check", "--seed", "3", "--format", fmt]
    run_cli(capsys, *argv)
    code, warm, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "tfuprob", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, warm, "")
    assert code == 0
