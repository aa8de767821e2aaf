"""Tests of the benchmark itself: the generator, the output checks and the
self-time arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import verify  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, op_medians, percentile  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402
from tfuprob import cli, kernels, problemfile, quantum, wde  # noqa: E402
from tfuprob.problemfile import QuantumProblem, TfuTableProblem  # noqa: E402
from tfuprob.report import dumps_canonical  # noqa: E402

SEEDS = (0, 1, 7)
FILE_WORKLOADS = ("search-grid", "eval-large")


def _run(op) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.resolved_argv())
    return code, out.getvalue()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = inputs.build_mix(workload, 3)
    again = inputs.build_mix(workload, 3)
    other = inputs.build_mix(workload, 4)
    assert [(op.argv, op.text) for op in first] == [(op.argv, op.text) for op in again]
    assert [(op.argv, op.text) for op in first] != [(op.argv, op.text) for op in other]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", FILE_WORKLOADS)
def test_inputs_are_valid(workload, seed):
    for op in inputs.build_mix(workload, seed):
        pf = problemfile.loads(op.text)
        assert op.props["bytes"] == len(op.text.encode())
        problem = pf.problem
        if isinstance(problem, TfuTableProblem):
            values = [str(v) for v in problem.table.values]
            assert values.count("T") <= 1 and values.count("F") < len(values)
        if isinstance(problem, QuantumProblem):
            for proj in problem.projectors.values():
                assert quantum.born(proj, problem.state) > 1e-6
        if op.verb == "search":
            points = [g.values().size for g in problem.grids]
            assert points == [op.props["points"]] * 3
            assert op.props["tuples"] == op.props["points"] ** 3


def test_every_mode_and_variant_is_in_eval_large():
    modes = {op.props["mode"] for op in inputs.build_mix("eval-large", 0)}
    assert modes == {
        "tfu-table", "classical", "tfu-measure", "quantum", "wde-classical",
        "wde-tfu-sets", "wde-quantum-paired", "wde-quantum-shared",
    }


def test_check_seeds_are_successive_and_disjoint_across_runs():
    seeds = [inputs.build_mix("check-seeds", 2, p)[0].argv[-1] for p in range(3)]
    assert seeds == [str(inputs.check_seed(2, p)) for p in range(3)]
    assert inputs.check_seed(3, 0) > inputs.check_seed(2, 10_000)


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_outputs_pass_their_checks(tmp_path, seed):
    ops = inputs.build_mix("eval-large", seed)
    ops = [op for op in ops if op.props.get("n", 0) <= 8 and op.props.get("dim", 0) <= 8]
    inputs.write_inputs(ops, tmp_path)
    for op in ops:
        code, out = _run(op)
        assert code == 0, op.name
        assert verify.check_output(op, out, np.random.default_rng(0)) == [], op.name


@pytest.mark.parametrize("seed", SEEDS)
def test_search_outputs_match_the_oracle(tmp_path, seed):
    ops = [op for op in inputs.build_mix("search-grid", seed) if op.props["points"] <= 64]
    inputs.write_inputs(ops, tmp_path)
    rng = np.random.default_rng(0)
    for op in ops:
        code, out = _run(op)
        assert code == 0, op.name
        assert verify.check_output(op, out, rng) == [], op.name


def test_search_check_catches_a_wrong_witness(tmp_path):
    op = next(op for op in inputs.build_mix("search-grid", 0) if op.props["state"] == "singlet")
    inputs.write_inputs([op], tmp_path)
    code, out = _run(op)
    report = json.loads(out)
    thetas = report["results"]["witness"]["thetas"]
    report["results"]["witness"]["thetas"] = [thetas[0], thetas[2], thetas[1]]
    assert verify.check_output(op, dumps_canonical(report), np.random.default_rng(0))


def test_check_op_passes():
    op = inputs.build_mix("check-seeds", 0)[0]
    code, out = _run(op)
    assert code == 0
    assert verify.check_output(op, out, None) == []
    assert verify.check_check(op, out.replace('"passed":true', '"passed":false'))


def test_self_time_subtracts_clipped_children():
    # root [0,10]; A [1,4] holds A1 [2,3]; B [5,7]; C [9,12] runs past root.
    start = [0.0, 1.0, 2.0, 5.0, 9.0]
    end = [10.0, 4.0, 3.0, 7.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 1.0, 2.0, 3.0]


def test_tracer_wraps_where_callers_look_up_and_restores():
    original_load, original_scan = problemfile.load_path, kernels.scan_triple
    tracer = Tracer()
    tracer.install()
    try:
        # cli binds load_path by name; wde reaches scan_triple as a module attribute
        assert cli.load_path is problemfile.load_path is not original_load
        assert cli.load_path.__wrapped__ is original_load
        assert wde.kernels.scan_triple.__wrapped__ is original_scan
    finally:
        tracer.uninstall()
    assert cli.load_path is original_load and kernels.scan_triple is original_scan


def test_layer_shares_add_up_to_one(tmp_path):
    ops = [op for op in inputs.build_mix("search-grid", 0) if op.props["points"] <= 24]
    inputs.write_inputs(ops, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            assert _run(op)[0] == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert sum(metrics[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    assert metrics["kernels.calls"] > 0 and metrics["formulas.calls"] == 0
    assert metrics["kernels.tuples"] == np.mean([op.props["tuples"] for op in ops])
    assert metrics["wde.witness_ratio"] > 0


def test_metric_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    for metric in spec["per_layer"]:
        assert PER_LAYER_UNITS[metric["name"].rsplit(".", 1)[1]] == metric["unit"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([3.0], 90) == 3.0


def test_op_medians_take_each_op_of_the_mix_at_its_median():
    # three passes of a two-op mix: op 0 ran at 1, 1 and 9 s, op 1 at 2, 3 and 4 s
    assert op_medians([1.0, 2.0, 1.0, 3.0, 9.0, 4.0], 2) == [1.0, 3.0]
