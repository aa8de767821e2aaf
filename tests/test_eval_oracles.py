"""The per-call pair loops of `eval` and the per-call engine functions they
called, which read every proposition through a truth mask, kept as oracles
for the per-proposition tables and slab reads that replaced them (classical
projections read as slabs of the state, T/F masses as slabs of the cell
cube). Results are compared bit for bit; errors by class and text."""

import json
from argparse import Namespace

import numpy as np
import pytest

from tfuprob import classical, cli, measures
from tfuprob.errors import UndefinedConditionalError, ValidationError
from tfuprob.logic import default_names
from tfuprob.problemfile import ClassicalProblem, TfuMeasureProblem, loads
from tfuprob.quantum import HermitianProjector


# ---------------------------------------------------------------------------
# the old per-call engine functions

def _old_conditional(q, p, s, tol=classical.IDENTITY_TOL):
    projected = np.where(p.mask, s.components, 0.0)
    weight = float(np.dot(projected, projected))
    if weight <= tol:
        raise UndefinedConditionalError(
            f"cannot condition: the condition has probability {weight!r} <= {tol}"
        )
    projected = projected / np.sqrt(weight)
    return min(float(np.dot(projected[q.mask], projected[q.mask])), 1.0)


def _old_direction(vector):
    """The unit vector of a nonzero vector, normalized by its norm."""
    norm = float(np.linalg.norm(vector))
    if norm <= 0.0:
        raise ValidationError("zero vector has no direction")
    return vector / norm


def _old_projected_direction(p, s):
    return _old_direction(np.where(p.mask, s.components, 0.0))


def _old_cos2(a, b):
    return min(float(np.dot(a, b) ** 2), 1.0)


def _old_mass(m, prop, digit):
    digits = (np.arange(3 ** m.n) // 3 ** (m.n - 1 - prop)) % 3
    return float(m.measures[digits == digit].sum())


def _old_tfu_probability(prop, m):
    t, f = _old_mass(m, prop, 0), _old_mass(m, prop, 1)
    if t + f <= 0.0:
        raise UndefinedConditionalError(
            f"proposition {prop} is everywhere undecidable: no decided mass"
        )
    return t / (t + f)


def _old_swap_tf(m, prop):
    """The assignment with T and F exchanged on one proposition: the copy
    [~p] was once read from."""
    return measures.TfuMeasureAssignment(m.n, np.take(m.cube, [1, 0, 2], axis=prop).ravel())


def _old_tfu_conditional(q, p, m):
    if p == q:
        raise ValidationError("conditional needs two distinct propositions")
    dp = (np.arange(3 ** m.n) // 3 ** (m.n - 1 - p)) % 3
    dq = (np.arange(3 ** m.n) // 3 ** (m.n - 1 - q)) % 3
    tt = float(m.measures[(dp == 0) & (dq == 0)].sum())
    tf = float(m.measures[(dp == 0) & (dq == 1)].sum())
    if tt + tf <= 0.0:
        raise UndefinedConditionalError(
            f"no decided mass for proposition {q} among cells where {p} is true"
        )
    return tt / (tt + tf)


def _old_gap(p, q, m):
    forward = _old_tfu_probability(p, m) * _old_tfu_conditional(q, p, m)
    backward = _old_tfu_probability(q, m) * _old_tfu_conditional(p, q, m)
    return forward - backward


# ---------------------------------------------------------------------------
# the old pair loops of cli

def _old_eval_classical(problem, tol):
    dist = problem.distribution
    n = dist.n
    names = default_names(n)
    vec = classical.build_state_vector(dist)
    state_dir = _old_direction(vec.components)
    projs = [classical.projector_for(i, n) for i in range(n)]
    probs = [classical.probability(projs[i], vec) for i in range(n)]
    dirs = [None] * n
    propositions = {}
    for i, name in enumerate(names):
        entry = {f"|{name}|": probs[i]}
        if probs[i] > tol:
            dirs[i] = _old_projected_direction(projs[i], vec)
            entry[f"cos2({name.upper()},S)"] = _old_cos2(state_dir, dirs[i])
        propositions[name] = entry
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pn, qn = names[i], names[j]
            p, q = projs[i], projs[j]
            pq = classical.and_op(p, q)
            joint = classical.probability(pq, vec)
            entry = {f"|{pn}&{qn}|": joint}
            with cli._labeled(f"|{qn}|_{pn}"):
                entry[f"|{qn}|_{pn}"] = _old_conditional(q, p, vec, tol)
            with cli._labeled(f"|{pn}|_{qn}"):
                entry[f"|{pn}|_{qn}"] = _old_conditional(p, q, vec, tol)
            if probs[i] > tol and probs[j] > tol:
                dir_p, dir_q = dirs[i], dirs[j]
                entry[f"cos2({pn.upper()},{qn.upper()})"] = _old_cos2(dir_p, dir_q)
                if joint > tol:
                    dir_pq = _old_projected_direction(pq, vec)
                    entry[f"cos2({pn.upper()},{pn.upper()}{qn.upper()})"] = _old_cos2(
                        dir_p, dir_pq
                    )
                    entry[f"cos2({qn.upper()},{pn.upper()}{qn.upper()})"] = _old_cos2(
                        dir_q, dir_pq
                    )
            pairs[f"{pn},{qn}"] = entry
    return {"propositions": propositions, "pairs": pairs}


def _old_eval_tfu_measure(problem):
    m = problem.assignment
    names = default_names(m.n)
    propositions = {}
    for i, name in enumerate(names):
        with cli._labeled(f"[{name}]"):
            prob = _old_tfu_probability(i, m)
            comp = _old_tfu_probability(i, _old_swap_tf(m, i))
        propositions[name] = {f"[{name}]": prob, f"[~{name}]": comp}
    pairs = {}
    for i in range(m.n):
        for j in range(i + 1, m.n):
            pn, qn = names[i], names[j]
            entry = {}
            with cli._labeled(f"[{qn}]_{pn}"):
                entry[f"[{qn}]_{pn}"] = _old_tfu_conditional(j, i, m)
            with cli._labeled(f"[{pn}]_{qn}"):
                entry[f"[{pn}]_{qn}"] = _old_tfu_conditional(i, j, m)
            with cli._labeled(f"gap({pn},{qn})"):
                entry[f"gap({pn},{qn})"] = _old_gap(i, j, m)
            pairs[f"{pn},{qn}"] = entry
    return {"propositions": propositions, "pairs": pairs}


# ---------------------------------------------------------------------------
# inputs

def _classical_payload(rng, n, kind):
    """Strictly positive, or with null propositions, certain propositions,
    null pairs or masses around the default tolerance."""
    size = 1 << n
    probs = rng.random(size) + 1e-3
    bits = (np.arange(size)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # 1 = negated
    p = int(rng.integers(n))
    if kind == "null":
        probs[bits[:, p] == 0] = 0.0
    elif kind == "certain":
        probs[bits[:, p] == 1] = 0.0
    elif kind == "null-pair" and n >= 2:
        probs[(bits[:, 0] == 0) & (bits[:, n - 1] == 0)] = 0.0
    elif kind == "tiny":
        probs[bits[:, p] == 0] = 1e-13 / size
    elif kind == "sparse":
        probs *= rng.random(size) < 0.3
        probs[int(rng.integers(size))] += 0.5
    probs /= probs.sum()
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        probs[np.argmax(probs)] += 1.0 - float(probs.sum())
    return {"version": 1, "mode": "classical", "n": n, "probs": probs.tolist()}


def _tfu_measure_payload(rng, n, kind):
    cells = 3 ** n
    weights = rng.random(cells) * 4.0 + 0.01
    digits = (np.arange(cells)[:, None] // 3 ** np.arange(n - 1, -1, -1)) % 3
    p = int(rng.integers(n))
    if kind == "undecidable":
        weights[digits[:, p] != 2] = 0.0
    elif kind == "never-true":
        weights[digits[:, p] == 0] = 0.0
    elif kind == "true-only-with-u" and n >= 2:
        q = (p + 1) % n
        weights[(digits[:, p] == 0) & (digits[:, q] != 2)] = 0.0
    elif kind == "sparse":
        weights *= rng.random(cells) < 0.3
        weights[int(rng.integers(cells))] += 1.0
    return {"version": 1, "mode": "tfu-measure", "n": n, "measures": weights.tolist()}


CLASSICAL_KINDS = ("positive", "null", "certain", "null-pair", "tiny", "sparse")
TFU_KINDS = ("positive", "undecidable", "never-true", "true-only-with-u", "sparse")
TOLERANCES = (1e-12, 0.0, -1.0, 0.05, 0.3, 0.6, 0.95, 2.0)


def _outcome(fn, *args):
    """repr of the results (exact floats, -0.0 kept), or the error raised."""
    try:
        return "ok", repr(fn(*args))
    except (UndefinedConditionalError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# pair loops against the old loops

@pytest.mark.parametrize("n", range(1, 13))
def test_classical_pairs_match_per_call_loop(n):
    rng = np.random.default_rng([113, n])
    for kind in CLASSICAL_KINDS:
        problem = loads(json.dumps(_classical_payload(rng, n, kind))).problem
        for tol in TOLERANCES:
            want = _outcome(_old_eval_classical, problem, tol)
            assert _outcome(cli._eval_classical, problem, Namespace(tolerance=tol)) == want, (kind, tol)


@pytest.mark.parametrize("n", range(1, 8))
def test_tfu_measure_pairs_match_per_call_loop(n):
    rng = np.random.default_rng([127, n])
    for kind in TFU_KINDS:
        for _ in range(3):
            problem = loads(json.dumps(_tfu_measure_payload(rng, n, kind))).problem
            want = _outcome(_old_eval_tfu_measure, problem)
            assert _outcome(cli._eval_tfu_measure, problem, None) == want, kind


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["structured", "csv", "table"])
def test_eval_bytes_match_per_call_loops(capsys, monkeypatch, tmp_path, fmt):
    # a large tolerance stops at the same first pair with the same message
    rng = np.random.default_rng(131)
    cases = [(_classical_payload(rng, 5, kind), tol)
             for kind in CLASSICAL_KINDS for tol in TOLERANCES]
    cases += [(_tfu_measure_payload(rng, 4, kind), 1e-12) for kind in TFU_KINDS]
    codes = set()
    for pos, (payload, tol) in enumerate(cases):
        path = tmp_path / f"case{pos}.json"
        path.write_text(json.dumps(payload))
        argv = ["eval", str(path), "--format", fmt, "--tolerance", repr(tol)]
        got = _run(capsys, argv)
        with monkeypatch.context() as m:
            m.setitem(cli.EVALUATORS, ClassicalProblem,
                      lambda problem, args: _old_eval_classical(problem, args.tolerance))
            m.setitem(cli.EVALUATORS, TfuMeasureProblem,
                      lambda problem, args: _old_eval_tfu_measure(problem))
            want = _run(capsys, argv)
        assert got == want, (pos, tol)
        codes.add(got[0])
    assert codes == {0, 3, 4}  # reports, null directions and undefined conditionals


# ---------------------------------------------------------------------------
# engine functions against the old per-call bodies

def test_projection_is_what_conditional_and_direction_computed():
    rng = np.random.default_rng(137)
    for trial in range(200):
        n = int(rng.integers(1, 8))
        payload = _classical_payload(rng, n, CLASSICAL_KINDS[trial % len(CLASSICAL_KINDS)])
        s = classical.build_state_vector(loads(json.dumps(payload)).problem.distribution)
        p = classical.projector_for(int(rng.integers(n)), n)
        q = classical.projector_for(int(rng.integers(n)), n)
        proj = classical.project(p, s)
        vector = np.where(p.mask, s.components, 0.0)
        assert proj.weight == float(np.dot(vector, vector))
        for tol in (1e-12, 0.3):
            want = _outcome(_old_conditional, q, p, s, tol)
            assert _outcome(classical.conditional, q, p, s, tol) == want
            assert _outcome(proj.conditional, q, tol) == want
        want = _outcome(lambda: _old_projected_direction(p, s).tobytes())
        assert _outcome(lambda: classical.projected_direction(p, s).unit.tobytes()) == want
        assert _outcome(lambda: proj.direction().unit.tobytes()) == want
        if proj.weight <= 0.0:
            assert np.isnan(proj.unit).all()
        with pytest.raises(ValueError):
            proj.unit[0] = 1.0
        assert classical.state_direction(s).unit.tobytes() == _old_direction(s.components).tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_slab_reads_are_the_mask_gathers(n):
    # affirmed/project_affirmed read a proposition, or the conjunction of
    # two, as a slab of the state; the truth masks gather the same entries
    rng = np.random.default_rng([149, n])
    for kind in CLASSICAL_KINDS:
        s = classical.build_state_vector(
            loads(json.dumps(_classical_payload(rng, n, kind))).problem.distribution
        )
        masks = [classical.projector_for(i, n).mask for i in range(n)]
        subsets = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
        for props in subsets:
            mask = np.logical_and.reduce([masks[k] for k in props])
            assert classical.affirmed(s.components, *props).tobytes() == s.components[mask].tobytes()
            got = classical.project_affirmed(s, *props)
            want = classical.project(HermitianProjector.from_diagonal(mask), s)
            assert repr(got.weight) == repr(want.weight)
            assert got.unit.tobytes() == want.unit.tobytes()
            assert _outcome(lambda: got.direction().unit.tobytes()) == _outcome(
                lambda: want.direction().unit.tobytes()
            )
            for q in range(n):
                q_mask = HermitianProjector.from_diagonal(masks[q])
                for tol in (1e-12, 0.3, -1.0):
                    assert _outcome(got.conditional, q, tol) == _outcome(
                        want.conditional, q_mask, tol
                    ), (kind, props, q, tol)
    v = np.zeros(1 << n)
    for bad in (-1, n):
        with pytest.raises(ValidationError, match="out of range"):
            classical.affirmed(v, bad)


def test_projection_checks_dimensions():
    s = classical.build_state_vector(classical.ClassicalDistribution([0.25] * 4))
    wide = classical.projector_for(0, 3)
    with pytest.raises(ValidationError, match="dimensions differ"):
        classical.project(wide, s)
    with pytest.raises(ValidationError, match="dimensions differ"):
        classical.project(classical.projector_for(0, 2), s).conditional(wide)


def test_tfu_functions_match_per_call_bodies():
    rng = np.random.default_rng(139)
    for trial in range(150):
        n = int(rng.integers(1, 5))
        m = loads(json.dumps(_tfu_measure_payload(rng, n, TFU_KINDS[trial % len(TFU_KINDS)]))).problem.assignment
        for p in range(-1, n + 1):
            want = _outcome(_old_tfu_probability, p, m) if 0 <= p < n else None
            if want is not None:
                assert _outcome(measures.tfu_probability, p, m) == want
                assert _outcome(lambda: measures.complement_check(p, m)[0]) == want
                assert _outcome(lambda: measures.complement_check(p, m)[1]) == _outcome(
                    _old_tfu_probability, p, _old_swap_tf(m, p)
                )
            else:
                with pytest.raises(ValidationError, match="out of range"):
                    measures.tfu_probability(p, m)
            for q in range(n):
                if not 0 <= p < n:
                    continue
                if p != q:
                    assert _outcome(measures.tfu_conditional, q, p, m) == _outcome(
                        _old_tfu_conditional, q, p, m
                    )
                assert _outcome(measures.noncommutativity_gap, p, q, m) == _outcome(
                    _old_gap, p, q, m
                )
