"""Acceptance gate: one test per numbered criterion, one printed line each.

Every test prints "criterion N: PASS/FAIL - <label>" (visible with -s, and
in the captured output of a failing run), checks the stated tolerances, and
enforces the stated time budgets. Oracles here are deliberately primitive:
mass summations, dense matrix products, and exhaustive enumeration written
against the data, not against the library internals they certify.
"""

import contextlib
import io
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tfuprob.classical import (
    ClassicalDistribution,
    and_op,
    build_state_vector,
    conditional,
    cos2,
    negation_op,
    probability,
    projected_direction,
    projector_for,
    state_direction,
)
from tfuprob.cli import main as cli_main
from tfuprob.logic import (
    AMBIGUOUS,
    CompleteStateTable,
    T,
    F,
    U,
    affirms,
    conjoin,
    derive_value,
    negate,
    state_count,
)
from tfuprob.measures import (
    DecidabilityAugmentedSpace,
    TfuMeasureAssignment,
    noncommutativity_gap,
    tfu_conditional,
    tfu_from_augmented,
    tfu_probability,
)
from tfuprob.quantum import (
    ComplexStateVector,
    HermitianProjector,
    QubitDirection,
    born,
    product_asymmetry,
    projector_from_spec,
    sequential_conditional,
)
from tfuprob.report import dumps_canonical
from tfuprob.wde import AngleGrid, search_violation, singlet_state, wde_classical, wde_quantum_paired

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EXACT = 0.0
TOL = 1e-12


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    print(f"criterion {number}: PASS - {label}")


def test_criterion_1_truth_tables_exact():
    with criterion(1, "negation and conjunction tables exact on all cells"):
        negation = {T: F, F: T, U: U}
        conjunction = {
            (T, T): T, (T, F): F, (T, U): U,
            (F, T): F, (F, F): F, (F, U): F,
            (U, T): U, (U, F): F, (U, U): AMBIGUOUS,
        }
        conjoin(T, T)  # warm the interpreter before timing
        start = time.perf_counter()
        got_neg = {a: negate(a) for a in (T, F, U)}
        got_conj = {pair: conjoin(*pair) for pair in conjunction}
        elapsed = time.perf_counter() - start
        for a, want in negation.items():
            assert got_neg[a] is want
        for pair, want in conjunction.items():
            assert got_conj[pair] is want
        assert elapsed < 1e-3, f"table evaluation took {elapsed:.6f}s"


def test_criterion_2_derivation_rules_iff_exhaustive():
    with criterion(2, "rules I/II hold in both iff directions, exhaustive n<=3"):
        start = time.perf_counter()
        values = (T, F, U)
        checked = 0
        for n in (1, 2, 3):
            dim = state_count(n)
            for combo in itertools.product(values, repeat=dim):
                trues = sum(1 for v in combo if v is T)
                if trues > 1 or all(v is F for v in combo):
                    continue  # invalid by construction invariants
                table = CompleteStateTable(n, combo)
                checked += 1
                for p in range(n):
                    aff_false = all(
                        combo[s] is F for s in range(dim) if affirms(s, p, n)
                    )
                    neg_false = all(
                        combo[s] is F for s in range(dim) if not affirms(s, p, n)
                    )
                    derived = derive_value(p, table)
                    assert (derived is F) == aff_false
                    assert (derived is T) == neg_false
                    assert (derived is U) == (not aff_false and not neg_false)
        elapsed = time.perf_counter() - start
        # of the 3^(2^n) candidates per n, exactly these survive the
        # at-most-one-T / not-all-F invariants: 7 + 47 + 1279
        assert checked == 1333
        assert elapsed < 10.0, f"exhaustive derivation check took {elapsed:.2f}s"


def test_criterion_3_classical_identity_suite():
    with criterion(3, "classical identities, 1e4 distributions per n in 1..4"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for n in (1, 2, 3, 4):
            dim = 1 << n
            raw = rng.uniform(size=(10_000, dim)) + 1e-6
            raw /= raw.sum(axis=1, keepdims=True)
            p = projector_for(0, n)
            masks = {"p": p.mask}
            if n >= 2:
                q = projector_for(1, n)
                pq = and_op(p, q)
                pnq = and_op(p, negation_op(q))
                masks.update({"q": q.mask, "pq": pq.mask, "pnq": pnq.mask})
            for row in raw:
                dist = ClassicalDistribution(row)
                vec = build_state_vector(dist)
                prob_p = probability(p, vec)
                # summation oracle: plain mass totals, no vectors involved
                assert abs(prob_p - row[masks["p"]].sum()) <= TOL
                # complement rule
                assert abs(probability(negation_op(p), vec) - (1 - prob_p)) <= TOL
                # Born-like cosine against the full state
                assert abs(
                    cos2(state_direction(vec), projected_direction(p, vec)) - prob_p
                ) <= TOL
                if n < 2:
                    continue
                prob_q = probability(q, vec)
                joint = probability(pq, vec)
                assert abs(joint - row[masks["pq"]].sum()) <= TOL
                # marginalization over the polarity of q
                assert abs(prob_p - joint - probability(pnq, vec)) <= TOL
                # product rule, both factorizations (symmetry of the joint)
                q_given_p = conditional(q, p, vec)
                p_given_q = conditional(p, q, vec)
                assert abs(joint - prob_p * q_given_p) <= TOL
                assert abs(joint - prob_q * p_given_q) <= TOL
                # conditional cosine and two-sided cosine
                dir_p = projected_direction(p, vec)
                assert abs(cos2(dir_p, projected_direction(pq, vec)) - q_given_p) <= TOL
                assert abs(
                    cos2(dir_p, projected_direction(q, vec)) - p_given_q * q_given_p
                ) <= TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"identity suite took {elapsed:.2f}s"


def _swap_tf(m: TfuMeasureAssignment, prop: int) -> TfuMeasureAssignment:
    """The assignment with T and F exchanged on one proposition (its negation)."""
    return TfuMeasureAssignment(m.n, np.take(m.cube, [1, 0, 2], axis=prop).ravel())


def test_criterion_4_tfu_measure_suite():
    with criterion(4, "measure identities, 1e4 cases each"):
        rng = np.random.default_rng(1931)
        start = time.perf_counter()
        cells = 9  # n = 2
        batch = rng.uniform(size=(10_000, cells)) + 1e-9
        u_cells_p = np.arange(cells) // 3 == 2  # cells where p is undecidable
        for row in batch:
            m = TfuMeasureAssignment(2, row)
            prob = tfu_probability(0, m)
            # complement through the T/F swap
            assert abs(prob + tfu_probability(0, _swap_tf(m, 0)) - 1.0) <= TOL
            # scale invariance
            assert abs(tfu_probability(0, TfuMeasureAssignment(2, row * 97.0)) - prob) <= TOL
            # undecided mass is inert
            lifted = row + np.where(u_cells_p, 3.0, 0.0)
            assert abs(tfu_probability(0, TfuMeasureAssignment(2, lifted)) - prob) <= TOL
        # decidability-flag identity: the TFU value is the classical
        # conditional on the flag, for 1e4 augmented distributions
        for k in range(10_000):
            n = 1 if k % 2 == 0 else 2
            dim = 1 << (2 * n)
            w = rng.uniform(size=dim) + 1e-6
            dist = ClassicalDistribution(w / w.sum())
            m = tfu_from_augmented(DecidabilityAugmentedSpace(dist))
            vec = build_state_vector(dist)
            prop = int(k % n)
            base = projector_for(prop, 2 * n)
            flag = projector_for(n + prop, 2 * n)
            assert abs(tfu_probability(prop, m) - conditional(base, flag, vec)) <= TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"measure suite took {elapsed:.2f}s"


def test_criterion_5_noncommutativity_exhibits():
    with criterion(5, "gap exhibit -0.25 and quantum twin -0.25, brute force"):
        # measure side: recount the cell masses by hand
        m = TfuMeasureAssignment.from_mapping(2, {"TT": 1.0, "TF": 1.0, "UT": 2.0})
        masses = {"TT": 1.0, "TF": 1.0, "UT": 2.0}
        t_p = sum(v for k, v in masses.items() if k[0] == "T")
        f_p = sum(v for k, v in masses.items() if k[0] == "F")
        t_q = sum(v for k, v in masses.items() if k[1] == "T")
        f_q = sum(v for k, v in masses.items() if k[1] == "F")
        tt = masses["TT"]
        by_hand = (t_p / (t_p + f_p)) * (tt / (tt + masses["TF"])) - (
            t_q / (t_q + f_q)
        ) * (tt / tt)
        assert abs(by_hand - (-0.25)) <= TOL
        gap = noncommutativity_gap(0, 1, m)
        assert abs(gap - (-0.25)) <= TOL
        assert abs(tfu_probability(0, m) - 1.0) <= TOL
        assert abs(tfu_conditional(1, 0, m) - 0.5) <= TOL
        assert abs(tfu_probability(1, m) - 0.75) <= TOL
        assert abs(tfu_conditional(0, 1, m) - 1.0) <= TOL

        # quantum twin: dense 2x2 matrix arithmetic as the oracle
        s = np.array([1.0, 0.0], dtype=complex)
        half = np.pi / 4
        d = np.array([np.cos(half), np.sin(half)], dtype=complex)
        p_mat = np.outer(d, d.conj())
        q_mat = np.diag([1.0, 0.0]).astype(complex)
        qps = q_mat @ (p_mat @ s)
        pqs = p_mat @ (q_mat @ s)
        dense = float(np.vdot(qps, qps).real - np.vdot(pqs, pqs).real)
        assert abs(dense - (-0.25)) <= TOL
        state = ComplexStateVector(s)
        p = projector_from_spec(QubitDirection(np.pi / 2))
        q = HermitianProjector(q_mat)
        assert abs(product_asymmetry(p, q, state) - dense) <= TOL
        assert abs(product_asymmetry(p, q, state) - (-0.25)) <= TOL


def test_criterion_6_classical_inequality_validity():
    with criterion(6, "classical three-test inequality, 1e4 distributions"):
        rng = np.random.default_rng(606)
        start = time.perf_counter()
        raw = rng.uniform(size=(10_000, 8)) + 1e-9
        raw /= raw.sum(axis=1, keepdims=True)
        violations = 0
        for row in raw:
            triple = wde_classical(ClassicalDistribution(row))
            if triple.violation > TOL:
                violations += 1
        assert violations == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"classical inequality scan took {elapsed:.2f}s"


def test_criterion_7_singlet_violation_and_witness():
    with criterion(7, "singlet violation ~0.1036 and exact deterministic witness"):
        # oracle first: dense 4x4 pair projectors evaluated directly
        s = singlet_state().amplitudes

        def direction(theta):
            d = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
            return np.outer(d, d.conj())

        def pair_term(x, y):
            mat = np.kron(direction(x), direction(y))
            return float(np.vdot(s, mat @ s).real)

        a, b, c = 0.0, np.pi / 4, np.pi / 2
        ab = pair_term(a, b)
        nbc = pair_term(b, c)
        ac = pair_term(a, c)
        half = 0.5 * np.sin(np.pi / 8) ** 2
        assert abs(ab - half) <= TOL
        assert abs(nbc - half) <= TOL
        assert abs(ac - 0.25) <= TOL
        want = 0.25 - 2 * half
        assert abs((ac - (ab + nbc)) - want) <= 1e-9

        triple = wde_quantum_paired(
            QubitDirection(a), QubitDirection(b), QubitDirection(c), singlet_state()
        )
        assert abs(triple.ab - ab) <= TOL
        assert abs(triple.not_b_c - nbc) <= TOL
        assert abs(triple.ac - ac) <= TOL
        assert abs(triple.violation - want) <= 1e-9

        grid = AngleGrid(0.0, np.pi / 2, np.pi / 4)
        runs = []
        for _ in range(2):
            witness = search_violation(grid, singlet_state(), protocol="paired")
            assert witness is not None
            runs.append((witness.thetas, witness.magnitude))
        for thetas, magnitude in runs:
            assert thetas == (0.0, np.pi / 4, np.pi / 2)  # exact floats
            assert abs(magnitude - want) <= 1e-9
        assert len(set(runs)) == 1  # deterministic across runs


def test_criterion_8_commuting_sector_equivalence():
    with criterion(8, "diagonal problems agree across engines, 1e3 cases"):
        rng = np.random.default_rng(888)
        start = time.perf_counter()
        for k in range(1_000):
            n = int(rng.integers(1, 4))
            dim = 1 << n
            w = rng.uniform(size=dim) + 1e-6
            dist = ClassicalDistribution(w / w.sum())
            cvec = build_state_vector(dist)
            qvec = ComplexStateVector(cvec.components.astype(complex))
            mask_p = rng.integers(0, 2, size=dim).astype(bool)
            mask_q = rng.integers(0, 2, size=dim).astype(bool)
            if not mask_p.any():
                mask_p[int(rng.integers(dim))] = True
            # one projector per mask, read by both engines
            p = HermitianProjector.from_diagonal(mask_p)
            q = HermitianProjector.from_diagonal(mask_q)
            assert abs(born(p, qvec) - probability(p, cvec)) <= TOL
            assert abs(born(q, qvec) - probability(q, cvec)) <= TOL
            assert abs(
                sequential_conditional(q, p, qvec) - conditional(q, p, cvec)
            ) <= TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"equivalence scan took {elapsed:.2f}s"


def test_criterion_9_cli_determinism_and_fixtures():
    with criterion(9, "byte-identical check reports and fixture round-trips"):
        start = time.perf_counter()

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            return code, out.getvalue(), err.getvalue()

        code1, out1, _ = run(["check", "--seed", "0"])
        code2, out2, _ = run(["check", "--seed", "0"])
        assert code1 == 0 and code2 == 0
        assert out1 == out2  # byte-identical
        assert json.loads(out1)["passed"] is True

        fixtures = sorted(FIXTURES.glob("*.json"))
        assert len(fixtures) == 8
        for path in fixtures:
            code, out, _ = run(["eval", str(path)])
            assert code == 0, path.name
            # canonical serialization round-trips to the same bytes
            assert dumps_canonical(json.loads(out)) == out, path.name
        code, out, _ = run(["search", str(FIXTURES / "wde_quantum.json")])
        assert code == 0
        assert dumps_canonical(json.loads(out)) == out
        # search refuses the shared fixture, whose tests are projectors
        refusals = [run(["search", str(FIXTURES / "wde_shared.json")]) for _ in range(2)]
        assert refusals[0][:2] == (2, "") and refusals[0][2].count("\n") == 1
        assert refusals[0] == refusals[1]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"CLI determinism checks took {elapsed:.2f}s"
