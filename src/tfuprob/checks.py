"""Seeded invariant suites behind the `check` command.

Each suite stresses one module's contract with deterministic random cases
(numpy Generator seeded from the command line, default 0). A suite runs
every case and reports how many ran and the first that failed, so a red
run always comes with a concrete reproducible counterexample. Reports
contain nothing run-dependent except the inputs themselves, which is what
makes repeated runs byte-identical.

A case's failure record is built only when the case is its suite's first
failure: `_Suite.check` takes it as a function and calls it then, so a
green run builds no record. The wde suite's one- and two-member tfu
populations do not depend on the seed; they are built once per process,
on first use (`_tfu_populations`), and only their counting runs per case.

Functions from sibling modules are called through their modules on
purpose: it keeps the call sites patchable, which is how the test suite
verifies that a genuinely broken invariant turns into a red report.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import cache

import numpy as np

from . import classical, formulas, kernels, logic, measures, quantum, wde
from .errors import TfuProbError, ValidationError


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failure: dict | None = None

    def check(self, ok: bool, prop: str, details: Callable[[], dict] | None = None) -> bool:
        """Count a case; record the first failing one.

        The record is `prop` under "property" plus what `details` returns.
        `details` is called only for the first failure, and at once, so it
        may read the caller's loop variables; a passing case builds nothing.
        """
        self.cases += 1
        if not ok and self.failure is None:
            self.failure = {"property": prop, **(details() if details else {})}
        return ok

    def report(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.failure is None,
            "failure": self.failure,
        }


def _random_distribution(rng, n: int) -> classical.ClassicalDistribution:
    raw = rng.random(1 << n) + 1e-6  # keep every state populated
    return classical.ClassicalDistribution(raw / raw.sum())


def _random_formula(rng, n: int, depth: int = 2) -> formulas.Formula:
    if depth == 0 or rng.random() < 0.3:
        return formulas.Var(int(rng.integers(n)))
    pick = rng.random()
    if pick < 0.25:
        return formulas.Not(_random_formula(rng, n, depth - 1))
    left = _random_formula(rng, n, depth - 1)
    right = _random_formula(rng, n, depth - 1)
    return formulas.And(left, right) if pick < 0.65 else formulas.Or(left, right)


def _eval_formula_at(formula: formulas.Formula, state: int, n: int) -> bool:
    """Independent semantic evaluation, one complete state at a time."""
    if isinstance(formula, formulas.Var):
        return logic.affirms(state, formula.index, n)
    if isinstance(formula, formulas.Not):
        return not _eval_formula_at(formula.operand, state, n)
    if isinstance(formula, formulas.And):
        return _eval_formula_at(formula.left, state, n) and _eval_formula_at(
            formula.right, state, n
        )
    return _eval_formula_at(formula.left, state, n) or _eval_formula_at(
        formula.right, state, n
    )


# ---------------------------------------------------------------------------
# suites

def _suite_logic(rng, tol: float) -> dict:
    s = _Suite("logic")
    t, f, u = logic.T, logic.F, logic.U

    expected_negate = {t: f, f: t, u: u}
    for a, want in expected_negate.items():
        s.check(logic.negate(a) is want, "negation", lambda: {"value": str(a)})
    expected_conjoin = {
        (t, t): t, (t, f): f, (t, u): u,
        (f, t): f, (f, f): f, (f, u): f,
        (u, t): u, (u, f): f, (u, u): logic.AMBIGUOUS,
    }
    for (a, b), want in expected_conjoin.items():
        got = logic.conjoin(a, b)
        s.check(got is want, "conjunction", lambda: {"cell": f"{a}{b}", "got": repr(got)})
        s.check(logic.conjoin(b, a) is got, "conjunction-commutes", lambda: {"cell": f"{a}{b}"})
    for a in (t, f, u):
        s.check(logic.negate(logic.negate(a)) is a, "involution", lambda: {"value": str(a)})

    def rules_agree(table: logic.CompleteStateTable) -> bool:
        for p in range(table.n):
            derived = logic.derive_value(p, table)
            aff = [table.values[st] for st in range(len(table.values))
                   if logic.affirms(st, p, table.n)]
            neg = [table.values[st] for st in range(len(table.values))
                   if not logic.affirms(st, p, table.n)]
            want = u
            if all(v is f for v in aff):
                want = f
            elif all(v is f for v in neg):
                want = t
            if derived is not want:
                return False
            flipped = logic.derive_value(p, table.flip(p))
            if logic.negate(flipped) is not derived:
                return False
        return True

    for combo in itertools.product((t, f, u), repeat=4):  # exhaustive n=2
        try:
            table = logic.CompleteStateTable(2, combo)
        except ValidationError:
            continue
        s.check(rules_agree(table), "rules-I-II", lambda: {"table": [str(v) for v in combo]})

    values = np.array([t, f, u], dtype=object)
    for _ in range(150):
        combo = tuple(values[rng.integers(3, size=8)])
        try:
            table = logic.CompleteStateTable(3, combo)
        except ValidationError:
            continue
        ok = rules_agree(table)
        for imp in logic.detect_nexus(table):
            cell_states = [
                st for st in range(8)
                if logic.affirms(st, imp.antecedent.prop, 3) == (not imp.antecedent.negated)
                and logic.affirms(st, imp.consequent.prop, 3) == imp.consequent.negated
            ]
            ok = ok and all(table.values[st] is f for st in cell_states)
        s.check(ok, "rules-and-nexus", lambda: {"table": [str(v) for v in combo]})
    return s.report()


def _suite_classical(rng, tol: float) -> dict:
    s = _Suite("classical")
    for _ in range(220):
        n = int(rng.integers(1, 5))
        dist = _random_distribution(rng, n)
        vec = classical.build_state_vector(dist)
        fp = _random_formula(rng, n)
        fq = _random_formula(rng, n)
        p = classical.projector_for(fp, n)
        q = classical.projector_for(fq, n)

        def case():
            return {
                "n": n,
                "probs": [float(x) for x in dist.probs],
                "p": formulas.unparse(fp),
                "q": formulas.unparse(fq),
            }

        oracle_p = sum(
            float(dist.probs[st]) for st in range(1 << n) if _eval_formula_at(fp, st, n)
        )
        prob_p = classical.probability(p, vec)
        s.check(abs(prob_p - oracle_p) <= tol, "oracle-sum", case)

        s.check(
            abs(classical.probability(classical.negation_op(p), vec) - (1.0 - prob_p)) <= tol,
            "complement", case,
        )
        pq = classical.and_op(p, q)
        prob_q = classical.probability(q, vec)
        prob_pq = classical.probability(pq, vec)
        s.check(
            abs(classical.probability(classical.or_op(p, q), vec)
                - (prob_p + prob_q - prob_pq)) <= tol,
            "union", case,
        )
        if prob_p > 1e-6:
            cond = classical.conditional(q, p, vec)
            s.check(abs(prob_p * cond - prob_pq) <= tol, "product", case)
            s.check(
                abs(classical.cos2(classical.state_direction(vec),
                                   classical.projected_direction(p, vec)) - prob_p) <= tol,
                "cos2-state", case,
            )
            if prob_pq > 1e-9:
                s.check(
                    abs(classical.cos2(classical.projected_direction(p, vec),
                                       classical.projected_direction(pq, vec)) - cond) <= tol,
                    "cos2-conditional", case,
                )
            if prob_q > 1e-6:
                s.check(
                    abs(classical.cos2(classical.projected_direction(p, vec),
                                       classical.projected_direction(q, vec))
                        - classical.conditional(p, q, vec) * cond) <= tol,
                    "cos2-pair", case,
                )
    return s.report()


def _suite_measures(rng, tol: float) -> dict:
    s = _Suite("measures")
    for _ in range(220):
        n = int(rng.integers(1, 4))
        m = measures.TfuMeasureAssignment(n, rng.random(3 ** n) + 1e-6)
        p = int(rng.integers(n))

        def case():
            return {"n": n, "measures": [float(x) for x in m.measures], "p": p}

        prob, comp = measures.complement_check(p, m)
        s.check(abs(prob + comp - 1.0) <= tol, "complement-sum", case)

        scale = float(rng.uniform(0.1, 10.0))
        scaled = measures.TfuMeasureAssignment(n, m.measures * scale)
        s.check(
            abs(measures.tfu_probability(p, scaled) - prob) <= tol,
            "scale-invariance", lambda: {"scale": scale, **case()},
        )

        digits = (np.arange(3 ** n) // 3 ** (n - 1 - p)) % 3
        perturbed = m.measures.copy()
        perturbed[digits == 2] = rng.random(int((digits == 2).sum())) * 5.0
        s.check(
            abs(measures.tfu_probability(p, measures.TfuMeasureAssignment(n, perturbed)) - prob)
            <= tol,
            "undecided-mass-inert", case,
        )
        if n >= 2:
            q = int(rng.integers(n - 1))
            q = q if q < p else q + 1
            gap = measures.noncommutativity_gap(p, q, m)
            back = measures.noncommutativity_gap(q, p, m)
            s.check(abs(gap + back) <= tol, "gap-antisymmetry", lambda: {"q": q, **case()})

    for _ in range(120):
        n = int(rng.integers(1, 3))
        dist = _random_distribution(rng, 2 * n)
        space = measures.DecidabilityAugmentedSpace(dist)
        m = measures.tfu_from_augmented(space)
        vec = classical.build_state_vector(dist)
        for p in range(n):
            want = classical.conditional(p, n + p, vec)
            got = measures.tfu_probability(p, m)
            s.check(
                abs(got - want) <= tol,
                "augmented-decidability",
                lambda: {"n": n, "p": p, "probs": [float(x) for x in dist.probs]},
            )
    return s.report()


def _suite_quantum(rng, tol: float) -> dict:
    s = _Suite("quantum")
    for _ in range(70):
        n_factors = int(rng.integers(1, 4))
        dim = 1 << n_factors
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = quantum.ComplexStateVector(amps / np.linalg.norm(amps))
        if rng.random() < 0.5:
            spec = quantum.QubitDirection(
                theta=float(rng.uniform(0, np.pi)),
                phi=float(rng.uniform(0, 2 * np.pi)),
                factor=int(rng.integers(n_factors)),
                n_factors=n_factors,
            )
            proj = quantum.projector_from_spec(spec, dim=dim)
        else:
            k = int(rng.integers(1, dim))
            vecs = rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))
            proj = quantum.projector_from_spec(quantum.SubspaceSpan(vecs), dim=dim)

        def case():
            return {"dim": dim}

        mat = proj.matrix
        s.check(
            float(np.max(np.abs(mat - mat.conj().T))) <= 1e-12
            and float(np.max(np.abs(mat @ mat - mat))) <= 1e-12,
            "projector-wellformed", case,
        )
        prob = quantum.born(proj, state)
        s.check(0.0 <= prob <= 1.0, "born-range", case)
        s.check(
            abs(quantum.born(proj.complement(), state) - (1.0 - prob)) <= tol,
            "complement", case,
        )
        unitary = quantum.haar_unitary(dim, rng)
        rotated_state = quantum.ComplexStateVector(unitary @ state.amplitudes)
        rotated_proj = quantum.HermitianProjector(unitary @ mat @ unitary.conj().T)
        s.check(
            abs(quantum.born(rotated_proj, rotated_state) - prob)
            <= quantum.UNITARY_INVARIANCE_TOL,
            "unitary-invariance", case,
        )

    for _ in range(120):
        n = int(rng.integers(1, 4))
        dist = _random_distribution(rng, n)
        vec = classical.build_state_vector(dist)
        state = quantum.ComplexStateVector(vec.components.astype(complex))
        mask_p = rng.integers(2, size=1 << n).astype(bool)
        mask_q = rng.integers(2, size=1 << n).astype(bool)
        # one projector per mask, read by the real and the complex arithmetic
        p = quantum.HermitianProjector.from_diagonal(mask_p)
        q = quantum.HermitianProjector.from_diagonal(mask_q)

        def case():
            return {
                "n": n,
                "probs": [float(x) for x in dist.probs],
                "p_mask": [int(x) for x in mask_p],
                "q_mask": [int(x) for x in mask_q],
            }

        s.check(
            abs(quantum.born(p, state) - classical.probability(p, vec)) <= tol,
            "diagonal-sector-probability", case,
        )
        s.check(abs(quantum.commutator_norm(p, q)) <= tol, "diagonal-sector-commutes", case)
        s.check(abs(quantum.product_asymmetry(p, q, state)) <= tol,
                "diagonal-sector-symmetric", case)
        if classical.probability(p, vec) > 1e-6:
            s.check(
                abs(quantum.sequential_conditional(q, p, state)
                    - classical.conditional(q, p, vec)) <= tol,
                "diagonal-sector-conditional", case,
            )
    return s.report()


def _same_terms(got: wde.WdeTriple, want: wde.WdeTriple, tol: float) -> bool:
    """Whether each of the three pair terms agrees within tol."""
    terms = ("ab", "not_b_c", "ac")
    return all(abs(getattr(got, t) - getattr(want, t)) <= tol for t in terms)


@cache
def _tfu_populations() -> tuple[tuple[wde.TfuPopulation, bool], ...]:
    """Every one- and two-member population of the 27 (A, B, C) tags, each
    member of weight 1, with whether it holds a (T,U,T) member.

    The table does not depend on the seed, so it is built once per process,
    on first use; its populations are immutable (tuples, read-only weights).
    """
    tags = list(itertools.product((logic.T, logic.F, logic.U), repeat=3))
    escape = (logic.T, logic.U, logic.T)
    groups = [(member,) for member in tags] + [(a, b) for a in tags for b in tags]
    return tuple(
        (wde.TfuPopulation(members, np.ones(len(members))), escape in members)
        for members in groups
    )


def _suite_wde(rng, tol: float) -> dict:
    s = _Suite("wde")
    for _ in range(300):
        dist = _random_distribution(rng, 3)
        triple = wde.wde_classical(dist)
        s.check(
            triple.holds(tol),
            "classical-validity",
            lambda: {"probs": [float(x) for x in dist.probs], "violation": triple.violation},
        )

    for pop, has_escape in _tfu_populations():
        # a violated population must contain a (T,U,T) member; without one
        # the inequality must hold
        s.check(
            wde.wde_tfu_sets(pop).holds(tol) or has_escape,
            "tfu-escape-direction",
            lambda: {"members": ["".join(str(v) for v in m) for m in pop.items]},
        )

    singlet = wde.singlet_state()
    for _ in range(40):
        a, b, c = (float(x) for x in rng.uniform(0, np.pi, size=3))
        triple = wde.wde_quantum(
            wde.QubitDirection(a), wde.QubitDirection(b), wde.QubitDirection(c),
            singlet, ordering="symmetrized", protocol="paired",
        )
        def closed(x, y):
            return 0.5 * np.sin((y - x) / 2.0) ** 2
        want = wde.WdeTriple(ab=closed(a, b), not_b_c=closed(b, c), ac=closed(a, c))
        s.check(_same_terms(triple, want, tol), "singlet-closed-form",
                lambda: {"thetas": [a, b, c]})

    for _ in range(50):
        dist = _random_distribution(rng, 3)
        state = quantum.ComplexStateVector(
            classical.build_state_vector(dist).components.astype(complex)
        )
        masks = [rng.integers(2, size=8).astype(bool) for _ in range(3)]
        projs = [quantum.HermitianProjector.from_diagonal(m) for m in masks]
        got = wde.wde_quantum_shared(*projs, state, ordering="sequential")
        vec = classical.build_state_vector(dist)
        want = wde.WdeTriple(
            ab=classical.probability(classical.and_op(projs[0], projs[1]), vec),
            not_b_c=classical.probability(
                classical.and_op(classical.negation_op(projs[1]), projs[2]), vec
            ),
            ac=classical.probability(classical.and_op(projs[0], projs[2]), vec),
        )
        s.check(_same_terms(got, want, tol), "shared-diagonal-is-classical",
                lambda: {"probs": [float(x) for x in dist.probs],
                         "masks": [[int(x) for x in m] for m in masks]})
    return s.report()


def _suite_kernels(rng, tol: float) -> dict:
    s = _Suite("kernels")
    for trial in range(25):
        na, nb, nc = (int(x) for x in rng.integers(2, 9, size=3))
        jab = rng.random((na, nb))
        jbc = rng.random((nb, nc))
        jac = rng.random((na, nc))
        if trial % 5 == 0:
            jab[:] = 0.25  # constant sheets force ties on purpose
            jbc[:] = 0.25
            jac[:] = 0.75
        # reference: the first maximum of the dense score cube, in C order
        cube = jac[:, None, :] - (jab[:, :, None] + jbc[None, :, :])
        flat = int(np.argmax(cube))
        ref_idx = tuple(int(x) for x in np.unravel_index(flat, cube.shape))
        got_idx, got_val = kernels.scan_triple(jab, jbc, jac)
        s.check(
            got_idx == ref_idx and got_val == cube.flat[flat],
            "scan-first-maximum",
            lambda: {"shapes": [na, nb, nc], "got": list(got_idx), "want": list(ref_idx)},
        )

    singlet = wde.singlet_state()
    grid = wde.AngleGrid(0.0, np.pi, np.pi / 4)
    witness = wde.search_violation(grid, singlet, protocol="paired")
    ok = witness is not None
    if ok:
        direct = wde.wde_quantum(
            wde.QubitDirection(witness.thetas[0]),
            wde.QubitDirection(witness.thetas[1]),
            wde.QubitDirection(witness.thetas[2]),
            singlet, ordering=witness.ordering, protocol="paired",
        )
        ok = abs(direct.violation - witness.magnitude) <= tol
    s.check(ok, "search-witness-dense-consistency")

    th = rng.uniform(0, np.pi, size=4)
    jab, jbc, jac = wde._paired_pair_matrices(th, th, th, singlet)
    for _ in range(20):
        i, j = int(rng.integers(4)), int(rng.integers(4))
        dense = wde.wde_quantum(
            wde.QubitDirection(float(th[i])), wde.QubitDirection(float(th[j])),
            wde.QubitDirection(0.0), singlet, protocol="paired",
        )
        s.check(abs(jab[i, j] - dense.ab) <= tol,
                "pair-matrix-dense-consistency", lambda: {"i": i, "j": j})
    return s.report()


SUITES = (
    _suite_logic,
    _suite_classical,
    _suite_measures,
    _suite_quantum,
    _suite_wde,
    _suite_kernels,
)


def run_checks(seed: int = 0, tolerance: float = 1e-12) -> dict:
    """Run every suite; deterministic for a given seed and tolerance.

    The seed must be a non-negative integer (it seeds numpy generators).
    """
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    reports = []
    for suite in SUITES:
        rng = np.random.default_rng([seed, len(reports)])
        try:
            reports.append(suite(rng, tolerance))
        except TfuProbError as exc:
            # a broken invariant may surface as a domain error mid-case;
            # that is a red suite, not a crashed checker
            reports.append({
                "name": suite.__name__.removeprefix("_suite_"),
                "cases": None,
                "passed": False,
                "failure": {"error": str(exc)},
            })
    return {
        "command": "check",
        "seed": seed,
        "tolerance": tolerance,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
