"""Command line front end.

Three verbs:

    tfuprob eval FILE     evaluate every quantity a problem file defines
    tfuprob check         run the seeded invariant suites of every module
    tfuprob search FILE   scan a wde quantum problem's grid for a violation

Reports go to stdout in the chosen --format (structured JSON by default,
byte-identical across runs with the same inputs and seed); errors go to
stderr, one line each (each line break in a message is written as an
escape, such as \\r or \\n). Exit codes: 0 success, 1 property/check
failure, 2 usage error or problem file parse error, 3 validation error (a
negative or non-finite --tolerance too), 4 undefined conditional, 5 out of
memory, 6 internal error (any other exception, reported with its class).
`EXIT_CODES` maps each error class to its code.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__, checks, classical, logic, measures, quantum, report, wde
from .errors import (
    ProblemFileError,
    TfuProbError,
    UndefinedConditionalError,
    ValidationError,
)
from .logic import default_names
from .problemfile import (
    ClassicalProblem,
    QuantumProblem,
    TfuMeasureProblem,
    TfuTableProblem,
    WdeClassicalProblem,
    WdeQuantumProblem,
    WdeTfuSetsProblem,
    load_path,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNDEFINED = 4
EXIT_MEMORY = 5
EXIT_INTERNAL = 6


def _envelope(command: str, args) -> dict:
    return {
        "command": command,
        "tool": {"name": "tfuprob", "version": __version__},
        "seed": args.seed,
        "tolerance": args.tolerance,
    }


@contextmanager
def _labeled(label: str):
    """Re-raise undefined-conditional errors naming the report quantity."""
    try:
        yield
    except UndefinedConditionalError as exc:
        raise UndefinedConditionalError(f'cannot evaluate "{label}": {exc}') from exc


def _eval_tfu_table(problem: TfuTableProblem, args) -> dict:
    table = problem.table
    names = default_names(table.n)
    derived = logic.derived_values(table)
    conjunctions = {}
    for i in range(table.n):
        for j in range(i + 1, table.n):
            value = logic.conjunction_value(table, i, j)
            conjunctions[f"{names[i]}&{names[j]}"] = str(value)
    return {
        "states": dict(zip(logic.state_keys(table.n), (v.value for v in table.values))),
        "derived": {names[i]: str(derived[i]) for i in range(table.n)},
        "conjunctions": conjunctions,
        "nexus": [imp.label(names) for imp in logic.detect_nexus(table)],
    }


def _eval_classical(problem: ClassicalProblem, args) -> dict:
    tol = args.tolerance
    dist = problem.distribution
    n = dist.n
    names = default_names(n)
    vec = classical.build_state_vector(dist)
    state_dir = classical.state_direction(vec)

    def weight(*props: int) -> float:
        """<s|P|s> of a conjunction of propositions, summed over its slab."""
        kept = classical.affirmed(vec.components, *props)
        return min(float(np.dot(kept, kept)), 1.0)

    probs = [weight(i) for i in range(n)]
    # the ray of P|s> of each proposition, read by every pair that conditions on it
    projections = [classical.project_affirmed(vec, i) for i in range(n)]

    propositions = {}
    for i, name in enumerate(names):
        entry = {f"|{name}|": probs[i]}
        if probs[i] > tol:
            dir_p = projections[i].direction()
            entry[f"cos2({name.upper()},S)"] = classical.cos2(state_dir, dir_p)
        propositions[name] = entry

    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pn, qn = names[i], names[j]
            joint = weight(i, j)
            entry = {f"|{pn}&{qn}|": joint}
            with _labeled(f"|{qn}|_{pn}"):
                entry[f"|{qn}|_{pn}"] = projections[i].conditional(j, tol)
            with _labeled(f"|{pn}|_{qn}"):
                entry[f"|{pn}|_{qn}"] = projections[j].conditional(i, tol)
            if probs[i] > tol and probs[j] > tol:
                # both rays passed direction() in the loop above
                dir_p, dir_q = projections[i], projections[j]
                entry[f"cos2({pn.upper()},{qn.upper()})"] = classical.cos2(dir_p, dir_q)
                if joint > tol:
                    dir_pq = classical.project_affirmed(vec, i, j).direction()
                    entry[f"cos2({pn.upper()},{pn.upper()}{qn.upper()})"] = classical.cos2(
                        dir_p, dir_pq
                    )
                    entry[f"cos2({qn.upper()},{pn.upper()}{qn.upper()})"] = classical.cos2(
                        dir_q, dir_pq
                    )
            pairs[f"{pn},{qn}"] = entry
    return {"propositions": propositions, "pairs": pairs}


def _eval_tfu_measure(problem: TfuMeasureProblem, args) -> dict:
    m = problem.assignment
    names = default_names(m.n)
    propositions = {}
    probs = []
    for i, name in enumerate(names):
        with _labeled(f"[{name}]"):
            prob, comp = measures.complement_check(i, m)
        probs.append(prob)
        propositions[name] = {f"[{name}]": prob, f"[~{name}]": comp}
    pairs = {}
    for i in range(m.n):
        for j in range(i + 1, m.n):
            pn, qn = names[i], names[j]
            with _labeled(f"[{qn}]_{pn}"):
                q_given_p = measures.tfu_conditional(j, i, m)
            with _labeled(f"[{pn}]_{qn}"):
                p_given_q = measures.tfu_conditional(i, j, m)
            pairs[f"{pn},{qn}"] = {
                f"[{qn}]_{pn}": q_given_p,
                f"[{pn}]_{qn}": p_given_q,
                f"gap({pn},{qn})": measures.gap(probs[i], q_given_p, probs[j], p_given_q),
            }
    return {"propositions": propositions, "pairs": pairs}


def _eval_quantum(problem: QuantumProblem, args) -> dict:
    tol = args.tolerance
    state = problem.state
    names = list(problem.projectors)
    projectors = {}
    for name in names:
        projectors[name] = {f"born({name})": quantum.born(problem.projectors[name], state)}
    pairs = {}
    for pos, pn in enumerate(names):
        for qn in names[pos + 1:]:
            p = problem.projectors[pn]
            q = problem.projectors[qn]
            entry = {}
            with _labeled(f"cond({qn}|{pn})"):
                entry[f"cond({qn}|{pn})"] = quantum.sequential_conditional(q, p, state, tol)
            with _labeled(f"cond({pn}|{qn})"):
                entry[f"cond({pn}|{qn})"] = quantum.sequential_conditional(p, q, state, tol)
            entry[f"asymmetry({pn},{qn})"] = quantum.product_asymmetry(p, q, state)
            entry[f"commutator({pn},{qn})"] = quantum.commutator_norm(p, q)
            pairs[f"{pn},{qn}"] = entry
    return {"projectors": projectors, "pairs": pairs}


def _triple_results(triple: wde.WdeTriple, tol: float) -> dict:
    return {
        "ab": triple.ab,
        "not_b_c": triple.not_b_c,
        "ac": triple.ac,
        "violation": triple.violation,
        "holds": triple.holds(tol),
    }


def _eval_wde_classical(problem: WdeClassicalProblem, args) -> dict:
    triple = wde.wde_classical(problem.distribution)
    return {"variant": "classical", **_triple_results(triple, args.tolerance)}


def _eval_wde_tfu_sets(problem: WdeTfuSetsProblem, args) -> dict:
    triple = wde.wde_tfu_sets(problem.population)
    return {"variant": "tfu-sets", **_triple_results(triple, args.tolerance)}


def _eval_wde_quantum(problem: WdeQuantumProblem, args) -> dict:
    if problem.tests is None:
        needs = "directions" if problem.protocol == "paired" else "directions or projectors"
        raise ProblemFileError(f"wde: {problem.protocol} protocol needs {needs}")
    ordering = args.ordering or problem.ordering
    triple = wde.wde_quantum(
        *problem.tests, problem.state, ordering, problem.protocol, problem.factor
    )
    return {
        "variant": "quantum",
        "protocol": problem.protocol,
        "ordering": ordering,
        **_triple_results(triple, args.tolerance),
    }


# The evaluator of each problem class: (problem, args) -> results.
EVALUATORS = {
    TfuTableProblem: _eval_tfu_table,
    ClassicalProblem: _eval_classical,
    TfuMeasureProblem: _eval_tfu_measure,
    QuantumProblem: _eval_quantum,
    WdeClassicalProblem: _eval_wde_classical,
    WdeTfuSetsProblem: _eval_wde_tfu_sets,
    WdeQuantumProblem: _eval_wde_quantum,
}


def cmd_eval(args) -> int:
    pf = load_path(args.file)
    out = _envelope("eval", args)
    out["mode"] = pf.mode
    out["input"] = pf.raw
    out["results"] = EVALUATORS[type(pf.problem)](pf.problem, args)
    if "ordering" in out["results"]:
        out["ordering"] = out["results"]["ordering"]
    sys.stdout.write(report.render(out, args.format))
    return EXIT_OK


def cmd_check(args) -> int:
    out = checks.run_checks(seed=args.seed, tolerance=args.tolerance)
    out["tool"] = {"name": "tfuprob", "version": __version__}
    sys.stdout.write(report.render(out, args.format))
    return EXIT_OK if out["passed"] else EXIT_CHECK_FAILED


def cmd_search(args) -> int:
    pf = load_path(args.file)
    problem = pf.problem
    if not isinstance(problem, WdeQuantumProblem):
        raise ProblemFileError("search needs a wde problem with the quantum variant")
    if problem.grids is None:
        raise ProblemFileError("search needs a grid (or grids) in the problem file")
    if problem.tests is not None and isinstance(problem.tests[0], quantum.HermitianProjector):
        raise ProblemFileError("search scans qubit directions; this file's tests are projectors")
    grids = problem.grids
    if args.grid_step is not None:
        grids = tuple(g.with_step(args.grid_step) for g in grids)
    ordering = args.ordering or problem.ordering
    witness = wde.search_violation(
        grids,
        problem.state,
        protocol=problem.protocol,
        ordering=ordering,
        factor=problem.factor,
    )
    out = _envelope("search", args)
    out["mode"] = pf.mode
    out["input"] = pf.raw
    out["ordering"] = ordering
    out["grid"] = [
        {"start": g.start, "stop": g.stop, "step": g.step, "points": g.points}
        for g in grids
    ]
    if witness is None:
        out["results"] = {"protocol": problem.protocol, "witness": None}
    else:
        out["results"] = {
            "protocol": witness.protocol,
            "witness": {
                "thetas": list(witness.thetas),
                "magnitude": witness.magnitude,
                **_triple_results(witness.triple, args.tolerance),
            },
        }
    sys.stdout.write(report.render(out, args.format))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors instead of printing the usage block and
    exiting, so `main` reports them on one line like every other error.
    Sub-command parsers are built from the same class."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tfuprob",
        description="Three-valued logic, projector probabilities, and the "
        "Wigner-d'Espagnat inequality lab.",
    )
    parser.add_argument("--version", action="version", version=f"tfuprob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=report.FORMATS, default="structured")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=1e-12)

    p_eval = sub.add_parser("eval", help="evaluate a problem file")
    p_eval.add_argument("file")
    common(p_eval)

    p_check = sub.add_parser("check", help="run the seeded invariant suites")
    common(p_check)

    p_search = sub.add_parser("search", help="scan a grid for an inequality violation")
    p_search.add_argument("file")
    p_search.add_argument("--grid-step", type=float, default=None)
    common(p_search)

    for p in (p_eval, p_search):
        p.add_argument(
            "--ordering", choices=wde.ORDERINGS, default=None,
            help="two-projector ordering (default: the file's, else symmetrized)",
        )
    return parser


# built once: parse_args returns a fresh Namespace on every call
PARSER = build_parser()


# The exit code of each error the parser or a command may raise: an error
# takes the code of the first class of its MRO listed here. A TfuProbError
# outside the four families is a validation error; MemoryError means an
# input within the size limits was still too large for this machine. Any
# other exception is a defect: it still gets one stderr line and a code of
# its own, never 1 ("a check failed") or a traceback.
EXIT_CODES = {
    argparse.ArgumentError: EXIT_PARSE,
    ProblemFileError: EXIT_PARSE,
    ValidationError: EXIT_VALIDATION,
    UndefinedConditionalError: EXIT_UNDEFINED,
    TfuProbError: EXIT_VALIDATION,
    MemoryError: EXIT_MEMORY,
    Exception: EXIT_INTERNAL,
}


def main(argv: list[str] | None = None) -> int:
    # looked up per call, so a replaced cmd_* function is the one that runs
    commands = {"eval": cmd_eval, "check": cmd_check, "search": cmd_search}
    try:
        args = PARSER.parse_args(argv)
        if not math.isfinite(args.tolerance):
            # every report echoes the tolerance, and NaN compares false with everything
            raise ValidationError(f"--tolerance must be a finite number, got {args.tolerance!r}")
        if args.tolerance < 0:
            # a null condition or projection would pass every "> tolerance" test
            raise ValidationError(f"--tolerance must not be negative, got {args.tolerance!r}")
        # An overflow or 0/0 ends as an inf or NaN that a validator or the
        # report's finite check turns into exit 3; numpy's warning about it
        # would only add lines to stderr.
        with np.errstate(all="ignore"):
            return commands[args.command](args)
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
        message = str(exc)
        if code == EXIT_MEMORY:
            message = f"out of memory: {message}" if message else "out of memory"
        elif code == EXIT_INTERNAL:
            message = f"internal error ({type(exc).__name__}): {message}"
        print(f"error: {report.one_line(message)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
