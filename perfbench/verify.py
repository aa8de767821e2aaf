"""Output checks for every benchmark op, and the scan oracle.

A check returns a list of problems; an empty list means the op's output is
correct. Any problem, a non-zero exit or an exception counts the op as
failed.

* Structured reports must round-trip byte for byte through `json.loads`
  and `report.dumps_canonical`.
* csv and table reports must carry the verb and mode rows.
* `search`: the witness, re-evaluated through the public `wde.wde_quantum`,
  matches the report within 1e-12. On grids of at most `ORACLE_MAX_POINTS`
  per axis the oracle below scans every tuple and must find the same tuple,
  and the rendered violation must match exactly. On larger grids no seeded
  sample of tuples may beat the witness.
* `check`: the report says `"passed": true`.

The oracle builds the pair sheets and scans them with the package's
arithmetic, term for term in the same order, and keeps the first maximum in
(i, j, k) order, so it must agree with the kernel bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

from tfuprob.quantum import ComplexStateVector, QubitDirection
from tfuprob.report import dumps_canonical, format_float
from tfuprob.wde import wde_quantum

from inputs import grid_values

ORACLE_MAX_POINTS = 48
SAMPLED_TUPLES = 4096
DENSE_TOL = 1e-12
SEARCH_THRESHOLD = 1e-9


# ---------------------------------------------------------------------------
# oracle

def _pair_amplitude_table(th_x, th_y, s4):
    cx, sx = np.cos(th_x / 2.0), np.sin(th_x / 2.0)
    cy, sy = np.cos(th_y / 2.0), np.sin(th_y / 2.0)
    amp = (
        np.multiply.outer(cx, cy) * s4[0]
        + np.multiply.outer(cx, sy) * s4[1]
        + np.multiply.outer(sx, cy) * s4[2]
        + np.multiply.outer(sx, sy) * s4[3]
    )
    return np.abs(amp) ** 2


def _weights(thetas, state, factor):
    m = state.size.bit_length() - 1
    reshaped = np.moveaxis(state.reshape((2,) * m), factor, 0).reshape(2, -1)
    d = np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], axis=1)
    return np.sum(np.abs(d.conj() @ reshaped) ** 2, axis=1)


def _overlap(th_x, th_y):
    return np.cos(np.subtract.outer(th_x, th_y) / 2.0) ** 2


def oracle_sheets(expect: dict, thetas):
    """Jab, Jbc, Jac for a search input, as the package builds them."""
    th_a, th_b, th_c = thetas
    state = expect["state"]
    if expect["protocol"] == "paired":
        return (_pair_amplitude_table(th_a, th_b, state),
                _pair_amplitude_table(th_b, th_c, state),
                _pair_amplitude_table(th_a, th_c, state))
    factor = expect["factor"]
    wa, wb, wc = (_weights(th, state, factor) for th in thetas)
    o_ab, o_bc, o_ac = _overlap(th_a, th_b), _overlap(th_b, th_c), _overlap(th_a, th_c)
    if expect["ordering"] == "sequential":
        return (o_ab * wa[:, None],
                (1.0 - o_bc) * (1.0 - wb)[:, None],
                o_ac * wa[:, None])
    return (o_ab * 0.5 * (wa[:, None] + wb[None, :]),
            (1.0 - o_bc) * 0.5 * ((1.0 - wb)[:, None] + wc[None, :]),
            o_ac * 0.5 * (wa[:, None] + wc[None, :]))


def oracle_scan(jab, jbc, jac):
    """First maximum of Jac[i,k] - (Jab[i,j] + Jbc[j,k]) in (i, j, k) order,
    one row i at a time."""
    best, arg = -np.inf, (0, 0, 0)
    nc = jac.shape[1]
    for i in range(jab.shape[0]):
        row = jac[i][None, :] - (jab[i][:, None] + jbc)
        flat = int(np.argmax(row))
        if row.flat[flat] > best:
            best = float(row.flat[flat])
            arg = (i, *divmod(flat, nc))
    return arg, best


def _tuple_value(sheets, i, j, k) -> float:
    jab, jbc, jac = sheets
    return float(jac[i, k] - (jab[i, j] + jbc[j, k]))


def _sampled_best(sheets, points, rng) -> float:
    """Largest value among `SAMPLED_TUPLES` random tuples."""
    i, j, k = (rng.integers(n, size=SAMPLED_TUPLES) for n in points)
    jab, jbc, jac = sheets
    return float(np.max(jac[i, k] - (jab[i, j] + jbc[j, k])))


# ---------------------------------------------------------------------------
# per-verb checks

def _structured(out: str, problems: list[str]):
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None
    if dumps_canonical(report) != out:
        problems.append("structured report does not round-trip through dumps_canonical")
    return report


def _rows(out: str, fmt: str) -> dict[str, str]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != ["label", "value"]:
            return {}
        return {row[0]: row[1] for row in rows[1:] if len(row) == 2}
    rows = {}
    for line in out.splitlines():
        label, _, value = line.partition("  ")
        rows[label.strip()] = value.strip()
    return rows


def check_eval(op, out: str) -> list[str]:
    problems: list[str] = []
    mode = op.payload["mode"]
    fmt = op.argv[op.argv.index("--format") + 1]
    if fmt == "structured":
        report = _structured(out, problems)
        if report is not None:
            if report.get("mode") != mode or "results" not in report:
                problems.append("report lacks the mode or the results")
        return problems
    rows = _rows(out, fmt)
    if rows.get("command") != "eval" or rows.get("mode") != mode:
        problems.append(f"{fmt} report lacks the command or mode row")
    if not any(label.startswith("results.") for label in rows):
        problems.append(f"{fmt} report has no results rows")
    return problems


def _witness_index(thetas, reported) -> int | None:
    rendered = [float(format_float(float(t))) for t in thetas]
    hits = [i for i, value in enumerate(rendered) if value == reported]
    return hits[0] if len(hits) == 1 else None


def check_search(op, out: str, rng) -> list[str]:
    problems: list[str] = []
    report = _structured(out, problems)
    if report is None:
        return problems
    expect = op.expect
    thetas = [grid_values(g) for g in expect["grids"]]
    points = [len(th) for th in thetas]
    if [g.get("points") for g in report.get("grid", [])] != points:
        problems.append(f"report grid {report.get('grid')} does not have {points} points")
        return problems
    sheets = oracle_sheets(expect, thetas)
    witness = report["results"]["witness"]
    exhaustive = max(points) <= ORACLE_MAX_POINTS
    if exhaustive:
        want_idx, want_val = oracle_scan(*sheets)
        if (witness is None) != (want_val <= SEARCH_THRESHOLD):
            problems.append(f"witness {witness}, oracle finds {want_idx} at {want_val!r}")
        if witness is None:
            return problems
    elif witness is None:
        best = _sampled_best(sheets, points, rng)
        if best > SEARCH_THRESHOLD:
            problems.append(f"no witness, a sampled tuple violates by {best!r}")
        return problems

    got_idx = tuple(_witness_index(th, t) for th, t in zip(thetas, witness["thetas"]))
    if None in got_idx:
        problems.append(f"witness thetas {witness['thetas']} are not grid points")
        return problems
    exact = tuple(float(th[i]) for th, i in zip(thetas, got_idx))
    m = expect["state"].size.bit_length() - 1
    if expect["protocol"] == "paired":
        specs = [QubitDirection(t) for t in exact]
    else:
        specs = [QubitDirection(t, factor=expect["factor"], n_factors=m) for t in exact]
    triple = wde_quantum(*specs, ComplexStateVector(expect["state"]),
                         expect["ordering"], expect["protocol"])
    for key in ("ab", "not_b_c", "ac", "violation"):
        if abs(getattr(triple, key) - witness[key]) > DENSE_TOL:
            problems.append(f"witness {key} {witness[key]!r} != dense {getattr(triple, key)!r}")
    if exhaustive:
        if got_idx != want_idx:
            problems.append(f"witness at {got_idx}, oracle first maximum at {want_idx}")
        if float(format_float(triple.violation)) != witness["magnitude"]:
            problems.append(f"magnitude {witness['magnitude']!r} != oracle {triple.violation!r}")
    else:
        own = _tuple_value(sheets, *got_idx)
        if _sampled_best(sheets, points, rng) > own:
            problems.append(f"a sampled tuple beats the witness value {own!r}")
    return problems


def check_check(op, out: str) -> list[str]:
    problems: list[str] = []
    report = _structured(out, problems)
    if report is not None and report.get("passed") is not True:
        failing = [s["name"] for s in report.get("suites", []) if not s.get("passed")]
        problems.append(f"check did not pass: suites {failing}")
    return problems


def check_output(op, out: str, rng) -> list[str]:
    if op.verb == "eval":
        return check_eval(op, out)
    if op.verb == "search":
        return check_search(op, out, rng)
    return check_check(op, out)


def result_digest(op, out: str) -> str:
    """sha256 of the result-bearing part: `results` (eval, search) or
    `suites` (check), leaving out envelope fields such as `backend`."""
    fmt = op.argv[op.argv.index("--format") + 1] if "--format" in op.argv else "structured"
    if fmt == "structured":
        key = "suites" if op.verb == "check" else "results"
        text = dumps_canonical({key: json.loads(out)[key]})
    else:
        rows = _rows(out, fmt)
        text = "\n".join(f"{k}={v}" for k, v in sorted(rows.items()) if k.startswith("results."))
    return hashlib.sha256(text.encode()).hexdigest()
