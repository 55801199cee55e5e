"""Correctness checks on op outputs and the classification of failed ops.

An op *fails* if it exits nonzero, emits a ``fail`` or ``inconclusive``
check row, or misses its reference or invariant check. An op is *wrong*
only in the last case: it emitted numbers that are not right. A failed op
counts against ``fail_share``; a wrong op makes the whole run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("references.json")

# l_ab and the psi eigenvalues of ltibounds 0.1.0 agree with the mpmath
# references to 2e-14 relative; 1e-9 leaves room for a different summation
# order and none for a different value.
L_AB_RTOL = 1e-9
PSI_RTOL = 1e-9
# eigvalsh is accurate to a multiple of eps * |psi|, so small eigenvalues of
# an ill-conditioned psi also get a normwise allowance
PSI_NORM_RTOL = 1e-12
DELTA2_RTOL = 1e-12

VERIFY_ROWS = (
    "selfnorm_identity",
    "fisher_information",
    "score_mean_zero",
    "prior_score_identity",
    "risk_dominance",
    "bayes_dominance",
    "concentration_constant",
    "multiplication_ratio",
)
BAD_STATUSES = ("fail", "inconclusive")


@dataclass(frozen=True)
class Row:
    quantity: str
    value: float
    status: str | None


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool
    reason: str = ""


OK = Verdict(failed=False, wrong=False)


def load_references() -> dict[str, dict[str, float]]:
    """The committed mpmath references, rounded to float64 (beyond its range: inf)."""
    raw = json.loads(REFERENCE_FILE.read_text())
    return {name: {q: float(v) for q, v in refs.items()} for name, refs in raw.items()}


def parse_rows(text: str) -> list[Row]:
    """Report rows of a CSV report, without the header and config echo."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        if rec["quantity"] == "config":
            continue
        rows.append(
            Row(rec["quantity"], float(rec["value"]), json.loads(rec["extra"]).get("status"))
        )
    return rows


def verify_misses(rows: list[Row]) -> list[str]:
    """Invariant misses of a ``verify`` report: every check row is present."""
    present = {r.quantity for r in rows}
    return [f"missing row {q}" for q in VERIFY_ROWS if q not in present]


def _close(value: float, ref: float, tol: float) -> bool:
    if math.isinf(ref):
        return value == ref
    return abs(value - ref) <= tol


def bounds_misses(rows: list[Row], ref: dict[str, float], d: int) -> list[str]:
    """Reference and invariant misses of a ``bounds`` report.

    psi eigenvalues and l_ab must match the high-precision references; a
    reference beyond float64 range must be emitted as inf. delta2 must equal
    d * l_ab, its defining formula.
    """
    values = {r.quantity: r.value for r in rows}
    missing = [q for q in ("psi_eig_min", "psi_eig_max", "l_ab", "delta2") if q not in values]
    if missing:
        return [f"missing row {q}" for q in missing]
    misses = []
    psi_max = ref["psi_eig_max"]
    norm_tol = PSI_NORM_RTOL * psi_max if math.isfinite(psi_max) else 0.0
    for q in ("psi_eig_min", "psi_eig_max"):
        if not _close(values[q], ref[q], PSI_RTOL * abs(ref[q]) + norm_tol):
            misses.append(f"{q} {values[q]!r} != reference {ref[q]!r}")
    if not _close(values["l_ab"], ref["l_ab"], L_AB_RTOL * abs(ref["l_ab"])):
        misses.append(f"l_ab {values['l_ab']!r} != reference {ref['l_ab']!r}")
    delta2 = d * values["l_ab"]
    if not _close(values["delta2"], delta2, DELTA2_RTOL * abs(delta2)):
        misses.append(f"delta2 {values['delta2']!r} != d * l_ab {delta2!r}")
    return misses


def classify(exit_code: int, rows: list[Row], misses: list[str]) -> Verdict:
    """Fold an op's exit code, status rows and check misses into a verdict."""
    if misses:
        return Verdict(failed=True, wrong=True, reason="; ".join(misses))
    if exit_code != 0:
        return Verdict(failed=True, wrong=False, reason=f"exit code {exit_code}")
    bad = [f"{r.quantity}={r.status}" for r in rows if r.status in BAD_STATUSES]
    if bad:
        return Verdict(failed=True, wrong=False, reason=", ".join(bad))
    return OK


def judge(exit_code: int, text: str, expect) -> Verdict:
    """Verdict of one op; ``expect(rows)`` returns its reference/invariant misses.

    An op that exits nonzero without a report is failed, not wrong: it made
    no claim. One that does emit a report is held to it.
    """
    try:
        rows = parse_rows(text) if text else []
    except (KeyError, ValueError) as exc:
        return classify(exit_code, [], [f"unparseable report: {exc}"])
    if rows:
        misses = expect(rows)
    else:
        misses = ["empty report"] if exit_code == 0 else []
    return classify(exit_code, rows, misses)
