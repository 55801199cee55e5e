"""Regime outcome table: what ``bounds``, ``risk`` and ``verify`` do in each regime.

The grid is d = 2, B = I, 1000 trials and seed 1 over six systems (stable,
limit-stable, mixed, an unstable mode, non-normal, a Jordan block) and
N in {16, 100, 512}, plus two rows: ``verify`` with a prior at s = 1,
eps = 0.1, N = 500, and ``bounds`` on diag(0.5, 1.02) at N = 2048. A cell
that exits 0 pins that every report number is finite; a cell that exits 3
pins the error's type and the start of its stderr line. Every cell not in
``STOPS`` exits 0.

A cell whose outcome is known to be wrong names the ROADMAP item that owns
it, in its entry: the bound layer in every regime (item 1), the Monte Carlo
in the unstable regime (item 2), and the Bayes experiment over the prior's
whole range (item 11). A change that flips a cell edits its entry here and
names the cell in CHANGES.md. ``verify`` exits 0 on the Jordan block and on
the non-normal system at N = 512, where ``bounds`` stops; item 1 settles
which of the two is right.
"""

import csv
import json
import math

import pytest

from ltibounds.cli import main, rows_to_csv, run_bounds, run_risk, run_verify
from ltibounds.config import load_config

SYSTEMS = {
    "stable": {"kind": "diag", "values": [0.5, 0.5]},
    "rotation": {"kind": "rotation", "angle": 0.5, "scale": 1.0},
    "limit": {"kind": "diag", "values": [1.0, 0.5]},
    "mixed": {"kind": "diag", "values": [0.5, 1.2]},
    "nonnormal": [[0.5, 2.0], [0.0, 0.4]],
    "jordan": [[0.5, 1.0], [0.0, 0.5]],
}
COMMANDS = {
    "bounds": run_bounds,
    "risk": lambda cfg: run_risk(cfg, 1),
    "verify": lambda cfg: run_verify(cfg, 1),
}
# (command, system, N, run overrides) of each cell
CELLS = [
    (command, system, n, {})
    for system in SYSTEMS
    for n in (16, 100, 512)
    for command in COMMANDS
] + [
    ("verify", "bayes_s1", 500, {"s": 1.0, "epsilon": 0.1}),
    ("bounds", "weak_unstable", 2048, {}),
]
EXTRA_SYSTEMS = {
    "bayes_s1": {"kind": "identity", "scale": 0.5},
    "weak_unstable": {"kind": "diag", "values": [0.5, 1.02]},
}

ILL_CONDITIONED = "precondition violation: matrix is too ill-conditioned: smallest/largest eigenvalue ratio "
NOT_DIAGONALIZABLE = (
    "diagonalizability assumption violated: eigenvector basis condition number 1.801e+16 exceeds 1.0e+08"
)
# (command, system, N) -> (error type, start of the stderr line, owning ROADMAP item)
STOPS = {
    ("bounds", "mixed", 100): ("ValueError", ILL_CONDITIONED + "3.713e-15", "item 1"),
    ("bounds", "mixed", 512): ("ValueError", ILL_CONDITIONED + "1.092e-79", "item 1"),
    ("verify", "mixed", 100): ("ValueError", ILL_CONDITIONED + "3.713e-15", "item 2"),
    ("verify", "mixed", 512): ("ValueError", ILL_CONDITIONED + "1.092e-79", "item 2"),
    # the sample covariance is not singular: the modes' scales differ by 1.2^N
    ("risk", "mixed", 100): (
        "TooManySingularTrialsError",
        "degenerate sample covariances: 964 of 1000 trials had singular sample covariance",
        "item 2",
    ),
    ("risk", "mixed", 512): (
        "AllTrialsSingularError",
        "degenerate sample covariances: all trials had singular sample covariance",
        "item 2",
    ),
    # phi reads |A|_2^2 = 4.40, not the spectral radius
    ("bounds", "nonnormal", 512): (
        "NonFiniteReportError",
        "precondition violation: report row 'phi' has the non-finite value inf",
        "item 1",
    ),
    # every row but l_ab_upper and the explicit row needs no split
    ("bounds", "jordan", 16): ("NotDiagonalizableError", NOT_DIAGONALIZABLE, "item 1"),
    ("bounds", "jordan", 100): ("NotDiagonalizableError", NOT_DIAGONALIZABLE, "item 1"),
    ("bounds", "jordan", 512): ("NotDiagonalizableError", NOT_DIAGONALIZABLE, "item 1"),
    # draws with |lambda| up to s + eps = 1.1: scales that differ, not singular covariances
    ("verify", "bayes_s1", 500): (
        "TooManySingularTrialsError",
        "degenerate sample covariances: 339 of 1000 Bayes trials had singular sample covariance",
        "item 11",
    ),
    ("bounds", "weak_unstable", 2048): ("ValueError", ILL_CONDITIONED + "2.645e-35", "item 1"),
}


def regime_config(tmp_path, system: str, n: int, run: dict):
    doc = {
        "system": {"d": 2, "n": n, "a": {**SYSTEMS, **EXTRA_SYSTEMS}[system], "b": {"kind": "identity"}},
        "run": {"trials": 1000, "seed": 1, **run},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_every_stop_is_a_cell():
    assert set(STOPS) <= {cell[:3] for cell in CELLS}
    assert len(CELLS) == 56


@pytest.mark.parametrize(
    "command, system, n, run", CELLS, ids=[f"{c}-{s}-n{n}" for c, s, n, _ in CELLS]
)
def test_regime_outcome(tmp_path, capsys, command, system, n, run):
    path = regime_config(tmp_path, system, n, run)
    out = tmp_path / "report.csv"
    code = main([command, "--config", str(path), "--out", str(out), "--workers", "1"])
    err = capsys.readouterr().err
    stop = STOPS.get((command, system, n))
    if stop is None:
        assert (code, err) == (0, "")
        for row in csv.DictReader(out.open(newline="")):
            assert math.isfinite(float(row["value"])), row
            assert all(
                math.isfinite(x) for x in json.loads(row["extra"]).values() if isinstance(x, float)
            ), row
        return
    kind, start, _owner = stop
    assert code == 3 and err.startswith(start), (code, err)
    assert not out.exists()
    # the same op in this process, for the type of the error behind that line
    cfg = load_config(str(path))
    with pytest.raises(Exception) as info:
        rows_to_csv(COMMANDS[command](cfg), cfg)
    assert type(info.value).__name__ == kind
