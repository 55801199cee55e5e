"""Sharpness table: how far below the least-squares risk each bound sits.

The grid is d = 2, B = I, eps = 0.1, C = 1 and 4000 ``risk`` trials at seed
1, over six systems at two horizons each (ROADMAP item 13). A ratio is the
empirical MSE (``risk_mse``) over one column of the ``bounds`` report:
tr ``cr_matrix`` (``cr_eig_min`` + ``cr_eig_max``), ``mse_lower``, and the
explicit row (``no_limit_mse_lower`` or ``limit_regime_mse_lower``). The
last column, d tr Psi^{-1}, is least squares' asymptotic MSE for B = I, not
a bound.

Every bound column the report emits must be dominated at 4 SE:
risk_mse - 4 SE >= bound. Every ratio must sit in its band. The bands were
set from seeds 1 to 8: the smallest and largest ratio over the eight seeds,
widened on each side by 4 times the cell's largest relative standard error
and rounded outward to three significant digits. A change that moves a
ratio out of its band changes how sharp a bound is: it edits the band here
and names the cell in CHANGES.md. The ratios are descriptive; none enters
an exit code.

A cell whose ``bounds`` op stops with exit 3 pins the start of its stderr
line and the ROADMAP item that owns the stop; its risk and asymptotic
column are still pinned.
"""

import csv
import json

import numpy as np
import pytest

from ltibounds.bounds import psi
from ltibounds.cli import main
from ltibounds.config import load_config
from ltibounds.model import SystemParams

SYSTEMS = {
    "stable": {"kind": "diag", "values": [0.5, 0.5]},
    "rotation": {"kind": "rotation", "angle": 0.5, "scale": 0.9},
    "nonnormal": [[0.5, 2.0], [0.0, 0.4]],
    "limit": {"kind": "rotation", "angle": 0.5, "scale": 1.0},
    "limit_mixed": {"kind": "diag", "values": [1.0, 0.5]},
    "unstable_mixed": {"kind": "diag", "values": [0.5, 1.2]},
}
# (system, N) -> band (lo, hi) of risk_mse / column
BANDS = {
    ("stable", 256): {
        "tr_cr_matrix": (1.65, 1.88), "mse_lower": (1.67, 1.9), "explicit": (1.45, 1.66),
        "asymptotic": (0.966, 1.1),
    },
    ("stable", 2048): {
        "tr_cr_matrix": (1.28, 1.49), "mse_lower": (1.28, 1.5), "explicit": (1.39, 1.62),
        "asymptotic": (0.932, 1.08),
    },
    ("rotation", 256): {
        "tr_cr_matrix": (2.83, 3.3), "mse_lower": (2.94, 3.43), "explicit": (1.5, 1.75),
        "asymptotic": (0.965, 1.13),
    },
    ("rotation", 2048): {
        "tr_cr_matrix": (1.56, 1.76), "mse_lower": (1.57, 1.77), "explicit": (1.42, 1.61),
        "asymptotic": (0.948, 1.07),
    },
    # mse_lower and the explicit row read phi at |A|_2^2 = 4.40, an unstable rate
    ("nonnormal", 256): {
        "tr_cr_matrix": (5.52, 6.52), "mse_lower": (1.74e161, 2.07e161),
        "explicit": (1.37e161, 1.62e161), "asymptotic": (0.925, 1.1),
    },
    ("nonnormal", 2048): {"asymptotic": (0.927, 1.11)},
    # a constant ratio as N grows: the rate is optimal
    ("limit", 256): {
        "tr_cr_matrix": (201, 293), "mse_lower": (201, 293), "explicit": (12, 17.6),
        "asymptotic": (1.84, 2.68),
    },
    ("limit", 2048): {
        "tr_cr_matrix": (217, 296), "mse_lower": (217, 296), "explicit": (12.9, 17.7),
        "asymptotic": (1.98, 2.7),
    },
    # mixed spectra: the AM/HM ratio of Psi's eigenvalues, which grows with N
    ("limit_mixed", 256): {
        "tr_cr_matrix": (2.68e3, 3.18e3), "mse_lower": (5.3e3, 6.28e3), "explicit": (2.15e3, 2.55e3),
        "asymptotic": (1.0, 1.19),
    },
    ("limit_mixed", 2048): {
        "tr_cr_matrix": (1.96e4, 2.34e4), "mse_lower": (3.91e4, 4.67e4), "explicit": (1.57e4, 1.88e4),
        "asymptotic": (0.926, 1.11),
    },
    ("unstable_mixed", 16): {
        "tr_cr_matrix": (9.79e3, 1.21e4), "mse_lower": (1.98e4, 2.44e4), "explicit": (114, 142),
        "asymptotic": (1.68, 2.08),
    },
    ("unstable_mixed", 64): {
        "tr_cr_matrix": (6.93e10, 8.57e10), "mse_lower": (1.38e11, 1.72e11),
        "explicit": (6.35e8, 7.86e8), "asymptotic": (1.0, 1.25),
    },
}
# (system, N) -> (start of the bounds op's stderr line, owning ROADMAP item)
STOPS = {
    ("nonnormal", 2048): (
        "precondition violation: report row 'phi' has the non-finite value inf",
        "item 1",
    ),
}
BOUND_COLUMNS = ("tr_cr_matrix", "mse_lower", "explicit")


def _values(path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {row["quantity"]: float(row["value"]) for row in csv.DictReader(fh)}


def _columns(report: dict[str, float]) -> dict[str, float]:
    (explicit,) = [report[q] for q in ("no_limit_mse_lower", "limit_regime_mse_lower") if q in report]
    return {
        "tr_cr_matrix": report["cr_eig_min"] + report["cr_eig_max"],
        "mse_lower": report["mse_lower"],
        "explicit": explicit,
    }


def test_every_cell_has_its_bands():
    assert len(BANDS) == 12 and set(STOPS) <= set(BANDS)
    for cell, bands in BANDS.items():
        bound_columns = () if cell in STOPS else BOUND_COLUMNS
        assert sorted(bands) == sorted([*bound_columns, "asymptotic"]), cell


@pytest.mark.parametrize("system, n", list(BANDS), ids=[f"{s}-n{n}" for s, n in BANDS])
def test_sharpness_cell(tmp_path, capsys, system, n):
    doc = {
        "system": {"d": 2, "n": n, "a": SYSTEMS[system], "b": {"kind": "identity"}},
        "run": {"trials": 4000, "seed": 1, "epsilon": 0.1, "constant_c": 1.0},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    risk_out, bounds_out = tmp_path / "risk.csv", tmp_path / "bounds.csv"
    assert main(["risk", "--config", str(config), "--out", str(risk_out), "--workers", "1"]) == 0
    risk = _values(risk_out)
    mse, se = risk["risk_mse"], risk["risk_mse_std_error"]
    ratios = {}
    code = main(["bounds", "--config", str(config), "--out", str(bounds_out)])
    err = capsys.readouterr().err
    if (system, n) in STOPS:
        start, _owner = STOPS[system, n]
        assert code == 3 and err.startswith(start), err
        assert not bounds_out.exists()
    else:
        assert (code, err) == (0, "")
        for column, bound in _columns(_values(bounds_out)).items():
            assert mse - 4.0 * se >= bound, (column, mse, se, bound)
            ratios[column] = mse / bound
    cfg = load_config(config)
    ratios["asymptotic"] = mse / (2 * np.trace(np.linalg.inv(psi(SystemParams(a=cfg.a, b=cfg.b, n=n)))))
    outside = {
        column: ratio for column, ratio in ratios.items()
        if not BANDS[system, n][column][0] <= ratio <= BANDS[system, n][column][1]
    }
    assert outside == {}
    assert sorted(ratios) == sorted(BANDS[system, n])
