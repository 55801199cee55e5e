"""Golden ``verify`` reports: the bytes must not depend on the worker count.

Each ``tests/golden/<name>.json`` config has its report committed next to it
as ``<name>.csv``. ``verify_readme_rotation`` runs three ``CHUNK``-sized
chunks per experiment; ``verify_d3_n64`` runs one chunk per experiment.
A change that alters any Monte Carlo draw or summation order on purpose
regenerates them with
``ltibounds verify --config tests/golden/<name>.json --out tests/golden/<name>.csv``.

The bytes are fixed for a given numpy/BLAS build. The Gram sums are BLAS
matrix products, so another BLAS build or CPU kernel may change the last
digits; regenerate the goldens there rather than loosening this check.
"""

from pathlib import Path

import pytest

from ltibounds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_goldens_exist():
    assert CONFIGS == ["verify_d3_n64", "verify_readme_rotation"]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", CONFIGS)
def test_verify_report_equals_golden(tmp_path, name, workers):
    out = tmp_path / f"{name}.csv"
    config = GOLDEN / f"{name}.json"
    assert main(["verify", "--config", str(config), "--out", str(out), "--workers", str(workers)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
