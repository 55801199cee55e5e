"""Golden reports: the bytes must not depend on the worker count.

Each ``tests/golden/<command>_<name>.json`` config has the report of
``ltibounds <command>`` committed next to it as ``<command>_<name>.csv``.
``verify_readme_rotation`` runs three ``CHUNK``-sized chunks, each shared by
all of its experiments; ``verify_readme_rotation_n200`` runs the same system
at N = 200 over chunks of 4096 and 904 trials, each as blocks of 64, 64, 64
and 8 steps, so it pins the block carry-over and the join of the chunks on
the trial axis; ``verify_d3_n64`` runs one such chunk; ``verify_d3_n64_t50`` and
``verify_d3_n64_t500`` pin the skipped and inconclusive rows below the 100-
and 1000-trial minimums. ``risk_readme_rotation`` runs the README rotation
at N = 16 over chunks of 4096 and 904 trials, and is compared at the same
worker counts as ``verify``. ``minimax_unstable_n1000`` pins the
``log_value`` behind two 0.0 values, and ``sample-prior_d3`` five prior
draws at d = 3. Four of the seven ``bounds`` goldens are the seed-1
configs of a stable, a limit-stable, an unstable and a d=8 system of the
benchmark's ``bounds_sweep`` workload; the other three pin a split with a
stable, a limit-stable and an unstable block, a non-normal A and a zero
eigenvalue. A change that alters any Monte Carlo draw, summation order or
bound value on purpose regenerates them with
``ltibounds <command> --config tests/golden/<name>.json --out tests/golden/<name>.csv``.

The ``risk``, ``sample-prior`` and ``verify`` goldens were generated under
RNG layout ``GOLDEN_RNG_LAYOUT``. A change of the draws bumps
``ltibounds.RNG_LAYOUT`` and regenerates them in the same change: the layout
check fails until ``GOLDEN_RNG_LAYOUT`` follows the bump, and the byte
checks until the goldens are regenerated.

The bytes are fixed for a given numpy/BLAS build. The Gram sums are BLAS
matrix products, so another BLAS build or CPU kernel may change the last
digits; regenerate the goldens there rather than loosening this check.
"""

from pathlib import Path

import pytest

import ltibounds
from ltibounds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.json"))
VERIFY = [name for name in CONFIGS if name.startswith("verify_")]
RISK = [name for name in CONFIGS if name.startswith("risk_")]
# the stream layout the seeded goldens were generated under
GOLDEN_RNG_LAYOUT = 5


def test_goldens_were_generated_under_the_current_rng_layout():
    assert ltibounds.RNG_LAYOUT == GOLDEN_RNG_LAYOUT, (
        f"the seeded goldens were generated under RNG layout {GOLDEN_RNG_LAYOUT}, "
        f"but ltibounds.RNG_LAYOUT is {ltibounds.RNG_LAYOUT}: regenerate them and "
        "update GOLDEN_RNG_LAYOUT"
    )


def test_goldens_exist():
    assert CONFIGS == [
        "bounds_d8_n256",
        "bounds_limit_n512",
        "bounds_mixed_n16",
        "bounds_nonnormal_n64",
        "bounds_stable_n256",
        "bounds_unstable_n64",
        "bounds_zero_eig_n32",
        "minimax_unstable_n1000",
        "risk_readme_rotation",
        "sample-prior_d3",
        "verify_d3_n64",
        "verify_d3_n64_t50",
        "verify_d3_n64_t500",
        "verify_readme_rotation",
        "verify_readme_rotation_n200",
    ]


def _report(tmp_path, name: str, *options: str) -> bytes:
    out = tmp_path / f"{name}.csv"
    command = name.split("_", 1)[0]
    config = GOLDEN / f"{name}.json"
    assert main([command, "--config", str(config), "--out", str(out), *options]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", [name for name in CONFIGS if name.startswith("bounds_")])
def test_bounds_report_equals_golden(tmp_path, name):
    assert _report(tmp_path, name) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", VERIFY)
def test_verify_report_equals_golden(tmp_path, name, workers):
    assert _report(tmp_path, name, "--workers", str(workers)) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", RISK)
def test_risk_report_equals_golden(tmp_path, name, workers):
    assert _report(tmp_path, name, "--workers", str(workers)) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", [name for name in CONFIGS if name.startswith(("minimax_", "sample-prior_"))])
def test_minimax_and_sample_prior_reports_equal_golden(tmp_path, name):
    assert _report(tmp_path, name) == (GOLDEN / f"{name}.csv").read_bytes()
