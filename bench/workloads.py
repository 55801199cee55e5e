"""Workload definitions: which systems each workload runs and why.

Every config the benchmark hands to ``ltibounds`` is generated here from the
workload seed alone. The seed sets ``run.seed`` and the random orthogonal
similarity of the d=8 systems; every spectrum is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_POINTS = 4096
D8_SPECTRUM = tuple(float(x) for x in np.linspace(0.3, 0.95, 8))


@dataclass(frozen=True)
class System:
    """One LTI system (A, B, N).

    ``kind`` is "diag" (A = diag(values)), "rotation" (2x2 rotation by
    ``angle`` scaled by values[0]) or "similarity" (A = Q diag(values) Q^T
    with a seeded Haar orthogonal Q). ``b`` holds the diagonal of B.
    In every kind A is normal and B is diagonal in A's eigenbasis, which is
    what makes the closed-form references in ``references.py`` apply.
    """

    name: str
    kind: str
    values: tuple[float, ...]
    n: int
    b: tuple[float, ...] | None = None
    angle: float = 0.0

    @property
    def d(self) -> int:
        return 2 if self.kind == "rotation" else len(self.values)

    @property
    def moduli(self) -> tuple[float, ...]:
        """Eigenvalue moduli of A."""
        return (self.values[0],) * 2 if self.kind == "rotation" else self.values

    @property
    def b_diag(self) -> tuple[float, ...]:
        return self.b if self.b is not None else (1.0,) * self.d


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    systems: tuple[System, ...]
    trials: int = 0
    workers: int = 1

    @property
    def monte_carlo(self) -> bool:
        return self.command == "verify"


def _diag(name: str, values: tuple[float, ...], n: int, b=None) -> System:
    return System(name, "diag", values, n, b)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_short",
            command="verify",
            why=(
                "small d=2 systems: fixed per-trial overhead (prior sampling with "
                "per-draw QR, one RNG per trial) over several 4096-trial chunks"
            ),
            systems=(
                System("readme", "rotation", (0.9,), 16, b=(1.0, 3.0), angle=0.5),
                _diag("mixed_n8", (0.5, 1.2), 8),
            ),
            # three 4096-trial chunks per experiment, so the pool has work to spread
            trials=3 * 4096,
            workers=2,
        ),
        Workload(
            name="mc_long",
            command="verify",
            why=(
                "one d=8, N=2048 system: per-trial overhead spread over N*d draws; "
                "Gram einsums, bulk noise and the recursion dominate, memory peaks"
            ),
            systems=(System("d8_n2048", "similarity", D8_SPECTRUM, 2048),),
            # fewest trials whose checks are conclusive; one chunk per experiment
            trials=1000,
            workers=2,
        ),
        Workload(
            name="bounds_sweep",
            command="bounds",
            why=(
                "no Monte Carlo: psi, the l_ab grid and golden refinement, spectral "
                "split over stable, limit-stable and unstable systems"
            ),
            systems=(
                _diag("stable_n256", (0.5, 0.9), 256, b=(1.0, 3.0)),
                _diag("stable_n2048", (0.3, 0.95), 2048),
                System("d8_n256", "similarity", D8_SPECTRUM, 256),
                System("d8_n2048", "similarity", D8_SPECTRUM, 2048),
                _diag("limit_n512", (1.0, 0.5), 512),
                _diag("limit_n2048", (1.0, 0.5), 2048),
                System("rotation_n512", "rotation", (1.0,), 512, angle=0.5),
                # the paper's unstable regime; several of these exit 3 in
                # ltibounds 0.1.0 and stay in the list, so a fix shows as fewer
                # failed ops
                _diag("unstable_n16", (0.5, 1.2), 16),
                _diag("unstable_n64", (0.5, 1.2), 64),
                _diag("unstable_n100", (0.5, 1.2), 100),
                _diag("unstable_n512", (0.5, 1.2), 512),
                _diag("unstable_n2048", (0.5, 1.2), 2048),
                _diag("weak_unstable_n512", (0.5, 1.02), 512),
                _diag("weak_unstable_n2048", (0.5, 1.02), 2048),
            ),
        ),
    )
}


def similarity(seed: int, spectrum: tuple[float, ...]) -> list[list[float]]:
    """Q diag(spectrum) Q^T for a Haar orthogonal Q drawn from ``seed``."""
    d = len(spectrum)
    rng = np.random.default_rng([seed, d])
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = (q * np.asarray(spectrum)) @ q.T
    return (0.5 * (a + a.T)).tolist()


def config_doc(workload: Workload, system: System, seed: int) -> dict:
    """The JSON config of one op: the system, with ``run.seed`` = ``seed``."""
    if system.kind == "diag":
        a = {"kind": "diag", "values": list(system.values)}
    elif system.kind == "rotation":
        a = {"kind": "rotation", "angle": system.angle, "scale": system.values[0]}
    else:
        a = similarity(seed, system.values)
    run = {"seed": seed, "grid_points": GRID_POINTS}
    if workload.trials:
        run["trials"] = workload.trials
    return {
        "system": {
            "d": system.d,
            "n": system.n,
            "a": a,
            "b": {"kind": "diag", "values": list(system.b_diag)},
        },
        "run": run,
        "output": {"format": "csv"},
    }
