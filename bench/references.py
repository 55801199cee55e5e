"""High-precision references for the ``bounds_sweep`` systems.

Every sweep system has a normal A with B diagonal in A's eigenbasis. With
eigenvalue moduli m_i and B entries b_i in that basis:

* the eigenvalues of psi are b_i^2 * sum_{k=1}^{N-1} (N-k) m_i^{2(k-1)};
* l_ab = max_i (sum_{k=0}^{N-2} m_i^k)^2 / sum_{k=1}^{N-1} (N-k) m_i^{2(k-1)},
  attained at the frequency where every power sum is in phase, and
  independent of B.

These are evaluated with mpmath at 50 digits and committed to
``references.json``, so the benchmark needs no mpmath at run time and a
later change cannot make an unstable system pass by emitting wrong numbers.
Regenerate with ``python3 bench/references.py``.
"""

from __future__ import annotations

import json

import mpmath

from checks import REFERENCE_FILE
from workloads import WORKLOADS, System

DIGITS = 20


def reference(system: System) -> dict[str, str]:
    """psi_eig_min, psi_eig_max and l_ab of ``system`` as decimal strings."""
    n = system.n
    with mpmath.workdps(50):
        psi_eigs = []
        ratios = []
        for m, b in zip(system.moduli, system.b_diag):
            m = mpmath.mpf(m)
            s1 = mpmath.fsum(m**k for k in range(n - 1))
            s2 = mpmath.fsum((n - k) * m ** (2 * (k - 1)) for k in range(1, n))
            psi_eigs.append(mpmath.mpf(b) ** 2 * s2)
            ratios.append(s1**2 / s2)
        return {
            "psi_eig_min": mpmath.nstr(min(psi_eigs), DIGITS),
            "psi_eig_max": mpmath.nstr(max(psi_eigs), DIGITS),
            "l_ab": mpmath.nstr(max(ratios), DIGITS),
        }


def all_references() -> dict[str, dict[str, str]]:
    return {s.name: reference(s) for s in WORKLOADS["bounds_sweep"].systems}


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(all_references(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
