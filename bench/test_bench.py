"""Tests of the benchmark's own logic: python3 -m pytest bench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ltibounds import bounds, montecarlo  # noqa: E402
from ltibounds.cli import rows_to_csv  # noqa: E402
from ltibounds.config import resolve_config  # noqa: E402
from ltibounds.model import SystemParams  # noqa: E402
from ltibounds.rng import Stream  # noqa: E402
from workloads import D8_SPECTRUM, WORKLOADS, config_doc  # noqa: E402

SWEEP = {s.name: s for s in WORKLOADS["bounds_sweep"].systems}


def _params(name: str, seed: int = 0) -> SystemParams:
    cfg = resolve_config(config_doc(WORKLOADS["bounds_sweep"], SWEEP[name], seed))
    return SystemParams(a=cfg.a, b=cfg.b, n=cfg.n)


def _report(rows: list[tuple[str, float, str | None]]) -> str:
    """A CSV report in the CLI's layout."""
    cfg = resolve_config({"system": {"d": 1, "n": 4, "a": [[0.5]], "b": [[1.0]]}}, seed_override=0)
    from ltibounds.cli import ReportRow

    return rows_to_csv(
        [
            ReportRow(q, v, "tag", 1, 4, 0, {} if status is None else {"status": status})
            for q, v, status in rows
        ],
        cfg,
    )


def test_reference_matches_l_ab_and_psi_on_a_succeeding_diagonal_system():
    params = _params("stable_n256")
    ref = {q: float(v) for q, v in references.reference(SWEEP["stable_n256"]).items()}
    assert bounds.l_ab(params, 4096) == pytest.approx(ref["l_ab"], rel=1e-12)
    eigs = np.linalg.eigvalsh(bounds.psi(params))
    assert eigs[0] == pytest.approx(ref["psi_eig_min"], rel=1e-12)
    assert eigs[-1] == pytest.approx(ref["psi_eig_max"], rel=1e-12)


def test_similarity_member_shares_the_diagonal_reference():
    params = _params("d8_n256", seed=5)
    assert np.allclose(np.linalg.eigvalsh(params.a), D8_SPECTRUM, rtol=1e-12)
    ref = float(references.reference(SWEEP["d8_n256"])["l_ab"])
    assert bounds.l_ab(params, 4096) == pytest.approx(ref, rel=1e-12)


def test_committed_references_are_current():
    assert json.loads(checks.REFERENCE_FILE.read_text()) == references.all_references()


def test_config_generation_depends_on_the_seed_only():
    wl = WORKLOADS["mc_long"]
    system = wl.systems[0]
    assert config_doc(wl, system, 3) == config_doc(wl, system, 3)
    other = config_doc(wl, system, 4)
    assert other["system"]["a"] != config_doc(wl, system, 3)["system"]["a"]
    assert other["run"]["seed"] == 4
    for workload in WORKLOADS.values():
        for s in workload.systems:
            resolve_config(config_doc(workload, s, 0))


def test_self_times_on_a_synthetic_span_tree():
    N, S, E, P = tracing.NAME, tracing.START, tracing.END, tracing.PARENT
    spans = []
    for name, start, end, parent in [
        ("op", 0.0, 10.0, -1),
        ("cli.run_verify", 1.0, 9.0, 0),
        ("montecarlo.dominance_check", 2.0, 8.0, 1),
        ("montecarlo.empirical_risk", 3.0, 6.0, 2),
        ("rng.generator", 3.5, 4.0, 3),
        ("rng.generator", 4.0, 5.0, 3),
        ("bounds.cr_bound", 6.0, 7.5, 2),
        ("bounds.psi", 6.0, 6.5, 6),
    ]:
        span = [None] * 6
        span[N], span[S], span[E], span[P] = name, start, end, parent
        span[tracing.ERROR] = False
        spans.append(span)
    assert tracing.self_times(spans) == [2.0, 2.0, 1.5, 1.5, 0.5, 1.0, 1.0, 0.5]
    m = tracing.summarize(spans)
    # dominance_check minus its empirical_risk and cr_bound children, plus
    # empirical_risk minus its two generator calls
    assert m["montecarlo.self_s"] == 3.0
    assert m["montecarlo.dominance_check_s"] == 6.0
    assert m["montecarlo.empirical_risk_s"] == 3.0
    assert m["rng.generator_calls"] == 2 and m["rng.generator_s"] == 1.5
    assert m["bounds.cr_bound_s"] == 1.5 and m["bounds.psi_s"] == 0.5
    assert m["bounds.self_s"] == 1.5
    layer_selfs = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + (tracing.ROOT,))
    assert layer_selfs == 10.0


def test_installed_tracer_sees_calls_inside_a_module_and_restores_it():
    original = montecarlo.empirical_risk
    params = SystemParams(a=np.diag([0.5, 0.2]), b=np.eye(2), n=8)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        montecarlo.dominance_check(params, 200, 0.1, Stream(3))
    assert montecarlo.empirical_risk is original
    names = [s[tracing.NAME] for s in tracer.spans]
    risk = names.index("montecarlo.empirical_risk")
    assert names[tracer.spans[risk][tracing.PARENT]] == "montecarlo.dominance_check"
    assert names.count("rng.generator") == 200
    m = tracing.summarize(tracer.spans)
    assert m["montecarlo.trials"] == 200
    assert m["montecarlo.accepted_ratio"] == 1.0


def test_classification_of_failed_and_wrong_ops():
    good = _report([("selfnorm_identity", 2.0, "pass"), ("concentration_constant", 1.0, "info")])
    no_check = lambda rows: []  # noqa: E731
    assert checks.judge(0, good, no_check) == checks.OK
    # nonzero exit without a report: failed, but it claimed nothing
    assert checks.judge(3, "", no_check) == checks.Verdict(True, False, "exit code 3")
    # a failing check row
    bad = _report([("selfnorm_identity", 2.0, "fail")])
    verdict = checks.judge(1, bad, no_check)
    assert verdict.failed and not verdict.wrong
    verdict = checks.judge(0, _report([("score_mean_zero", 0.0, "inconclusive")]), no_check)
    assert verdict.failed and not verdict.wrong
    # a reference miss: failed and wrong, whatever the exit code
    verdict = checks.judge(0, good, lambda rows: ["l_ab off"])
    assert verdict == checks.Verdict(True, True, "l_ab off")
    # exit 0 with nothing to check is wrong
    assert checks.judge(0, "", no_check).wrong


def test_bounds_reference_check():
    ref = {"psi_eig_min": 2.0, "psi_eig_max": 8.0, "l_ab": 0.5}
    rows = [
        checks.Row("psi_eig_min", 2.0, None),
        checks.Row("psi_eig_max", 8.0, None),
        checks.Row("l_ab", 0.5, None),
        checks.Row("delta2", 1.0, None),
    ]
    assert checks.bounds_misses(rows, ref, d=2) == []
    off = rows[:2] + [checks.Row("l_ab", 0.5 * (1 + 1e-6), None), rows[3]]
    misses = checks.bounds_misses(off, ref, d=2)
    assert len(misses) == 2 and misses[0].startswith("l_ab")
    huge = dict(ref, psi_eig_max=float("inf"))
    assert checks.bounds_misses(rows, huge, d=2) == ["psi_eig_max 8.0 != reference inf"]
    assert checks.bounds_misses(rows[:1], ref, d=2)[0] == "missing row psi_eig_max"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 71)]) == (75.0, 53.0, 17)
    assert run.tail([float(i) for i in range(1, 9)]) == (100.0, 8.0, 0)


def test_benchmark_json_names_what_the_runs_print():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    traced_names = set(tracing.summarize([])) | {
        "trace.wall_s", "trace.untraced_s", "trace.overhead_s", "trace.self_sum_s", "trace.spans"
    }
    assert {m["name"] for m in doc["per_layer"]} == traced_names
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "op_s_p50", "op_s_tail", "work_per_s", "peak_rss_mb"
    ]
