import concurrent.futures
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltibounds
import ltibounds.bounds
import ltibounds.cli
import ltibounds.linalg
import ltibounds.model
import ltibounds.montecarlo
from ltibounds.bounds import cr_bound
from ltibounds.cli import (
    SALT_IDENTITY,
    NonFiniteReportError,
    ReportRow,
    main,
    rows_to_csv,
    rows_to_json,
)
from ltibounds.config import ConfigError, build_matrix, load_config, resolve_config
from ltibounds.minimax import _van_trees_log
from ltibounds.model import SystemParams
from ltibounds.montecarlo import Draws, risk_plan, run_plans
from ltibounds.rng import KIND_HAAR_U, KIND_HAAR_V, KIND_NOISE, KIND_SIGMAS, Stream


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "system": {
            "d": 2,
            "n": 10,
            "a": {"kind": "identity", "scale": 0.0},
            "b": {"kind": "identity", "scale": 1.0},
        },
        "run": {"trials": 2000, "seed": 42},
        "output": {"format": "csv", "path": None},
    }
    for section, values in overrides.items():
        doc.setdefault(section, {}).update(values)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_build_matrix_kinds():
    assert np.allclose(build_matrix({"kind": "diag", "values": [1.0, 2.0]}, 2, "a"), np.diag([1.0, 2.0]))
    assert np.allclose(build_matrix({"kind": "identity", "scale": 3.0}, 2, "a"), 3.0 * np.eye(2))
    rot = build_matrix({"kind": "rotation", "angle": np.pi / 2, "scale": 2.0}, 2, "a")
    assert np.allclose(rot, [[0.0, -2.0], [2.0, 0.0]], atol=1e-12)
    explicit = build_matrix([[1.0, 0.5], [0.0, 1.0]], 2, "a")
    assert explicit[0, 1] == 0.5
    with pytest.raises(ConfigError):
        build_matrix({"kind": "rotation", "angle": 0.3}, 3, "a")
    with pytest.raises(ConfigError):
        build_matrix({"kind": "nope"}, 2, "a")


def test_resolve_requires_seed():
    raw = {"system": {"d": 1, "n": 4, "a": [[0.5]], "b": [[1.0]]}}
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(raw)
    cfg = resolve_config(raw, seed_override=7)
    assert cfg.seed == 7 and cfg.epsilon == 0.1 and cfg.trials == 10000


def test_resolve_rejects_unknown_run_key():
    raw = {
        "system": {"d": 1, "n": 4, "a": [[0.5]], "b": [[1.0]]},
        "run": {"seed": 1, "bogus": 2},
    }
    with pytest.raises(ConfigError, match="bogus"):
        resolve_config(raw)


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"system": {,}')
    assert main(["bounds", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_schema_violation_exit_2(tmp_path):
    path = write_config(tmp_path, system={"n": 1})
    assert main(["bounds", "--config", str(path)]) == 2


@pytest.mark.parametrize("command", ["bounds", "verify", "sample-prior"])
@pytest.mark.parametrize(
    "section, values, field",
    [
        ("run", {"trials": True}, "run.trials"),
        ("run", {"seed": False}, "run.seed"),
        ("run", {"grid_points": True}, "run.grid_points"),
        ("system", {"d": True}, "system.d"),
        ("run", {"epsilon": "abc"}, "run.epsilon"),
        ("run", {"epsilon": "0.5"}, "run.epsilon"),
        ("run", {"epsilon": None}, "run.epsilon"),
        ("run", {"alpha": True}, "run.alpha"),
        ("run", {"constant_c": "NaN"}, "run.constant_c"),
        ("run", {"s": "1e400"}, "run.s"),
        ("run", {"t_levels": [1, True]}, "run.t_levels"),
        ("run", {"t_levels": [1, "1e400"]}, "run.t_levels"),
        ("system", {"a": {"kind": "diag", "values": ["x", 0.5]}}, "system.a"),
        ("system", {"a": {"kind": "diag", "values": ["1e400", 0.5]}}, "system.a"),
        ("system", {"a": [[0.5, 0.0], [0.0, False]]}, "system.a"),
        ("system", {"a": [[0.5, 0.0], ["NaN", 0.5]]}, "system.a"),
        ("system", {"a": [[0.5, 0.0], [0.0]]}, "system.a"),
        ("system", {"a": {"kind": "rotation", "angle": None}}, "system.a"),
        ("system", {"b": {"kind": "identity", "scale": "2"}}, "system.b"),
        ("output", {"path": True}, "output.path"),
        ("output", {"path": 7}, "output.path"),
        ("output", {"path": ""}, "output.path"),
        ("output", {"fromat": "json"}, "output.fromat"),
        ("system", {"bogus": 1}, "system.bogus"),
        ("outptu", {"format": "json"}, "outptu"),
        ("system", {"a": {"kind": "rotation", "angle": 0.5, "scael": 0.9}}, "system.a.scael"),
        ("system", {"b": {"kind": "identity", "sacle": 3.0}}, "system.b.sacle"),
        ("system", {"a": {"kind": "diag", "values": [0.5, 0.5], "scale": 2.0}}, "system.a.scale"),
    ],
)
def test_config_rejects_malformed_numbers_with_exit_2(tmp_path, capsys, command, section, values, field):
    path = write_config(tmp_path, **{section: values})
    # JSON literals json.dumps does not write: an overflowing number and NaN
    path.write_text(path.read_text().replace('"1e400"', "1e400").replace('"NaN"', "NaN"))
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config field '{field}")
    assert not out.exists()


@pytest.mark.parametrize("where", ["--out", "output.path"])
def test_unwritable_report_exits_2_naming_the_path(tmp_path, capsys, where):
    target = str(tmp_path / "missing" / "x.csv")
    if where == "--out":
        path, extra = write_config(tmp_path), ["--out", target]
    else:
        path, extra = write_config(tmp_path, output={"path": target}), []
    assert main(["bounds", "--config", str(path), *extra]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write the report to {target!r}")


# ---------------------------------------------------------------------------
# bounds command
# ---------------------------------------------------------------------------


def test_bounds_memoryless_hand_rows(tmp_path):
    out = tmp_path / "report.csv"
    path = write_config(tmp_path)
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    assert float(rows["l_ab"]["value"]) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert float(rows["phi"]["value"]) == pytest.approx(11.0)
    # scalar bound assembled by hand from L = 1/9, eps = 0.1, C = 1
    t = math.log((1.0 / 9.0) / 0.1)
    delta = 2.0 * (1.0 / 9.0) + math.sqrt(2.0) / 3.0
    assert t < 2.0  # d v t = d here
    want = 0.81 / (1.0 + delta) ** 2 * 4.0 / 11.0
    assert float(rows["mse_lower"]["value"]) == pytest.approx(want, rel=1e-12)
    # config echo present and complete
    echo = json.loads(rows["config"]["extra"])
    assert echo["run"]["epsilon"] == 0.1
    assert echo["system"]["d"] == 2


def test_bounds_jordan_block_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, system={"a": [[1.0, 1.0], [0.0, 1.0]]})
    assert main(["bounds", "--config", str(path)]) == 3
    assert "diagonalizability assumption" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_writers_refuse_a_non_finite_value_naming_the_row(tmp_path, capsys, fmt):
    # a stable but non-normal A: phi at |A|_2^2 = 4.40 overflows at N = 2048
    path = write_config(tmp_path, system={"n": 2048, "a": [[0.5, 2.0], [0.0, 0.4]]})
    out = tmp_path / f"report.{fmt}"
    assert main(["bounds", "--config", str(path), "--out", str(out), "--format", fmt]) == 3
    err = capsys.readouterr().err
    assert err == "precondition violation: report row 'phi' has the non-finite value inf\n"
    assert not out.exists()


@pytest.mark.parametrize("writer", [rows_to_csv, rows_to_json])
@pytest.mark.parametrize(
    "extra",
    [{"x": math.nan}, {"levels": [1.0, [2.0, -math.inf]]}, {"fit": {"c": math.inf}}],
    ids=["value", "nested-list", "dict"],
)
def test_report_writers_check_every_number_in_extra(tmp_path, writer, extra):
    cfg = load_config(write_config(tmp_path))
    ok = ReportRow("ok", 1.0, "tag", 2, 10, 42, {"status": "pass", "levels": [1.0, [2.0]]})
    bad = ReportRow("bad", 1.0, "tag", 2, 10, 42, {"status": "pass", **extra})
    with pytest.raises(NonFiniteReportError, match="report row 'bad' has a non-finite number in extra"):
        writer([ok, bad], cfg)
    assert "ok" in writer([ok], cfg)


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_psi_overflow_exits_3_naming_the_cause_without_warnings(tmp_path, command):
    path = write_config(
        tmp_path,
        system={"d": 2, "n": 2048, "a": {"kind": "diag", "values": [0.5, 1.2]}},
        run={"trials": 1000, "seed": 3},
    )
    out = tmp_path / "report.csv"
    # a new process, so stderr is what a user sees, numpy's warnings included
    src = str(Path(ltibounds.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ltibounds.cli", command, "--config", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr == "precondition violation: Psi overflows float64 for rho(A) = 1.2 > 1 at N = 2048\n"
    assert not out.exists()


def test_bounds_csv_roundtrip_full_precision(tmp_path):
    out = tmp_path / "report.csv"
    path = write_config(
        tmp_path, system={"a": [[0.37, 0.11], [-0.05, 0.59]], "b": {"kind": "diag", "values": [1.0, 3.0]}}
    )
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == 0
    from ltibounds.bounds import cr_bound
    from ltibounds.model import SystemParams

    params = SystemParams(a=np.array([[0.37, 0.11], [-0.05, 0.59]]), b=np.diag([1.0, 3.0]), n=10)
    report = cr_bound(params, 0.1, 1.0)
    rows = {r["quantity"]: r for r in read_rows(out)}
    assert float(rows["l_ab"]["value"]) == report.l_ab  # exact round-trip
    assert float(rows["mse_lower"]["value"]) == report.mse_lower


# ---------------------------------------------------------------------------
# minimax command
# ---------------------------------------------------------------------------


def test_minimax_hand_value(tmp_path):
    out = tmp_path / "mm.csv"
    path = write_config(
        tmp_path,
        system={"n": 3},
        run={"epsilon": 1.0, "s": 0.0},
    )
    assert main(["minimax", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    assert float(rows["van_trees_bound"]["value"]) == pytest.approx(4.0 / 35.0, abs=1e-12)
    # all three regime rows present, exactly one applicable
    applicable = [
        json.loads(rows[f"minimax_rate_{k}"]["extra"])["applicable"]
        for k in ("stable", "limit", "unstable")
    ]
    assert applicable == [True, False, False]


def test_minimax_limit_regime(tmp_path):
    out = tmp_path / "mm.csv"
    path = write_config(tmp_path, run={"s": 1.0})
    assert main(["minimax", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    assert float(rows["minimax_rate_limit"]["value"]) == pytest.approx(
        math.log(4.0) ** 2 / (3.0 * 100.0 * 4.0), abs=1e-12
    )


def test_minimax_unstable_row_carries_log_value(tmp_path):
    out = tmp_path / "mm.csv"
    path = write_config(tmp_path, system={"n": 1000}, run={"s": 1.5, "alpha": 0.5})
    assert main(["minimax", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    unstable = rows["minimax_rate_unstable"]
    assert unstable["value"] == "0.0"  # underflows; the log keeps the number
    extra = json.loads(unstable["extra"])
    assert extra["applicable"] is True
    assert extra["log_value"] == pytest.approx(
        math.log(4.0 * (2.5**2 - 1.0) ** 2 / 1.5) - 2000.0 * math.log(2.5), rel=1e-12
    )
    for name in ("stable", "limit"):
        assert "log_value" not in json.loads(rows[f"minimax_rate_{name}"]["extra"])


def test_minimax_van_trees_row_carries_log_value_below_normal_range(tmp_path):
    # (s+eps)^2 = 1.21: the bound is exp(-954.8) at N = 5000, 0.0 in float64
    for n, logged in [(5000, True), (3000, False)]:
        out = tmp_path / f"mm{n}.csv"
        path = write_config(tmp_path, system={"n": n}, run={"s": 1.0, "epsilon": 0.1})
        assert main(["minimax", "--config", str(path), "--out", str(out)]) == 0
        row = {r["quantity"]: r for r in read_rows(out)}["van_trees_bound"]
        extra = json.loads(row["extra"])
        assert (float(row["value"]) == 0.0) is logged
        assert ("log_value" in extra) is logged
        if logged:
            assert extra["log_value"] == pytest.approx(-954.8368, abs=1e-4)


def test_verify_bayes_row_carries_the_log_of_an_underflowed_van_trees_bound(tmp_path, monkeypatch):
    # the Bayes plan reads montecarlo's van_trees_bound; --workers 1 runs it here
    monkeypatch.setattr(ltibounds.montecarlo, "van_trees_bound", lambda *args: 0.0)
    path = write_config(tmp_path, system={"n": 8}, run={"trials": 1000, "seed": 3, "s": 0.2})
    out = tmp_path / "v.csv"
    assert main(["verify", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
    extra = json.loads({r["quantity"]: r for r in read_rows(out)}["bayes_dominance"]["extra"])
    assert extra["vt_bound"] == 0.0
    assert extra["log_vt_bound"] == _van_trees_log(2, 8, 0.2, 0.1)
    monkeypatch.undo()
    assert main(["verify", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
    extra = json.loads({r["quantity"]: r for r in read_rows(out)}["bayes_dominance"]["extra"])
    assert extra["vt_bound"] > 0.0 and "log_vt_bound" not in extra


def test_minimax_invalid_row_still_present(tmp_path):
    out = tmp_path / "mm.csv"
    path = write_config(tmp_path, run={"s": 0.5, "alpha": 0.5})
    assert main(["minimax", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    extra = json.loads(rows["minimax_rate_stable"]["extra"])
    assert extra["applicable"] is True
    assert extra["valid"] is False  # N=10 below the stable-regime threshold


# ---------------------------------------------------------------------------
# risk and sample-prior commands
# ---------------------------------------------------------------------------


def test_risk_rows(tmp_path):
    out = tmp_path / "risk.csv"
    path = write_config(tmp_path, system={"d": 1, "n": 50, "a": [[0.5]], "b": [[1.0]]}, run={"trials": 500})
    assert main(["risk", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    assert float(rows["risk_mse"]["value"]) > 0
    assert json.loads(rows["risk_mse"]["extra"])["failed_trials"] == 0


def test_risk_below_the_trial_minimum_exits_2_naming_the_field(tmp_path, capsys):
    path = write_config(tmp_path, run={"trials": 50})
    out = tmp_path / "risk.csv"
    assert main(["risk", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config field 'run.trials': must be >= 100 for the risk command, got 50\n"
    assert not out.exists()


def test_sample_prior_rows(tmp_path):
    out = tmp_path / "draws.json"
    path = write_config(tmp_path, run={"trials": 5, "epsilon": 0.5, "s": 0.0})
    assert main(["sample-prior", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 5
    for row in doc["rows"]:
        sigmas = row["extra"]["sigmas"]
        assert all(0.0 <= s <= 0.5 for s in sigmas)
        assert row["value"] == max(sigmas)


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "v1.csv"
    out2 = tmp_path / "v2.csv"
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 2000, "seed": 9, "epsilon": 0.3},
    )
    assert main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(path), "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = {r["quantity"]: r for r in read_rows(out1)}
    for name in ("selfnorm_identity", "fisher_information", "score_mean_zero", "prior_score_identity"):
        assert json.loads(rows[name]["extra"])["status"] == "pass"


def inflated_cr_bound(*args, **kwargs):
    """``cr_bound`` with ``cr_matrix`` inflated 10x: a bound no estimator meets."""
    report = cr_bound(*args, **kwargs)
    return dataclasses.replace(report, cr_matrix=10.0 * report.cr_matrix)


def test_verify_negative_control_exit_1(tmp_path, monkeypatch):
    # the bound task is module-level, so a pool worker unpickles it too
    monkeypatch.setattr(ltibounds.cli, "cr_bound", inflated_cr_bound)
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 500, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 2000, "seed": 11},
    )
    for workers in ("1", "2"):
        out = tmp_path / f"v{workers}.csv"
        assert main(["verify", "--config", str(path), "--out", str(out), "--workers", workers]) == 1
        rows = {r["quantity"]: r for r in read_rows(out)}
        assert json.loads(rows["risk_dominance"]["extra"])["status"] == "fail"


def test_verify_checks_the_bound_that_bounds_reports(tmp_path):
    # run.constant_c is the C of (1 + C Delta)^-2 in both commands
    system = {"d": 2, "n": 16, "a": [[0.5, 0.2], [0.0, 0.8]], "b": [[1.0, 0.0], [0.5, 2.0]]}
    path = write_config(tmp_path, system=system, run={"trials": 200, "seed": 5, "constant_c": 2.0})
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v.csv")]) == 0
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "b.csv")]) == 0
    verify = {r["quantity"]: r for r in read_rows(tmp_path / "v.csv")}
    bounds = {r["quantity"]: r for r in read_rows(tmp_path / "b.csv")}
    params = SystemParams(a=np.array(system["a"]), b=np.array(system["b"]), n=16)
    report = cr_bound(params, 0.1, 2.0)
    assert [float(bounds[q]["value"]) for q in ("cr_eig_min", "cr_eig_max")] == list(
        np.linalg.eigvalsh(report.cr_matrix)
    )
    # the empirical error matrix of the verify op's own trials
    draws = Draws(Stream(5).child(SALT_IDENTITY), 16, 2, params)
    (risk,) = run_plans(draws, 200, [risk_plan(params, 200)])
    margin = np.linalg.eigvalsh(risk.error_matrix - report.cr_matrix)[0]
    assert float(verify["risk_dominance"]["value"]) == margin
    assert json.loads(verify["risk_dominance"]["extra"])["constant_c"] == 2.0


def test_verify_low_trials_inconclusive(tmp_path):
    out = tmp_path / "v.csv"
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 16, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 200, "seed": 13},
    )
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["quantity"]: r for r in read_rows(out)}
    assert "warning_low_trials" in rows
    assert json.loads(rows["selfnorm_identity"]["extra"])["status"] == "inconclusive"


def test_verify_below_two_trials_exits_2_naming_the_field(tmp_path, capsys):
    # one trial has no standard error; a report of NaN statistics is not valid JSON
    path = write_config(tmp_path, run={"trials": 1})
    out = tmp_path / "v.json"
    assert main(["verify", "--config", str(path), "--out", str(out), "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err == "config field 'run.trials': must be >= 2 for the verify command, got 1\n"
    assert not out.exists()
    # two trials are enough for a report, all of it inconclusive
    path = write_config(tmp_path, run={"trials": 2})
    assert main(["verify", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert {row["extra"]["status"] for row in doc["rows"][1:]} == {"inconclusive"}


def test_verify_computes_l_ab_once_on_the_configured_grid(tmp_path, monkeypatch):
    grids = []
    original = ltibounds.bounds.l_ab

    def recording_l_ab(params, grid_points=4096, **kwargs):
        grids.append(grid_points)
        return original(params, grid_points, **kwargs)

    # only cr_bound calls l_ab; the plans read its report
    monkeypatch.setattr(ltibounds.bounds, "l_ab", recording_l_ab)
    out = tmp_path / "v.csv"
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 1000, "seed": 9, "epsilon": 0.3, "grid_points": 128},
    )
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    assert grids == [128]
    rows = {r["quantity"] for r in read_rows(out)}
    assert {"risk_dominance", "concentration_constant", "multiplication_ratio"} <= rows


def test_seed_override_changes_report(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 2000, "seed": 9, "epsilon": 0.3},
    )
    assert main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(path), "--out", str(out2), "--seed", "10"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def count_walks_and_roots(monkeypatch) -> dict:
    """Count the walks of A^(k-1)B and the calls of sym_inv_sqrt, under every module's name."""
    owners = {"expected_gram": ltibounds.model, "sym_inv_sqrt": ltibounds.linalg}
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():

        def counting(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)

        for module in (ltibounds.model, ltibounds.bounds, ltibounds.montecarlo, ltibounds.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_computes_psi_once(tmp_path, monkeypatch):
    calls = count_walks_and_roots(monkeypatch)
    out = tmp_path / "v.csv"
    for trials in (1000, 500, 50):
        calls.update(expected_gram=0, sym_inv_sqrt=0)
        path = write_config(
            tmp_path,
            system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
            run={"trials": trials, "seed": 9, "epsilon": 0.3, "grid_points": 128},
        )
        assert main(["verify", "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
        # below 100 trials no experiment needs Psi^{-1/2}
        assert calls == {"expected_gram": 1, "sym_inv_sqrt": int(trials >= 100)}, trials


def test_bounds_walks_once(tmp_path, monkeypatch):
    calls = count_walks_and_roots(monkeypatch)
    path = write_config(tmp_path, system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]})
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "b.csv")]) == 0
    assert calls == {"expected_gram": 1, "sym_inv_sqrt": 1}


def test_one_pool_per_verify_op_sized_by_the_task_list(tmp_path, monkeypatch):
    sizes = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 1000, "seed": 9, "epsilon": 0.3, "grid_points": 128},
    )
    reports = []
    # one chunk, shared by all six Monte Carlo experiments, and the bound
    # make 2 tasks
    for workers, expected in [(8, [2]), (2, [2]), (1, [])]:
        sizes.clear()
        out = tmp_path / f"v{workers}.csv"
        assert main(["verify", "--config", str(path), "--out", str(out), "--workers", str(workers)]) == 0
        assert sizes == expected
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    sizes.clear()
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "b.csv")]) == 0
    assert sizes == []
    assert multiprocessing.active_children() == []


def test_verify_submits_the_simulation_chunks_first(tmp_path, monkeypatch):
    submitted = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    class RecordingPool(real_pool):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn.func.__name__)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": ltibounds.montecarlo.CHUNK + 1, "seed": 9, "epsilon": 0.3, "grid_points": 128},
    )
    reports = []
    for workers in (2, 1):
        out = tmp_path / f"v{workers}.csv"
        assert main(["verify", "--config", str(path), "--out", str(out), "--workers", str(workers)]) == 0
        reports.append(out.read_bytes())
    # two chunks: the long chunk tasks go to the pool before the bound,
    # whatever the report order
    assert submitted == ["_chunk", "_chunk", "cr_bound"]
    assert reports[0] == reports[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("trials", [100, 500, 1000, 5000])
def test_verify_simulates_each_trajectory_chunk_once(tmp_path, monkeypatch, trials):
    opened, drawn = [], {}
    original = Stream.generator

    class NoiseRecorder:
        def __init__(self, path, gen):
            self.path, self.gen = path, gen

        def standard_normal(self, size):
            drawn[self.path] += math.prod(size)
            return self.gen.standard_normal(size)

    def recording_generator(stream):
        gen = original(stream)
        opened.append(stream.path)
        if stream.path[2:3] != (KIND_NOISE,):
            return gen
        drawn.setdefault(stream.path, 0)
        return NoiseRecorder(stream.path, gen)

    monkeypatch.setattr(Stream, "generator", recording_generator)
    path = write_config(tmp_path, system={"a": {"kind": "identity", "scale": 0.5}}, run={"trials": trials})
    out = tmp_path / "v.csv"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    # each chunk opens the noise stream of its one block (N = 10) once and
    # draws count*N*d normals, shared by every trajectory check and, at 1000
    # trials, by the Bayes trajectories; it opens each prior kind stream
    # once, for the prior score and Bayes alike; no other stream is opened
    cli = ltibounds.cli
    chunks = ltibounds.montecarlo._chunk_ranges(trials, ltibounds.montecarlo.CHUNK)
    assert ltibounds.montecarlo._chunk_trials(10 * 2) == ltibounds.montecarlo.CHUNK  # N = 10, d = 2
    noise = {(cli.SALT_IDENTITY, index, KIND_NOISE, 0): count * 10 * 2 for index, count in chunks}
    prior_kinds = (KIND_HAAR_U, KIND_HAAR_V, KIND_SIGMAS)
    assert opened == [
        path
        for index, _ in chunks
        for path in [
            *((cli.SALT_PRIOR, index, kind) for kind in prior_kinds),
            (cli.SALT_IDENTITY, index, KIND_NOISE, 0),
        ]
    ]
    assert drawn == noise
    rows = read_rows(out)
    quantities = [r["quantity"] for r in rows]
    checks = [
        "selfnorm_identity",
        "fisher_information",
        "score_mean_zero",
        "prior_score_identity",
        "risk_dominance",
        "bayes_dominance",
        "concentration_constant",
        "multiplication_ratio",
    ]
    if trials < 1000:
        assert quantities == ["config", "warning_low_trials", *checks]
        # every experiment that needs 1000 trials still has its row
        for row in rows[-3:]:
            extra = json.loads(row["extra"])
            assert extra == {
                "skipped": "trials below the 1000-trial minimum",
                "status": "inconclusive",
            }
            assert float(row["value"]) == 0.0
    else:
        assert quantities == ["config", *checks]


def test_verify_bytes_do_not_depend_on_workers_with_work_sized_chunks(tmp_path):
    # N*d = 8192: a chunk holds 512 trials, so 1000 trials make 2 chunks
    assert ltibounds.montecarlo._chunk_trials(4096 * 2) == 512
    path = write_config(
        tmp_path,
        system={"n": 4096, "a": {"kind": "identity", "scale": 0.5}},
        run={"trials": 1000, "seed": 5, "grid_points": 128},
    )

    def report(workers):
        out = tmp_path / f"v{workers}.csv"
        assert main(["verify", "--config", str(path), "--out", str(out), "--workers", workers]) == 0
        return out.read_bytes()

    reports = [report(workers) for workers in ("1", "2", "3")]
    assert reports[1:] == reports[:1] * 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("trials", [1000, 500, 100])
def test_verify_errors_do_not_depend_on_workers(tmp_path, capsys, trials):
    # Psi of this unstable system is too ill-conditioned for Psi^{-1/2}: at
    # 1000 trials the parent finds out before any task runs, at 500 and 100
    # trials the cr_bound task does, inside the pool at --workers 2
    path = write_config(
        tmp_path,
        system={"d": 2, "n": 100, "a": {"kind": "diag", "values": [0.5, 1.2]}},
        run={"trials": trials, "seed": 3},
    )
    results = []
    for workers in ("1", "2"):
        out = tmp_path / f"v{workers}.csv"
        code = main(["verify", "--config", str(path), "--out", str(out), "--workers", workers])
        results.append((code, capsys.readouterr().err, out.exists()))
    assert results[0] == results[1]
    code, err, wrote = results[0]
    assert code == 3 and not wrote
    assert err.startswith(
        "precondition violation: matrix is too ill-conditioned: "
        "smallest/largest eigenvalue ratio"
    )
    assert multiprocessing.active_children() == []


OUT_OF_MEMORY = "Unable to allocate 5.82 TiB for an array with shape (100000000000, 2, 2)"


def _out_of_memory(*args, **kwargs):
    raise MemoryError(OUT_OF_MEMORY)


def _bare_out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "command, workers, bound, err",
    [
        ("bounds", "1", _out_of_memory, f"out of memory: {OUT_OF_MEMORY}\n"),
        ("bounds", "1", _bare_out_of_memory, "out of memory\n"),
        ("verify", "1", _out_of_memory, f"out of memory: {OUT_OF_MEMORY}\n"),
        # the bound task fails in a pool worker; its error is re-raised here
        ("verify", "2", _out_of_memory, f"out of memory: {OUT_OF_MEMORY}\n"),
    ],
    ids=["bounds", "bounds-bare", "verify-1", "verify-2"],
)
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, command, workers, bound, err):
    monkeypatch.setattr(ltibounds.cli, "cr_bound", bound)
    path = write_config(tmp_path, run={"trials": 1000, "seed": 9, "epsilon": 0.3, "grid_points": 128})
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(path), "--out", str(out), "--workers", workers]) == 3
    assert capsys.readouterr().err == err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_pool_module_is_not_imported_by_bounds_or_one_worker(tmp_path):
    path = write_config(
        tmp_path,
        system={"d": 1, "n": 32, "a": [[0.5]], "b": [[1.0]]},
        run={"trials": 1000, "seed": 9, "epsilon": 0.3, "grid_points": 128},
    )
    script = (
        "import sys\n"
        "import ltibounds.cli\n"
        "# numpy.fft (first used by l_ab) and scipy stay out of the start-up\n"
        "assert 'numpy.fft' not in sys.modules and 'scipy' not in sys.modules\n"
        "seen = ['concurrent.futures.process' in sys.modules]\n"
        "for cmd in (['bounds'], ['verify', '--workers', '1']):\n"
        "    code = ltibounds.cli.main(cmd + ['--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "    assert code == 0, code\n"
        "    seen.append('concurrent.futures.process' in sys.modules)\n"
        "print(seen)\n"
    )
    src = str(Path(ltibounds.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        check=True,
    )
    assert proc.stdout.strip() == "[False, False, False]"
