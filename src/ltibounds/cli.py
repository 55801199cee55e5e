"""Batch front door: JSON experiment configs in, CSV/JSON report rows out.

Subcommands: ``bounds`` (deterministic bound quantities), ``minimax``
(Bayesian bound and explicit rates), ``risk`` (Monte Carlo risk of least
squares), ``verify`` (the seeded identity and dominance check suite), and
``sample-prior`` (draws from the operator-ball prior).

Exit codes: 0 success, 1 check failure (some row, of any command, has
status ``fail``), 2 config error or unwritable report, 3 precondition
violation, including a report number that is not finite.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

# minimax and montecarlo load on first attribute use (see the package root),
# so a bounds op never loads them: only the commands that run them read them
from . import minimax, montecarlo
from .bounds import NotDiagonalizableError, cr_bound, explicit_bound, lab_upper_bound, psi
from .config import ConfigError, ExperimentConfig, load_config
from .model import AllTrialsSingularError, SystemParams, TooManySingularTrialsError
from .rng import Stream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3

# stream salts, one substream family each. A verify op draws its noise under
# SALT_IDENTITY and its prior draws under SALT_PRIOR; the noise drives the
# trajectories of the configured system and the Bayes trajectories alike.
SALT_IDENTITY = 0
SALT_PRIOR = 1
SALT_RISK = 4
SALT_SAMPLES = 5


class ReportRow(NamedTuple):
    """One emitted number with its formula tag and the run coordinates."""

    quantity: str
    value: float
    eq_tag: str
    d: int
    n: int
    seed: int
    extra: dict


def _row(cfg: ExperimentConfig, quantity: str, value: float, eq_tag: str, **extra) -> ReportRow:
    return ReportRow(
        quantity=quantity,
        value=float(value),
        eq_tag=eq_tag,
        d=cfg.d,
        n=cfg.n,
        seed=cfg.seed,
        extra=extra,
    )


def _logged(bound, key: str) -> dict:
    """``{key: bound.log_value}`` where the bound layer carries the log of ``bound``."""
    return {} if bound.log_value is None else {key: bound.log_value}


def _skipped_row(cfg: ExperimentConfig, quantity: str, eq_tag: str, minimum: int) -> ReportRow:
    skipped = f"trials below the {minimum}-trial minimum"
    return _row(cfg, quantity, 0.0, eq_tag, status="inconclusive", skipped=skipped)


class NonFiniteReportError(ValueError):
    """A report row holds a number that is not finite, in its value or its ``extra``."""


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return True


def _require_finite(rows: list[ReportRow]) -> None:
    """Raise ``NonFiniteReportError`` naming the first row that holds inf or NaN."""
    for row in rows:
        if not _finite(row.value):
            raise NonFiniteReportError(
                f"report row {row.quantity!r} has the non-finite value {row.value!r}"
            )
        for key, value in row.extra.items():
            if not _finite(value):
                raise NonFiniteReportError(
                    f"report row {row.quantity!r} has a non-finite number in extra {key!r}"
                )


def rows_to_csv(rows: list[ReportRow], cfg: ExperimentConfig) -> str:
    _require_finite(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "value", "eq_tag", "d", "n", "seed", "extra"])
    writer.writerow(
        ["config", repr(0.0), "config-echo", cfg.d, cfg.n, cfg.seed, json.dumps(cfg.echo, sort_keys=True)]
    )
    for row in rows:
        writer.writerow(
            [
                row.quantity,
                repr(row.value),
                row.eq_tag,
                row.d,
                row.n,
                row.seed,
                json.dumps(row.extra, sort_keys=True),
            ]
        )
    return buf.getvalue()


def rows_to_json(rows: list[ReportRow], cfg: ExperimentConfig) -> str:
    _require_finite(rows)
    doc = {
        "config": cfg.echo,
        "rows": [
            {
                "quantity": r.quantity,
                "value": r.value,
                "eq_tag": r.eq_tag,
                "d": r.d,
                "n": r.n,
                "seed": r.seed,
                "extra": r.extra,
            }
            for r in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _system(cfg: ExperimentConfig) -> SystemParams:
    return SystemParams(a=cfg.a, b=cfg.b, n=cfg.n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_bounds(cfg: ExperimentConfig) -> list[ReportRow]:
    if cfg.epsilon >= 1.0:
        raise ConfigError("run.epsilon", "must be in (0, 1) for the bounds command")
    params = _system(cfg)
    # the walk of A^(k-1)B runs here, in psi; cr_bound reads its cached result
    psi_eigs = np.linalg.eigvalsh(psi(params))
    report = cr_bound(params, cfg.epsilon, cfg.constant_c, grid_points=cfg.grid_points)
    cr_eigs = np.linalg.eigvalsh(report.cr_matrix)
    consts = {"epsilon": cfg.epsilon, "constant_c": cfg.constant_c}
    rows = [
        _row(cfg, "psi_eig_min", psi_eigs[0], "expected-gram"),
        _row(cfg, "psi_eig_max", psi_eigs[-1], "expected-gram"),
        _row(cfg, "l_ab", report.l_ab, "frequency-gram-sup", grid_points=cfg.grid_points),
        _row(cfg, "delta1", report.delta1, "gram-deviation-rate", **consts),
        _row(cfg, "delta2", report.delta2, "multiplication-rate"),
        _row(cfg, "phi", report.phi_value, "rate-function"),
        _row(cfg, "cr_eig_min", cr_eigs[0], "ls-error-lower-bound", **consts),
        _row(cfg, "cr_eig_max", cr_eigs[-1], "ls-error-lower-bound", **consts),
        _row(cfg, "mse_lower", report.mse_lower, "ls-mse-lower-bound", **consts),
    ]
    lab = lab_upper_bound(params, cfg.alpha)
    rows.append(
        _row(
            cfg,
            "l_ab_upper",
            lab.value,
            "frequency-gram-sup-upper",
            valid=lab.valid,
            alpha=cfg.alpha,
        )
    )
    explicit = explicit_bound(params, cfg.epsilon)
    if explicit.delta_eps is None:
        name, tag, regime_extra = "no_limit_mse_lower", "no-limit-explicit-bound", {}
    else:
        name, tag = "limit_regime_mse_lower", "limit-explicit-bound"
        regime_extra = {"delta_eps": explicit.delta_eps, "rate_only": True}
    rows.append(
        _row(
            cfg,
            name,
            explicit.mse_lower,
            tag,
            n_min=explicit.n_min,
            valid=cfg.n >= explicit.n_min,
            epsilon=cfg.epsilon,
            **regime_extra,
        )
    )
    return rows


def run_minimax(cfg: ExperimentConfig) -> list[ReportRow]:
    """The van Trees bound and the rate of the one regime ``minimax_regimes`` puts s in."""
    vt_bound = minimax.van_trees_bound(cfg.d, cfg.n, cfg.s, cfg.epsilon)
    rate = minimax.minimax_regimes(cfg.d, cfg.n, cfg.s, cfg.alpha)
    return [
        _row(
            cfg,
            "van_trees_bound",
            vt_bound.value,
            "bayes-risk-lower-bound",
            s=cfg.s,
            epsilon=cfg.epsilon,
            **_logged(vt_bound, "log_value"),
        ),
        _row(
            cfg,
            f"minimax_rate_{rate.regime}",
            rate.value,
            f"minimax-rate-{rate.regime}",
            valid=rate.valid,
            s=cfg.s,
            alpha=cfg.alpha,
            **_logged(rate, "log_value"),
        ),
    ]


def run_risk(cfg: ExperimentConfig, workers: int) -> list[ReportRow]:
    minimum = montecarlo.MIN_RISK_TRIALS
    if cfg.trials < minimum:
        raise ConfigError(
            "run.trials", f"must be >= {minimum} for the risk command, got {cfg.trials}"
        )
    params = _system(cfg)
    est = montecarlo.empirical_risk(
        params, cfg.trials, Stream(cfg.seed).child(SALT_RISK), workers=workers
    )
    eigs = np.linalg.eigvalsh(est.error_matrix)
    rows = [
        _row(cfg, "risk_mse", est.mse, "empirical-risk", trials=est.trials,
             failed_trials=est.failed_trials),
        _row(cfg, "risk_mse_std_error", est.mse_std_error, "empirical-risk"),
        _row(cfg, "risk_eig_min", eigs[0], "empirical-risk"),
        _row(cfg, "risk_eig_max", eigs[-1], "empirical-risk"),
    ]
    return rows


def run_verify(cfg: ExperimentConfig, workers: int) -> list[ReportRow]:
    if cfg.epsilon >= 1.0:
        raise ConfigError("run.epsilon", "must be in (0, 1) for the verify command")
    if cfg.trials < 2:
        # a standard error needs two trials
        raise ConfigError("run.trials", f"must be >= 2 for the verify command, got {cfg.trials}")
    params = _system(cfg)
    spec = minimax.PriorSpec(s=cfg.s, eps=cfg.epsilon, d=cfg.d)
    root = Stream(cfg.seed)
    trials = cfg.trials
    conclusive = trials >= montecarlo.MIN_CONCLUSIVE_TRIALS
    # The identity plan is built first: its psi call runs the walk of
    # A^(k-1)B. The bound is the one `bounds` reports for this config;
    # concentration and multiplication read only its l_ab. Each experiment
    # after the identity checks is named once below: quantity, eq tag, trial
    # minimum, plan, and the value and extra of its row. One below its minimum
    # is not run and gets a skipped row. All plans run in one call of
    # run_plans, so the six Monte Carlo experiments read one set of chunks.
    # Building them fills params' cached (BB*)^{-1} and, with the concentration
    # plan, Psi^{-1/2}, so an ill-conditioned Psi stops the op before any task
    # runs and the pickled params carries the one walk into the bound task.
    identity = montecarlo.identity_plan(params)
    bound = partial(cr_bound, params, cfg.epsilon, cfg.constant_c, grid_points=cfg.grid_points)
    experiments = [
        (
            "risk_dominance", "risk-dominance", montecarlo.MIN_RISK_TRIALS,
            lambda: montecarlo.dominance_plan(params, trials, bound),
            lambda dom: (dom.margin, {
                "status": ("pass" if dom.holds else "fail") if conclusive else "inconclusive",
                "constant_c": cfg.constant_c, "epsilon": cfg.epsilon,
            }),
        ),
        (
            "bayes_dominance", "bayes-risk-lower-bound", montecarlo.MIN_CONCLUSIVE_TRIALS,
            lambda: montecarlo.bayes_plan(spec, cfg.n, trials),
            lambda bayes: (bayes.bayes_mse, {
                "status": "pass" if bayes.bayes_mse >= bayes.vt_bound.value else "fail",
                "vt_bound": bayes.vt_bound.value, **_logged(bayes.vt_bound, "log_vt_bound"),
                "s": cfg.s, "epsilon": cfg.epsilon,
            }),
        ),
        # constant-dependent experiments: descriptive ("info"), never drive the exit code
        (
            "concentration_constant", "gram-deviation-rate", montecarlo.MIN_CONCLUSIVE_TRIALS,
            lambda: montecarlo.concentration_plan(params, trials, list(cfg.t_levels), bound),
            lambda fit: (fit.fitted_constant, {
                "status": "info", "t_levels": list(fit.t_levels),
                "exceedance": list(fit.empirical_exceedance), "delta1_levels": list(fit.delta1_levels),
            }),
        ),
        (
            "multiplication_ratio", "multiplication-rate", montecarlo.MIN_CONCLUSIVE_TRIALS,
            lambda: montecarlo.multiplication_plan(params, trials, bound),
            lambda mult: (mult.mc_value / mult.bound_value, {
                "status": "info", "mc_value": mult.mc_value, "bound_value": mult.bound_value,
            }),
        ),
    ]
    plans = [plan() for _, _, minimum, plan, _ in experiments if trials >= minimum]
    draws = montecarlo.Draws(
        root.child(SALT_IDENTITY), cfg.n, cfg.d, params, root.child(SALT_PRIOR), spec
    )
    checks, prior_check, *results = montecarlo.run_plans(
        draws, trials, [identity, montecarlo.prior_identity_plan(spec), *plans], workers
    )

    rows: list[ReportRow] = []
    if not conclusive:
        rows.append(
            _row(
                cfg,
                "warning_low_trials",
                float(trials),
                "check-policy",
                message="SE too large for 4-SE test; checks marked inconclusive",
            )
        )

    tag = {
        "selfnorm_identity": "selfnorm-identity",
        "fisher_information": "information-identity",
        "score_mean_zero": "score-mean-zero",
        "prior_score_identity": "prior-score-identity",
    }
    for check in [*checks, prior_check]:
        status = "inconclusive" if check.passed is None else ("pass" if check.passed else "fail")
        rows.append(
            _row(
                cfg,
                check.name,
                check.value,
                tag[check.name],
                status=status,
                target=check.target,
                statistic=check.statistic,
                threshold=check.threshold,
                std_error=check.std_error,
                trials=trials,
            )
        )

    outcome = iter(results)
    for quantity, eq_tag, minimum, _, row in experiments:
        if trials < minimum:
            rows.append(_skipped_row(cfg, quantity, eq_tag, minimum))
        else:
            value, extra = row(next(outcome))
            rows.append(_row(cfg, quantity, value, eq_tag, **extra, trials=trials))
    return rows


def run_sample_prior(cfg: ExperimentConfig) -> list[ReportRow]:
    spec = minimax.PriorSpec(s=cfg.s, eps=cfg.epsilon, d=cfg.d)
    draws = minimax.sample_prior_batch(spec, Stream(cfg.seed).child(SALT_SAMPLES), cfg.trials)
    rows = []
    for k, (sigmas, a) in enumerate(zip(draws.sigmas, draws.a)):
        rows.append(
            _row(
                cfg,
                "prior_sample",
                float(np.max(sigmas)),
                "operator-ball-prior-draw",
                index=k,
                sigmas=[float(x) for x in sigmas],
                a=[[float(x) for x in row] for row in a],
            )
        )
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltibounds",
        description="Estimation lower bounds for LTI state-space models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("bounds", "deterministic bound quantities for one system"),
        ("minimax", "Bayesian lower bound and explicit minimax rates"),
        ("risk", "Monte Carlo estimation risk of least squares"),
        ("verify", "seeded identity and dominance check suite"),
        ("sample-prior", "draws from the operator-ball prior"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output file (default: config output.path or stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--workers", type=int, default=1, help="worker count; never changes results")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except json.JSONDecodeError as exc:
        print(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config file not found: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "bounds":
            rows = run_bounds(cfg)
        elif args.command == "minimax":
            rows = run_minimax(cfg)
        elif args.command == "risk":
            rows = run_risk(cfg, args.workers)
        elif args.command == "verify":
            rows = run_verify(cfg, args.workers)
        else:
            rows = run_sample_prior(cfg)
        fmt = args.format or cfg.out_format
        text = rows_to_csv(rows, cfg) if fmt == "csv" else rows_to_json(rows, cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except NotDiagonalizableError as exc:
        print(f"diagonalizability assumption violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (AllTrialsSingularError, TooManySingularTrialsError) as exc:
        print(f"degenerate sample covariances: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        # numpy's allocation failures, in this process or re-raised from a worker
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_PRECONDITION

    path = args.out if args.out is not None else cfg.out_path
    try:
        _emit(text, path)
    except OSError as exc:
        where = "stdout" if path is None else repr(path)
        print(f"cannot write the report to {where}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CHECK_FAILED if any(row.extra.get("status") == "fail" for row in rows) else EXIT_OK


def entry() -> None:
    """Process entry point: exit with ``main()``'s code.

    ``gc.freeze()`` first moves every live object out of the collector's
    reach, so the interpreter's collections at exit have nothing to walk.
    It is not in ``main()``, which tests and the traced benchmark call in
    their own process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
