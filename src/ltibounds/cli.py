"""Batch front door: JSON experiment configs in, CSV/JSON report rows out.

Subcommands: ``bounds`` (deterministic bound quantities), ``minimax``
(Bayesian bound and explicit rates), ``risk`` (Monte Carlo risk of least
squares), ``verify`` (the seeded identity and dominance check suite), and
``sample-prior`` (draws from the operator-ball prior).

Exit codes: 0 success, 1 check failure, 2 config error or unwritable report,
3 precondition violation, including a report number that is not finite.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import (
    NotDiagonalizableError,
    cr_bound,
    lab_upper_bound,
    prop_bound_no_limit,
    prop_bound_with_limit,
    spectral_split,
)
from .config import ConfigError, ExperimentConfig, load_config
from .minimax import PriorSpec, _van_trees_log, minimax_regimes, sample_prior_batch, van_trees_bound
from .model import SystemParams
from .montecarlo import (
    MIN_CONCLUSIVE_TRIALS,
    MIN_RISK_TRIALS,
    AllTrialsSingularError,
    Draws,
    TooManySingularTrialsError,
    bayes_plan,
    concentration_plan,
    dominance_plan,
    empirical_risk,
    identity_plan,
    multiplication_plan,
    prior_identity_plan,
    run_plans,
)
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


@dataclass(frozen=True)
class ReportRow:
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


def _van_trees_logged(cfg: ExperimentConfig, value: float, key: str) -> dict:
    """``{key: log of the van Trees bound}`` when ``value``, the bound, is 0.0 or subnormal."""
    if abs(value) < sys.float_info.min:
        return {key: _van_trees_log(cfg.d, cfg.n, cfg.s, cfg.epsilon)}
    return {}


def _skipped_row(
    cfg: ExperimentConfig, quantity: str, eq_tag: str, minimum: int = MIN_CONCLUSIVE_TRIALS
) -> ReportRow:
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


def run_bounds(cfg: ExperimentConfig) -> tuple[list[ReportRow], int]:
    if cfg.epsilon >= 1.0:
        raise ConfigError("run.epsilon", "must be in (0, 1) for the bounds command")
    params = _system(cfg)
    report = cr_bound(
        params, cfg.epsilon, cfg.constant_c, grid_points=cfg.grid_points
    )
    psi_eigs = np.linalg.eigvalsh(report.psi)
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
    split = spectral_split(cfg.a, tol=1.0 / cfg.n, b=cfg.b)
    lab = lab_upper_bound(split, cfg.n, cfg.alpha)
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
    if split.limit_indices:
        wl = prop_bound_with_limit(params, split, cfg.epsilon)
        rows.append(
            _row(
                cfg,
                "limit_regime_mse_lower",
                wl.mse_lower,
                "limit-explicit-bound",
                n_min=wl.n_min,
                delta_eps=wl.delta_eps,
                valid=cfg.n >= wl.n_min,
                rate_only=True,
                epsilon=cfg.epsilon,
            )
        )
    else:
        nl = prop_bound_no_limit(params, split, cfg.epsilon)
        rows.append(
            _row(
                cfg,
                "no_limit_mse_lower",
                nl.mse_lower,
                "no-limit-explicit-bound",
                n_min=nl.n_min,
                valid=cfg.n >= nl.n_min,
                epsilon=cfg.epsilon,
            )
        )
    return rows, EXIT_OK


def run_minimax(cfg: ExperimentConfig) -> tuple[list[ReportRow], int]:
    vt_bound = van_trees_bound(cfg.d, cfg.n, cfg.s, cfg.epsilon)
    rows = [
        _row(
            cfg,
            "van_trees_bound",
            vt_bound,
            "bayes-risk-lower-bound",
            s=cfg.s,
            epsilon=cfg.epsilon,
            **_van_trees_logged(cfg, vt_bound, "log_value"),
        )
    ]
    regime = minimax_regimes(cfg.d, cfg.n, cfg.s, cfg.alpha if cfg.s != 1.0 else None)
    for name in ("stable", "limit", "unstable"):
        applicable = name == regime.regime
        # the unstable rate underflows to 0.0 at large N; its log does not
        logged = {}
        if applicable and regime.log_value is not None:
            logged["log_value"] = regime.log_value
        rows.append(
            _row(
                cfg,
                f"minimax_rate_{name}",
                regime.value if applicable else 0.0,
                f"minimax-rate-{name}",
                applicable=applicable,
                valid=bool(regime.valid) if applicable else False,
                s=cfg.s,
                alpha=cfg.alpha,
                **logged,
            )
        )
    return rows, EXIT_OK


def run_risk(cfg: ExperimentConfig, workers: int) -> tuple[list[ReportRow], int]:
    if cfg.trials < MIN_RISK_TRIALS:
        raise ConfigError(
            "run.trials", f"must be >= {MIN_RISK_TRIALS} for the risk command, got {cfg.trials}"
        )
    params = _system(cfg)
    est = empirical_risk(params, cfg.trials, Stream(cfg.seed).child(SALT_RISK), workers=workers)
    eigs = np.linalg.eigvalsh(est.error_matrix)
    rows = [
        _row(cfg, "risk_mse", est.mse, "empirical-risk", trials=est.trials,
             failed_trials=est.failed_trials),
        _row(cfg, "risk_mse_std_error", est.mse_std_error, "empirical-risk"),
        _row(cfg, "risk_eig_min", eigs[0], "empirical-risk"),
        _row(cfg, "risk_eig_max", eigs[-1], "empirical-risk"),
    ]
    return rows, EXIT_OK


def run_verify(cfg: ExperimentConfig, workers: int) -> tuple[list[ReportRow], int]:
    if cfg.epsilon >= 1.0:
        raise ConfigError("run.epsilon", "must be in (0, 1) for the verify command")
    if cfg.trials < 2:
        # a standard error needs two trials
        raise ConfigError("run.trials", f"must be >= 2 for the verify command, got {cfg.trials}")
    params = _system(cfg)
    spec = PriorSpec(s=cfg.s, eps=cfg.epsilon, d=cfg.d)
    root = Stream(cfg.seed)
    conclusive = cfg.trials >= MIN_CONCLUSIVE_TRIALS
    # every plan of the op, and the bound, run in one call of run_plans, and
    # its six Monte Carlo experiments read one set of chunks.
    # Building the plans fills params' cached Psi and (BB*)^{-1} here, and
    # Psi^{-1/2} when the concentration plan exists, so an ill-conditioned Psi
    # stops the op before any task runs and the pickled params carries the one
    # walk into the bound task. An experiment below its trial minimum is None
    # and gets a skipped row. The bound is the one `bounds` reports for this
    # config; concentration and multiplication read only its l_ab.
    bound = partial(cr_bound, params, cfg.epsilon, cfg.constant_c, grid_points=cfg.grid_points)
    dominance = concentration = multiplication = bayes = None
    if cfg.trials >= MIN_RISK_TRIALS:
        dominance = dominance_plan(params, cfg.trials, bound)
    if conclusive:
        concentration = concentration_plan(params, cfg.trials, list(cfg.t_levels), bound)
        multiplication = multiplication_plan(params, cfg.trials, bound)
        bayes = bayes_plan(spec, cfg.n, cfg.trials)
    plans = [identity_plan(params), prior_identity_plan(spec), dominance, bayes, concentration, multiplication]
    draws = Draws(root.child(SALT_IDENTITY), cfg.n, cfg.d, params, root.child(SALT_PRIOR), spec)
    checks, prior_check, dom, bayes_risk, fit, mult = run_plans(draws, cfg.trials, plans, workers)

    rows: list[ReportRow] = []
    if not conclusive:
        rows.append(
            _row(
                cfg,
                "warning_low_trials",
                float(cfg.trials),
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
                trials=cfg.trials,
            )
        )

    if dom is None:
        rows.append(_skipped_row(cfg, "risk_dominance", "risk-dominance", MIN_RISK_TRIALS))
    else:
        rows.append(
            _row(
                cfg,
                "risk_dominance",
                dom.margin,
                "risk-dominance",
                status=("pass" if dom.holds else "fail") if conclusive else "inconclusive",
                constant_c=cfg.constant_c,
                epsilon=cfg.epsilon,
                trials=cfg.trials,
            )
        )

    if bayes_risk is None:
        rows.append(_skipped_row(cfg, "bayes_dominance", "bayes-risk-lower-bound"))
    else:
        rows.append(
            _row(
                cfg,
                "bayes_dominance",
                bayes_risk.bayes_mse,
                "bayes-risk-lower-bound",
                status="pass" if bayes_risk.bayes_mse >= bayes_risk.vt_bound else "fail",
                vt_bound=bayes_risk.vt_bound,
                **_van_trees_logged(cfg, bayes_risk.vt_bound, "log_vt_bound"),
                s=cfg.s,
                epsilon=cfg.epsilon,
                trials=cfg.trials,
            )
        )

    # constant-dependent experiments: descriptive ("info"), never drive the exit code
    if fit is None:
        rows.append(_skipped_row(cfg, "concentration_constant", "gram-deviation-rate"))
    else:
        rows.append(
            _row(
                cfg,
                "concentration_constant",
                fit.fitted_constant,
                "gram-deviation-rate",
                status="info",
                t_levels=list(fit.t_levels),
                exceedance=list(fit.empirical_exceedance),
                delta1_levels=list(fit.delta1_levels),
                trials=cfg.trials,
            )
        )
    if mult is None:
        rows.append(_skipped_row(cfg, "multiplication_ratio", "multiplication-rate"))
    else:
        rows.append(
            _row(
                cfg,
                "multiplication_ratio",
                mult.mc_value / mult.bound_value,
                "multiplication-rate",
                status="info",
                mc_value=mult.mc_value,
                bound_value=mult.bound_value,
                trials=cfg.trials,
            )
        )
    failed = any(row.extra.get("status") == "fail" for row in rows)
    return rows, (EXIT_CHECK_FAILED if failed else EXIT_OK)


def run_sample_prior(cfg: ExperimentConfig) -> tuple[list[ReportRow], int]:
    spec = PriorSpec(s=cfg.s, eps=cfg.epsilon, d=cfg.d)
    draws = sample_prior_batch(spec, Stream(cfg.seed).child(SALT_SAMPLES), cfg.trials)
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
    return rows, EXIT_OK


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
            rows, code = run_bounds(cfg)
        elif args.command == "minimax":
            rows, code = run_minimax(cfg)
        elif args.command == "risk":
            rows, code = run_risk(cfg, args.workers)
        elif args.command == "verify":
            rows, code = run_verify(cfg, args.workers)
        else:
            rows, code = run_sample_prior(cfg)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
