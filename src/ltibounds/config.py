"""Run configuration: JSON layout, matrix specs, and defaults.

A config document has three sections::

    {
      "system": {"d": 2, "n": 16, "a": <matrix spec>, "b": <matrix spec>},
      "run":    {"trials": 10000, "seed": 42, "epsilon": 0.1, "alpha": 0.5,
                 "constant_c": 1.0, "grid_points": 4096, "s": 0.0,
                 "t_levels": [1, 2, 3]},
      "output": {"format": "csv", "path": "report.csv"}
    }

A matrix spec is either explicit row-major entries (list of rows) or one of
{"kind": "diag", "values": [...]}, {"kind": "identity", "scale": c},
{"kind": "rotation", "angle": theta, "scale": rho} (2x2 blocks repeated along
the diagonal, so d must be even); a key its kind does not read is an error.
``seed`` has no default: reports must never be silently nondeterministic.
``constant_c`` is the universal constant C of the error bound's
(1 + C Delta)^-2 factor: ``bounds`` reports the bound at that C and
``verify`` checks the same bound. Integer fields reject booleans; every real
number, matrix entries included, must be a finite JSON number. A key that
``system``, ``run`` or ``output`` does not know is an error, and
``output.path`` is a non-empty string or null (stdout).
"""

from __future__ import annotations

import json
import sys
from typing import Any, NamedTuple

import numpy as np

RUN_DEFAULTS: dict[str, Any] = {
    "trials": 10000,
    "epsilon": 0.1,
    "alpha": 0.5,
    "constant_c": 1.0,
    "grid_points": 4096,
    "s": 0.0,
    "t_levels": [1.0, 2.0, 3.0],
}
OUTPUT_DEFAULTS: dict[str, Any] = {"format": "csv", "path": None}
# the keys each matrix spec kind reads
MATRIX_KEYS = {
    "diag": ("kind", "values"),
    "identity": ("kind", "scale"),
    "rotation": ("kind", "angle", "scale"),
}


class ConfigError(ValueError):
    """Configuration schema violation with a field-level message."""

    def __init__(self, field_name: str, message: str) -> None:
        self.field_name = field_name
        super().__init__(f"config field '{field_name}': {message}")


class ExperimentConfig(NamedTuple):
    d: int
    n: int
    a: np.ndarray
    b: np.ndarray
    trials: int
    seed: int
    epsilon: float
    alpha: float
    constant_c: float
    grid_points: int
    s: float
    t_levels: tuple[float, ...]
    out_format: str
    out_path: str | None
    echo: dict


def _number(value: Any, name: str) -> float:
    """``value`` as a float; ConfigError unless a finite JSON number (no bool, NaN, inf, huge int)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(name, f"must be a finite number, got {value!r}")
    return float(value)


def build_matrix(spec: Any, d: int, name: str) -> np.ndarray:
    """Materialize a matrix spec into a d x d array."""
    if isinstance(spec, list):
        if len(spec) != d or not all(isinstance(row, list) and len(row) == d for row in spec):
            raise ConfigError(name, f"explicit entries must form a {d}x{d} matrix")
        return np.array([[_number(x, name) for x in row] for row in spec])
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(name, "must be a list of rows or an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in MATRIX_KEYS:
        raise ConfigError(name, f"unknown matrix kind {kind!r}")
    _reject_unknown(spec, MATRIX_KEYS[kind], name)
    if kind == "diag":
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != d:
            raise ConfigError(name, f"'diag' needs a 'values' list of length {d}")
        return np.diag([_number(v, f"{name}.values") for v in values])
    if kind == "identity":
        return _number(spec.get("scale", 1.0), f"{name}.scale") * np.eye(d)
    # rotation
    if d % 2 != 0:
        raise ConfigError(name, "'rotation' needs an even dimension")
    if "angle" not in spec:
        raise ConfigError(name, "'rotation' needs an 'angle'")
    theta = _number(spec["angle"], f"{name}.angle")
    rho = _number(spec.get("scale", 1.0), f"{name}.scale")
    block = rho * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    out = np.zeros((d, d))
    for k in range(d // 2):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return out


def _reject_unknown(section: dict, known, where: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}.{key}", f"is not a recognized {where} option")


def _require(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"{where}.{key}", "is required")
    return section[key]


def _matrix_echo(arr: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in arr]


def resolve_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a parsed config document and fill in defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in raw:
        if key not in ("system", "run", "output"):
            raise ConfigError(key, "is not a recognized config section")
    system = raw.get("system")
    if not isinstance(system, dict):
        raise ConfigError("system", "is required and must be an object")
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run", "must be an object")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output", "must be an object")

    _reject_unknown(system, ("d", "n", "a", "b"), "system")
    d = _require(system, "d", "system")
    if type(d) is not int or d < 1:
        raise ConfigError("system.d", f"must be a positive integer, got {d!r}")
    n = _require(system, "n", "system")
    if type(n) is not int or n < d + 1:
        raise ConfigError("system.n", f"must be an integer >= d + 1 = {d + 1}, got {n!r}")
    a = build_matrix(_require(system, "a", "system"), d, "system.a")
    b = build_matrix(_require(system, "b", "system"), d, "system.b")
    if np.linalg.svd(b, compute_uv=False)[-1] <= 1e-12:
        raise ConfigError("system.b", "must be full rank")

    merged = dict(RUN_DEFAULTS)
    _reject_unknown(run, (*RUN_DEFAULTS, "seed"), "run")
    merged.update(run)
    if seed_override is not None:
        merged["seed"] = seed_override
    if "seed" not in merged:
        raise ConfigError("run.seed", "is required (pass it in config or with --seed)")
    seed = merged["seed"]
    if type(seed) is not int or seed < 0:
        raise ConfigError("run.seed", f"must be a nonnegative integer, got {seed!r}")
    trials = merged["trials"]
    if type(trials) is not int or trials < 1:
        raise ConfigError("run.trials", f"must be a positive integer, got {trials!r}")
    epsilon = _number(merged["epsilon"], "run.epsilon")
    if epsilon <= 0:
        raise ConfigError("run.epsilon", f"must be > 0, got {epsilon}")
    alpha = _number(merged["alpha"], "run.alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("run.alpha", f"must be in (0, 1), got {alpha}")
    constant_c = _number(merged["constant_c"], "run.constant_c")
    if constant_c <= 0:
        raise ConfigError("run.constant_c", f"must be > 0, got {constant_c}")
    grid_points = merged["grid_points"]
    if type(grid_points) is not int or grid_points < 64:
        raise ConfigError("run.grid_points", f"must be an integer >= 64, got {grid_points!r}")
    s = _number(merged["s"], "run.s")
    if s < 0:
        raise ConfigError("run.s", f"must be >= 0, got {s}")
    t_levels = merged["t_levels"]
    if (
        not isinstance(t_levels, list)
        or not t_levels
        or min(_number(t, "run.t_levels") for t in t_levels) <= 0
    ):
        raise ConfigError("run.t_levels", f"must be a nonempty list of positive reals, got {t_levels!r}")

    _reject_unknown(output, OUTPUT_DEFAULTS, "output")
    out = dict(OUTPUT_DEFAULTS)
    out.update(output)
    if out["format"] not in ("csv", "json"):
        raise ConfigError("output.format", f"must be 'csv' or 'json', got {out['format']!r}")
    if out["path"] is not None and (not isinstance(out["path"], str) or not out["path"]):
        raise ConfigError("output.path", f"must be a non-empty string or null, got {out['path']!r}")

    # the resolved run section: echoed (JSON writes the tuple as a list) and carried
    run_values = {
        "trials": trials,
        "seed": seed,
        "epsilon": epsilon,
        "alpha": alpha,
        "constant_c": constant_c,
        "grid_points": grid_points,
        "s": s,
        "t_levels": tuple(float(t) for t in t_levels),
    }
    echo = {
        "system": {"d": d, "n": n, "a": _matrix_echo(a), "b": _matrix_echo(b)},
        "run": run_values,
        "output": {"format": out["format"], "path": out["path"]},
    }
    return ExperimentConfig(
        d=d,
        n=n,
        a=a,
        b=b,
        **run_values,
        out_format=out["format"],
        out_path=out["path"],
        echo=echo,
    )


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Read and resolve a JSON config file.

    json.JSONDecodeError propagates with line/column information so the CLI
    can report the parse location.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return resolve_config(raw, seed_override)
