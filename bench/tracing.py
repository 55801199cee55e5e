"""Spans around the calls into each ``ltibounds`` layer, recorded from outside.

The benchmark wraps the layers' public functions by rebinding every module
global that names them, so calls inside a module (``dominance_check`` ->
``empirical_risk``) are seen as well as calls across modules. A span records
its name, start, end and parent; spans stay in memory until the run ends.
Self time is a span's duration minus its children's durations. Calls made in
pool workers are invisible here, so traced ops run with ``--workers 1``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("config", "cli", "rng", "linalg", "model", "bounds", "minimax", "montecarlo")
EXPERIMENTS = (
    "identity_checks",
    "prior_identity_check",
    "dominance_check",
    "empirical_risk",
    "bayes_risk_experiment",
    "concentration_experiment",
    "multiplication_experiment",
)
# (module, function): the span is named "<module>.<function>"
TARGETS = (
    ("config", "load_config"),
    ("cli", "run_bounds"),
    ("cli", "run_verify"),
    ("cli", "rows_to_csv"),
    ("linalg", "haar_orthogonal"),
    ("linalg", "sym_inv_sqrt"),
    ("model", "information_scalar"),
    ("model", "fisher_information"),
    ("bounds", "psi"),
    ("bounds", "l_ab"),
    ("bounds", "cr_bound"),
    ("bounds", "spectral_split"),
    ("minimax", "sample_prior"),
) + tuple(("montecarlo", name) for name in EXPERIMENTS)
ROOT = "op"

# span record fields
NAME, START, END, PARENT, ERROR, NOTE = range(6)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()


def _note(name: str, fn):
    """What to keep from a call besides its timing, by span name."""
    if name.startswith("montecarlo."):
        sig = inspect.signature(fn)

        def note(args, kwargs, result):
            out = {"trials": sig.bind(*args, **kwargs).arguments["trials"]}
            if name == "montecarlo.empirical_risk":
                out.update(accepted=result.trials, rejected=result.failed_trials)
            return out

        return note
    if name == "cli.rows_to_csv":
        return lambda args, kwargs, result: {"bytes": len(result.encode())}
    return None


def _wrap(tracer: Tracer, name: str, fn):
    note = _note(name, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, error=True)
            raise
        tracer.end(idx)
        if note is not None:
            tracer.spans[idx][NOTE] = note(args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target in every loaded ``ltibounds`` module; undo on exit."""
    from ltibounds.rng import Stream

    modules = [m for n, m in sys.modules.items() if n == "ltibounds" or n.startswith("ltibounds.")]
    undo = []
    for mod_name, fn_name in TARGETS:
        original = getattr(sys.modules[f"ltibounds.{mod_name}"], fn_name)
        wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    original_generator = Stream.generator
    Stream.generator = _wrap(tracer, "rng.generator", original_generator)
    undo.append((Stream, "generator", original_generator))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans: list[list], match) -> list[list]:
    """Spans selected by ``match`` that have no selected ancestor."""
    chosen = []
    for s in spans:
        if not match(s[NAME]):
            continue
        p = s[PARENT]
        while p >= 0 and not match(spans[p][NAME]):
            p = spans[p][PARENT]
        if p < 0:
            chosen.append(s)
    return chosen


def _total(spans: list[list], *names: str) -> float:
    return sum(s[END] - s[START] for s in _outermost(spans, lambda n: n in names))


def _calls(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in s, everything else counts)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS + (ROOT,):
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if _layer(s[NAME]) == layer)
    out["rng.generator_calls"] = _calls(spans, "rng.generator")
    out["rng.generator_s"] = _total(spans, "rng.generator")
    out["minimax.sample_prior_calls"] = _calls(spans, "minimax.sample_prior")
    out["minimax.sample_prior_s"] = _total(spans, "minimax.sample_prior")
    out["linalg.haar_calls"] = _calls(spans, "linalg.haar_orthogonal")
    out["linalg.haar_s"] = _total(spans, "linalg.haar_orthogonal")
    out["linalg.sym_inv_sqrt_s"] = _total(spans, "linalg.sym_inv_sqrt")
    out["model.information_s"] = _total(spans, "model.information_scalar", "model.fisher_information")
    for name in EXPERIMENTS:
        out[f"montecarlo.{name}_s"] = _total(spans, f"montecarlo.{name}")
    experiments = _outermost(spans, lambda n: _layer(n) == "montecarlo")
    out["montecarlo.trials"] = sum(s[NOTE]["trials"] for s in experiments if s[NOTE])
    risks = [s[NOTE] for s in spans if s[NAME] == "montecarlo.empirical_risk" and s[NOTE]]
    accepted = sum(r["accepted"] for r in risks)
    attempted = accepted + sum(r["rejected"] for r in risks)
    out["montecarlo.accepted_ratio"] = accepted / attempted if attempted else 0.0
    for name in ("psi", "l_ab"):
        out[f"bounds.{name}_calls"] = _calls(spans, f"bounds.{name}")
    for name in ("psi", "l_ab", "spectral_split", "cr_bound"):
        out[f"bounds.{name}_s"] = _total(spans, f"bounds.{name}")
    out["bounds.errors"] = sum(
        1 for s in _outermost(spans, lambda n: _layer(n) == "bounds") if s[ERROR]
    )
    out["config.load_s"] = _total(spans, "config.load_config")
    out["cli.run_s"] = _total(spans, "cli.run_bounds", "cli.run_verify")
    out["cli.write_s"] = _total(spans, "cli.rows_to_csv")
    out["cli.bytes"] = sum(s[NOTE]["bytes"] for s in spans if s[NAME] == "cli.rows_to_csv" and s[NOTE])
    return out
