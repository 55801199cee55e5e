"""ltibounds benchmark: real CLI invocations, checked, timed end to end.

Usage (from the repository root):

    python3 bench/run.py --workload mc_short --seed 1 --seconds 30 --trace 0

One op is one fresh ``python -m ltibounds.cli <cmd> --config <generated.json>``
process. Ops run in a closed loop with one client: the next op starts when
the previous one has exited. Monte Carlo ops run with ``--workers 2`` and
BLAS/OpenMP pinned to one thread, so workers x threads <= 2 cores. A run
repeats whole rounds (every system of the workload once) until ``--seconds``
is spent, so every run measures the same mix.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
in-process at ``--workers 1`` with spans around every layer (see
``tracing.py``) and prints the per-layer metrics. The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# before numpy loads, here and (inherited) in every op
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Workload, config_doc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 5
# hard stop for ops so that a run always ends within 180 s
RUN_DEADLINE_S = 150.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
WORKER_COUNT_TRACED = 1
SELF_SUM_RTOL = 1e-3

SETUP_CODE = """\
import sys, time
from ltibounds.cli import load_config
load_config(sys.argv[1])
ready = time.monotonic()
import json, platform, numpy, ltibounds
print(json.dumps({"ready": ready, "python": platform.python_version(),
                  "numpy": numpy.__version__, "ltibounds": ltibounds.__version__}))
"""


@dataclass(frozen=True)
class Op:
    system: str
    wall_s: float
    maxrss_kb: int
    reported: bool
    verdict: checks.Verdict


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(args: list[str], out: Path, deadline: float) -> tuple[float, int, int]:
    """Run ``python <args>`` to completion: wall seconds, exit code, peak RSS (KiB).

    The peak is ru_maxrss from wait4: the largest resident set of the
    process or of any child it reaped, so pool workers are included. The
    child gets its own process group, killed whole if it passes ``deadline``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out.with_suffix(".err")), flags, 0o644),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *args], env, file_actions=actions, setpgroup=0
    )
    killer = threading.Timer(max(deadline - start, 0.0), _kill_group, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        # killed: wait until no process of its group is left
        _kill_group(pid)
        while True:
            try:
                os.killpg(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return wall, code, usage.ru_maxrss


def measure_setup(config: Path, work: Path, deadline: float) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter to ``ltibounds.cli`` imported
    and the config resolved, and the versions that interpreter reports."""
    out = work / "setup.out"
    start = time.monotonic()
    _, code, _ = spawn(["-c", SETUP_CODE, str(config)], out, deadline)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {out.with_suffix('.err').read_text()}")
    record = json.loads(out.read_text())
    return record.pop("ready") - start, record


def cli_args(workload: Workload, config: Path, workers: int) -> list[str]:
    args = ["-m", "ltibounds.cli", workload.command, "--config", str(config)]
    if workload.monte_carlo:
        args += ["--workers", str(workers)]
    return args


# ---------------------------------------------------------------------------
# checks and statistics
# ---------------------------------------------------------------------------


def expectation(workload: Workload, system, references):
    if workload.monte_carlo:
        return checks.verify_misses
    return lambda rows: checks.bounds_misses(rows, references[system.name], system.d)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with >= TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles. Below 2 * TAIL_BEYOND samples no ladder entry
    qualifies and the maximum (p100, nothing beyond) is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def environment(workload: Workload, versions: dict, workers: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            res = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = res.stdout.strip() or None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        **versions,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workers": workers,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "command": workload.command,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def end_to_end(workload: Workload, configs, seconds: float, work: Path, deadline: float):
    references = checks.load_references()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, versions = measure_setup(configs[0][1], work, deadline)
        setups.append(setup_s)
    env = environment(workload, versions, workload.workers)
    print("env " + json.dumps(env, sort_keys=True))

    ops: list[Op] = []
    first_text: dict[str, str] = {}
    start = time.monotonic()
    rounds = 0
    while True:
        for system, config in configs:
            out = work / f"{system.name}.csv"
            wall, code, rss = spawn(cli_args(workload, config, workload.workers), out, deadline)
            text = out.read_text()
            verdict = checks.judge(code, text, expectation(workload, system, references))
            # same config and seed: every repeat must emit the same bytes
            if first_text.setdefault(system.name, text) != text:
                verdict = checks.Verdict(True, True, "report bytes differ between repeats")
            ops.append(Op(system.name, wall, rss, bool(text), verdict))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > seconds or time.monotonic() > deadline:
            break

    walls = [op.wall_s for op in ops]
    failed = [op for op in ops if op.verdict.failed]
    p, tail_s, beyond = tail(walls)
    if workload.monte_carlo:
        # an op that reports a failed check has still run all its trials
        work_done = sum(workload.trials for op in ops if op.reported)
        work_unit = "trials"
    else:
        work_done = len(ops)
        work_unit = "systems"
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_s_p50": metric(statistics.median(walls), "s"),
        "op_s_tail": metric(tail_s, "s"),
        "work_per_s": metric(work_done / sum(walls), "items/s"),
        "peak_rss_mb": metric(max(op.maxrss_kb for op in ops) / 1024.0, "MB"),
    }
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s  median of {len(setups)} fresh interpreters")
    print(f"op_s_p50     {metrics['op_s_p50']['value']:.4f} s  median of {len(ops)} ops ({rounds} rounds)")
    print(f"op_s_tail    {tail_s:.4f} s  p{p:g} of {len(ops)} ops, {beyond} beyond it")
    print(
        f"{work_unit}_per_s {metrics['work_per_s']['value']:.4f} {work_unit}/s"
        f"  (work_per_s: {work_done} {work_unit} in {sum(walls):.2f} s of ops)"
    )
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  largest process of any op")
    print(f"fail_share   {len(failed) / len(ops):.4f} ratio  {len(failed)} of {len(ops)} ops failed")
    for name in sorted({op.system for op in failed}):
        reasons = sorted({op.verdict.reason for op in failed if op.system == name})
        print(f"  failed {name}: {' | '.join(reasons)}")
    correct = not any(op.verdict.wrong for op in ops)
    return correct, len(ops), len(failed), metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def in_process(cli, workload: Workload, config: Path, out: Path) -> tuple[int, str]:
    """One op through ``cli.main`` in this process at ``--workers 1``."""
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    args = [workload.command, "--config", str(config), "--workers", str(WORKER_COUNT_TRACED)]
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(args + ["--out", str(out)])
        except Exception:  # the CLI process would die with a traceback: exit 1
            code = 1
    return code, out.read_text() if out.exists() else ""


def traced(workload: Workload, configs, work: Path, deadline: float):
    sys.path.insert(0, str(SRC))
    import numpy

    import ltibounds
    from ltibounds import cli

    references = checks.load_references()
    versions = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ltibounds": ltibounds.__version__,
    }
    env = environment(workload, versions, WORKER_COUNT_TRACED)
    env["compared_with_workers"] = workload.workers
    print("env " + json.dumps(env, sort_keys=True))

    # lazy set-up in numpy and the package is paid here, not by the first timed op
    in_process(cli, workload, configs[0][1], work / "warmup.csv")
    tracer = tracing.Tracer()
    wall = untraced = 0.0
    failed = 0
    wrong = []
    for system, config in configs:
        out = work / f"{system.name}.csv"
        start = time.monotonic()
        code_u, text_u = in_process(cli, workload, config, out)
        untraced += time.monotonic() - start

        with tracing.installed(tracer):
            start = time.monotonic()
            root = tracer.begin(tracing.ROOT)
            try:
                code, text = in_process(cli, workload, config, out)
            finally:
                tracer.end(root)
            wall += time.monotonic() - start

        sub_out = work / f"{system.name}.sub.csv"
        _, code_s, _ = spawn(cli_args(workload, config, workload.workers), sub_out, deadline)
        verdict = checks.judge(code, text, expectation(workload, system, references))
        failed += verdict.failed
        if verdict.wrong:
            wrong.append(f"{system.name}: {verdict.reason}")
        if (code, text) != (code_s, sub_out.read_text()) or (code, text) != (code_u, text_u):
            wrong.append(f"{system.name}: in-process --workers 1 output differs from the CLI's")

    metrics = tracing.summarize(tracer.spans)
    self_sum = sum(tracing.self_times(tracer.spans))
    overhead = wall - untraced
    metrics.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_s": untraced,
            "trace.overhead_s": overhead,
            "trace.self_sum_s": self_sum,
            "trace.spans": len(tracer.spans),
        }
    )
    # the root spans sit a few microseconds inside the timed region
    if abs(wall - self_sum) > max(abs(overhead), SELF_SUM_RTOL * wall):
        wrong.append(f"self times sum to {self_sum:.6f} s, traced wall is {wall:.6f} s")
    for line in wrong:
        print(f"  wrong {line}")
    units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    units["montecarlo.accepted_ratio"] = "ratio"
    units["cli.bytes"] = "bytes"
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    result = {name: metric(value, units[name]) for name, value in metrics.items()}
    return not wrong, len(configs), failed, result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ltibounds" / "cli.py").is_file():
        print(f"no ltibounds sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        configs = []
        for system in workload.systems:
            path = work / f"{system.name}.json"
            path.write_text(json.dumps(config_doc(workload, system, args.seed)))
            configs.append((system, path))
        if args.trace:
            correct, attempted, failed, metrics = traced(workload, configs, work, deadline)
        else:
            correct, attempted, failed, metrics = end_to_end(
                workload, configs, args.seconds, work, deadline
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
