#!/usr/bin/env python3
"""qfilter benchmark: time one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric instead.  The line before it (``# info ...``) records the run's
metadata, input shares, tail percentile and failures.  ``--workload all``
runs every workload in turn and prints one table of all metrics.

Each workload runs in its own worker process (``worker.py``) with BLAS and
OpenMP pinned to one thread.  ``setup_s`` is the median over five worker
processes of the time from spawning the process to its first timed
operation, host-scaled like the timings (see ``SETUP_PROBE_REF_S``).
This script uses the standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
SETUP_SAMPLES = 5
#: setup_s is scaled by a `python -c "import numpy"` process run just before
#: each sample, as the cli workload's operations are (see worker.py), so
#: that the host's speed phases cancel; it reads as seconds on a host that
#: runs that process in SETUP_PROBE_REF_S.
SETUP_PROBE_REF_S = 0.1
#: Wall-clock budget of one workload, worker processes included.
WORKLOAD_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    return dict(os.environ, **PINNED_THREADS, PYTHONPATH=str(ROOT / "src"))


def _worker(args: argparse.Namespace, workload: str, role: str,
            deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns (its JSON line, its set-up time)."""
    env = _env()
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--role", role,
    ]
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, cwd=str(ROOT),
            timeout=max(1.0, deadline - t_spawn), check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    out = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
    return out, out["t_ready"] - t_spawn


def _setup_sample(args: argparse.Namespace, workload: str, role: str,
                  deadline: float) -> tuple[dict, float]:
    """A worker run and its host-scaled set-up time."""
    t0 = perf_counter()
    try:
        subprocess.run([sys.executable, "-c", "import numpy"], env=_env(), check=True,
                       timeout=max(1.0, deadline - t0))
    except subprocess.SubprocessError as exc:
        raise BenchError(f"set-up probe failed: {exc}") from exc
    probe = perf_counter() - t0
    out, setup = _worker(args, workload, role, deadline)
    return out, setup * SETUP_PROBE_REF_S / probe


def _metadata() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=str(ROOT), timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pinning": PINNED_THREADS,
    }


def run_workload(args: argparse.Namespace, workload: str, spec: dict) -> dict:
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = perf_counter() + WORKLOAD_BUDGET_S
    setup = []
    if args.trace:
        out, _ = _worker(args, workload, "measure", deadline)
    else:
        extra = SETUP_SAMPLES - 1
        for _ in range(extra // 2):
            setup.append(_setup_sample(args, workload, "setup", deadline)[1])
        out, t_setup = _setup_sample(args, workload, "measure", deadline)
        setup.append(t_setup)
        for _ in range(extra - extra // 2):
            setup.append(_setup_sample(args, workload, "setup", deadline)[1])
    metrics = dict(out["metrics"])
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise BenchError(
            f"{workload}: metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json"
        )
    bad = [k for k in names if not math.isfinite(metrics[k][0])]
    if bad:
        raise BenchError(f"{workload}: metrics {bad} are not finite")
    info = out["info"]
    info.update(_metadata(), numpy=out.get("numpy"), workload=workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, setup_samples_scaled_s=setup)
    return {
        "correct": info["failed"] == 0,
        "attempted": int(info["attempted"]),
        "failed": int(info["failed"]),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
        "info": info,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qfilter" / "__init__.py").is_file():
        print(f"error: no qfilter sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    chosen = workloads if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(args, workload, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        path = RESULTS_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.workload != "all":
        result = results[args.workload]
        print("# info " + json.dumps(result.pop("info")))
        print(json.dumps(result))
        return 0
    for workload, result in results.items():
        info = result.pop("info")
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} refused={info['refused']}")
        for name, m in result["metrics"].items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
