#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the repository root::

    python3 perfbench/selftest.py

Checks that

1. every input generator is deterministic per seed, and that the seeded
   strata change with the seed while the reference strata do not;
2. ``BENCHMARK.json`` is well-formed (keys, names, units,
   bounds, a ``setup_s`` metric);
3. a tiny run of each workload completes with ``--trace 0`` and
   ``--trace 1`` and prints exactly the metric names of ``BENCHMARK.json``;
4. without the program's sources the benchmark exits non-zero and prints
   no result.

Exits 0 when every check passes.  Takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import inputs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _same(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, inputs.Item):
            if x.stratum != y.stratum or x.params != y.params:
                return False
            if x.states.tobytes() != y.states.tobytes() or x.priors.tobytes() != y.priors.tobytes():
                return False
        elif x != y:
            return False
    return True


def check_generators() -> list[str]:
    problems = []
    pools = {
        "pipeline": inputs.pipeline_pool,
        "solve_scan": inputs.solve_scan_pool,
        "compare": inputs.compare_pool,
        "cli": inputs.cli_schedule,
    }
    for name, make in pools.items():
        if not _same(make(3), make(3)):
            problems.append(f"{name}: the same seed gave different inputs")
        if _same(make(3), make(4)):
            problems.append(f"{name}: seeds 3 and 4 gave identical inputs")
    for name, make in (("structured", inputs.structured), ("near_parallel", inputs.near_parallel)):
        if not _same(make(), make()):
            problems.append(f"{name}: reference stratum is not fixed")
    structured = inputs.structured()
    if len(structured) != 45:
        problems.append(f"structured stratum has {len(structured)} feasible points, not 45")
    for item in inputs.compare_pool(3) + inputs.pipeline_pool(3) + inputs.solve_scan_pool(3):
        norms = np.linalg.norm(item.states, axis=1)
        if item.states.shape != (3, 3) or np.abs(norms - 1.0).max() > 1e-12:
            problems.append(f"{item.stratum}: states are not three unit 3-vectors")
            break
        if abs(item.priors.sum() - 1.0) > 1e-12 or item.priors.min() < 0.0:
            problems.append(f"{item.stratum}: priors are not a distribution")
            break
    return problems


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    for path in spec["paths"]:
        if not (ROOT / path).is_dir() or path.startswith("/") or ".." in path:
            problems.append(f"path {path!r} is not a directory inside the repository")
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        problems.append("run_seconds must be a whole number in [1, 60]")
    names = []
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 or "\n" in entry["why"]:
            problems.append(f"workload {entry} malformed")
        names.append(entry["name"])
    for entry in spec["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"} or not 0 < entry["bound"] <= 0.25:
            problems.append(f"end-to-end metric {entry} malformed")
        names.append(entry["name"])
    for entry in spec["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {entry} malformed")
        names.append(entry["name"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(entry["unit"]) or entry["better"] not in ("lower", "higher"):
            problems.append(f"metric {entry['name']}: bad unit or direction")
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(names) != len(set(names)):
        problems.append(f"names malformed or repeated: {bad}")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) is missing")
    elif setup[0]["bound"] < max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    return problems


def _run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=str(cwd),
        timeout=180, check=False,
    )


def check_tiny_runs(spec: dict) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = sorted(m["name"] for m in spec[section])
        for entry in spec["workloads"]:
            argv = ["perfbench/run.py", "--workload", entry["name"], "--seed", "5",
                    "--seconds", "0.01", "--trace", str(trace)]
            proc = _run(argv, ROOT)
            where = f"{entry['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if sorted(result["metrics"]) != wanted:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            print(f"ok  {where}", flush=True)
    return problems


def check_without_program() -> list[str]:
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=results))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = _run(["perfbench/run.py", "--workload", "pipeline", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/ the benchmark must exit non-zero and print nothing"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, check in (
        ("generators", check_generators),
        ("BENCHMARK.json", lambda: check_spec(spec)),
        ("without the program", check_without_program),
        ("tiny runs", lambda: check_tiny_runs(spec)),
    ):
        found = check()
        print(f"{'FAIL' if found else 'ok  '} {name}", flush=True)
        problems += found
    for problem in problems:
        print(f"  - {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
