#!/usr/bin/env python3
"""One SHA-256 over the outputs of the benchmark's in-process operations.

For each seed, the ``pipeline``, ``solve_scan`` and ``compare`` input pools
of ``perfbench/inputs.py`` are run through the same calls as the benchmark's
operations (``Ensemble`` -> ``solve`` -> ``design`` -> ``decompose`` ->
``sample``; ``Ensemble`` -> ``solve`` -> ``von_neumann_baseline``;
``Ensemble`` -> ``compare``), and every output is fed to one digest: floats
as ``float.hex``, complex numbers as the ``float.hex`` of both parts, rows
and ndarray views as their Python rows, and a refusal as its error type and
message.  Two trees whose digests agree on the same seeds gave the same
bits and the same refusals on every item.  Run from the repository root::

    python3 scripts/signatures.py 1 2 3 4 5 6 7 8 9 10
    python3 scripts/signatures.py --src ../other/src 1 2 3

``--src`` names the ``src`` directory whose ``qfilter`` is run (default:
this repository's); the pools always come from this repository's
``perfbench/``, which the script only reads.  Each workload's line counts
its items and refusals and ends with the digest of that workload alone, so
two trees can agree on one workload and differ on another.  The next line
gives the mean mesh layers (``decompose`` of each ``pipeline`` design) per
regime and over all answered ``pipeline`` items, each with its count; the
last line is the digest over all workloads.
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The benchmark's constants for these operations (``perfbench/worker.py``).
PIPELINE_TRIALS = 10**6
COMPARE_RESOLUTION = 1e-3


def canonical(value) -> str:
    """``value`` as text that keeps every bit: nested rows, numbers, names."""
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    if isinstance(value, (int, str)):
        return repr(value)
    if hasattr(value, "tolist"):  # an ndarray view: its Python rows
        return canonical(value.tolist())
    return "[" + ",".join(map(canonical, value)) + "]"


def _solution(sol) -> tuple:
    return (sol.q1, sol.q2, sol.q3, sol.Q, sol.regime, sol.A, sol.parallel_norm2)


def _overlaps(qf, e) -> tuple:
    ov = qf.overlaps(e)
    return (ov.O12, ov.O13, ov.O23, ov.alpha)


def pipeline_op(qf, e, seed: int, idx: int) -> tuple:
    sol = qf.solve(e)
    dsn = qf.design(e, sol)
    program = qf.decompose(dsn.unitary)
    report = qf.sample(dsn, e, PIPELINE_TRIALS, (seed % 2**31) * 1000 + idx)
    layers = [(x.p, x.q, x.t, x.r, x.phi) for x in program.layers]
    return (
        _solution(sol), dsn.success_vectors, dsn.failure_vectors, dsn.unitary,
        dsn.theta, dsn.chi, dsn.embedded_inputs, dsn.state1_port,
        layers, program.output_phases,
        report.exact_probabilities, report.counts, report.trials, report.violations,
        report.empirical_Q, report.seed,
    )


def solve_scan_op(qf, e, seed: int, idx: int) -> tuple:
    sol = qf.solve(e)
    return _solution(sol), qf.von_neumann_baseline(e), _overlaps(qf, e)


def compare_op(qf, e, seed: int, idx: int) -> tuple:
    rec = qf.compare(e, COMPARE_RESOLUTION)
    return rec.Q, rec.Q_prime, rec.Q_double_prime, rec.ratio, rec.resolution


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs
    import qfilter as qf

    workloads = {
        "pipeline": (inputs.pipeline_pool, pipeline_op),
        "solve_scan": (inputs.solve_scan_pool, solve_scan_op),
        "compare": (inputs.compare_pool, compare_op),
    }
    digest = hashlib.sha256()
    layers: dict[str, list[int]] = {}
    for name, (pool, op) in workloads.items():
        own = hashlib.sha256()
        items = refused = 0
        for seed in args.seeds:
            for idx, item in enumerate(pool(seed)):
                try:
                    e = qf.Ensemble(tuple(item.states), item.priors)
                    result = op(qf, e, seed, idx)
                    text = canonical(result)
                    if name == "pipeline":
                        layers.setdefault(result[0][4].value, []).append(len(result[8]))
                except qf.QFilterError as exc:
                    text = f"{type(exc).__name__}: {exc}"
                    refused += 1
                line = f"{name} {seed} {idx} {text}\n".encode()
                digest.update(line)
                own.update(line)
                items += 1
        print(f"{name}: {items} items, {refused} refused, {own.hexdigest()}")
    layers["all"] = [n for counts in layers.values() for n in counts]
    means = [f"{regime} {sum(n) / len(n):.4f} ({len(n)})" for regime, n in sorted(layers.items())]
    print("pipeline mesh layers:", ", ".join(means))
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
