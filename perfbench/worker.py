"""One workload in one process: set up, time, check, report.

Started by ``run.py``; not meant to be run by hand.  ``--role setup`` stops
right before the first timed operation (a set-up time sample);
``--role measure`` goes on to time whole passes over the input pool for
``--seconds``, with a host-speed probe between operations (see
:func:`scaled_latencies`), runs the output checks outside the timed span,
and prints one JSON line.  With ``--trace 1`` it first times an untraced half, then
the same number of passes with the tracing wrappers installed, and reports
per-layer figures instead of end-to-end ones.

Each operation is a closed loop: one caller, one thread, the next call
issued when the previous one returns.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracing import LAYERS, Tracer, SpanStats  # noqa: E402

import qfilter as qf  # noqa: E402

#: Latency samples live in one buffer allocated and touched before timing,
#: so peak RSS does not grow with the number of operations completed.
LATENCY_CAPACITY = 1 << 20
PIPELINE_TRIALS = 10**6
COMPARE_RESOLUTION = 1e-3
ORACLE_RESOLUTION = 1e-4
#: |Q - 50-digit reference| above this fails an output check; the measured
#: deviation itself is reported as max_abs_err.
REF_TOL = 1e-6
#: Deviations below this are a few ulps of double arithmetic; reporting
#: them as measured would flag a harmless change of rounding order as a
#: regression, so max_abs_err never reads lower than this.
ERR_FLOOR = 1e-15
#: Percentile ladder for latency_tail_ms.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND_TAIL = 10
#: The traced passes stop at whole passes within this many operations, so
#: the spans of the fast workloads stay a few tens of MB.
TRACED_OPS_CAP = 10_000
#: Repetitions of each start-up probe in the traced cli run.
CLI_LAYER_REPS = 5
CLI_SCHEMAS = {
    "solve": "qfilter.solution/1",
    "design": "qfilter.design/1",
    "synthesize": "qfilter.mesh/1",
    "simulate": "qfilter.simulation/1",
    "compare": "qfilter.comparison/1",
    "sweep": "qfilter.sweep/1",
}


@dataclass
class Verdict:
    """Outcome of checking one distinct output.

    ``oracle_excess`` is set when the brute-force oracle reports a lower Q
    than the closed form although the closed form matches the 50-digit
    reference: a defect of the oracle, reported but not charged to the
    operation.
    """

    status: str = "ok"  # "ok", "refused" or "failed"
    message: str = ""
    err: float | None = None  # deviation from the reference, if measured
    layers: int | None = None  # mesh layer count, if a design was made
    oracle_excess: float | None = None


def _fail(message: str) -> Verdict:
    return Verdict("failed", message)


def _ensemble(item: inputs.Item):
    return qf.Ensemble(tuple(item.states), item.priors)


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def _padded(item: inputs.Item) -> np.ndarray:
    out = np.zeros((3, 4), dtype=complex)
    out[:, :3] = item.states
    return out


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """A pool of inputs, the timed operation, and its output checks."""

    name = ""
    warm_up_ops = 4
    #: Host-speed probe: taken every probe_interval_s between operations;
    #: probe_ref_s is the probe time that timings are scaled to.
    probe_interval_s = 0.25
    probe_ref_s = 0.5e-3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool = self.make_pool()
        self._refs: dict[int, tuple] = {}

    def probe(self) -> float:
        """Time of one host-speed probe, in seconds."""
        return compute_probe()

    def make_pool(self) -> list:
        raise NotImplementedError

    def op(self, idx_item: tuple, tracer: Tracer | None):
        """The timed operation on ``(index, pool item)``."""
        raise NotImplementedError

    def signature(self, out):
        """A cheap, comparable digest of an output (taken outside timing)."""
        raise NotImplementedError

    def check(self, idx: int, out) -> Verdict:
        """Output checks for pool item ``idx`` (run after timing)."""
        raise NotImplementedError

    def refusal(self, idx: int, exc: Exception) -> Verdict | None:
        """A Verdict if raising ``exc`` is this item's documented outcome."""
        return None

    def strata(self) -> dict[str, float]:
        return _shares(it.stratum for it in self.pool)

    def details(self, outputs: list) -> dict:
        return {}

    def ref(self, item: inputs.Item) -> tuple:
        """50-digit reference (q1, q2, q3, Q) of an input."""
        # Imported here so that set-up time measures the program, not mpmath.
        import reference

        if id(item) not in self._refs:
            self._refs[id(item)] = reference.optimum(item.states, item.priors)
        return self._refs[id(item)]

    def close(self) -> None:
        pass


def _call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call ``fn``, inside a benchmark-side span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _shares(labels) -> dict[str, float]:
    labels = list(labels)
    return {k: labels.count(k) / len(labels) for k in sorted(set(labels))}


def _solution_problem(item: inputs.Item, sol, ref: tuple) -> str | None:
    """Float-level checks every solution must pass, plus the reference bound."""
    psi = item.states / np.linalg.norm(item.states, axis=1, keepdims=True)
    a12 = abs(np.vdot(psi[0], psi[1])) ** 2
    a13 = abs(np.vdot(psi[0], psi[2])) ** 2
    q = (sol.q1, sol.q2, sol.q3)
    if not all(-1e-10 <= x <= 1.0 + 1e-10 for x in q):
        return f"failure probabilities {q} outside [0, 1]"
    if abs(sol.q1 * sol.q2 - a12) > 1e-9 or abs(sol.q1 * sol.q3 - a13) > 1e-9:
        return "zero-error constraints q1*q2 = |O12|^2, q1*q3 = |O13|^2 violated"
    if abs(float(np.dot(item.priors, q)) - sol.Q) > 1e-10:
        return "Q differs from the prior-weighted failure probabilities"
    if abs(sol.Q - ref[3]) > REF_TOL:
        return f"Q={sol.Q!r} deviates from the 50-digit reference {ref[3]!r}"
    return None


class Pipeline(Workload):
    """Ensemble -> solve -> design -> decompose -> sample(1e6): `qfilter simulate`."""

    name = "pipeline"

    def make_pool(self):
        pool = inputs.pipeline_pool(self.seed)
        self.sample_seeds = [(self.seed % 2**31) * 1000 + i for i in range(len(pool))]
        return pool

    def op(self, idx_item, tracer):
        idx, item = idx_item
        e = _call(tracer, "Ensemble", _ensemble, item)
        sol = qf.solve(e)
        dsn = qf.design(e, sol)
        program = qf.decompose(dsn.unitary)
        report = qf.sample(dsn, e, PIPELINE_TRIALS, self.sample_seeds[idx])
        return sol, dsn, program, report

    def signature(self, out):
        sol, dsn, program, report = out
        return (sol.Q, dsn.unitary.tobytes(), len(program.layers), report.counts.tobytes())

    def check(self, idx, out):
        item = self.pool[idx]
        sol, dsn, program, report = out
        u = np.asarray(dsn.unitary)
        gap = float(np.abs(u.conj().T @ u - np.eye(4)).max())
        if gap > 1e-9:
            return _fail(f"unitarity gap {gap:.3e}")
        ins = _padded(item)
        ins /= np.linalg.norm(ins, axis=1, keepdims=True)
        outs = np.array(dsn.outputs)
        gram_gap = float(np.abs(ins.conj() @ ins.T - outs.conj() @ outs.T).max())
        if gram_gap > 1e-9:
            return _fail(f"Gram gap {gram_gap:.3e}")
        probs = np.abs(ins @ u.T) ** 2
        claim = dsn.state1_port - 1
        set_ports = [p - 1 for p in dsn.set_ports]
        leaks = (probs[0, set_ports].sum(), probs[1, claim], probs[2, claim])
        if max(leaks) > 1e-12:
            return _fail(f"forbidden-port leak {max(leaks):.3e}")
        q = (sol.q1, sol.q2, sol.q3)
        if max(abs(probs[i, 3] - q[i]) for i in range(3)) > 1e-9:
            return _fail("port-4 probability differs from q_i")
        recomposed = np.asarray(qf.recompose(program))
        residual = float(np.abs(recomposed - u).max())
        if residual > 1e-9:
            return _fail(f"recomposition residual {residual:.3e}")
        if len(program.layers) > 6:
            return _fail(f"{len(program.layers)} layers exceed 6")
        if report.violations != 0 or report.trials != PIPELINE_TRIALS:
            return _fail(f"{report.violations} violations in {report.trials} trials")
        err = None
        if item.stratum == "structured":
            ref = self.ref(item)
            err = max(abs(probs[i, 3] - ref[i]) for i in range(3))
            if err > REF_TOL:
                return _fail(f"port-4 probability deviates from the reference by {err:.3e}")
        return Verdict(err=err, layers=len(program.layers))

    def details(self, outputs):
        regimes, paths = [], []
        for (idx, out) in outputs:
            if isinstance(out, Exception):
                continue
            sol = out[0]
            regimes.append(sol.regime.value)
            paths.append(16 if _l23_free(self.pool[idx], sol) else 8)
        return {
            "regimes": _shares(regimes),
            "gauge_candidates": _shares(paths),
            "solve_swap_path": _swap_shares(self.pool),
        }


def _swap_shares(pool: list[inputs.Item]) -> dict[str, float]:
    return _shares("swapped" if inputs.swap_path(it.states) else "direct" for it in pool)


def _l23_free(item: inputs.Item, sol) -> bool:
    """Whether the residual overlap L23 vanishes (the 16-candidate gauge path)."""
    psi = item.states / np.linalg.norm(item.states, axis=1, keepdims=True)
    o12, o13, o23 = (np.vdot(psi[i], psi[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    l23 = o23 - math.sqrt(max(sol.q2 * sol.q3, 0.0)) * np.exp(
        1j * (np.angle(o13) - np.angle(o12))
    )
    return abs(l23) <= 1e-12


class Compare(Workload):
    """compare(e, 1e-3): filtering vs. three-way identification."""

    name = "compare"
    warm_up_ops = 2
    probe_interval_s = 1.0
    probe_ref_s = 20e-3

    def probe(self) -> float:
        return grid_probe()

    def make_pool(self):
        return inputs.compare_pool(self.seed)

    def op(self, idx_item, tracer):
        e = _call(tracer, "Ensemble", _ensemble, idx_item[1])
        return qf.compare(e, COMPARE_RESOLUTION)

    def signature(self, out):
        return (out.Q, out.Q_prime, out.Q_double_prime, out.ratio)

    def check(self, idx, out):
        item = self.pool[idx]
        if out.Q_prime > 1e-12 and out.Q > out.Q_prime + COMPARE_RESOLUTION:
            return _fail(f"Q={out.Q!r} exceeds Q'={out.Q_prime!r} beyond the grid step")
        ref = self.ref(item)
        if abs(out.Q - ref[3]) > REF_TOL:
            return _fail(f"Q={out.Q!r} deviates from the 50-digit reference {ref[3]!r}")
        if "q_prime" not in item.params:
            return Verdict()
        err = abs(out.Q_prime - item.params["q_prime"])
        if err > 2e-3:
            return _fail(f"Q'={out.Q_prime!r} misses its closed form by {err:.3e}")
        return Verdict(err=err, layers=_design_layers(item))


def _design_layers(item: inputs.Item) -> int:
    """Layer count of the mesh designed for an item (check pass only)."""
    e = _ensemble(item)
    dsn = qf.design(e)
    return len(qf.decompose(dsn.unitary).layers)


class SolveScan(Workload):
    """Ensemble -> solve -> von_neumann_baseline: what `qfilter solve` computes."""

    name = "solve_scan"
    #: Every ORACLE_STRIDE-th item (and every near-parallel one) is also
    #: checked against the brute-force oracle.
    ORACLE_STRIDE = 8

    def make_pool(self):
        return inputs.solve_scan_pool(self.seed)

    def op(self, idx_item, tracer):
        e = _call(tracer, "Ensemble", _ensemble, idx_item[1])
        return qf.solve(e), qf.von_neumann_baseline(e)

    def signature(self, out):
        sol, base = out
        return (sol.q1, sol.q2, sol.q3, sol.Q, sol.regime.value, base)

    def refusal(self, idx, exc):
        # The known refusal of nearly parallel psi2, psi3: counted in
        # answered_ratio and failed_ratio, not hidden.
        near = self.pool[idx].stratum == "near_parallel"
        if near and isinstance(exc, qf.DegenerateSubspaceError):
            return Verdict("refused", type(exc).__name__)
        return None

    def check(self, idx, out):
        item = self.pool[idx]
        sol, base = out
        ref = self.ref(item)
        problem = _solution_problem(item, sol, ref)
        if problem:
            return _fail(problem)
        if base < sol.Q - 1e-12:
            return _fail(f"projective baseline {base!r} beats the optimum {sol.Q!r}")
        near = item.stratum == "near_parallel"
        excess = None
        if near or idx % self.ORACLE_STRIDE == 0:
            oracle = qf.brute_force_filter(_ensemble(item), ORACLE_RESOLUTION)
            if oracle.Q_star < sol.Q - 1e-9:
                # sol.Q already matched the reference above, so the oracle's
                # feasibility slack is at fault, not the operation.
                excess = sol.Q - oracle.Q_star
        if not near:
            return Verdict(oracle_excess=excess)
        return Verdict(err=abs(sol.Q - ref[3]), layers=_design_layers(item),
                       oracle_excess=excess)

    def details(self, outputs):
        regimes = [out[0].regime.value for _, out in outputs if not isinstance(out, Exception)]
        return {
            "regimes": _shares(regimes),
            "solve_swap_path": _swap_shares(self.pool),
        }


class Cli(Workload):
    """One `python -m qfilter.cli <command>` process per operation."""

    name = "cli"
    warm_up_ops = 1
    probe_interval_s = 0.5
    probe_ref_s = 100e-3

    def probe(self) -> float:
        """Time of a `python -c "import numpy"` process: the same kind of work."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, env=self.env)
        return perf_counter() - t0

    def make_pool(self):
        self.ensembles = inputs.cli_ensembles()
        self.workdir: Path | None = None
        return inputs.cli_schedule(self.seed)

    def prepare(self) -> None:
        """Write the ensemble files the commands read (part of set-up)."""
        RESULTS_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS_DIR))
        for name, item in self.ensembles.items():
            (self.workdir / f"{name}.json").write_text(
                inputs.ensemble_json(item, name), encoding="utf-8"
            )
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def argv(self, command: str, fixture: str | None) -> list[str]:
        if command == "sweep":
            return ["sweep"]
        args = [command, "--input", str(self.workdir / f"{fixture}.json")]
        if command == "simulate":
            args += ["--trials", "1000000", "--seed", "7"]
        return args

    def op(self, idx_item, tracer):
        command, fixture = idx_item[1]
        argv = [sys.executable, "-m", "qfilter.cli", *self.argv(command, fixture)]
        return _call(tracer, "cli.process", subprocess.run, argv, capture_output=True,
                     text=True, env=self.env, cwd=str(ROOT), timeout=120, check=False)

    def signature(self, out):
        return (out.returncode, out.stdout)

    def check(self, idx, out):
        command, fixture = self.pool[idx]
        if out.returncode != 0:
            return _fail(f"{command} exited {out.returncode}: {out.stderr.strip()[-300:]}")
        schema = CLI_SCHEMAS[command]
        if command == "sweep":
            return self._check_sweep(out.stdout, schema)
        payload = json.loads(out.stdout)
        if payload.get("schema") != schema:
            return _fail(f"{command}: schema {payload.get('schema')!r} != {schema!r}")
        if command == "synthesize":
            if payload["layer_count"] > 6 or payload["recomposition_residual"] > 1e-9:
                return _fail("synthesize: mesh over budget or not recomposing")
            return Verdict(layers=payload["layer_count"])
        q_cli = {
            "solve": lambda p: p["Q"],
            "design": lambda p: p["solution"]["Q"],
            "simulate": lambda p: p["expected_Q"],
            "compare": lambda p: p["Q"],
        }[command](payload)
        item = self.ensembles[fixture]
        q_lib = qf.solve(_ensemble(item)).Q
        if q_cli != _sig15(q_lib):
            return _fail(f"{command}: Q={q_cli!r} but the library gives {q_lib!r}")
        if command == "simulate" and payload["violations"] != 0:
            return _fail("simulate: forbidden-port clicks")
        return Verdict(err=abs(q_cli - self.ref(item)[3]))

    def _check_sweep(self, text: str, schema: str) -> Verdict:
        lines = text.strip().splitlines()
        if not lines or lines[0] != f"# {schema}":
            return _fail(f"sweep: missing '# {schema}' header")
        for row in lines[2:]:
            s, q_cli = (float(x) for x in row.split(",")[:2])
            states = inputs.states_from_overlaps(s, s, s)
            if states is None:
                continue
            q_lib = qf.solve(qf.Ensemble(tuple(states), inputs.EQUAL_PRIORS.copy())).Q
            # s is printed at 15 digits, so the library value is recomputed
            # from the rounded s and agrees to rounding, not bit for bit.
            if abs(q_cli - q_lib) > 1e-12:
                return _fail(f"sweep: Q={q_cli!r} at s={s!r}, library gives {q_lib!r}")
        return Verdict()

    def strata(self):
        return _shares(cmd for cmd, _ in self.pool)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Pipeline, Compare, SolveScan, Cli)}


# --------------------------------------------------------------------------
# timing
# --------------------------------------------------------------------------


# Host-speed probes.  On the shared host this benchmark was defined on, the
# speed of the same code moves by up to 40% between phases lasting seconds
# to tens of seconds (CPU time tracks wall time, so it is not preemption).
# Each operation is therefore timed relative to a fixed probe of the same
# kind of work run next to it; the probes never call qfilter.


def compute_probe() -> float:
    """Best time of a fixed interpreter-and-small-numpy kernel."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0.0
        for i in range(1000):
            acc += (i * 0.5) ** 0.5
        for _ in range(100):
            m = _PROBE_MATRIX @ _PROBE_MATRIX
            acc += float(np.abs(m).max()) + abs(np.vdot(m[0], m[1]))
        best = min(best, perf_counter() - t0)
    return best


_PROBE_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4) + 0.5j
_PROBE_GRID = np.arange(0.001, 1.0, 0.001)


def grid_probe() -> float:
    """Time of a fixed 10^6-point array kernel (memory-bound numpy)."""
    t0 = perf_counter()
    m1, m2 = np.meshgrid(_PROBE_GRID, _PROBE_GRID, indexing="ij")
    den = m1 * m2 - 0.25
    with np.errstate(divide="ignore", invalid="ignore"):
        m3 = (m1 * 0.3 + m2 * 0.2 - 0.1) / den
    ok = (den > 1e-15) & np.isfinite(m3) & (m3 >= 0.0) & (m3 <= 1.0)
    avg = np.where(ok, 0.5 * m1 + 0.3 * m2 + 0.2 * m3, np.inf)
    int(np.argmin(avg))
    return perf_counter() - t0


class Run:
    """Latencies and distinct outputs of a sequence of whole passes."""

    def __init__(self, workload: Workload, buf: np.ndarray) -> None:
        self.workload = workload
        self.buf = buf
        self.count = 0
        self.passes = 0
        self.first: list = [None] * len(workload.pool)
        self.probes: list[tuple[int, float]] = []
        #: Items whose output differed between passes.
        self.divergent: set[int] = set()

    def go(self, seconds: float, passes: int | None, tracer: Tracer | None) -> None:
        wl, pool, buf = self.workload, self.workload.pool, self.buf
        n = len(pool)
        op = wl.op
        self.probes.append((self.count, wl.probe()))
        start = last_probe = perf_counter()
        while self.count + n <= len(buf):
            for idx, item in enumerate(pool):
                if tracer is not None:
                    tracer.op = self.count
                t0 = perf_counter()
                try:
                    out = _call(tracer, "op", op, (idx, item), tracer)
                except Exception as exc:  # checked and counted after timing
                    out = exc
                t1 = perf_counter()
                buf[self.count] = t1 - t0
                self.count += 1
                self._record(idx, out)
                if t1 - last_probe >= wl.probe_interval_s:
                    self.probes.append((self.count, wl.probe()))
                    last_probe = perf_counter()
            self.passes += 1
            if passes is not None:
                if self.passes >= passes:
                    break
            elif perf_counter() - start >= seconds:
                break
        if tracer is not None:
            tracer.op = -1
        self.probes.append((self.count, wl.probe()))

    def _record(self, idx: int, out) -> None:
        sig = _error_sig(out) if isinstance(out, Exception) else self.workload.signature(out)
        first = self.first[idx]
        if first is None:
            self.first[idx] = (sig, out)
        elif sig != first[0]:
            self.divergent.add(idx)


def _error_sig(exc: Exception):
    return ("error", type(exc).__name__, str(exc))


def _check_all(workload: Workload, run: Run) -> list[Verdict]:
    """One verdict per pool item, from the output of its first pass."""
    verdicts = []
    for idx, (_, out) in enumerate(run.first):
        if idx in run.divergent:
            verdict = _fail("output differs between passes over the same input")
        elif isinstance(out, Exception):
            verdict = workload.refusal(idx, out) or _fail(f"{type(out).__name__}: {out}")
        else:
            try:
                verdict = workload.check(idx, out)
            except Exception as exc:  # a check that cannot run counts as a failure
                verdict = _fail(f"check raised {type(exc).__name__}: {exc}")
        verdicts.append(verdict)
    return verdicts


def scaled_latencies(workload: Workload, run: Run) -> np.ndarray:
    """Per-operation latency in host-scaled seconds, shape (passes, items).

    Each latency is divided by the mean of the probes taken just before and
    just after it and multiplied by the workload's ``probe_ref_s``: the time
    the operation would take on a host that runs the probe in
    ``probe_ref_s``.  The host's speed phases cancel in the ratio.
    """
    n = len(workload.pool)
    lat = run.buf[: run.count].astype(float)
    at = np.array([k for k, _ in run.probes])
    took = np.array([t for _, t in run.probes])
    k = np.arange(run.count)
    before = took[np.searchsorted(at, k, side="right") - 1]
    after = took[np.minimum(np.searchsorted(at, k + 1, side="left"), len(at) - 1)]
    scaled = lat * workload.probe_ref_s / (0.5 * (before + after))
    return scaled.reshape(run.count // n, n)


def item_latencies(workload: Workload, run: Run) -> np.ndarray:
    """Each input's median host-scaled latency across passes, in seconds."""
    return np.median(scaled_latencies(workload, run), axis=0)


def end_to_end(workload: Workload, run: Run, verdicts: list[Verdict],
               peak_rss_mb: float) -> tuple[dict, dict]:
    n = len(workload.pool)
    status = np.array([v.status for v in verdicts])
    ok = status == "ok"
    per_item = item_latencies(workload, run)
    ok_items = per_item[ok]
    rank = max(
        p for p in TAIL_LADDER if len(ok_items) * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL
    )
    errs = [v.err for v in verdicts if v.err is not None]
    layers = [v.layers for v in verdicts if v.layers is not None]
    metrics = {
        "throughput_ops_s": (float(ok.sum() / per_item.sum()), "1/s"),
        "latency_p50_ms": (1e3 * float(np.median(ok_items)), "ms"),
        "latency_tail_ms": (1e3 * float(np.percentile(ok_items, rank)), "ms"),
        "answered_ratio": (float(ok.mean()), "ratio"),
        "max_abs_err": (max(max(errs), ERR_FLOOR) if errs else float("nan"), "abs"),
        "mesh_layers_mean": (float(np.mean(layers)) if layers else float("nan"), "layers"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lat = run.buf[: run.count].astype(float)
    per_op = status[np.arange(run.count) % n]
    failed = int((per_op == "failed").sum())
    refused = int((per_op == "refused").sum())
    info = {
        "attempted": run.count,
        "failed": failed,
        "refused": refused,
        "failed_ratio": (failed + refused) / run.count,
        "passes": run.passes,
        "pool_size": n,
        "tail_percentile": rank,
        "tail_samples": int(len(ok_items)),
        "max_abs_err_unfloored": float(max(errs)) if errs else None,
        "timed_s": float(lat.sum()),
        "wall_clock": {
            "throughput_ops_s": float((per_op == "ok").sum() / lat.sum()),
            "latency_p50_ms": 1e3 * float(np.median(lat[per_op == "ok"])),
            "probe_median_ms": 1e3 * float(np.median([t for _, t in run.probes])),
            "probe_ref_ms": 1e3 * workload.probe_ref_s,
        },
        "failures": sorted({v.message for v in verdicts if v.status == "failed"})[:10],
        "refusals": sorted({v.message for v in verdicts if v.status == "refused"}),
        "oracle_beats_closed_form": {
            "items": sum(v.oracle_excess is not None for v in verdicts),
            "max_excess": max((v.oracle_excess or 0.0 for v in verdicts), default=0.0),
        },
    }
    return metrics, info


# --------------------------------------------------------------------------
# per-layer figures (traced run)
# --------------------------------------------------------------------------


def per_layer(stats: SpanStats, n_ops: int, overhead: float, cli: dict) -> dict:
    def per_op(x: float) -> float:
        return x / n_ops if n_ops else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    designs = stats.calls("design")
    cu_in_design = stats.nested.get(("complete_unitary", "design"), 0)
    op_total = stats.incl.get(("op", True), 0.0)
    m = {
        "states.ensemble_ms": (stats.mean_ms("Ensemble"), "ms"),
        "states.overlaps_calls_per_op": (per_op(stats.calls("overlaps")), "count"),
        "states.overlaps_calls_per_solve": (
            ratio(stats.nested.get(("overlaps", "solve"), 0), stats.calls("solve")), "count"),
        "states.overlaps_self_ms": (1e3 * per_op(stats.self_s("overlaps")), "ms"),
        "states.parallel_component_norm2_calls_per_op": (
            per_op(stats.calls("parallel_component_norm2")), "count"),
        "filter_core.solve_ms": (stats.mean_ms("solve"), "ms"),
        "filter_core.solve_self_ms": (1e3 * per_op(stats.self_s("solve")), "ms"),
        "designer.design_ms": (stats.mean_ms("design"), "ms"),
        "designer.design_self_ms": (1e3 * per_op(stats.self_s("design")), "ms"),
        "designer.complete_unitary_calls_per_design": (ratio(cu_in_design, designs), "count"),
        "designer.complete_unitary_ms": (stats.mean_ms("complete_unitary"), "ms"),
        "designer.candidate_yield": (ratio(designs, cu_in_design), "ratio"),
        "multiport.decompose_calls_per_design": (
            ratio(stats.nested.get(("decompose", "design"), 0), designs), "count"),
        "multiport.decompose_ms": (stats.mean_ms("decompose"), "ms"),
        "multiport.recompose_ms": (stats.mean_ms("recompose", timed=False), "ms"),
        "simulator.sample_ms": (stats.mean_ms("sample"), "ms"),
        "oracle.three_state_Q_ms": (stats.mean_ms("three_state_Q"), "ms"),
        "oracle.compare_self_ms": (1e3 * per_op(stats.self_s("compare")), "ms"),
        "oracle.brute_force_filter_ms": (stats.mean_ms("brute_force_filter", timed=False), "ms"),
    }
    for layer in LAYERS + ("cli", "unattributed"):
        m[f"{layer}.share_of_op"] = (ratio(stats.layer_self_s(layer), op_total), "ratio")
    m.update(cli)
    m["trace_overhead_ratio"] = (overhead, "ratio")
    return m


def _median_ms(samples: list[float]) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def cli_layers(workload: Workload, run: Run) -> dict:
    """Interpreter start, imports and in-process main per command."""
    names = ["cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_qfilter_ms"]
    names += [f"cli.main_ms.{c}" for c in CLI_SCHEMAS]
    names += [f"cli.process_ms.{c}" for c in CLI_SCHEMAS]
    names.append("cli.startup_share")
    m = {k: (0.0, "ratio" if k.endswith("share") else "ms") for k in names}
    if not isinstance(workload, Cli):
        return m
    interp, numpy_ms, qfilter_ms = [], [], []
    for _ in range(CLI_LAYER_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=workload.env)
        interp.append(perf_counter() - t0)
        probe = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qfilter"],
            capture_output=True, text=True, check=True, env=workload.env,
        )
        cumulative = {}
        for line in probe.stderr.splitlines():
            match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) * 1e-6
        numpy_ms.append(cumulative.get("numpy", 0.0))
        qfilter_ms.append(cumulative.get("qfilter", 0.0))
    m["cli.interpreter_ms"] = (_median_ms(interp), "ms")
    m["cli.import_numpy_ms"] = (_median_ms(numpy_ms), "ms")
    m["cli.import_qfilter_ms"] = (_median_ms(qfilter_ms), "ms")
    from qfilter.cli import main

    n = len(workload.pool)
    raw = np.median(run.buf[: run.count].astype(float).reshape(run.count // n, n), axis=0)
    all_process = []
    for command in CLI_SCHEMAS:
        idxs = [i for i, (c, _) in enumerate(workload.pool) if c == command]
        inproc = []
        for _ in range(3):
            for i in idxs:
                argv = workload.argv(*workload.pool[i])
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    t0 = perf_counter()
                    main(argv)
                    inproc.append(perf_counter() - t0)
        process = [float(raw[i]) for i in idxs]
        all_process += process
        m[f"cli.main_ms.{command}"] = (_median_ms(inproc), "ms")
        m[f"cli.process_ms.{command}"] = (_median_ms(process), "ms")
    startup = statistics.median(interp) + statistics.median(qfilter_ms)
    m["cli.startup_share"] = (startup / statistics.mean(all_process), "ratio")
    return m


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cli_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _warm_up(workload: Workload) -> None:
    """A few untimed operations, so lazy set-up is paid before timing."""
    step = max(1, len(workload.pool) // workload.warm_up_ops)
    for idx in range(0, len(workload.pool), step):
        try:
            workload.op((idx, workload.pool[idx]), None)
        except qf.QFilterError:
            pass


def measure(workload: Workload, buf: np.ndarray, seconds: float, trace: bool) -> dict:
    gc.collect()
    run = Run(workload, buf)
    if not trace:
        run.go(seconds, None, None)
        rss = _cli_peak_rss_mb() if isinstance(workload, Cli) else _peak_rss_mb()
        verdicts = _check_all(workload, run)
        metrics, info = end_to_end(workload, run, verdicts, rss)
    else:
        run.go(seconds / 2.0, None, None)
        untraced_s = float(item_latencies(workload, run).sum())
        passes = max(1, min(run.passes, TRACED_OPS_CAP // len(workload.pool)))
        run = Run(workload, buf)
        tracer = Tracer()
        wrapped = tracer.install()
        try:
            run.go(0.0, passes, tracer)
            verdicts = _check_all(workload, run)
        finally:
            tracer.uninstall()
        # Per-input medians, so the ratio does not depend on the pass counts.
        overhead = float(item_latencies(workload, run).sum()) / untraced_s
        metrics = per_layer(SpanStats(tracer.spans), run.count, overhead,
                            cli_layers(workload, run))
        _, info = end_to_end(workload, run, verdicts, 0.0)
        per_design: dict[int, int] = {}
        for name, _, _, parent, op in tracer.spans:
            if name == "complete_unitary" and op >= 0 and tracer.spans[parent][0] == "design":
                per_design[parent] = per_design.get(parent, 0) + 1
        RESULTS_DIR.mkdir(exist_ok=True)
        spans_path = RESULTS_DIR / f"spans-{workload.name}.csv"
        tracer.write(spans_path)
        info.update(
            complete_unitary_calls_per_design=_shares(per_design.values()),
            wrapped=wrapped,
            spans=len(tracer.spans),
            spans_file=spans_path.relative_to(ROOT).as_posix(),
        )
    info["strata"] = workload.strata()
    info.update(workload.details([(i, entry[1]) for i, entry in enumerate(run.first)]))
    return {"metrics": metrics, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if isinstance(workload, Cli):
            workload.prepare()
        buf = np.ones(LATENCY_CAPACITY, dtype=np.float32)
        _warm_up(workload)
        t_ready = perf_counter()
        if args.role == "setup":
            print(json.dumps({"t_ready": t_ready}))
            return 0
        result = measure(workload, buf, args.seconds, bool(args.trace))
        result["t_ready"] = t_ready
        result["numpy"] = np.__version__
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
