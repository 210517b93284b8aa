"""Command-line surface: solve, design, synthesize, simulate, compare, sweep.

Each subcommand reads an ensemble description from a JSON file (see
:func:`load_ensemble` for the format), runs the corresponding pipeline
stage, validates the result, and emits a JSON artifact (CSV for sweeps)
to stdout or ``--output``.  The exit code is 0 exactly when every stage
validation passes; parse and validation failures are reported on stderr
with the failing stage and field.

Floating-point values in artifacts are printed at 15 significant digits
so that emitted files are stable enough to serve as regression fixtures.
Every artifact carries a ``schema`` version field and re-parses as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Any

import numpy as np

from .designer import MeasurementDesign, design
from .errors import QFilterError
from .filter_core import FilterSolution, solve
from .multiport import MeshProgram, decompose, recompose
from .oracle import compare as oracle_compare
from .oracle import three_state_Q, two_state_Q
from .simulator import port_probabilities, sample, von_neumann_baseline
from .states import Ensemble, StateVector, ensemble_from_overlaps, gram_matrix, overlaps

__all__ = ["main", "load_ensemble"]

SCHEMA_ENSEMBLE = "qfilter.ensemble/1"
SCHEMA_SOLUTION = "qfilter.solution/1"
SCHEMA_DESIGN = "qfilter.design/1"
SCHEMA_MESH = "qfilter.mesh/1"
SCHEMA_SIMULATION = "qfilter.simulation/1"
SCHEMA_COMPARISON = "qfilter.comparison/1"
SCHEMA_SWEEP = "qfilter.sweep/1"

#: Default validation tolerance; override per run with --tolerance.
DEFAULT_TOLERANCE = 1e-10


# --------------------------------------------------------------------------
# formatting helpers
# --------------------------------------------------------------------------


def _sig15(value: float) -> float:
    """Round a float to 15 significant digits (artifact stability)."""
    if not math.isfinite(value):
        return float(value)
    return float(f"{value:.15g}")


def _jsonify(obj: Any) -> Any:
    """Recursively convert numbers/arrays to JSON-safe, 15-digit values."""
    if isinstance(obj, dict):
        return {key: _jsonify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(item) for item in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _sig15(float(obj.real)), "im": _sig15(float(obj.imag))}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig15(float(obj))
    return obj


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(_jsonify(payload), indent=2) + "\n", output)


def _fail(stage: str, message: str) -> int:
    print(f"error: {stage}: {message}", file=sys.stderr)
    return 1


def _warn(stage: str, message: str) -> None:
    print(f"warning: {stage}: {message}", file=sys.stderr)


# --------------------------------------------------------------------------
# ensemble file parsing
# --------------------------------------------------------------------------


def _parse_amplitude(raw: Any, where: str) -> complex:
    if isinstance(raw, bool):
        raise QFilterError(f"{where}: expected a number or {{re, im}} object")
    if isinstance(raw, (int, float)):
        return complex(float(raw), 0.0)
    if isinstance(raw, dict):
        extra = set(raw) - {"re", "im"}
        if extra:
            raise QFilterError(
                f"{where}: unknown amplitude fields {sorted(extra)}"
            )
        try:
            return complex(float(raw.get("re", 0.0)), float(raw.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise QFilterError(f"{where}: non-numeric re/im value") from exc
    raise QFilterError(
        f"{where}: expected a number or {{re, im}} object, got {type(raw).__name__}"
    )


def load_ensemble(path: str) -> tuple[Ensemble, str | None]:
    """Parse an ensemble JSON file into an :class:`Ensemble`.

    Format::

        {
          "schema": "qfilter.ensemble/1",       # optional
          "label": "anything",                  # optional
          "states": [[{"re": r, "im": i}, ...], ...3 arrays...],
          "priors": [p1, p2, p3]
        }

    Amplitudes may be ``{re, im}`` objects or bare numbers (treated as
    real).  Parse problems are reported with the offending line or field
    path; validation problems with the violated constraint.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise QFilterError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise QFilterError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise QFilterError(f"{path}: top level must be a JSON object")
    for field in ("states", "priors"):
        if field not in raw:
            raise QFilterError(f"{path}: missing required field '{field}'")
    states_raw = raw["states"]
    if not isinstance(states_raw, list) or len(states_raw) != 3:
        raise QFilterError(
            f"{path}: field 'states' must be an array of exactly 3 states"
        )
    vectors = []
    for i, state_raw in enumerate(states_raw):
        if not isinstance(state_raw, list) or not state_raw:
            raise QFilterError(
                f"{path}: states[{i}] must be a non-empty array of amplitudes"
            )
        amplitudes = [
            _parse_amplitude(entry, f"{path}: states[{i}][{j}]")
            for j, entry in enumerate(state_raw)
        ]
        try:
            vectors.append(StateVector(np.asarray(amplitudes, dtype=complex)))
        except QFilterError as exc:
            raise QFilterError(f"{path}: states[{i}]: {exc}") from exc
    priors_raw = raw["priors"]
    if not isinstance(priors_raw, list) or len(priors_raw) != 3:
        raise QFilterError(f"{path}: field 'priors' must be an array of 3 reals")
    try:
        priors = [float(p) for p in priors_raw]
    except (TypeError, ValueError) as exc:
        raise QFilterError(f"{path}: field 'priors' contains a non-number") from exc
    try:
        ensemble = Ensemble(tuple(vectors), np.asarray(priors, dtype=float))
    except QFilterError as exc:
        raise QFilterError(f"{path}: {exc}") from exc
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise QFilterError(f"{path}: field 'label' must be a string")
    return ensemble, label


def _ensemble_payload(e: Ensemble, label: str | None) -> dict:
    payload: dict[str, Any] = {"schema": SCHEMA_ENSEMBLE}
    if label:
        payload["label"] = label
    payload["states"] = [state.amplitudes for state in e.states]
    payload["priors"] = list(e.priors)
    return payload


# --------------------------------------------------------------------------
# shared validation pieces
# --------------------------------------------------------------------------


def _solution_payload(e: Ensemble, sol: FilterSolution) -> dict:
    ov = overlaps(e)
    return {
        "regime": sol.regime.value,
        "q1": sol.q1,
        "q2": sol.q2,
        "q3": sol.q3,
        "Q": sol.Q,
        "A": sol.A,
        "parallel_norm2": sol.parallel_norm2,
        "von_neumann_baseline": von_neumann_baseline(e),
        "overlaps": {
            "O12": ov.O12,
            "O13": ov.O13,
            "O23": ov.O23,
            "alpha": ov.alpha,
        },
    }


def _validate_solution(e: Ensemble, sol: FilterSolution, tol: float) -> str | None:
    ov = overlaps(e)
    for name, q in (("q1", sol.q1), ("q2", sol.q2), ("q3", sol.q3)):
        if not -tol <= q <= 1.0 + tol:
            return f"{name}={q!r} outside [0, 1]"
    for name, lhs, rhs in (
        ("q1*q2 = |O12|^2", sol.q1 * sol.q2, abs(ov.O12) ** 2),
        ("q1*q3 = |O13|^2", sol.q1 * sol.q3, abs(ov.O13) ** 2),
    ):
        if abs(lhs - rhs) > tol:
            return f"zero-error constraint {name} violated by {abs(lhs - rhs):.3e}"
    weighted = float(np.dot(e.priors, [sol.q1, sol.q2, sol.q3]))
    if abs(weighted - sol.Q) > tol:
        return f"Q does not equal the weighted failure average (diff {abs(weighted - sol.Q):.3e})"
    if sol.q1 < sol.parallel_norm2 - tol:
        return f"q1={sol.q1!r} below the parallel-component bound {sol.parallel_norm2!r}"
    return None


def _design_checks(
    e: Ensemble, dsn: MeasurementDesign, tol: float
) -> str | None:
    unitary = dsn.unitary
    gap = float(np.abs(unitary.conj().T @ unitary - np.eye(4)).max())
    if gap > tol:
        return f"unitary deviates from unitarity by {gap:.3e}"
    gram_in = gram_matrix([StateVector(v) for v in dsn.embedded_inputs])
    gram_out = gram_matrix([StateVector(u) for u in dsn.outputs])
    gram_gap = float(np.abs(gram_in - gram_out).max())
    if gram_gap > max(tol, 1e-9):
        return f"input/output Gram matrices differ by {gram_gap:.3e}"
    sol = dsn.solution
    expected_q = [sol.q1, sol.q2, sol.q3]
    claim = dsn.state1_port - 1
    set_ports = [p - 1 for p in dsn.set_ports]
    for i in range(3):
        probs = port_probabilities(dsn, i)
        forbidden = probs[set_ports].sum() if i == 0 else probs[claim]
        if forbidden > max(tol, 1e-12):
            return (
                f"input {i + 1} leaks probability {float(forbidden):.3e} "
                "into a forbidden port"
            )
        if abs(probs[3] - expected_q[i]) > max(tol, 1e-9):
            return (
                f"input {i + 1} failure-port probability {probs[3]!r} does not "
                f"match q{i + 1}={expected_q[i]!r}"
            )
    return None


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    e, label = load_ensemble(args.input)
    sol = solve(e)
    problem = _validate_solution(e, sol, args.tolerance)
    if problem is not None:
        return _fail("solve", problem)
    payload = {"schema": SCHEMA_SOLUTION}
    if label:
        payload["label"] = label
    payload.update(_solution_payload(e, sol))
    payload["priors"] = list(e.priors)
    _emit_json(payload, args.output)
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    e, label = load_ensemble(args.input)
    sol = solve(e)
    problem = _validate_solution(e, sol, args.tolerance)
    if problem is not None:
        return _fail("solve", problem)
    dsn = design(e, sol)
    problem = _design_checks(e, dsn, args.tolerance)
    if problem is not None:
        return _fail("design", problem)
    payload: dict[str, Any] = {"schema": SCHEMA_DESIGN}
    if label:
        payload["label"] = label
    payload["solution"] = _solution_payload(e, sol)
    payload["theta"] = dsn.theta
    payload["chi"] = list(dsn.chi)
    payload["state1_port"] = dsn.state1_port
    payload["set_ports"] = list(dsn.set_ports)
    payload["success_vectors"] = [v for v in dsn.success_vectors]
    payload["failure_vectors"] = [v for v in dsn.failure_vectors]
    payload["unitary"] = dsn.unitary
    payload["port_probabilities"] = [port_probabilities(dsn, i) for i in range(3)]
    _emit_json(payload, args.output)
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    e, label = load_ensemble(args.input)
    sol = solve(e)
    problem = _validate_solution(e, sol, args.tolerance)
    if problem is not None:
        return _fail("solve", problem)
    dsn = design(e, sol)
    problem = _design_checks(e, dsn, args.tolerance)
    if problem is not None:
        return _fail("design", problem)
    program = decompose(dsn.unitary)
    residual = float(np.abs(recompose(program) - dsn.unitary).max())
    if residual > max(args.tolerance, 1e-9):
        return _fail(
            "synthesize", f"mesh recomposition residual {residual:.3e} exceeds 1e-9"
        )
    if len(program.layers) > 6:
        return _fail(
            "synthesize", f"{len(program.layers)} layers exceed the 6-layer budget"
        )
    payload: dict[str, Any] = {"schema": SCHEMA_MESH}
    if label:
        payload["label"] = label
    payload["layers"] = [
        {"p": layer.p, "q": layer.q, "t": layer.t, "r": layer.r, "phi": layer.phi}
        for layer in program.layers
    ]
    payload["output_phases"] = list(program.output_phases)
    payload["layer_count"] = len(program.layers)
    payload["recomposition_residual"] = residual
    payload["unitary"] = dsn.unitary
    _emit_json(payload, args.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    e, label = load_ensemble(args.input)
    sol = solve(e)
    problem = _validate_solution(e, sol, args.tolerance)
    if problem is not None:
        return _fail("solve", problem)
    dsn = design(e, sol)
    problem = _design_checks(e, dsn, args.tolerance)
    if problem is not None:
        return _fail("design", problem)
    report = sample(dsn, e, trials=args.trials, seed=args.seed, shards=args.shards)
    expected_q = sol.Q
    sigma_band = 5.0 * math.sqrt(
        max(expected_q * (1.0 - expected_q), 0.0) / report.trials
    )
    payload: dict[str, Any] = {"schema": SCHEMA_SIMULATION}
    if label:
        payload["label"] = label
    payload["trials"] = report.trials
    payload["seed"] = report.seed
    payload["shards"] = report.shards
    payload["state1_port"] = dsn.state1_port
    payload["exact_probabilities"] = report.exact_probabilities
    payload["counts"] = report.counts
    payload["violations"] = report.violations
    payload["empirical_Q"] = report.empirical_Q
    payload["expected_Q"] = expected_q
    payload["five_sigma_band"] = sigma_band
    _emit_json(payload, args.output)
    weighted = float(np.dot(e.priors, report.exact_probabilities[:, 3]))
    if abs(weighted - expected_q) > max(args.tolerance, 1e-10):
        return _fail(
            "simulate",
            f"exact failure-port average {weighted!r} does not match Q={expected_q!r}",
        )
    if report.violations:
        return _fail(
            "simulate",
            f"{report.violations} forbidden-port clicks in {report.trials} trials",
        )
    counts_total = report.counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = np.where(counts_total > 0, report.counts / counts_total, 0.0)
    exact = report.exact_probabilities
    bands = 5.0 * np.sqrt(np.maximum(exact * (1.0 - exact), 0.0) / report.trials)
    excess = np.abs(freq - exact) - bands
    if np.any(excess > 1e-15):
        _warn(
            "simulate",
            "an empirical port frequency sits outside its 5-sigma band "
            f"(worst excess {float(excess.max()):.3e}); "
            "rerun with another seed to check",
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    e, label = load_ensemble(args.input)
    record = oracle_compare(e, resolution=args.resolution)
    if record.Q > record.Q_prime + 1e-9 and record.Q_prime > 1e-12:
        return _fail(
            "compare",
            f"filtering failure {record.Q!r} exceeds identification failure "
            f"{record.Q_prime!r} by more than 1e-9",
        )
    payload: dict[str, Any] = {"schema": SCHEMA_COMPARISON}
    if label:
        payload["label"] = label
    payload["Q"] = record.Q
    payload["Q_prime"] = record.Q_prime
    payload["Q_double_prime"] = record.Q_double_prime
    payload["ratio"] = record.ratio
    payload["resolution"] = record.resolution
    _emit_json(payload, args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    start, stop, step = args.start, args.stop, args.step
    if step <= 0.0:
        return _fail("sweep", f"step must be positive, got {step!r}")
    if not (0.0 < start <= stop < 1.0):
        return _fail(
            "sweep",
            f"range [{start!r}, {stop!r}] must satisfy 0 < start <= stop < 1",
        )
    priors = np.asarray(args.priors, dtype=float)
    equal_priors = bool(np.allclose(priors, 1.0 / 3.0, atol=1e-12))
    grid = np.arange(start, stop + step / 2.0, step)
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    buffer = io.StringIO()
    buffer.write(f"# {SCHEMA_SWEEP}\n")
    if args.family == "symmetric_s":
        buffer.write("s,Q,Q_prime,Q_double_prime\n")
        q_rows, qp_rows = [], []
        for s in grid:
            try:
                e = ensemble_from_overlaps(s, s, s, priors=priors)
                q_val = solve(e).Q
                if equal_priors:
                    qp_val = float(s)
                else:
                    qp_val = three_state_Q(e, resolution=args.resolution)
            except QFilterError as exc:
                return _fail("sweep", f"s={s:.15g}: {exc}")
            qpp_val = two_state_Q(e)
            q_rows.append(q_val)
            qp_rows.append(qp_val)
            buffer.write(
                f"{_sig15(float(s)):.15g},{_sig15(q_val):.15g},"
                f"{_sig15(qp_val):.15g},{_sig15(qpp_val):.15g}\n"
            )
        for name, rows in (("Q", q_rows), ("Q_prime", qp_rows)):
            diffs = np.diff(rows)
            if np.any(diffs < -1e-12):
                return _fail(
                    "sweep", f"{name} is not monotone nondecreasing in s"
                )
    else:  # two_overlap
        s2 = args.s2
        if not 0.0 < s2 < 1.0:
            return _fail("sweep", f"--s2 must lie in (0, 1), got {s2!r}")
        buffer.write("s1,s2,Q,Q_prime,ratio\n")
        for s1 in grid:
            try:
                e = ensemble_from_overlaps(s1, s1, s2, priors=priors)
                q_val = solve(e).Q
                if equal_priors and s1 * s1 <= s2 + 1e-12:
                    qp_val = (s1 * s1 / s2 + 2.0 * s2) / 3.0
                else:
                    qp_val = three_state_Q(e, resolution=args.resolution)
            except QFilterError as exc:
                return _fail("sweep", f"s1={s1:.15g}, s2={s2:.15g}: {exc}")
            ratio = 1.0 if qp_val <= 1e-12 else q_val / qp_val
            buffer.write(
                f"{_sig15(float(s1)):.15g},{_sig15(float(s2)):.15g},"
                f"{_sig15(q_val):.15g},{_sig15(qp_val):.15g},"
                f"{_sig15(ratio):.15g}\n"
            )
    _emit(buffer.getvalue(), args.output)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, needs_input: bool) -> None:
    if needs_input:
        parser.add_argument(
            "--input", required=True, metavar="PATH", help="ensemble JSON file"
        )
    parser.add_argument(
        "--output", metavar="PATH", help="write the artifact here instead of stdout"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="T",
        help=f"validation tolerance (default {DEFAULT_TOLERANCE})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfilter",
        description=(
            "Optimal unambiguous quantum-state filtering: solve for failure "
            "probabilities, design the realizing four-mode unitary, "
            "synthesize its beam-splitter mesh, and audit it by sampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="optimal failure probabilities and regime for an ensemble"
    )
    _add_common(p_solve, needs_input=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_design = sub.add_parser(
        "design", help="success/failure vectors and the 4x4 unitary"
    )
    _add_common(p_design, needs_input=True)
    p_design.set_defaults(func=_cmd_design)

    p_synth = sub.add_parser(
        "synthesize", help="beam-splitter layer decomposition of the unitary"
    )
    _add_common(p_synth, needs_input=True)
    p_synth.set_defaults(func=_cmd_synthesize)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo audit of the designed measurement"
    )
    _add_common(p_sim, needs_input=True)
    p_sim.add_argument(
        "--trials", type=int, default=100_000, metavar="N", help="number of shots"
    )
    p_sim.add_argument(
        "--seed", type=int, default=0, metavar="N", help="RNG seed (recorded)"
    )
    p_sim.add_argument(
        "--shards", type=int, default=1, metavar="N", help="independent RNG shards"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser(
        "compare", help="filtering vs full-identification failure probabilities"
    )
    _add_common(p_cmp, needs_input=True)
    p_cmp.add_argument(
        "--resolution",
        type=float,
        default=1e-3,
        metavar="R",
        help=(
            "bracketing step of the identification optimum, which is exact "
            "to ~1e-12 at any step (default 1e-3)"
        ),
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="CSV of Q and comparison curves over an overlap family"
    )
    _add_common(p_sweep, needs_input=False)
    p_sweep.add_argument(
        "--family",
        choices=("symmetric_s", "two_overlap"),
        default="symmetric_s",
        help="overlap family to sweep (default symmetric_s)",
    )
    p_sweep.add_argument("--start", type=float, default=0.01, metavar="S")
    p_sweep.add_argument("--stop", type=float, default=0.99, metavar="S")
    p_sweep.add_argument("--step", type=float, default=0.01, metavar="S")
    p_sweep.add_argument(
        "--s2",
        type=float,
        default=0.8,
        metavar="S",
        help="fixed second overlap for the two_overlap family (default 0.8)",
    )
    p_sweep.add_argument(
        "--priors",
        type=float,
        nargs=3,
        default=[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        metavar=("P1", "P2", "P3"),
        help="prior probabilities (default equal)",
    )
    p_sweep.add_argument(
        "--resolution",
        type=float,
        default=1e-3,
        metavar="R",
        help=(
            "bracketing step of the identification optima, which are exact "
            "to ~1e-12 at any step (default 1e-3)"
        ),
    )
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except QFilterError as exc:
        return _fail(args.command, str(exc))
    except (ValueError, OverflowError) as exc:
        return _fail(args.command, str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
