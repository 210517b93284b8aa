"""Command-line surface: solve, design, synthesize, simulate, compare, sweep.

Every subcommand but ``sweep`` reads an ensemble description from a JSON
file (see :func:`load_ensemble` for the format).  The pipeline commands
run the stage chain solve -> design -> synthesize or simulate as far as
they need it, validating each stage before the next one runs, and emit a
JSON artifact (CSV for sweeps) to stdout or ``--output``.  The exit code
is 0 exactly when every validation passes.  Parse and validation
failures exit 1 and are reported on stderr as ``error: <stage>:
<message>``, naming the stage that failed and, for input errors, the
field.  ``--tolerance`` must be a finite value >= 0 and ``--seed`` an
integer >= 0; any other value, like any bad argument, is a usage error
(exit 2).

Floating-point values in artifacts are printed at 15 significant digits
so that emitted files are stable enough to serve as regression fixtures.
Every artifact carries a ``schema`` version field and re-parses as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from .designer import MeasurementDesign, design
from .errors import QFilterError
from .filter_core import FilterSolution, solve
from .multiport import decompose, recompose
from .oracle import compare as oracle_compare
from .oracle import three_state_Q, two_state_Q
from .simulator import port_probabilities, sample, von_neumann_baseline
from .states import Ensemble, StateVector, ensemble_from_overlaps, gram_matrix, overlaps

__all__ = ["main", "load_ensemble"]

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


# --------------------------------------------------------------------------
# ensemble file parsing
# --------------------------------------------------------------------------


def _json_float(raw: Any) -> float:
    """``float(raw)`` of a JSON number; a boolean or a string is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"a JSON {type(raw).__name__} is not a number")
    return float(raw)


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
            return complex(
                _json_float(raw.get("re", 0.0)), _json_float(raw.get("im", 0.0))
            )
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
    real).  Only JSON numbers are read as numbers: booleans and strings are
    refused wherever a number is expected.
    Parse problems are reported with the offending line or field path;
    validation problems with the violated constraint.
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
        priors = [_json_float(p) for p in priors_raw]
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
    # The raw vectors: wrapping them in StateVector would renormalize away
    # an output norm error of up to 1e-6.
    gram_in = gram_matrix(dsn.embedded_inputs)
    gram_out = gram_matrix(dsn.outputs)
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


class _StageError(QFilterError):
    """A failed validation, reported under the stage that ran it."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


def _header(schema: str, label: str | None) -> dict[str, Any]:
    """The leading fields of every JSON artifact."""
    payload: dict[str, Any] = {"schema": schema}
    if label:
        payload["label"] = label
    return payload


def _solved(args: argparse.Namespace) -> tuple[Ensemble, str | None, FilterSolution]:
    """Load ``--input`` and solve it; raise if the solution fails validation."""
    e, label = load_ensemble(args.input)
    sol = solve(e)
    problem = _validate_solution(e, sol, args.tolerance)
    if problem is not None:
        raise _StageError("solve", problem)
    return e, label, sol


def _designed(
    args: argparse.Namespace,
) -> tuple[Ensemble, str | None, MeasurementDesign]:
    """:func:`_solved`, then design the measurement and validate it too."""
    e, label, sol = _solved(args)
    dsn = design(e, sol)
    problem = _design_checks(e, dsn, args.tolerance)
    if problem is not None:
        raise _StageError("design", problem)
    return e, label, dsn


def _cmd_solve(args: argparse.Namespace) -> None:
    e, label, sol = _solved(args)
    payload = _header(SCHEMA_SOLUTION, label)
    payload.update(_solution_payload(e, sol))
    payload["priors"] = list(e.priors)
    _emit_json(payload, args.output)


def _cmd_design(args: argparse.Namespace) -> None:
    e, label, dsn = _designed(args)
    payload = _header(SCHEMA_DESIGN, label)
    payload["solution"] = _solution_payload(e, dsn.solution)
    payload["theta"] = dsn.theta
    payload["chi"] = list(dsn.chi)
    payload["state1_port"] = dsn.state1_port
    payload["set_ports"] = list(dsn.set_ports)
    payload["success_vectors"] = [v for v in dsn.success_vectors]
    payload["failure_vectors"] = [v for v in dsn.failure_vectors]
    payload["unitary"] = dsn.unitary
    payload["port_probabilities"] = [port_probabilities(dsn, i) for i in range(3)]
    _emit_json(payload, args.output)


def _cmd_synthesize(args: argparse.Namespace) -> None:
    _, label, dsn = _designed(args)
    program = decompose(dsn.unitary)
    residual = float(np.abs(recompose(program) - dsn.unitary).max())
    if residual > max(args.tolerance, 1e-9):
        raise QFilterError(f"mesh recomposition residual {residual:.3e} exceeds 1e-9")
    if len(program.layers) > 6:
        raise QFilterError(f"{len(program.layers)} layers exceed the 6-layer budget")
    payload = _header(SCHEMA_MESH, label)
    payload["layers"] = [
        {"p": layer.p, "q": layer.q, "t": layer.t, "r": layer.r, "phi": layer.phi}
        for layer in program.layers
    ]
    payload["output_phases"] = list(program.output_phases)
    payload["layer_count"] = len(program.layers)
    payload["recomposition_residual"] = residual
    payload["unitary"] = dsn.unitary
    _emit_json(payload, args.output)


def _cmd_simulate(args: argparse.Namespace) -> None:
    e, label, dsn = _designed(args)
    report = sample(dsn, e, trials=args.trials, seed=args.seed)
    expected_q = dsn.solution.Q
    sigma_band = 5.0 * math.sqrt(
        max(expected_q * (1.0 - expected_q), 0.0) / report.trials
    )
    payload = _header(SCHEMA_SIMULATION, label)
    payload["trials"] = report.trials
    payload["seed"] = report.seed
    # Kept at 1 for readers of the qfilter.simulation/1 schema; runs are
    # no longer split into independently seeded shards.
    payload["shards"] = 1
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
        raise QFilterError(
            f"exact failure-port average {weighted!r} does not match Q={expected_q!r}"
        )
    if report.violations:
        raise QFilterError(
            f"{report.violations} forbidden-port clicks in {report.trials} trials"
        )
    counts_total = report.counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = np.where(counts_total > 0, report.counts / counts_total, 0.0)
    exact = report.exact_probabilities
    bands = 5.0 * np.sqrt(np.maximum(exact * (1.0 - exact), 0.0) / report.trials)
    excess = np.abs(freq - exact) - bands
    if np.any(excess > 1e-15):
        print(
            "warning: simulate: an empirical port frequency sits outside its "
            f"5-sigma band (worst excess {float(excess.max()):.3e}); "
            "rerun with another seed to check",
            file=sys.stderr,
        )


def _cmd_compare(args: argparse.Namespace) -> None:
    e, label = load_ensemble(args.input)
    record = oracle_compare(e, resolution=args.resolution)
    if record.Q > record.Q_prime + 1e-9 and record.Q_prime > 1e-12:
        raise QFilterError(
            f"filtering failure {record.Q!r} exceeds identification failure "
            f"{record.Q_prime!r} by more than 1e-9"
        )
    payload = _header(SCHEMA_COMPARISON, label)
    payload["Q"] = record.Q
    payload["Q_prime"] = record.Q_prime
    payload["Q_double_prime"] = record.Q_double_prime
    payload["ratio"] = record.ratio
    payload["resolution"] = record.resolution
    _emit_json(payload, args.output)


def _cmd_sweep(args: argparse.Namespace) -> None:
    """CSV over s of the family O12 = O13 = s, with O23 = s or O23 = --s2."""
    start, stop, step, s2 = args.start, args.stop, args.step, args.s2
    if step <= 0.0:
        raise QFilterError(f"step must be positive, got {step!r}")
    if not (0.0 < start <= stop < 1.0):
        raise QFilterError(
            f"range [{start!r}, {stop!r}] must satisfy 0 < start <= stop < 1"
        )
    symmetric = args.family == "symmetric_s"
    if symmetric and s2 is not None:
        raise QFilterError("--s2 applies only to the two_overlap family")
    if not symmetric:
        s2 = 0.8 if s2 is None else s2
        if not 0.0 < s2 < 1.0:
            raise QFilterError(f"--s2 must lie in (0, 1), got {s2!r}")
    priors = np.asarray(args.priors, dtype=float)
    equal_priors = bool(np.allclose(priors, 1.0 / 3.0, atol=1e-12))
    grid = np.arange(start, stop + step / 2.0, step)
    grid = grid[(grid > 0.0) & (grid < 1.0)]
    header = "s,Q,Q_prime,Q_double_prime" if symmetric else "s1,s2,Q,Q_prime,ratio"
    lines = [f"# {SCHEMA_SWEEP}", header]
    q_rows, qp_rows = [], []
    for s in grid:
        o23 = s if symmetric else s2
        try:
            e = ensemble_from_overlaps(s, s, o23, priors=priors)
            q_val = solve(e).Q
            # At equal priors Q' has a closed form: s on symmetric_s (where
            # s*s <= s = o23 always holds), and on two_overlap while s*s <= s2.
            if equal_priors and s * s <= o23 + 1e-12:
                qp_val = float(s) if symmetric else (s * s / s2 + 2.0 * s2) / 3.0
            else:
                qp_val = three_state_Q(e, resolution=args.resolution)
        except QFilterError as exc:
            where = f"s={s:.15g}" if symmetric else f"s1={s:.15g}, s2={s2:.15g}"
            raise QFilterError(f"{where}: {exc}") from exc
        if symmetric:
            row = (s, q_val, qp_val, two_state_Q(e))
        else:
            ratio = 1.0 if qp_val <= 1e-12 else q_val / qp_val
            row = (s, s2, q_val, qp_val, ratio)
        lines.append(",".join(f"{_sig15(float(x)):.15g}" for x in row))
        q_rows.append(q_val)
        qp_rows.append(qp_val)
    if symmetric:
        for name, rows in (("Q", q_rows), ("Q_prime", qp_rows)):
            if np.any(np.diff(rows) < -1e-12):
                raise QFilterError(f"{name} is not monotone nondecreasing in s")
    _emit("\n".join(lines) + "\n", args.output)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """The ``--tolerance`` value: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite value >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The ``--seed`` value: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


#: Each subcommand: its name, its handler and its one-line help.
_COMMANDS = (
    ("solve", _cmd_solve, "optimal failure probabilities and regime for an ensemble"),
    ("design", _cmd_design, "success/failure vectors and the 4x4 unitary"),
    ("synthesize", _cmd_synthesize, "beam-splitter layer decomposition of the unitary"),
    ("simulate", _cmd_simulate, "Monte Carlo audit of the designed measurement"),
    ("compare", _cmd_compare, "filtering vs full-identification failure probabilities"),
    ("sweep", _cmd_sweep, "CSV of Q and comparison curves over an overlap family"),
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
    commands = {}
    for name, func, help_text in _COMMANDS:
        command = commands[name] = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        if name != "sweep":
            command.add_argument(
                "--input", required=True, metavar="PATH", help="ensemble JSON file"
            )
        command.add_argument(
            "--output", metavar="PATH", help="write the artifact here instead of stdout"
        )
        command.add_argument(
            "--tolerance",
            type=_tolerance,
            default=DEFAULT_TOLERANCE,
            metavar="T",
            help=f"validation tolerance, finite and >= 0 (default {DEFAULT_TOLERANCE})",
        )

    p_sim = commands["simulate"]
    p_sim.add_argument(
        "--trials", type=int, default=100_000, metavar="N", help="number of shots"
    )
    p_sim.add_argument(
        "--seed", type=_seed, default=0, metavar="N", help="RNG seed, >= 0 (recorded)"
    )

    p_sweep = commands["sweep"]
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
        metavar="S",
        help="fixed second overlap of the two_overlap family only (default 0.8)",
    )
    p_sweep.add_argument(
        "--priors",
        type=float,
        nargs=3,
        default=[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        metavar=("P1", "P2", "P3"),
        help="prior probabilities (default equal)",
    )

    for name in ("compare", "sweep"):
        commands[name].add_argument(
            "--resolution",
            type=float,
            default=1e-3,
            metavar="R",
            help=(
                "bracketing step of the identification optimum, which is "
                "exact to ~1e-12 at any step (default 1e-3)"
            ),
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (QFilterError, ValueError, OverflowError) as exc:
        stage = exc.stage if isinstance(exc, _StageError) else args.command
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
