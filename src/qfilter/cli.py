"""Command-line surface: solve, design, synthesize, simulate, compare, sweep.

Every subcommand but ``sweep`` reads an ensemble description from a JSON
file (see :func:`load_ensemble` for the format).  The pipeline commands
run the stage chain solve -> design -> synthesize or simulate as far as
they need it, validating each stage before the next one runs, and emit a
JSON artifact (CSV for sweeps) to stdout or ``--output``.  The exit code
is 0 exactly when every validation passes.  Parse and validation
failures exit 1 and are reported on stderr as ``error: <stage>:
<message>``, naming the stage that failed and, for input errors, the
field.  ``--tolerance`` (the four stage commands) must be a finite value
>= 0, ``--resolution`` (compare) in (0, 1e-2], ``--seed`` an integer >= 0
and ``--trials`` an integer from 1 to ``MAX_TRIALS``; any other value,
like any bad argument, is a usage error: exit 2, with a usage line.

:func:`_parse` reads the command line from the tables ``_COMMANDS`` and
``_OPTIONS``, not with argparse, whose import and set-up cost more than
``solve``: options in any order, as ``--name value`` or ``--name=value``
under any unique prefix, and ``-h`` for a command's help.

Floating-point values in artifacts are printed at 15 significant digits
so that emitted files are stable enough to serve as regression fixtures.
Every artifact carries a ``schema`` version field and re-parses as JSON.

Every command runs on Python scalars and none imports numpy: ``simulate``
draws from ``random.Random(seed)`` through the geometric and BTRS binomials
of :mod:`qfilter._stream`.  ``simulate`` writes its artifact only after the exact
failure-port average and the forbidden-click count pass their checks.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace
from typing import Any

from .designer import MeasurementDesign, design
from .errors import QFilterError
from .filter_core import FilterSolution, solve
from .multiport import _unitarity_residual, decompose, recompose
from .oracle import compare as oracle_compare
from .oracle import three_state_Q, two_state_Q
from .simulator import MAX_TRIALS, port_probabilities, sample, von_neumann_baseline
from .states import Ensemble, StateVector, checked_priors, ensemble_from_overlaps
from .states import gram_matrix, overlaps

__all__ = ["main", "load_ensemble"]

SCHEMA_SOLUTION = "qfilter.solution/1"
SCHEMA_DESIGN = "qfilter.design/1"
SCHEMA_MESH = "qfilter.mesh/1"
SCHEMA_SIMULATION = "qfilter.simulation/1"
SCHEMA_COMPARISON = "qfilter.comparison/1"
SCHEMA_SWEEP = "qfilter.sweep/1"

#: Default validation tolerance; override per run with --tolerance.
DEFAULT_TOLERANCE = 1e-10
#: Most grid points a sweep computes; the grid is built as a list first.
MAX_SWEEP_POINTS = 10**6


# --------------------------------------------------------------------------
# formatting helpers
# --------------------------------------------------------------------------


def _sig15(value: float) -> float:
    """Round a float to 15 significant digits (artifact stability)."""
    return float(f"{value:.15g}")


def _jsonify(obj: Any) -> Any:
    """Recursively convert numbers, lists, tuples and dicts to JSON-safe,
    15-digit values."""
    if isinstance(obj, dict):
        return {key: _jsonify(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(item) for item in obj]
    if isinstance(obj, complex):
        return {"re": _sig15(float(obj.real)), "im": _sig15(float(obj.imag))}
    if isinstance(obj, float):
        return _sig15(obj)
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
            vectors.append(StateVector(amplitudes))
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
        ensemble = Ensemble(tuple(vectors), priors)
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
    eta1, eta2, eta3 = e.priors
    weighted = 0.0 + eta1 * sol.q1 + eta2 * sol.q2 + eta3 * sol.q3
    if abs(weighted - sol.Q) > tol:
        return f"Q does not equal the weighted failure average (diff {abs(weighted - sol.Q):.3e})"
    if sol.q1 < sol.parallel_norm2 - tol:
        return f"q1={sol.q1!r} below the parallel-component bound {sol.parallel_norm2!r}"
    return None


def _design_checks(
    e: Ensemble, dsn: MeasurementDesign, tol: float
) -> str | None:
    gap = _unitarity_residual(dsn._unitary)
    if gap > tol:
        return f"unitary deviates from unitarity by {gap:.3e}"
    # The raw vectors: wrapping them in StateVector would renormalize away
    # an output norm error of up to 1e-6.
    gram_in = gram_matrix(dsn._embedded_inputs)
    gram_out = gram_matrix(dsn._outputs)
    gram_gap = max(abs(a - b) for ra, rb in zip(gram_in, gram_out) for a, b in zip(ra, rb))
    if gram_gap > max(tol, 1e-9):
        return f"input/output Gram matrices differ by {gram_gap:.3e}"
    sol = dsn.solution
    expected_q = [sol.q1, sol.q2, sol.q3]
    claim = dsn.state1_port - 1
    set_ports = [p - 1 for p in dsn.set_ports]
    for i in range(3):
        probs = port_probabilities(dsn, i)
        forbidden = probs[set_ports[0]] + probs[set_ports[1]] if i == 0 else probs[claim]
        if forbidden > max(tol, 1e-12):
            return (
                f"input {i + 1} leaks probability {forbidden:.3e} "
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


def _solved(args: SimpleNamespace) -> tuple[Ensemble, str | None, FilterSolution]:
    """Load ``--input`` and solve it; raise if the solution fails validation."""
    e, label = load_ensemble(args.input)
    sol = solve(e)
    problem = _validate_solution(e, sol, args.tolerance)
    if problem is not None:
        raise _StageError("solve", problem)
    return e, label, sol


def _designed(args: SimpleNamespace) -> tuple[Ensemble, str | None, MeasurementDesign]:
    """:func:`_solved`, then design the measurement and validate it too."""
    e, label, sol = _solved(args)
    dsn = design(e, sol)
    problem = _design_checks(e, dsn, args.tolerance)
    if problem is not None:
        raise _StageError("design", problem)
    return e, label, dsn


def _cmd_solve(args: SimpleNamespace) -> None:
    e, label, sol = _solved(args)
    payload = _header(SCHEMA_SOLUTION, label)
    payload.update(_solution_payload(e, sol))
    payload["priors"] = list(e.priors)
    _emit_json(payload, args.output)


def _cmd_design(args: SimpleNamespace) -> None:
    e, label, dsn = _designed(args)
    payload = _header(SCHEMA_DESIGN, label)
    payload["solution"] = _solution_payload(e, dsn.solution)
    payload["theta"] = dsn.theta
    payload["chi"] = list(dsn.chi)
    payload["state1_port"] = dsn.state1_port
    payload["set_ports"] = list(dsn.set_ports)
    payload["success_vectors"] = dsn._success_vectors
    payload["failure_vectors"] = dsn._failure_vectors
    payload["unitary"] = dsn._unitary
    payload["port_probabilities"] = [port_probabilities(dsn, i) for i in range(3)]
    _emit_json(payload, args.output)


def _cmd_synthesize(args: SimpleNamespace) -> None:
    _, label, dsn = _designed(args)
    program = decompose(dsn._unitary)
    residual = max(
        abs(a - b) for ra, rb in zip(recompose(program), dsn._unitary) for a, b in zip(ra, rb)
    )
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
    payload["unitary"] = dsn._unitary
    _emit_json(payload, args.output)


def _cmd_simulate(args: SimpleNamespace) -> None:
    e, label, dsn = _designed(args)
    report = sample(dsn, e, trials=args.trials, seed=args.seed)
    expected_q = dsn.solution.Q
    exact, counts = report._exact_probabilities, report._counts
    weighted = 0.0
    for eta, row in zip(e.priors, exact):
        weighted += eta * row[3]
    if abs(weighted - expected_q) > max(args.tolerance, 1e-10):
        raise QFilterError(
            f"exact failure-port average {weighted!r} does not match Q={expected_q!r}"
        )
    if report.violations:
        raise QFilterError(
            f"{report.violations} forbidden-port clicks in {report.trials} trials"
        )
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
    payload["exact_probabilities"] = exact
    payload["counts"] = counts
    payload["violations"] = report.violations
    payload["empirical_Q"] = report.empirical_Q
    payload["expected_Q"] = expected_q
    payload["five_sigma_band"] = sigma_band
    _emit_json(payload, args.output)
    # Row i is a frequency over state i's own draws; so is its band.  An
    # undrawn state has no frequencies to check.
    worst = 0.0
    for row_counts, row_exact in zip(counts, exact):
        drawn = sum(row_counts)
        if not drawn:
            continue
        for count, p in zip(row_counts, row_exact):
            band = 5.0 * math.sqrt(max(p * (1.0 - p), 0.0) / drawn)
            worst = max(worst, abs(count / drawn - p) - band)
    if worst > 1e-15:
        print(
            "warning: simulate: an empirical port frequency sits outside its "
            f"5-sigma band (worst excess {worst:.3e}); "
            "rerun with another seed to check",
            file=sys.stderr,
        )


def _cmd_compare(args: SimpleNamespace) -> None:
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


def _cmd_sweep(args: SimpleNamespace) -> None:
    """CSV over s of the family O12 = O13 = s, with O23 = s or O23 = --s2."""
    start, stop, step, s2 = args.start, args.stop, args.step, args.s2
    if not 0.0 < step < math.inf:
        raise QFilterError(f"--step must be finite and positive, got {step!r}")
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
    try:
        priors = checked_priors(args.priors)
    except QFilterError as exc:
        raise QFilterError(f"--priors: {exc}") from exc
    # np.allclose(priors, 1/3, atol=1e-12), whose default rtol is 1e-5.
    equal_priors = all(abs(p - 1.0 / 3.0) <= 1e-12 + 1e-5 / 3.0 for p in priors)
    # np.arange(start, stop + step / 2, step): start, start + step, then
    # start + i * delta with delta the difference of those two.
    span = (stop + step / 2.0 - start) / step
    if span > MAX_SWEEP_POINTS:
        count = math.ceil(span) if span < math.inf else span
        raise QFilterError(
            f"--step {step!r} gives a grid of {count} points; "
            f"at most {MAX_SWEEP_POINTS} are allowed"
        )
    count = math.ceil(span)
    delta = (start + step) - start
    grid = [start, start + step][:count] + [start + i * delta for i in range(2, count)]
    grid = [s for s in grid if 0.0 < s < 1.0]
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
                qp_val = s if symmetric else (s * s / s2 + 2.0 * s2) / 3.0
            else:
                qp_val = three_state_Q(e)
        except QFilterError as exc:
            where = f"s={s:.15g}" if symmetric else f"s1={s:.15g}, s2={s2:.15g}"
            raise QFilterError(f"{where}: {exc}") from exc
        if symmetric:
            row = (s, q_val, qp_val, two_state_Q(e))
        else:
            ratio = 1.0 if qp_val <= 1e-12 else q_val / qp_val
            row = (s, s2, q_val, qp_val, ratio)
        lines.append(",".join(f"{_sig15(x):.15g}" for x in row))
        q_rows.append(q_val)
        qp_rows.append(qp_val)
    if symmetric:
        for name, rows in (("Q", q_rows), ("Q_prime", qp_rows)):
            if any(b - a < -1e-12 for a, b in zip(rows, rows[1:])):
                raise QFilterError(f"{name} is not monotone nondecreasing in s")
    _emit("\n".join(lines) + "\n", args.output)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _UsageError(Exception):
    """A refused command line, as (message, the command read so far or None)."""


def _ranged(parse, kind: str, ok=lambda value: True, rule: str = ""):
    """An option converter: ``parse`` the text as a ``kind`` value that ``ok``
    accepts; other text is a usage error that names the ``rule`` it broke."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise _UsageError(f"invalid {kind} value: {text!r}") from None
        if not ok(value):
            raise _UsageError(f"must be {rule}, got {text!r}")
        return value

    return convert


def _choice(*words: str):
    """An option converter that accepts only ``words``."""

    def convert(text: str) -> str:
        if text not in words:
            listed = ", ".join(map(repr, words))
            raise _UsageError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return convert


_real = _ranged(float, "float")
_tolerance = _ranged(
    float, "float", lambda v: math.isfinite(v) and v >= 0.0, "a finite value >= 0"
)
_resolution = _ranged(float, "float", lambda v: 0.0 < v <= 1e-2, "a value in (0, 1e-2]")
_seed = _ranged(int, "int", lambda v: v >= 0, "an integer >= 0")
_trials = _ranged(
    int, "int", lambda v: 1 <= v <= MAX_TRIALS, f"an integer from 1 to {MAX_TRIALS}"
)
_family = _choice("symmetric_s", "two_overlap")

#: Each option: its converter, how many values it takes, its metavar and its help.
_OPTIONS = {
    "--input": (str, 1, "PATH", "ensemble JSON file"),
    "--output": (str, 1, "PATH", "write the artifact here instead of stdout"),
    "--tolerance": (_tolerance, 1, "T", f"validation tolerance (default {DEFAULT_TOLERANCE})"),
    "--trials": (_trials, 1, "N", f"number of shots, 1 to {MAX_TRIALS} (default 100000)"),
    "--seed": (_seed, 1, "N", "RNG seed, >= 0, recorded (default 0)"),
    "--resolution": (_resolution, 1, "R", "in (0, 1e-2], recorded; changes no result"),
    "--family": (_family, 1, "F", "symmetric_s (default) or two_overlap"),
    "--start": (_real, 1, "S", "first s of the grid (default 0.01)"),
    "--stop": (_real, 1, "S", "last s of the grid (default 0.99)"),
    "--step": (_real, 1, "S", "grid spacing (default 0.01)"),
    "--s2": (_real, 1, "S", "fixed O23 of the two_overlap family only (default 0.8)"),
    "--priors": (_real, 3, "P1 P2 P3", "prior probabilities (default equal)"),
}

#: The options of the stage commands, with their defaults (``...``: required).
_STAGE = {"--input": ..., "--output": None, "--tolerance": DEFAULT_TOLERANCE}

#: Each subcommand: its handler, its one-line help and its options with their
#: defaults, in the order its usage lists them.
_COMMANDS = {
    "solve": (_cmd_solve, "optimal failure probabilities and regime for an ensemble", _STAGE),
    "design": (_cmd_design, "success/failure vectors and the 4x4 unitary", _STAGE),
    "synthesize": (_cmd_synthesize, "beam-splitter layer decomposition of the unitary", _STAGE),
    "simulate": (
        _cmd_simulate, "Monte Carlo audit of the designed measurement",
        {**_STAGE, "--trials": 100_000, "--seed": 0},
    ),
    "compare": (
        _cmd_compare, "filtering vs full-identification failure probabilities",
        {"--input": ..., "--output": None, "--resolution": 1e-3},
    ),
    "sweep": (
        _cmd_sweep, "CSV of Q and comparison curves over an overlap family",
        {"--output": None, "--family": "symmetric_s", "--start": 0.01, "--stop": 0.99,
         "--step": 0.01, "--s2": None, "--priors": (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)},
    ),
}


def _help(command: str | None) -> str:
    """The help of ``command`` (of the top level when None), usage line first."""
    if command is None:
        usage = f"qfilter [-h] {{{','.join(_COMMANDS)}}} ..."
        rows = {name: entry[1] for name, entry in _COMMANDS.items()}
    else:
        defaults = _COMMANDS[command][2]
        rows = {f"{flag} {_OPTIONS[flag][2]}": _OPTIONS[flag][3] for flag in defaults}
        shown = [name if defaults[name.split()[0]] is ... else f"[{name}]" for name in rows]
        usage = " ".join([f"qfilter {command} [-h]", *shown])
    rows = {"-h, --help": "show this help and exit", **rows}
    lines = [f"usage: {usage}", ""] + [f"  {name:<19} {text}" for name, text in rows.items()]
    return "\n".join(lines) + "\n"


def _is_value(token: str) -> bool:
    """Not an option: no leading dash, a lone dash, or a negative number."""
    return token[:1] != "-" or token == "-" or token[1:].lstrip(".")[:1].isdigit()


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` as ``<command> [--option value ...]``.

    Options come in any order, as ``--name value`` or ``--name=value``, under
    any unique prefix of their name; the last of a repeated option wins.
    ``-h``/``--help`` prints the help of the command read so far and exits 0.
    """
    rest, command, values, extras = list(argv), None, {}, []
    while rest:
        token = rest.pop(0)
        if command is None and _is_value(token):
            try:
                command = _choice(*_COMMANDS)(token)
            except _UsageError as exc:
                raise _UsageError(f"argument command: {exc}", None) from None
            values = dict(_COMMANDS[command][2])
            continue
        flag, eq, text = token.partition("=")
        flag = "--help" if flag == "-h" else flag
        known = (*values, "--help") if flag.startswith("--") and flag != "--" else ()
        found = [name for name in known if name.startswith(flag)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}", command)
        if not found:
            extras.append(token)
            continue
        if found == ["--help"]:
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        flag = found[0]
        convert, count = _OPTIONS[flag][:2]
        texts = [text] if eq else []
        while not eq and len(texts) < count and rest and _is_value(rest[0]):
            texts.append(rest.pop(0))
        expected = "one argument" if count == 1 else f"{count} arguments"
        try:
            if len(texts) != count:
                raise _UsageError(f"expected {expected}")
            converted = [convert(text) for text in texts]
        except _UsageError as exc:
            raise _UsageError(f"argument {flag}: {exc}", command) from None
        values[flag] = converted if count > 1 else converted[0]
    if command is None:
        raise _UsageError("the following arguments are required: command", None)
    missing = ", ".join(flag for flag, value in values.items() if value is ...)
    if missing:
        raise _UsageError(f"the following arguments are required: {missing}", command)
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}", None)
    options = {flag[2:]: value for flag, value in values.items()}
    return SimpleNamespace(command=command, func=_COMMANDS[command][0], **options)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        message, command = exc.args
        prog = "qfilter" if command is None else f"qfilter {command}"
        usage = _help(command).partition("\n")[0]
        print(f"{usage}\n{prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        args.func(args)
    except (QFilterError, ValueError, OverflowError) as exc:
        stage = exc.stage if isinstance(exc, _StageError) else args.command
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
