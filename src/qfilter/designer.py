"""Construction of an explicit measurement realizing the optimal filter.

The optimal failure probabilities from :mod:`qfilter.filter_core` are
turned into a concrete single-photon network: each input state (padded
into 4 modes) is mapped by a 4x4 unitary onto

    output_i = success_i + failure_i,

where ``failure_i = sqrt(q_i) * e^{i chi_i} * e4`` all point along mode 4
(a click there is the inconclusive outcome), the success part of state 1
occupies one dedicated mode, and the success parts of states 2 and 3 share
the remaining two modes.  A click on state 1's mode certifies "target", a
click on the shared modes certifies "not target"; zero-error operation is
built in because the forbidden amplitudes vanish.

In the two projective regimes the optimal filter is a projective
measurement (Bergou, Herzog & Hillery, PRA 71, 042314, 2005), so the
unitary is written down from the basis it measures in, one row per port.
In the POVM regime it is a Neumark dilation with the same structure: in the
frame n (orthogonal to states 2 and 3), f (state 1's part in their span)
and z (the rest of it), the unitary is ``U = C B``, where B changes to the
frame and C couples n and f with the failure mode while z passes straight
to a set port.  C follows from q1 and the frame alone.  :func:`design`
scores two placements of the ports and keeps the one that factors into
fewer beam-splitter layers (as in Reck et al., PRL 73, 58, 1994).

Every step runs on Python scalars, as :data:`Row` lists, and imports no
numpy; the building blocks return rows, and only the ndarray views of a
:class:`MeasurementDesign` import numpy when first read.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, InconsistentSolutionError, InternalConsistencyError
from .filter_core import FilterSolution, Regime, solve
from .multiport import UNITARITY_TOL, _layer_count, _unitarity_residual
from .states import Ensemble, Frozen, _entries, frozen_array, overlaps

__all__ = [
    "MeasurementDesign",
    "failure_phases",
    "embed_inputs",
    "design",
]

#: Total number of modes in the network (3 signal modes + 1 failure mode).
NETWORK_DIM = 4
#: Each port-4 probability of a design must be its q within this.
GRAM_TOL = 1e-8


_VECTOR_FIELDS = ("success_vectors", "failure_vectors", "unitary", "embedded_inputs")


class MeasurementDesign(Frozen):
    """A complete, executable description of the optimal measurement.

    The constructor validates: a vector field takes an ndarray or Python
    rows, 3 rows of 4 numbers (``unitary`` 4), kept as tuples of Python
    ``complex`` under its name with a leading underscore, which the stages
    read; ``state1_port`` must be the int 1 or 2.  Anything else is refused
    with :class:`DomainError` naming the field.  The field itself (like
    ``outputs``, success plus failure vectors) reads as a read-only ndarray
    built on first access.  :func:`design` builds its record directly from
    the rows it computed.  Designs compare by identity.

    Attributes
    ----------
    success_vectors:
        Three 4-mode vectors carrying the conclusive-outcome amplitudes;
        vector 1 is orthogonal to vectors 2 and 3, and
        ``<v_i|v_i> = 1 - q_i``.
    failure_vectors:
        Three 4-mode vectors supported on mode 4 only, with amplitudes
        ``sqrt(q_i) * e^{i chi_i}``.
    unitary:
        4x4 unitary mapping each embedded input onto
        ``success_vectors[i] + failure_vectors[i]``.
    theta:
        Mixing angle of success vectors 2 and 3 on their shared mode pair:
        ``cos(2 theta)`` is ``<v2|v3> / (|v2| |v3|)``, by modulus where it is
        complex.  Exactly 0 in ``VN_SMALL_OVERLAP``, where they share a mode.
    chi:
        Failure-amplitude phases (chi_1 = 0 by gauge choice).
    solution:
        The closed-form optimum the design realizes.
    embedded_inputs:
        The input states padded into the 4-mode network.
    state1_port:
        1-based mode whose click certifies the target state: 1 in the
        projective regimes and for placement A of a POVM-regime design, 2
        where placement B factors into fewer layers.
    """

    _fields = (
        "success_vectors", "failure_vectors", "unitary", "theta", "chi", "solution",
        "embedded_inputs", "state1_port",
    )

    def __init__(
        self, success_vectors, failure_vectors, unitary, theta, chi, solution,
        embedded_inputs, state1_port,
    ) -> None:
        vectors = (success_vectors, failure_vectors, unitary, embedded_inputs)
        for name, count, rows in zip(_VECTOR_FIELDS, (3, 3, 4, 3), vectors):
            try:  # ``+x`` refuses the strings and bytes that ``complex()`` would parse.
                rows = tuple([tuple([complex(+x) for x in row]) for row in rows])
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"{name} must be {count} rows of 4 numbers, got {rows!r}") from None
            if len(rows) != count or any(len(row) != 4 for row in rows):
                lengths = [len(row) for row in rows]
                raise DomainError(f"{name} must be {count} rows of 4 entries, got {lengths}")
            self.__dict__["_" + name] = rows
        if type(state1_port) is not int or state1_port not in (1, 2):
            raise DomainError(f"state1_port must be the int 1 or 2, got {state1_port!r}")
        self.__dict__.update(theta=theta, chi=chi, solution=solution, state1_port=state1_port)

    def __getattr__(self, name: str):
        """Build an ndarray view (a vector field or ``outputs``) on first read."""
        if name not in _VECTOR_FIELDS + ("outputs",):
            raise AttributeError(name)
        rows = self._outputs if name == "outputs" else self.__dict__["_" + name]
        view = frozen_array(rows) if name == "unitary" else tuple(map(frozen_array, rows))
        self.__dict__[name] = view
        return view

    @property
    def _outputs(self) -> list[Row]:
        return [[a + b for a, b in zip(s, f)] for s, f in zip(self._success_vectors, self._failure_vectors)]

    @property
    def set_ports(self) -> tuple[int, int]:
        """1-based modes whose click certifies "not the target"."""
        return tuple(m for m in (1, 2, 3) if m != self.state1_port)


#: A 4-mode vector as Python complex scalars, with the modes unrolled: on
#: 4-vectors numpy's per-call overhead costs more than the arithmetic.  A row
#: is normalized times the reciprocal of its norm, as numpy divides by a real
#: scalar; the sampled counts of the golden artifacts depend on that rounding.
Row = list[complex]


def failure_phases(e: Ensemble) -> tuple[float, float, float]:
    """Phases chi of the failure amplitudes.

    The failure vectors are collinear along mode 4, so only their phases
    relative to state 1 are fixed by Gram preservation:
    ``chi_1 = 0`` (gauge), ``chi_j = arg(O1j)``.
    """
    ov = overlaps(e)
    return (0.0, cmath.phase(ov.O12), cmath.phase(ov.O13))


def _cos2theta(l23: complex, p23: float) -> float:
    """cos(2 theta) from ``l23 = <v2|v3>`` and ``p23 = |v2|^2 |v3|^2``, by the
    modulus where ``l23`` is complex (theta = pi/4 where either vector vanishes)."""
    if not p23 > 1e-24:
        return 0.0
    bound = math.sqrt(p23)
    if abs(l23.imag) <= 1e-12 * max(1.0, abs(l23)):
        return min(max(l23.real / bound, -1.0), 1.0)
    return min(abs(l23) / bound, 1.0)


def embed_inputs(e: Ensemble) -> tuple[tuple[complex, ...], ...]:
    """The ensemble's states padded into the 4-mode network, as rows.

    The states may use at most 3 dimensions; mode 4 is reserved as the
    failure direction and must start unoccupied.  :func:`design` and
    :func:`qfilter.simulator.sample` pad through this.
    """
    if e.dim > NETWORK_DIM - 1:
        raise DomainError(
            f"designs use {NETWORK_DIM} modes with mode {NETWORK_DIM} reserved "
            f"for failure; states of dimension {e.dim} do not fit"
        )
    pad = (0j,) * (NETWORK_DIM - e.dim)
    return tuple([(*s.amplitudes, *pad) for s in e.states])


def _vdot(a: Row, b: Row) -> complex:
    """``<a|b>`` of two rows."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return a0.conjugate() * b0 + a1.conjugate() * b1 + a2.conjugate() * b2 + a3.conjugate() * b3


def _norm(w: Row) -> float:
    return math.sqrt(_vdot(w, w).real)


def _project_out(vec: Row, b: Row) -> Row:
    """Residual of `vec` orthogonal to the unit row `b`, with one refinement pass.

    The second pass removes the component reintroduced by rounding in the
    first, keeping the residual orthogonal to working precision even when
    heavy cancellation occurs.
    """
    w0, w1, w2, w3 = vec
    b0, b1, b2, b3 = b
    for _ in range(2):
        c = b0.conjugate() * w0 + b1.conjugate() * w1 + b2.conjugate() * w2 + b3.conjugate() * w3
        w0, w1, w2, w3 = w0 - c * b0, w1 - c * b1, w2 - c * b2, w3 - c * b3
    return [w0, w1, w2, w3]


#: The coordinate directions e_1 ... e_4, as rows.
_UNITS = ((1 + 0j, 0j, 0j, 0j), (0j, 1 + 0j, 0j, 0j), (0j, 0j, 1 + 0j, 0j), (0j, 0j, 0j, 1 + 0j))


def _phase_fixed(col: Row) -> Row:
    """`col` with its largest-magnitude entry (the first on a tie) made real
    and positive, and no entry a signed zero: the rule that fixes the free
    phase of a POVM unitary's column 4."""
    pivot = max(col, key=abs)
    return [0j + x / (pivot / abs(pivot)) for x in col]


def _cross(u: Row, v: Row) -> Row:
    """``u x v`` over the first three modes, padded: its conjugate is orthogonal to u and v."""
    u0, u1, u2, _ = u
    v0, v1, v2, _ = v
    return [u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0, 0j]


#: psi1's part orthogonal to n is read as 0 at or below this norm: two
#: projection passes leave a few ulps of ``|psi1| = 1``, in any direction.
_DUST = 1e-14


def _frame(ins) -> tuple[Row, Row]:
    """The unit vectors n and f of the frame, as rows.

    ``n = conj(psi2 x psi3)/|.|`` is orthogonal to psi2 and psi3, and f is
    psi1 with n projected out, normalized: psi1 lies in span{n, f}, and f in
    span{psi2, psi3}.  Where psi1's part off n is at rounding level (at most
    ``_DUST``; q1 = 0 for the orthogonal triple), that part's direction is
    rounding error and may lie along n itself, so f is instead the signal
    mode of least ``|n_k|`` (the last on a tie) with n projected out; psi1
    then leaks at most ``_DUST^2`` into the port of ``conj(n x f)``.  A
    ``ZeroDivisionError`` means psi2 and psi3 are parallel.
    """
    psi1, psi2, psi3 = ins
    c = _cross(psi2, psi3)
    scale = 1.0 / _norm(c)
    n = [(x * scale).conjugate() for x in c]
    p = _project_out(psi1, n)
    if not _norm(p) > _DUST:
        p = _project_out(_UNITS[min((2, 1, 0), key=lambda k: abs(n[k]))], n)
    return n, [x * (1.0 / _norm(p)) for x in p]


def _projective_unitary(ins, regime: Regime) -> list[Row]:
    """The unitary of a projective regime, as rows: row k is conj(b_k), where
    port k projects onto b_k.  With psi1 = (a, b, c), the b_k are

    * ``VN_LARGE_OVERLAP``: e4, m1 = (b*, -a*, 0)/|.| (e1 where a = b = 0),
      m2 = conj(psi1 x m1) and psi1; state 1 always fails;
    * ``VN_SMALL_OVERLAP``: n, z = conj(n x f), e4 and f, from :func:`_frame`.
    """
    if regime is Regime.VN_LARGE_OVERLAP:
        psi1 = ins[0]
        a, b = psi1[0], psi1[1]
        h = math.hypot(abs(a), abs(b))
        m1 = [b.conjugate() * (1.0 / h), -a.conjugate() * (1.0 / h), 0j, 0j] if h else list(_UNITS[0])
        return [list(_UNITS[3]), [x.conjugate() for x in m1], _cross(psi1, m1), [x.conjugate() for x in psi1]]
    n, f = _frame(ins)
    return [[x.conjugate() for x in n], _cross(n, f), list(_UNITS[3]), [x.conjugate() for x in f]]


def _povm_candidates(ins, q1: float) -> tuple[list[Row], list[Row]]:
    """Placements A and B of the POVM-regime unitary ``U = C B``, as rows.

    B changes to the frame of :func:`_frame`: its rows are conj(n), conj(z)
    with z = conj(n x f), conj(f) and e4, with n phased so that
    ``a1 = <n|psi1> >= 0``.  Then ``psi1 = a1 n + b1 f``, and ``w = b1^2`` is
    psi1's part in span{psi2, psi3}.  C maps the frame onto the ports s1
    (state 1), z, g (the other set port) and 4 (failure):

    * z passes straight to port z;
    * ``C f = (0, 0, s, y)``, with ``y = sqrt(w/q1)`` (0 where q1 = 0) and
      ``s = sqrt(1 - y^2)``;
    * ``C n = v/|v|``, ``v = (sqrt(1 - q1), 0, -sqrt(q1) y s, sqrt(q1) s^2)``,
      orthogonal to ``C f``; ``|v| = a1`` in exact arithmetic, so nothing is
      divided by a1 (e_s1 where v = 0, the q1 = 1 tie);
    * ``C e4 = C n x C f`` on the modes (s1, g, 4).

    So state 1 leaves ``sqrt(1 - q1)`` on s1 and nothing on g, states 2 and 3
    leave nothing on s1, and ``<e4|U psi_j> = y <f|psi_j>`` is
    ``sqrt(q_j) e^{i chi_j}`` where ``q1 q_j = |O1j|^2``.  Where a1 < b1,
    ``s^2`` is formed as ``(a1^2 - (1 - q1))/q1``, which keeps the forbidden
    amplitudes at rounding level as a1 -> 0, where ``1 - y^2`` would lose the
    digits of a small s.  y is at most 1: at the tie q1 = w, rounding can
    put q1 below w.

    Placement A puts the ports in the order (s1, z, g, 4) and B in the order
    (g, s1, z, 4); z's column-4 entry is exactly 0 in both.  A ``ValueError``
    from a square root means q1 lies outside [0, 1]; a q1 below w puts w,
    not q1, on state 1's port 4.
    """
    n, f = _frame(ins)
    a = _vdot(n, ins[0])
    if a:
        n = [x * (a / abs(a)) for x in n]
    n_row, f_row = [x.conjugate() for x in n], [x.conjugate() for x in f]
    a1, b1 = abs(a), abs(_vdot(f, ins[0]))
    y2 = min(b1 * b1 / q1, 1.0) if q1 else 0.0
    s2 = max((a1 * a1 - (1.0 - q1)) / q1, 0.0) if a1 < b1 else 1.0 - y2
    y, s, r = math.sqrt(y2), math.sqrt(s2), math.sqrt(q1)
    vs, vg, v4 = math.sqrt(1.0 - q1), -(r * y * s), r * s * s
    h = math.hypot(vs, vg, v4)
    cs, cg, c4 = (vs / h, vg / h, v4 / h) if h else (1.0, 0.0, 0.0)
    # The rows of ports s1, z, g and 4; column 4 is C e4.
    s1 = [cs * x for x in n_row[:3]] + [complex(cg * y - c4 * s)]
    z = _cross(n, f)
    g = [cg * x + s * u for x, u in zip(n_row[:3], f_row)] + [complex(-(cs * y))]
    p4 = [c4 * x + y * u for x, u in zip(n_row[:3], f_row)] + [complex(cs * s)]
    return [s1, z, g, p4], [g, s1, z, p4]


def _failure_probabilities(sol: FilterSolution) -> list[float]:
    """A supplied solution's (q1, q2, q3) as floats, or :class:`InconsistentSolutionError`
    unless they are 3 finite real numbers (a NaN passes every square root and
    no ``x <= tol`` gate would name it)."""
    refusal = "failure probabilities must be 3 finite real numbers"
    qs = _entries(sol.failure_probabilities, float, refusal, InconsistentSolutionError)
    if not all(map(math.isfinite, qs)):
        raise InconsistentSolutionError(f"{refusal}, got {sol.failure_probabilities!r}")
    return qs


def design(e: Ensemble, sol: FilterSolution | None = None) -> MeasurementDesign:
    """Build the full measurement design for an ensemble.

    Solves for the optimal failure probabilities unless a solution is
    supplied.  The unitary is written down: in the projective regimes
    :func:`_projective_unitary`'s, in the POVM regime the one of
    :func:`_povm_candidates` whose placement factors into fewer layers (as
    :func:`qfilter.multiport.decompose` counts them; B wins only on strictly
    fewer).  Then every POVM row of ports 1-3 whose diagonal entry has a
    real part below 0 (at 9 decimals) is negated, which maximizes the real
    trace and changes no layer count, and column 4, which no input reaches,
    has its largest entry (the first on a tie) made real and positive.  The
    success and failure vectors are the signal part and the mode-4 part of U
    times each input (summed from ``0j`` in mode order, as
    :func:`qfilter.simulator.port_probabilities` sums them), and theta is
    read off ``<v2|v3>``.

    Raises
    ------
    InconsistentSolutionError
        If a supplied solution does not fit the ensemble: a q is not a
        finite real number, states 2 and 3 are parallel, q1 lies outside [0, 1] in the POVM regime, or a
        port-4 probability is off q by more than ``GRAM_TOL``.
    InternalConsistencyError
        If the unitary is off unitarity by more than ``UNITARITY_TOL``.
    """
    if sol is None:
        sol = solve(e)
        qs = sol.failure_probabilities  # solve's own floats need no parse
    else:
        qs = _failure_probabilities(sol)
    chi, ins = failure_phases(e), embed_inputs(e)
    swap = False
    try:
        if sol.regime is Regime.POVM:
            cand_a, cand_b = _povm_candidates(ins, qs[0])
            swap = _layer_count(cand_b) < _layer_count(cand_a)
            # 0j - x: a flipped 0 stays +0.
            rows = [[0j - x for x in row] if k < 3 and round(row[k].real, 9) < 0.0 else row
                    for k, row in enumerate(cand_b if swap else cand_a)]
            unitary = [[*row[:3], x] for row, x in zip(rows, _phase_fixed([row[3] for row in rows]))]
        else:
            unitary = _projective_unitary(ins, sol.regime)
    except (ZeroDivisionError, ValueError):  # psi2 parallel to psi3, or q1 outside [0, 1]
        raise InconsistentSolutionError(f"no {sol.regime.value} measurement fits this ensemble") from None
    if not (residual := _unitarity_residual(unitary)) <= UNITARITY_TOL:
        raise InternalConsistencyError(f"the unitary has unitarity residual {residual:.3e}")
    outs = [[0j + u0 * x0 + u1 * x1 + u2 * x2 + u3 * x3 for u0, u1, u2, u3 in unitary] for x0, x1, x2, x3 in ins]
    gaps = [abs(out[3].real ** 2 + out[3].imag ** 2 - q) for out, q in zip(outs, qs)]
    if not all([gap <= GRAM_TOL for gap in gaps]):
        raise InconsistentSolutionError(f"failure-port probabilities are off q by up to {max(gaps):.3e} "
                                        f"(tolerance {GRAM_TOL:g}); the solution does not fit this ensemble")
    succ, fails = [out[:3] + [0j] for out in outs], [[0j, 0j, 0j, out[3]] for out in outs]
    _, v2, v3 = succ
    small = sol.regime is Regime.VN_SMALL_OVERLAP  # v2 and v3 share port 2: theta is exactly 0
    theta = 0.5 * math.acos(1.0 if small else _cos2theta(_vdot(v2, v3), _vdot(v2, v2).real * _vdot(v3, v3).real))
    return MeasurementDesign._built(
        _success_vectors=tuple(map(tuple, succ)),
        _failure_vectors=tuple(map(tuple, fails)),
        _unitary=tuple(map(tuple, unitary)),
        theta=theta,
        chi=chi,
        solution=sol,
        _embedded_inputs=ins,
        state1_port=2 if swap else 1,
    )
