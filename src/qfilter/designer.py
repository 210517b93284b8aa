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
built in because the forbidden amplitudes vanish exactly.

Such a unitary exists iff the Gram matrix is preserved, which pins all
inner products of the success vectors: they must reproduce the Hermitian
residual matrix L built in :func:`build_L`.  The remaining freedom — which
mode hosts state 1's success amplitude, and sign flips of individual
success vectors that leave L invariant — is a discrete gauge.  :func:`design`
scores every gauge, on every input, as a signed row permutation of one
completed unitary (a lone flip of vector 2 or 3 is a gauge only where it
exchanges their two modes) and keeps the one that synthesizes into the
simplest mesh: fewest beam-splitter layers first, then the largest real
trace of the upper-left 3x3 block (the most "pass-through" network), with
deterministic tie-breaks.  Layers are counted once per row permutation,
by the nulling kernel of :mod:`qfilter.multiport` on Python rows of that
unitary; no mesh program is built for a candidate, and the winner is read
off the same rows, so a design completes one unitary.

Every step runs on Python scalars, as :data:`Row` lists, and imports no
numpy; the building blocks return rows, and only the ndarray views of a
:class:`MeasurementDesign` import numpy when first read.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

from .errors import (
    DomainError,
    InconsistentSolutionError,
    InfeasibleError,
    NoUnitaryError,
)
from .filter_core import FilterSolution, Regime, solve
from .multiport import _layer_count
from .states import Ensemble, Frozen, _least_eigenvalue, frozen_array, overlaps

__all__ = [
    "MeasurementDesign",
    "failure_phases",
    "failure_vectors",
    "build_L",
    "success_vectors",
    "embed_inputs",
    "complete_unitary",
    "design",
]

#: Total number of modes in the network (3 signal modes + 1 failure mode).
NETWORK_DIM = 4
#: Gram matrices of inputs and outputs must agree within this for a
#: connecting unitary to exist.
GRAM_TOL = 1e-8
#: The (i, j) of the Gram entries with i <= j, in row-major order.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


_VECTOR_FIELDS = ("success_vectors", "failure_vectors", "unitary", "embedded_inputs")


class MeasurementDesign(Frozen):
    """A complete, executable description of the optimal measurement.

    A vector field takes an ndarray or Python rows and keeps them as rows
    of Python ``complex`` under its name with a leading underscore, which
    the stages read; the field itself (like ``outputs``, success plus
    failure vectors) reads as a read-only ndarray built on first access.
    Each vector field must hold 3 rows of 4 entries and ``unitary`` 4, and
    ``state1_port`` must be the int 1 or 2; anything else is refused with
    :class:`DomainError` naming the field.  Designs compare by identity.

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
        Mixing angle of success vectors 2 and 3 on their shared mode pair.
    chi:
        Failure-amplitude phases (chi_1 = 0 by gauge choice).
    solution:
        The closed-form optimum the design realizes.
    embedded_inputs:
        The input states padded into the 4-mode network.
    state1_port:
        1-based mode whose click certifies the target state (1 for the
        standard placement, 2 when the swapped placement gives a simpler
        mesh).
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
            except (TypeError, ValueError):
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
        return _sums(self._success_vectors, self._failure_vectors)

    @property
    def set_ports(self) -> tuple[int, int]:
        """1-based modes whose click certifies "not the target"."""
        return tuple(m for m in (1, 2, 3) if m != self.state1_port)


#: A 4-mode vector as Python complex scalars, with the modes unrolled: on
#: 4-vectors numpy's per-call overhead costs more than the arithmetic.  A row
#: is normalized times the reciprocal of its norm, as numpy divides by a real
#: scalar; the sampled counts of the golden artifacts depend on that rounding.
Row = list[complex]


def _sums(succ, fails) -> list[Row]:
    """The outputs ``success_i + failure_i``, entry by entry."""
    return [[a + b for a, b in zip(s, f)] for s, f in zip(succ, fails)]


def _scaled(x: float, phase: complex) -> complex:
    """``x * phase`` as numpy forms a real times a complex number: the real
    is promoted to ``complex(x, 0)``, whatever the Python version."""
    return complex(x, 0.0) * phase


def failure_phases(e: Ensemble) -> tuple[float, float, float]:
    """Phases chi of the failure amplitudes.

    The failure vectors are collinear along mode 4, so only their phases
    relative to state 1 are fixed by Gram preservation:
    ``chi_1 = 0`` (gauge), ``chi_j = arg(O1j)``.
    """
    ov = overlaps(e)
    return (0.0, cmath.phase(ov.O12), cmath.phase(ov.O13))


def failure_vectors(
    sol: FilterSolution, chi: tuple[float, float, float]
) -> tuple[Row, Row, Row]:
    """Mode-4 failure vectors ``sqrt(q_i) * e^{i chi_i} * e4``, as rows.

    ``chi`` are the phases from :func:`failure_phases`.
    """
    return tuple(
        [0j, 0j, 0j, _scaled(math.sqrt(max(q_i, 0.0)), cmath.exp(1j * chi_i))]
        for q_i, chi_i in zip(sol.failure_probabilities, chi)
    )


def build_L(
    e: Ensemble, sol: FilterSolution, chi: tuple[float, float, float]
) -> list[Row]:
    """Residual Gram matrix the success vectors must reproduce, as 3 rows.

    ``L[i][j] = <psi_i|psi_j> - <failure_i|failure_j>``, with the failure
    phases ``chi`` from :func:`failure_phases`.  For a valid solution the
    first row and column off-diagonals vanish (that is what the unitarity
    constraints on q enforce) and L is positive semidefinite.

    Raises
    ------
    InconsistentSolutionError
        If L has an eigenvalue below -1e-8, i.e. the provided solution is
        not consistent with the ensemble.
    """
    ov = overlaps(e)
    q1, q2, q3 = sol.failure_probabilities
    _, chi2, chi3 = chi
    l12 = ov.O12 - _scaled(math.sqrt(max(q1 * q2, 0.0)), cmath.exp(1j * chi2))
    l13 = ov.O13 - _scaled(math.sqrt(max(q1 * q3, 0.0)), cmath.exp(1j * chi3))
    l23 = ov.O23 - _scaled(math.sqrt(max(q2 * q3, 0.0)), cmath.exp(1j * (chi3 - chi2)))
    mat = [
        [complex(1.0 - q1, 0.0), l12, l13],
        [l12.conjugate(), complex(1.0 - q2, 0.0), l23],
        [l13.conjugate(), l23.conjugate(), complex(1.0 - q3, 0.0)],
    ]
    min_eig = _least_eigenvalue(mat)
    if min_eig < -1e-8:
        raise InconsistentSolutionError(
            "residual Gram matrix has negative eigenvalue "
            f"{min_eig:.3e}; the failure probabilities are not consistent "
            "with this ensemble"
        )
    return mat


def success_vectors(
    L: list[Row],
    q: tuple[float, ...],
    swap: bool,
    signs: tuple[int, ...],
    *,
    rank_one: bool = False,
) -> tuple[list[Row], float]:
    """Success vectors for one gauge choice, as rows; returns (vectors, theta).

    Placement: state 1's success amplitude sits alone on one mode (mode 1,
    or mode 2 when ``swap``), states 2 and 3 share the remaining two of
    the first three modes as ``sqrt(p_i) * (cos theta, +/- sin theta)``
    with ``p_i = 1 - q_i`` and ``theta = arccos(L23 / sqrt(p2*p3)) / 2``
    (a complex L23 enters by its modulus, its phase carried on vector 3).
    ``signs`` multiplies each vector by +/-1; flips of vector 1 alone and
    joint flips of vectors 2 and 3 always preserve L, while a lone flip of
    vector 2 or 3 is only admissible when L23 = 0.  When q1 = 1 the first
    vector is the zero vector: the target never produces a conclusive
    click, which is the correct boundary design.

    ``rank_one`` declares the ``VN_SMALL_OVERLAP`` regime.  There q1 = w,
    so the projector onto psi1's orthogonal complement has rank one, and
    the projector certifying the set, orthogonal to both, has rank one
    too: the success vectors of states 2 and 3 are parallel, and theta is
    exactly 0, or pi/2 when a real L23 is negative (Bergou, Herzog &
    Hillery, PRA 71, 042314, 2005).  Read off the rounded ratio instead,
    arccos would turn a 1-ulp error into theta ~ 1e-8, and the mesh would
    need two more beam splitters.  The gauge-free part is :func:`_geometry`.

    Raises
    ------
    InfeasibleError
        If |L23| exceeds sqrt(p2*p3) beyond 1e-10 (impossible for an L
        that passed :func:`build_L`).
    """
    return _placed(_geometry(L, q, rank_one), swap, signs)


def _geometry(L: list[Row], q: tuple[float, ...], rank_one: bool) -> tuple:
    """What no gauge changes: theta, sqrt(p1), sqrt(p2) and sqrt(p3) times cos and sin theta, L23's phase."""
    p = [max(1.0 - q_i, 0.0) for q_i in q]
    l23 = complex(L[1][2])
    p23 = p[1] * p[2]
    if p23 > 1e-24:
        bound = math.sqrt(p23)
        if abs(l23) > bound + 1e-10:
            raise InfeasibleError(
                f"|L23| = {abs(l23):.12g} exceeds sqrt(p2*p3) = {bound:.12g}; "
                "no pair of success vectors can realize this overlap"
            )
        if abs(l23.imag) <= 1e-12 * max(1.0, abs(l23)):
            cos2theta = min(max(l23.real / bound, -1.0), 1.0)
            phase3 = 1.0 + 0.0j
        else:
            # Complex overlap: carry its phase on vector 3 as a whole and
            # set the mixing angle from the magnitude.
            cos2theta = min(abs(l23) / bound, 1.0)
            phase3 = cmath.exp(1j * cmath.phase(l23))
        if rank_one:
            cos2theta = -1.0 if cos2theta < 0.0 else 1.0
    else:
        cos2theta, phase3 = 0.0, 1.0 + 0.0j
    theta = 0.5 * math.acos(cos2theta)
    cos, sin = math.cos(theta), math.sin(theta)
    r1, r2, r3 = (math.sqrt(p_i) for p_i in p)
    return theta, r1, r2 * cos, r2 * sin, r3 * cos, r3 * sin, phase3


def _placed(geometry: tuple, swap: bool, signs: tuple[int, ...]) -> tuple[list[Row], float]:
    """:func:`success_vectors` of gauge (swap, signs); ``s * (r * cos)`` is ``(s * r) * cos``."""
    theta, r1, c2, s2, c3, s3, phase3 = geometry
    mode1, mode_a, mode_b = (1, 0, 2) if swap else (0, 1, 2)
    v1, v2, v3 = ([0j] * NETWORK_DIM for _ in range(3))
    v1[mode1] = complex(signs[0] * r1, 0.0)
    v2[mode_a] = complex(signs[1] * c2, 0.0)
    v2[mode_b] = complex(signs[1] * s2, 0.0)
    v3[mode_a] = _scaled(signs[2] * c3, phase3)
    v3[mode_b] = _scaled(-signs[2] * s3, phase3)
    return [v1, v2, v3], theta


def embed_inputs(e: Ensemble) -> tuple[tuple[complex, ...], ...]:
    """The ensemble's states padded into the 4-mode network, as rows.

    The states may use at most 3 dimensions; mode 4 is reserved as the
    failure direction and must start unoccupied.  :func:`complete_unitary`,
    :func:`design` and :func:`qfilter.simulator.sample` all pad through this.
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


def _project_out(vec: Row, basis: list[Row]) -> Row:
    """Residual of `vec` orthogonal to `basis`, with one refinement pass.

    The second pass removes the components reintroduced by rounding in
    the first, keeping the residual orthogonal to working precision even
    when heavy cancellation occurs.
    """
    w0, w1, w2, w3 = vec
    for _ in range(2):
        for b0, b1, b2, b3 in basis:
            c = b0.conjugate() * w0 + b1.conjugate() * w1 + b2.conjugate() * w2 + b3.conjugate() * w3
            w0, w1, w2, w3 = w0 - c * b0, w1 - c * b1, w2 - c * b2, w3 - c * b3
    return [w0, w1, w2, w3]


def _orthonormal_basis(vectors: list[Row]) -> tuple[list[Row], list[int]]:
    """Gram-Schmidt in input order; returns (basis vectors, kept source indices).

    Near-dependent vectors are dropped; keeping the input order makes the
    kept-index pattern meaningful for mirroring onto a second vector set
    with the same Gram matrix.
    """
    basis: list[Row] = []
    kept: list[int] = []
    for k, vec in enumerate(vectors):
        w = _project_out(vec, basis)
        norm = _norm(w)
        if norm > 1e-10:
            basis.append([x * (1.0 / norm) for x in w])
            kept.append(k)
    return basis, kept


#: Squared-norm margin within which a pivot candidate is still projected out.
#: Not a tuning knob: any margin far above rounding picks the same pivots, and
#: a larger one only prunes less.
_PIVOT_MARGIN = 1e-8
#: The coordinate directions e_1 ... e_4, as rows.
_UNITS = ((1 + 0j, 0j, 0j, 0j), (0j, 1 + 0j, 0j, 0j), (0j, 0j, 1 + 0j, 0j), (0j, 0j, 0j, 1 + 0j))


def _complement(basis: list[Row]) -> list[Row]:
    """Orthonormal completion of an orthonormal `basis` to all 4 modes.

    Pivoted Gram-Schmidt over the coordinate directions: each round takes the
    one with the largest residual (the first on a tie), which is the
    numerically safe choice when any spanning set will do.  It stops once the
    basis spans the 4 modes.  The residual it keeps is never small: those of
    the directions not yet picked have squared norms summing to
    ``4 - len(full) >= 1``, so the largest is at least 1/2.

    The residual of e_k against an orthonormal basis has squared norm
    ``1 - m_k`` with ``m_k = sum_j |b_j[k]|^2``, read off the basis for every
    candidate at once.  Both that value and the squared norm of the two-pass
    residual that :func:`_project_out` computes equal the exact ``|P e_k|^2``
    to within a few ulp (~1e-15), because the basis is orthonormal to working
    precision.  A candidate whose ``m_k`` exceeds the least by more than
    ``_PIVOT_MARGIN`` therefore computes a residual strictly smaller than
    the least-mass candidate's, so it can neither be the largest nor tie with
    it.  Only the candidates within the margin are projected out, and the
    pick among them is the unpruned rule's.  A first one 0 in every vector so
    far (e4 of the inputs) is that pick unprojected: its own residual, norm 1.0.
    """
    full = list(basis)
    remaining = list(range(NETWORK_DIM))
    while len(full) < NETWORK_DIM:
        mass = [0.0] * NETWORK_DIM
        for a, b, c, d in full:  # left to right from 0.0, on every Python version
            mass = [mass[0] + abs(a) ** 2, mass[1] + abs(b) ** 2, mass[2] + abs(c) ** 2, mass[3] + abs(d) ** 2]
        least = min([mass[k] for k in remaining])
        pool = [k for k in remaining if mass[k] <= least + _PIVOT_MARGIN]
        empty = not any([v[pool[0]] for v in full])  # the entries: an m_k can underflow to 0.0
        residuals = [list(_UNITS[pool[0]])] if empty else [_project_out(_UNITS[k], full) for k in pool]
        norms = [_norm(w) for w in residuals]
        norm = max(norms)
        pick = norms.index(norm)
        remaining.remove(pool[pick])
        full.append([x * (1.0 / norm) for x in residuals[pick]])
    return full[len(basis):]


def _phase_fixed(col: Row) -> Row:
    """`col` with its largest-magnitude entry (the first on a tie) made real
    and positive: the rule that fixes a completion column's free phase."""
    pivot = max(col, key=abs)
    return [x / (pivot / abs(pivot)) for x in col]


def complete_unitary(e: Ensemble, outputs) -> list[Row]:
    """The 4x4 unitary mapping each embedded input to the given output, as rows.

    A linear isometry between the two triples exists iff their Gram
    matrices agree; it is extended to all 4 modes by mapping the
    orthogonal complement of the input span onto the orthogonal complement
    of the output span.  Each completion column's free phase is fixed by
    making its largest-magnitude entry real and positive, so the result is
    deterministic.

    The Gram-Schmidt work runs on :data:`Row` lists, each basis completed by
    :func:`_complement`.  Mode 4 is empty at the input, so one input frame
    vector is e4 and the others are exactly 0 there: U's column 4 is ``0j +``
    its paired output vector, and the other columns sum over the other three.
    The terms left out are exact zeros, which leave a sum from ``0j`` as it is.

    Raises
    ------
    NoUnitaryError
        If the Gram matrices differ beyond 1e-8; the message names the
        worst-offending state pair.
    """
    ins = embed_inputs(e)
    try:  # ``+x`` refuses the strings and bytes that ``complex()`` would parse.
        outs = [[complex(+x) for x in v] for v in outputs]
    except (TypeError, ValueError):
        outs = []
    if len(outs) != 3 or any(len(v) != NETWORK_DIM for v in outs):
        raise DomainError("outputs must be three 4-mode vectors")
    ov, (n1, n2, n3) = overlaps(e), [_vdot(a, a) for a in ins]
    # i <= j: a lower entry is the exact conjugate of its mirror, reached later.
    gram = (n1, ov.O12, ov.O13, n2, ov.O23, n3)
    diff = [abs(g - _vdot(outs[i], outs[j])) for g, (i, j) in zip(gram, _UPPER)]
    bad = [k for k, d in enumerate(diff) if not d <= GRAM_TOL]
    if bad:
        # The first largest difference; a NaN only when no number is too large.
        k = max(bad, key=lambda k: (diff[k] == diff[k], diff[k]))
        (i, j), worst = _UPPER[k], diff[k]
        raise NoUnitaryError(
            "no unitary maps these inputs to these outputs: inner products "
            f"of pair ({i + 1}, {j + 1}) differ by {worst:.3e} "
            f"(tolerance {GRAM_TOL:g})"
        )
    in_basis, kept = _orthonormal_basis(ins)
    out_basis: list[Row] = []
    for k in kept:
        w = _project_out(outs[k], out_basis)
        norm = _norm(w)
        out_basis.append([x * (1.0 / norm) for x in w])
    # U = sum_k |out_k><in_k| over both frames (each fills the 4 modes), summed from 0j.
    out_cols = out_basis + [_phase_fixed(w) for w in _complement(out_basis)]
    frame = in_basis + _complement(in_basis)  # the input frame; e4 is one of these
    out4 = out_cols.pop([u[3] for u in frame].index(1))
    (b0, b1, b2, _), (c0, c1, c2, _), (d0, d1, d2, _) = ([x.conjugate() for x in u] for u in frame if u[3] != 1)
    return [
        [0j + a0 * b0 + a1 * c0 + a2 * d0, 0j + a0 * b1 + a1 * c1 + a2 * d1,
         0j + a0 * b2 + a1 * c2 + a2 * d2, 0j + x]
        for (a0, a1, a2), x in zip(zip(*out_cols), out4)
    ]


def _gauge_table(lone_flips: bool) -> tuple:
    """``(perm, gauges)`` pairs: each gauge ``(swap, sign_index, signs, diag)``
    grouped by ``perm``, both in tie-break order.

    Gauge ``(swap, signs)`` has the standard-gauge outputs with rows in
    order ``perm`` and rows 1-3 negated by ``diag``.  A lone flip of vector
    2 or 3 is offered only where it is a mode exchange (``lone_flips``:
    L23 = 0 and theta = pi/4), and swaps their shared modes.
    """
    groups: dict = {}
    sign_opts = [s for s in product((1, -1), repeat=3) if lone_flips or s[1] == s[2]]
    for swap in (0, 1):
        for sign_index, signs in enumerate(sign_opts):
            s0, s1, s2 = signs
            a, b, c = (0, 1, 2) if s1 == s2 else (0, 2, 1)
            # The swapped placement exchanges the first two modes.
            perm, diag = ((b, a, c, 3), (s1, s0, s1)) if swap else ((a, b, c, 3), (s0, s1, s1))
            groups.setdefault(perm, []).append((swap, sign_index, signs, diag))
    return tuple([(perm, tuple(gauges)) for perm, gauges in groups.items()])


#: :func:`_gauge_table` by ``lone_flips``: 2 or 4 permutations of 4 gauges.
_GAUGES = {flips: _gauge_table(flips) for flips in (False, True)}


def design(e: Ensemble, sol: FilterSolution | None = None) -> MeasurementDesign:
    """Build the full measurement design for an ensemble.

    Solves for the optimal failure probabilities (unless a solution is
    supplied), constructs failure and success vectors, and completes the
    4x4 unitary.  Among the discrete gauge choices that all realize the
    same optimum — placement of state 1's success mode, and sign flips
    that leave the residual Gram matrix invariant — the design whose
    unitary factors into the fewest beam-splitter layers is selected;
    remaining ties prefer the unitary acting most nearly as a pass-through
    on the three signal modes (largest real trace of the upper-left 3x3
    block), then the standard placement and unflipped signs.

    One unitary U0 is completed in the standard gauge, for every input,
    and each candidate is scored as ``diag * U0[perm]`` on Python rows of
    it.  Diagonal phases leave the layer count unchanged, and
    :data:`_GAUGES` groups the candidates by ``perm``: layers are counted
    once per permutation, by the nulling kernel that
    :func:`qfilter.multiport.decompose` wraps (same layers, without its
    input checks or layer objects), and a permutation that has already
    lost on layers is not traced.  The trace keys and the winner's unitary
    are read from the same rows.  The winner's column 4 (its input is e4)
    then has its phase fixed again, since the flips can leave its largest
    entry negative; up to rounding, that is the completion of the winner's
    own outputs whenever the inputs span 3 modes.  In the
    ``VN_SMALL_OVERLAP`` regime theta is exactly 0 or pi/2 (the
    ``rank_one`` rule of :func:`success_vectors`); no gauge changes it.
    Each gauge's success vectors are placed from one :func:`_geometry`.
    """
    if sol is None:
        sol = solve(e)
    chi = failure_phases(e)
    fails = failure_vectors(sol, chi)
    L = build_L(e, sol, chi)
    geometry = _geometry(L, sol.failure_probabilities, sol.regime is Regime.VN_SMALL_OVERLAP)
    lone_flips = abs(L[1][2]) <= 1e-12 and abs(geometry[0] - math.pi / 4.0) <= 1e-12
    base_rows = complete_unitary(e, _sums(_placed(geometry, False, (1, 1, 1))[0], fails))
    best = (math.inf,)
    for perm, gauges in _GAUGES[lone_flips]:
        rows = [base_rows[i] for i in perm]
        layers = _layer_count(rows)
        if layers > best[0]:
            continue
        r0, r1, r2 = rows[0][0].real, rows[1][1].real, rows[2][2].real
        for swap, sign_index, signs, diag in gauges:
            # Left to right from 0.0: sum() rounds differently from Python 3.12 on.
            trace = 0.0 + diag[0] * r0 + diag[1] * r1 + diag[2] * r2
            key = (layers, round(-trace, 9), swap, sign_index)
            if key < best:
                best, winner = key, (swap, signs, diag, rows)
    swap, signs, diag, rows = winner
    rows = [row if d > 0 else [-x for x in row] for d, row in zip(diag + (1,), rows)]
    col = _phase_fixed([row[3] for row in rows])
    rows = [row[:3] + [x] for row, x in zip(rows, col)]
    return MeasurementDesign(
        success_vectors=_placed(geometry, swap, signs)[0],
        failure_vectors=fails,
        unitary=rows,
        theta=geometry[0],
        chi=chi,
        solution=sol,
        embedded_inputs=embed_inputs(e),
        state1_port=2 if swap else 1,
    )
