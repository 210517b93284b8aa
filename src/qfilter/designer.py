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
scores every gauge as a signed row permutation of one completed unitary and
keeps the one that synthesizes into the simplest mesh: fewest beam-splitter
layers first, then the largest real trace of the upper-left 3x3 block (the
most "pass-through" network), with deterministic tie-breaks.  Layers are
counted by the nulling kernel of :mod:`qfilter.multiport` on Python rows of
that unitary; no mesh program is built for a candidate.

:func:`complete_unitary` orthonormalizes the inputs (and completes their
span to all 4 modes) once per ensemble and keeps that input frame for every
later call on the same ensemble; each call then orthonormalizes only its
outputs.  Both pivoted completions stop once their basis spans the 4 modes,
and project out only the coordinate directions whose residual, read off the
basis, can be the largest.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InconsistentSolutionError,
    InfeasibleError,
    NoUnitaryError,
)
from .filter_core import FilterSolution, solve
from .multiport import _layer_count
from .states import Ensemble, gram_matrix, overlaps

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


@dataclass(frozen=True, eq=False)
class MeasurementDesign:
    """A complete, executable description of the optimal measurement.

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

    success_vectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    failure_vectors: tuple[np.ndarray, np.ndarray, np.ndarray]
    unitary: np.ndarray
    theta: float
    chi: tuple[float, float, float]
    solution: FilterSolution
    embedded_inputs: tuple[np.ndarray, np.ndarray, np.ndarray]
    state1_port: int

    @property
    def outputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full output vectors: success part plus failure part."""
        return tuple(s + f for s, f in zip(self.success_vectors, self.failure_vectors))

    @property
    def set_ports(self) -> tuple[int, int]:
        """1-based modes whose click certifies "not the target"."""
        return tuple(m for m in (1, 2, 3) if m != self.state1_port)


def failure_phases(e: Ensemble) -> tuple[float, float, float]:
    """Phases chi of the failure amplitudes.

    The failure vectors are collinear along mode 4, so only their phases
    relative to state 1 are fixed by Gram preservation:
    ``chi_1 = 0`` (gauge), ``chi_j = arg(O1j)``.
    """
    ov = overlaps(e)
    return (0.0, float(np.angle(ov.O12)), float(np.angle(ov.O13)))


def failure_vectors(e: Ensemble, sol: FilterSolution) -> tuple[np.ndarray, ...]:
    """Mode-4 failure vectors ``sqrt(q_i) * e^{i chi_i} * e4``."""
    return _failure_vectors(sol, failure_phases(e))


def _failure_vectors(
    sol: FilterSolution, chi: tuple[float, float, float]
) -> tuple[np.ndarray, ...]:
    out = tuple(np.zeros(NETWORK_DIM, dtype=complex) for _ in range(3))
    for v, q_i, chi_i in zip(out, sol.failure_probabilities, chi):
        v[3] = np.sqrt(max(q_i, 0.0)) * np.exp(1j * chi_i)
    return out


def build_L(e: Ensemble, sol: FilterSolution) -> np.ndarray:
    """Residual Gram matrix the success vectors must reproduce.

    ``L[i, j] = <psi_i|psi_j> - <failure_i|failure_j>``.  For a valid
    solution the first row and column off-diagonals vanish (that is what
    the unitarity constraints on q enforce) and L is positive
    semidefinite.

    Raises
    ------
    InconsistentSolutionError
        If L has an eigenvalue below -1e-8, i.e. the provided solution is
        not consistent with the ensemble.
    """
    return _build_L(e, sol, failure_phases(e))


def _build_L(
    e: Ensemble, sol: FilterSolution, chi: tuple[float, float, float]
) -> np.ndarray:
    ov = overlaps(e)
    q1, q2, q3 = sol.failure_probabilities
    _, chi2, chi3 = chi
    l12 = ov.O12 - np.sqrt(max(q1 * q2, 0.0)) * np.exp(1j * chi2)
    l13 = ov.O13 - np.sqrt(max(q1 * q3, 0.0)) * np.exp(1j * chi3)
    l23 = ov.O23 - np.sqrt(max(q2 * q3, 0.0)) * np.exp(1j * (chi3 - chi2))
    mat = np.array(
        [[1.0 - q1, l12, l13],
         [np.conj(l12), 1.0 - q2, l23],
         [np.conj(l13), np.conj(l23), 1.0 - q3]],
        dtype=complex,
    )
    min_eig = float(np.linalg.eigvalsh(mat).min())
    if min_eig < -1e-8:
        raise InconsistentSolutionError(
            "residual Gram matrix has negative eigenvalue "
            f"{min_eig:.3e}; the failure probabilities are not consistent "
            "with this ensemble"
        )
    return mat


def _success_vectors(
    L: np.ndarray, q: tuple[float, ...], swap: bool, signs: tuple[int, ...]
) -> tuple[list[np.ndarray], float]:
    """Build success vectors for one gauge choice; returns (vectors, theta).

    Placement: state 1's success amplitude sits alone on one mode (mode 1,
    or mode 2 when ``swap``), states 2 and 3 share the remaining two of
    the first three modes as ``sqrt(p_i) * (cos theta, +/- sin theta)``.
    ``signs`` multiplies each vector by +/-1; flips of vector 1 alone and
    joint flips of vectors 2 and 3 always preserve L, while a lone flip of
    vector 2 or 3 is only admissible when L23 = 0.
    """
    p = [max(1.0 - q_i, 0.0) for q_i in q]
    l23 = complex(L[1, 2])
    p23 = p[1] * p[2]
    if p23 > 1e-24:
        bound = np.sqrt(p23)
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
            phase3 = np.exp(1j * np.angle(l23))
    else:
        cos2theta, phase3 = 0.0, 1.0 + 0.0j
    theta = 0.5 * float(np.arccos(cos2theta))
    mode1, mode_a, mode_b = (1, 0, 2) if swap else (0, 1, 2)
    v1, v2, v3 = (np.zeros(NETWORK_DIM, dtype=complex) for _ in range(3))
    v1[mode1] = signs[0] * np.sqrt(p[0])
    v2[mode_a] = signs[1] * np.sqrt(p[1]) * np.cos(theta)
    v2[mode_b] = signs[1] * np.sqrt(p[1]) * np.sin(theta)
    v3[mode_a] = signs[2] * np.sqrt(p[2]) * np.cos(theta) * phase3
    v3[mode_b] = -signs[2] * np.sqrt(p[2]) * np.sin(theta) * phase3
    return [v1, v2, v3], theta


def success_vectors(
    L: np.ndarray,
    sol: FilterSolution,
    *,
    swap: bool = False,
    signs: tuple[int, int, int] = (1, 1, 1),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Success vectors for one explicit gauge choice.

    By default uses the standard placement (state 1 on mode 1, states 2
    and 3 mixed on modes 2 and 3 with angle
    ``theta = arccos(L23 / sqrt(p2*p3)) / 2``) and no sign flips.  When
    q1 = 1 the first vector is the zero vector: the target never produces
    a conclusive click, which is the correct boundary design.

    Raises
    ------
    InfeasibleError
        If |L23| exceeds sqrt(p2*p3) beyond 1e-10 (impossible for a
        solution that passed :func:`build_L`).
    """
    return tuple(_success_vectors(L, sol.failure_probabilities, swap, signs)[0])


def embed_inputs(e: Ensemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad the ensemble's states into the 4-mode network.

    The states may use at most 3 dimensions; mode 4 is reserved as the
    failure direction and must start unoccupied.
    """
    if e.dim > NETWORK_DIM - 1:
        raise DomainError(
            f"designs use {NETWORK_DIM} modes with mode {NETWORK_DIM} reserved "
            f"for failure; states of dimension {e.dim} do not fit"
        )
    return tuple(s.padded(NETWORK_DIM) for s in e.states)


def _project_out(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Residual of `vec` orthogonal to `basis`, with one refinement pass.

    The second pass removes the components reintroduced by rounding in
    the first, keeping the residual orthogonal to working precision even
    when heavy cancellation occurs.
    """
    w = np.asarray(vec, dtype=complex).copy()
    for _ in range(2):
        for b in basis:
            w -= np.vdot(b, w) * b
    return w


def _norm(w: np.ndarray) -> float:
    """``np.linalg.norm(w)`` of a complex vector, by numpy's own formula."""
    return math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))


def _orthonormal_basis(vectors: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Gram-Schmidt in input order; returns (basis vectors, kept source indices).

    Near-dependent vectors are dropped; keeping the input order makes the
    kept-index pattern meaningful for mirroring onto a second vector set
    with the same Gram matrix.
    """
    basis: list[np.ndarray] = []
    kept: list[int] = []
    for k, vec in enumerate(vectors):
        w = _project_out(vec, basis)
        norm = _norm(w)
        if norm > 1e-10:
            basis.append(w / norm)
            kept.append(k)
    return basis, kept


#: The coordinate directions (rows) a completion draws its complement from.
_MODE_BASIS = np.eye(NETWORK_DIM, dtype=complex)
_MODE_BASIS.setflags(write=False)
#: Squared-norm margin within which a pivot candidate is still projected out.
#: Not a tuning knob: any margin far above rounding picks the same pivots, and
#: a larger one only prunes less.
_PIVOT_MARGIN = 1e-8


def _complement(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal completion of an orthonormal `basis` to all 4 modes.

    Pivoted Gram-Schmidt over the coordinate directions: each round takes the
    one with the largest residual (the first on a tie), which is the
    numerically safe choice when any spanning set will do.  It stops once the
    basis spans the 4 modes, or when the largest residual is negligible.

    The residual of e_k against an orthonormal basis has squared norm
    ``1 - m_k`` with ``m_k = sum_j |b_j[k]|^2``, read off the basis for every
    candidate at once.  Both that value and the squared norm of the two-pass
    residual that :func:`_project_out` computes equal the exact ``|P e_k|^2``
    to within a few ulp (~1e-15), because the basis is orthonormal to working
    precision.  A candidate whose ``m_k`` exceeds the least by more than
    ``_PIVOT_MARGIN`` therefore computes a residual strictly smaller than
    the least-mass candidate's, so it can neither be the largest nor tie with
    it.  Only the candidates within the margin are projected out, and the
    pick among them is the unpruned rule's, bit for bit.
    """
    full = list(basis)
    remaining = list(range(NETWORK_DIM))
    while remaining and len(full) < NETWORK_DIM:
        rows = np.array(full)
        mass = (rows.real ** 2 + rows.imag ** 2).sum(axis=0).tolist()
        least = min(mass[k] for k in remaining)
        pool = [k for k in remaining if mass[k] <= least + _PIVOT_MARGIN]
        residuals = [(k, _project_out(_MODE_BASIS[k], full)) for k in pool]
        norms = [_norm(w) for _, w in residuals]
        norm = max(norms)
        k, w = residuals[norms.index(norm)]
        remaining.remove(k)
        if norm > 1e-10:
            full.append(w / norm)
        else:
            break  # the largest residual is negligible; nothing spans more
    return full[len(basis):]


class _InputFrame(NamedTuple):
    """The half of :func:`complete_unitary` that depends only on the inputs."""

    gram: np.ndarray
    basis: list[np.ndarray]
    kept: list[int]
    complement: list[np.ndarray]


#: One frame per ensemble, computed on first use.  Ensembles are immutable,
#: so a frame never goes stale; weak keys free it with its ensemble.
_INPUT_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _input_frame(e: Ensemble) -> _InputFrame:
    """Gram matrix, orthonormal basis and pivoted complement of the inputs."""
    frame = _INPUT_FRAMES.get(e)
    if frame is None:
        ins = [np.asarray(v, dtype=complex) for v in embed_inputs(e)]
        basis, kept = _orthonormal_basis(ins)
        frame = _InputFrame(gram_matrix(ins), basis, kept, _complement(basis))
        _INPUT_FRAMES[e] = frame
    return frame


def complete_unitary(e: Ensemble, outputs) -> np.ndarray:
    """The 4x4 unitary mapping each embedded input to the given output.

    A linear isometry between the two triples exists iff their Gram
    matrices agree; it is extended to all 4 modes by mapping the
    orthogonal complement of the input span onto the orthogonal complement
    of the output span.  Each completion column's free phase is fixed by
    making its largest-magnitude entry real and positive, so the result is
    deterministic.

    The input side (Gram matrix, orthonormal basis, pivoted complement) is
    computed once per ensemble and reused by every later call; only the
    output side is orthonormalized per call.  Both pivoted completions stop
    as soon as their basis spans the 4 modes; each round projects out only
    the coordinate directions whose residual norm, read off the basis, is
    within rounding of the largest (see :func:`_complement`).

    Raises
    ------
    NoUnitaryError
        If the Gram matrices differ beyond 1e-8; the message names the
        worst-offending state pair.
    """
    frame = _input_frame(e)
    outs = [np.asarray(v, dtype=complex) for v in outputs]
    if len(outs) != 3 or any(v.shape != (NETWORK_DIM,) for v in outs):
        raise DomainError("outputs must be three 4-mode vectors")
    diff = np.abs(frame.gram - gram_matrix(outs))
    worst = float(diff.max())
    if worst > GRAM_TOL:
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        raise NoUnitaryError(
            "no unitary maps these inputs to these outputs: inner products "
            f"of pair ({i + 1}, {j + 1}) differ by {worst:.3e} "
            f"(tolerance {GRAM_TOL:g})"
        )
    out_basis: list[np.ndarray] = []
    for k in frame.kept:
        w = _project_out(outs[k], out_basis)
        out_basis.append(w / _norm(w))
    mat = np.zeros((NETWORK_DIM, NETWORK_DIM), dtype=complex)
    for u, v in zip(frame.basis, out_basis):
        mat += np.outer(v, np.conj(u))
    for z, w in zip(frame.complement, _complement(out_basis)):
        pivot = int(np.argmax(np.abs(w)))
        w = w / (w[pivot] / abs(w[pivot]))
        mat += np.outer(w, np.conj(z))
    return mat


def _gauge_candidates(l23_free: bool):
    """Yield ``(swap, sign_index, signs, perm, diag)`` in tie-break order.

    Gauge ``(swap, signs)`` has the standard-gauge outputs with rows in
    order ``perm`` and rows 1-3 negated by ``diag``; a lone flip of vector 2
    or 3 (only when L23 = 0, so theta = pi/4) swaps their shared modes.
    """
    sign_opts = [s for s in product((1, -1), repeat=3) if l23_free or s[1] == s[2]]
    for swap in (False, True):
        modes = (1, 0, 2) if swap else (0, 1, 2)
        for sign_index, signs in enumerate(sign_opts):
            rows = (0, 1, 2) if signs[1] == signs[2] else (0, 2, 1)
            perm = tuple(rows[m] for m in modes) + (3,)
            diag = tuple((signs[0], signs[1], signs[1])[m] for m in modes)
            yield swap, sign_index, signs, perm, diag


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

    One unitary U0 is completed in the standard gauge and each candidate
    is scored as ``diag * U0[perm]`` (:func:`_gauge_candidates`) on Python
    rows: ``U0.tolist()`` is taken once and each candidate is a row-permuted
    list of it.  Diagonal phases leave the layer count unchanged, so layers
    are counted once per permutation, by the nulling kernel that
    :func:`qfilter.multiport.decompose` wraps (same layers, without its
    input checks or layer objects); the trace keys are read from the same
    rows, and only the winner is rebuilt.  Inputs spanning fewer than 3
    modes (whose pivoted completion is not permutation-equivariant) and lone
    flips at theta != pi/4 complete and count every candidate.  Every
    completion of one ensemble shares its input frame, which is computed
    once (see :func:`complete_unitary`); the rank test reads it too.
    """
    if sol is None:
        sol = solve(e)
    chi = failure_phases(e)
    fails = _failure_vectors(sol, chi)
    L = _build_L(e, sol, chi)
    inputs = embed_inputs(e)

    def build(swap, signs):
        succ, theta = _success_vectors(L, sol.failure_probabilities, swap, signs)
        return succ, theta, complete_unitary(e, [s + f for s, f in zip(succ, fails)])

    base = build(False, (1, 1, 1))
    l23_free = abs(L[1, 2]) <= 1e-12
    permutable = len(_input_frame(e).kept) == 3 and (
        not l23_free or abs(base[1] - np.pi / 4.0) <= 1e-12
    )
    base_rows = base[2].tolist()
    layer_counts: dict = {}
    scored, traces = [], []
    for swap, sign_index, signs, perm, diag in _gauge_candidates(l23_free):
        built = base if (swap, sign_index) == (False, 0) else None
        if permutable:
            rows, layers_key = [base_rows[i] for i in perm], perm
        else:
            built = built or build(swap, signs)
            rows, layers_key, diag = built[2].tolist(), (swap, sign_index), (1, 1, 1)
        if layers_key not in layer_counts:
            layer_counts[layers_key] = _layer_count(rows)
        traces.append(sum(diag[i] * rows[i][i].real for i in range(3)))
        scored.append((layer_counts[layers_key], int(swap), sign_index, signs, built))
    # One rounding over all candidates; the same values as round(-trace, 9).
    trace_keys = np.round(-np.array(traces), 9).tolist()
    _, _, swap, _, signs, built = min(
        (layers, key, swap, sign_index, signs, built)
        for key, (layers, swap, sign_index, signs, built) in zip(trace_keys, scored)
    )
    succ, theta, unitary = built or build(swap, signs)
    return MeasurementDesign(
        success_vectors=tuple(succ),
        failure_vectors=fails,
        unitary=unitary,
        theta=float(theta),
        chi=chi,
        solution=sol,
        embedded_inputs=inputs,
        state1_port=2 if swap else 1,
    )
