"""Shared builders for the test suite.

The two benchmark instances used throughout:

* the *symmetric triple* family — three real states with all pairwise
  overlaps equal to ``s``, realized in 3-D, for which the optimal
  failure probabilities have simple closed forms on both sides of the
  measurement-regime switch at ``s = sqrt(2)/2``;
* the *fifty-fifty instance* — overlaps ``(sqrt(2)/3, sqrt(2)/3, 1/3)``,
  whose optimal measurement synthesizes to exactly two 50-50 beam
  splitters.

Expected output vectors and 4x4 unitaries for both are written out in
closed form so tests compare against independently constructed targets
rather than against the code under test.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

from qfilter import (
    DegeneratePriorError,
    DegenerateSubspaceError,
    DomainError,
    Ensemble,
    FilterSolution,
    InternalConsistencyError,
    MeasurementDesign,
    NoUnitaryError,
    OverlapSet,
    Regime,
    decompose,
    overlaps,
    parallel_component_norm2,
)
from qfilter.designer import (
    GRAM_TOL,
    NETWORK_DIM,
    build_L,
    embed_inputs,
    failure_phases,
    failure_vectors,
    success_vectors,
)
from qfilter.filter_core import _classify
from qfilter.states import SUBSPACE_TOL

FIXTURES_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

EQUAL_PRIORS = np.array([1.0, 1.0, 1.0]) / 3.0

RT2 = math.sqrt(2.0)


def symmetric_states(s: float) -> list[np.ndarray]:
    """Real 3-D triple with every pairwise overlap equal to ``s``."""
    a = math.sqrt((1.0 + 2.0 * s) / 3.0)
    b = math.sqrt(2.0 / 3.0) * math.sqrt(1.0 - s)
    c = math.sqrt(1.0 - s) / math.sqrt(6.0)
    d = math.sqrt(1.0 - s) / math.sqrt(2.0)
    return [
        np.array([a, b, 0.0]),
        np.array([a, -c, d]),
        np.array([a, -c, -d]),
    ]


def symmetric_ensemble(s: float, priors=EQUAL_PRIORS) -> Ensemble:
    return Ensemble(tuple(symmetric_states(s)), np.asarray(priors, dtype=float))


def symmetric_expected_outputs(s: float) -> list[np.ndarray]:
    """Optimal 4-mode output vectors for the symmetric triple, s <= 1/sqrt2.

    State 1 succeeds into mode 2 alone; states 2 and 3 share modes 1 and 3
    symmetrically; everything fails into mode 4.
    """
    return [
        np.array([0.0, math.sqrt(1.0 - RT2 * s), 0.0, math.sqrt(s * RT2)]),
        np.array(
            [
                math.sqrt((1.0 + s - s * RT2) / 2.0),
                0.0,
                math.sqrt((1.0 - s) / 2.0),
                math.sqrt(s / RT2),
            ]
        ),
        np.array(
            [
                math.sqrt((1.0 + s - s * RT2) / 2.0),
                0.0,
                -math.sqrt((1.0 - s) / 2.0),
                math.sqrt(s / RT2),
            ]
        ),
    ]


def symmetric_expected_unitary(s: float) -> np.ndarray:
    """Closed-form 4x4 unitary realizing the optimal symmetric-triple filter."""
    A = math.sqrt((1.0 - s) * (1.0 + 2.0 * s))
    B = math.sqrt(1.0 - s * RT2)
    C = math.sqrt(1.0 + s - s * RT2)
    rt = math.sqrt(s * RT2)
    return np.array(
        [
            [
                math.sqrt(2.0 / 3.0) * C / math.sqrt(1.0 + 2.0 * s),
                -C / math.sqrt(3.0 * (1.0 - s)),
                0.0,
                -B / A * rt,
            ],
            [
                B / math.sqrt(3.0 * (1.0 + 2.0 * s)),
                math.sqrt(2.0 / 3.0) * B / math.sqrt(1.0 - s),
                0.0,
                -C / A * rt,
            ],
            [0.0, 0.0, 1.0, 0.0],
            [
                (RT2 + 1.0) * rt / math.sqrt(3.0 * (1.0 + 2.0 * s)),
                (RT2 - 1.0) * rt / math.sqrt(3.0 * (1.0 - s)),
                0.0,
                B * C / A,
            ],
        ],
        dtype=complex,
    )


def fifty_fifty_states() -> list[np.ndarray]:
    return [
        np.array([math.sqrt(2.0 / 3.0), 0.0, 1.0 / math.sqrt(3.0)]),
        np.array([0.0, 1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0)]),
        np.array([0.0, -1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0)]),
    ]


def fifty_fifty_ensemble() -> Ensemble:
    return Ensemble(tuple(fifty_fifty_states()), EQUAL_PRIORS.copy())


def fifty_fifty_expected_outputs() -> list[np.ndarray]:
    r3 = 1.0 / math.sqrt(3.0)
    return [
        np.array([r3, 0.0, 0.0, math.sqrt(2.0 / 3.0)]),
        np.array([0.0, r3, r3, r3]),
        np.array([0.0, -r3, r3, r3]),
    ]


def fifty_fifty_expected_unitary() -> np.ndarray:
    r2 = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [r2, 0.0, 0.0, -r2],
            [0.0, 1.0, 0.0, 0.0],
            [-0.5, 0.0, r2, -0.5],
            [0.5, 0.0, r2, 0.5],
        ],
        dtype=complex,
    )


def orthogonal_ensemble() -> Ensemble:
    r = math.sqrt(0.5)
    return Ensemble(
        (
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, r, r]),
            np.array([0.0, r, -r]),
        ),
        EQUAL_PRIORS.copy(),
    )


def random_ensemble(rng: np.random.Generator, dim: int = 3) -> Ensemble:
    """Unstructured random complex ensemble with Dirichlet priors."""
    z = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    states = tuple(v / np.linalg.norm(v) for v in z)
    return Ensemble(states, rng.dirichlet([1.0, 1.0, 1.0]))


def coplanar_ensemble(rng: np.random.Generator, in_span: bool) -> Ensemble:
    """Random 3-D ensemble of rank 2, real in one draw out of three.

    With ``in_span`` psi1 is a random combination of psi2 and psi3;
    otherwise all three states are random vectors of one random plane.
    """
    z = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    if rng.random() < 1.0 / 3.0:
        z = z.real + 0j
    if in_span:
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        states = [a * z[0] + b * z[1], z[0], z[1]]
    else:
        plane, _ = np.linalg.qr(z.T)
        coeffs = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        states = [plane @ c for c in coeffs]
    return Ensemble(
        tuple(v / np.linalg.norm(v) for v in states), rng.dirichlet([1.0, 1.0, 1.0])
    )


def stratified_random_ensembles(count: int, seed: int) -> list[Ensemble]:
    """Random ensembles biased to hit all three measurement regimes.

    Every fourth draw is pushed toward large overlaps (a shared base
    vector plus a small perturbation), and every fourth toward a nearly
    coplanar triple with a dominant first prior; the rest are
    unstructured.  With seed 20260816 and count 200 all three regimes
    appear well over ten times each.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        mode = k % 4
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if mode == 1:
            base = rng.normal(size=3) + 1j * rng.normal(size=3)
            z = 0.25 * z + base[None, :]
        if mode == 2:
            z[0] = z[1] + z[2] + 0.1 * z[0]
        states = tuple(v / np.linalg.norm(v) for v in z)
        priors = rng.dirichlet([1.0, 1.0, 1.0])
        if mode == 2:
            priors = (
                np.array([0.9, 0.05, 0.05])
                if rng.random() < 0.5
                else rng.dirichlet([8.0, 1.0, 1.0])
            )
        out.append(Ensemble(states, priors))
    return out


def grid_three_state_Q(e: Ensemble, resolution: float = 1e-3) -> float:
    """Independent grid oracle for the three-state identification optimum.

    Scans (q1, q2) on a grid of the given step, eliminates q3 through the
    determinant condition det F = 0 (F with diagonal q and off-diagonal
    overlaps), keeps the points where F is positive semidefinite, and
    refines once around the incumbent at 1/50 of the step.  Every kept
    point is feasible up to a 1e-9 slack on the minors, so the result can
    only lie above the true optimum (by roughly the resolution).
    """
    ov = overlaps(e)
    a12, a13, a23 = abs(ov.O12) ** 2, abs(ov.O13) ** 2, abs(ov.O23) ** 2
    cross = 2.0 * (ov.O12 * ov.O23 * np.conj(ov.O13)).real
    eta = [float(x) for x in e.priors]

    def scan(lo1, hi1, lo2, hi2, step):
        g1 = np.arange(max(lo1, step), min(hi1, 1.0) + step / 2.0, step)
        g2 = np.arange(max(lo2, step), min(hi2, 1.0) + step / 2.0, step)
        if g1.size == 0 or g2.size == 0:
            return None
        mesh1, mesh2 = np.meshgrid(g1, g2, indexing="ij")
        den = mesh1 * mesh2 - a12
        with np.errstate(divide="ignore", invalid="ignore"):
            mesh3 = (mesh1 * a23 + mesh2 * a13 - cross) / den
        ok = (den > 1e-15) & np.isfinite(mesh3) & (mesh3 >= 0.0) & (mesh3 <= 1.0)
        # With the determinant pinned to zero and nonnegative diagonal, the
        # matrix is PSD iff the sum of principal 2x2 minors is nonnegative.
        minor_sum = den + (mesh1 * mesh3 - a13) + (mesh2 * mesh3 - a23)
        ok &= minor_sum >= -1e-9
        if not np.any(ok):
            return None
        avg = eta[0] * mesh1 + eta[1] * mesh2 + eta[2] * mesh3
        avg = np.where(ok, avg, np.inf)
        i, j = np.unravel_index(int(np.argmin(avg)), avg.shape)
        return float(g1[i]), float(g2[j]), float(avg[i, j])

    coarse = scan(0.0, 1.0, 0.0, 1.0, resolution)
    assert coarse is not None, "no feasible identification point on the grid"
    q1, q2, best = coarse
    fine = scan(
        q1 - resolution, q1 + resolution, q2 - resolution, q2 + resolution,
        resolution / 50.0,
    )
    if fine is not None and fine[2] < best:
        best = fine[2]
    return best


# complete_unitary and its Gram-Schmidt helpers as they stood before the
# input side was memoized per ensemble and the work moved to Python rows:
# every call orthonormalizes the inputs again in numpy, and each pivoted
# completion runs one more round after its basis is full.  The reference
# that complete_unitary() must match in accuracy and, within rounding, in
# value, and the completion of exhaustive_design().


def _reference_project_out(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    w = np.asarray(vec, dtype=complex).copy()
    for _ in range(2):
        for b in basis:
            w -= np.vdot(b, w) * b
    return w


def _reference_orthonormal_basis(
    vectors: list[np.ndarray],
    against: list[np.ndarray] | None = None,
    *,
    pivot: bool = False,
) -> tuple[list[np.ndarray], list[int]]:
    basis: list[np.ndarray] = [] if against is None else list(against)
    start = len(basis)
    kept: list[int] = []
    remaining = list(range(len(vectors)))
    while remaining:
        pool = remaining if pivot else remaining[:1]
        k, w = max(
            ((k, _reference_project_out(vectors[k], basis)) for k in pool),
            key=lambda item: float(np.linalg.norm(item[1])),
        )
        norm = float(np.linalg.norm(w))
        remaining.remove(k)
        if norm > 1e-10:
            basis.append(w / norm)
            kept.append(k)
        elif pivot:
            break  # the largest residual is negligible; nothing spans more
    return basis[start:], kept


def reference_complete_unitary(e: Ensemble, outputs) -> np.ndarray:
    """Independent re-implementation of ``complete_unitary`` (see the note above)."""
    ins = [np.asarray(v, dtype=complex) for v in embed_inputs(e)]
    outs = [np.asarray(v, dtype=complex) for v in outputs]
    if len(outs) != 3 or any(v.shape != (NETWORK_DIM,) for v in outs):
        raise DomainError("outputs must be three 4-mode vectors")
    diff = np.abs(np.conj(ins) @ np.transpose(ins) - np.conj(outs) @ np.transpose(outs))
    worst = float(diff.max())
    if worst > GRAM_TOL:
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        raise NoUnitaryError(
            "no unitary maps these inputs to these outputs: inner products "
            f"of pair ({i + 1}, {j + 1}) differ by {worst:.3e} "
            f"(tolerance {GRAM_TOL:g})"
        )
    in_basis, kept = _reference_orthonormal_basis(ins)
    out_basis: list[np.ndarray] = []
    for k in kept:
        w = _reference_project_out(outs[k], out_basis)
        out_basis.append(w / np.linalg.norm(w))
    mat = np.zeros((NETWORK_DIM, NETWORK_DIM), dtype=complex)
    for u, v in zip(in_basis, out_basis):
        mat += np.outer(v, np.conj(u))
    identity_cols = list(np.eye(NETWORK_DIM, dtype=complex))
    comp_in, _ = _reference_orthonormal_basis(identity_cols, against=in_basis, pivot=True)
    comp_out, _ = _reference_orthonormal_basis(identity_cols, against=out_basis, pivot=True)
    for z, w in zip(comp_in, comp_out):
        pivot = int(np.argmax(np.abs(w)))
        w = w / (w[pivot] / abs(w[pivot]))
        mat += np.outer(w, np.conj(z))
    return mat


def gauge_candidates(e: Ensemble, sol: FilterSolution):
    """Yield ``(swap, sign_index, success_vectors, theta, outputs)`` per gauge.

    The 8 gauge candidates are 2 placements x 4 sign patterns that leave L
    invariant, or 16 when L23 vanishes and lone flips of vector 2 or 3 are
    allowed too; they come in tie-break order.  In the VN_SMALL_OVERLAP
    regime the success vectors of states 2 and 3 are parallel, so theta is
    taken as exactly 0 or pi/2 (``rank_one``), as ``design`` takes it.
    """
    q = (sol.q1, sol.q2, sol.q3)
    chi = failure_phases(e)
    fail_vecs = failure_vectors(sol, chi)
    residual_gram = build_L(e, sol, chi)
    rank_one = sol.regime is Regime.VN_SMALL_OVERLAP
    if abs(residual_gram[1][2]) <= 1e-12:
        sign_opts = [
            (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
            (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
        ]
    else:
        sign_opts = [(1, 1, 1), (1, -1, -1), (-1, 1, 1), (-1, -1, -1)]
    for swap in (False, True):
        for sign_index, signs in enumerate(sign_opts):
            succ, theta = success_vectors(residual_gram, q, swap, signs, rank_one=rank_one)
            yield swap, sign_index, succ, theta, [np.add(s, f) for s, f in zip(succ, fail_vecs)]


def exhaustive_design(e: Ensemble, sol: FilterSolution) -> MeasurementDesign:
    """Independent gauge-search oracle: complete and factor every candidate.

    Builds the success vectors, completes the 4x4 unitary with
    ``reference_complete_unitary`` and decomposes it for each gauge
    candidate (:func:`gauge_candidates`).  The winner has the fewest
    beam-splitter layers, then the largest real trace of the upper-left 3x3
    block, then the standard placement, then the lowest sign index.
    """
    best_key = None
    best = None
    for swap, sign_index, succ, theta, outs in gauge_candidates(e, sol):
        unitary = reference_complete_unitary(e, outs)
        program = decompose(unitary)
        trace3 = sum(unitary[i, i].real for i in range(3))
        key = (len(program.layers), round(-trace3, 9), int(swap), sign_index)
        if best_key is None or key < best_key:
            best_key = key
            best = (succ, unitary, theta, swap)
    succ, unitary, theta, swap = best
    return MeasurementDesign(
        success_vectors=tuple(succ),
        failure_vectors=failure_vectors(sol, failure_phases(e)),
        unitary=unitary,
        theta=float(theta),
        chi=failure_phases(e),
        solution=sol,
        embedded_inputs=embed_inputs(e),
        state1_port=2 if swap else 1,
    )


def near_parallel_ensembles(draws: int, seed: int) -> list[Ensemble]:
    """psi3 = normalize(psi2 + eps * x) for eps = 1e-3 ... 1e-12 and 0.

    Random complex 3-D states and Dirichlet priors; every eps below about
    1e-5 puts |O23| within ``SUBSPACE_TOL`` of 1.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        for eps in [10.0**-k for k in range(3, 13)] + [0.0]:
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            z /= np.linalg.norm(z, axis=1)[:, None]
            psi3 = z[1] + eps * z[2]
            states = (z[0], z[1], psi3 / np.linalg.norm(psi3))
            out.append(Ensemble(states, rng.dirichlet([1.0, 1.0, 1.0])))
    return out


def exchange_cases() -> dict[str, list[Ensemble]]:
    """Ensembles with |O12| != |O13|, on which exchanging states 2 and 3
    must not change the bits of w: 400 stratified draws, and the answered
    draws of the near-parallel family (eps = 1e-3 and 1e-4)."""
    near = []
    for e in near_parallel_ensembles(12, 20011203):
        try:
            parallel_component_norm2(e)
        except DegenerateSubspaceError:
            continue
        near.append(e)
    cases = {"stratified": stratified_random_ensembles(400, 7), "near_parallel": near}
    return {
        name: [e for e in ens if abs(overlaps(e).O12) != abs(overlaps(e).O13)]
        for name, ens in cases.items()
    }


# Reference helpers the package does not export: the 2<->3 exchange, the
# projector onto span{psi2, psi3} (a second route to parallel_component_norm2)
# and the residual operator whose positivity decides feasibility of a q1.


def rebuilt(value, **changes):
    """A copy of the value-type instance `value` with `changes`, built by its
    constructor from every field, by keyword."""
    fields = {name: getattr(value, name) for name in type(value)._fields}
    return type(value)(**{**fields, **changes})


def embedded(e: Ensemble) -> list[np.ndarray]:
    """The ensemble's states zero-padded into the 4-mode network, as ndarrays."""
    return [np.array(s.amplitudes + (0j,) * (4 - s.dim)) for s in e.states]


def swapped_23(e: Ensemble) -> Ensemble:
    """The ensemble with states/priors 2 and 3 interchanged."""
    return Ensemble(
        (e.states[0], e.states[2], e.states[1]),
        np.array([e.priors[0], e.priors[2], e.priors[1]]),
    )


def projector_23(e: Ensemble) -> np.ndarray:
    """Orthogonal projector onto span{psi2, psi3}.

    Built from psi2 and the Gram-Schmidt complement of psi3 against psi2,
    so it is Hermitian, idempotent and of rank 2 unless psi2 and psi3 are
    parallel.
    """
    ov = overlaps(e)
    v2 = np.array(e.states[1].amplitudes)
    v3 = np.array(e.states[2].amplitudes)
    tilde3 = (v3 - ov.O23 * v2) / np.sqrt(1.0 - abs(ov.O23) ** 2)
    return np.outer(v2, np.conj(v2)) + np.outer(tilde3, np.conj(tilde3))


def m_matrix(e: Ensemble, q1: float) -> np.ndarray:
    """Residual operator whose positivity makes a candidate q1 in (0, 1] feasible.

    For the failure probabilities implied by q1 through the unitarity
    constraints, the 3x3 Hermitian matrix
    ``diag(1-q1, 1-|O12|^2/q1, 1-|O13|^2/q1)`` with off-diagonal (2,3)
    entry ``O23 - conj(O12)*O13/q1`` and zero first row/column
    off-diagonals.  q1 is feasible exactly when it is positive
    semidefinite.
    """
    ov = overlaps(e)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0 - q1
    m[1, 1] = 1.0 - abs(ov.O12) ** 2 / q1
    m[2, 2] = 1.0 - abs(ov.O13) ** 2 / q1
    m[1, 2] = ov.O23 - np.conj(ov.O12) * ov.O13 / q1
    m[2, 1] = np.conj(m[1, 2])
    return m


# The closed-form route as it stood before overlaps were memoized on the
# Ensemble: every call recomputes the overlaps, and solve() takes the 2<->3
# exchange by building swapped_23(e).  Kept verbatim as a bit-for-bit
# reference for solve().  The von_neumann_baseline() reference reads the w
# of that solve route, which is the w of the exchanged order when
# |O13| > |O12|, and falls back to eta1 + A only when w is exactly 0.


def _reference_overlaps(e: Ensemble) -> OverlapSet:
    s1, s2, s3 = e.states
    o12 = s1.inner(s2)
    o13 = s1.inner(s3)
    o23 = s2.inner(s3)
    alpha = -float(np.angle(o12 * np.conj(o13)))
    return OverlapSet(o12, o13, o23, alpha)


def _reference_parallel_component_norm2(e: Ensemble) -> float:
    ov = _reference_overlaps(e)
    if abs(ov.O23) >= 1.0 - SUBSPACE_TOL:
        raise DegenerateSubspaceError(
            f"states 2 and 3 are numerically parallel (|O23|={abs(ov.O23):.12g}); "
            "the parallel-component formula is singular"
        )
    num = (
        abs(ov.O12) ** 2
        + abs(ov.O13) ** 2
        - 2.0 * (ov.O12 * ov.O23 * np.conj(ov.O13)).real
    )
    val = num / (1.0 - abs(ov.O23) ** 2)
    return float(min(max(val, 0.0), 1.0))


def _reference_solve_ordered(e: Ensemble) -> FilterSolution:
    eta1 = float(e.priors[0])
    if eta1 <= 0.0:
        raise DegeneratePriorError(
            "the filter target has zero prior probability; the optimal "
            "failure trade-off is undefined"
        )
    ov = _reference_overlaps(e)
    a12 = abs(ov.O12) ** 2
    a13 = abs(ov.O13) ** 2
    A = float(e.priors[1] * a12 + e.priors[2] * a13)
    w = _reference_parallel_component_norm2(e)
    if A == 0.0:
        if w > 1e-12:
            raise InternalConsistencyError(
                "weighted overlap A is zero although the target state has a "
                f"component of squared norm {w:.3g} inside span{{psi2, psi3}}; "
                "this requires zero prior weight on an overlapping state and "
                "the closed-form optimum does not apply"
            )
        # Perfectly filterable: every state can be identified without failure.
        return FilterSolution(0.0, 0.0, 0.0, 0.0, Regime.POVM, 0.0, w)
    regime = _classify(A, w, eta1)
    if regime is Regime.POVM:
        q1 = float(np.sqrt(A / eta1))
        scale = float(np.sqrt(eta1 / A))
        q2, q3 = scale * a12, scale * a13
        Q = 2.0 * float(np.sqrt(eta1 * A))
    elif regime is Regime.VN_LARGE_OVERLAP:
        q1, q2, q3 = 1.0, a12, a13
        Q = eta1 + A
    else:
        q1 = w
        q2, q3 = a12 / w, a13 / w
        Q = eta1 * w + A / w
    return FilterSolution(q1, q2, q3, Q, regime, A, w)


def reference_solve(e: Ensemble) -> FilterSolution:
    """Independent re-implementation of ``solve`` (see the note above)."""
    ov = _reference_overlaps(e)
    if abs(ov.O13) > abs(ov.O12):
        sol = _reference_solve_ordered(swapped_23(e))
        return FilterSolution(
            sol.q1, sol.q3, sol.q2, sol.Q, sol.regime, sol.A, sol.parallel_norm2
        )
    return _reference_solve_ordered(e)


def reference_von_neumann_baseline(e: Ensemble) -> float:
    """Independent re-implementation of ``von_neumann_baseline``."""
    ov = _reference_overlaps(e)
    A = float(e.priors[1] * abs(ov.O12) ** 2 + e.priors[2] * abs(ov.O13) ** 2)
    if A == 0.0:
        return 0.0
    eta1 = float(e.priors[0])
    if A >= eta1:
        return eta1 + A
    w = reference_solve(e).parallel_norm2
    if w == 0.0:
        return eta1 + A
    return eta1 * w + A / w
