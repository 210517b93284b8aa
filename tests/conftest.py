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
    Ensemble,
    FilterSolution,
    MeasurementDesign,
    build_L,
    complete_unitary,
    decompose,
    embed_inputs,
    failure_phases,
    failure_vectors,
    overlaps,
)
from qfilter.designer import _success_vectors

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


def exhaustive_design(e: Ensemble, sol: FilterSolution) -> MeasurementDesign:
    """Independent gauge-search oracle: complete and factor every candidate.

    Builds the success vectors, completes the 4x4 unitary and decomposes it
    for each of the 8 gauge candidates (2 placements x 4 sign patterns that
    leave L invariant), or 16 when L23 vanishes and lone flips of vector 2
    or 3 are allowed too.  The winner has the fewest beam-splitter layers,
    then the largest real trace of the upper-left 3x3 block, then the
    standard placement, then the lowest sign index.
    """
    q = (sol.q1, sol.q2, sol.q3)
    fail_vecs = failure_vectors(e, sol)
    residual_gram = build_L(e, sol)
    if abs(residual_gram[1, 2]) <= 1e-12:
        sign_opts = [
            (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
            (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
        ]
    else:
        sign_opts = [(1, 1, 1), (1, -1, -1), (-1, 1, 1), (-1, -1, -1)]
    best_key = None
    best = None
    for swap in (False, True):
        for sign_index, signs in enumerate(sign_opts):
            succ, theta = _success_vectors(residual_gram, q, swap, signs)
            outs = [s + f for s, f in zip(succ, fail_vecs)]
            unitary = complete_unitary(e, outs)
            program = decompose(unitary)
            trace3 = sum(unitary[i, i].real for i in range(3))
            key = (len(program.layers), round(-trace3, 9), int(swap), sign_index)
            if best_key is None or key < best_key:
                best_key = key
                best = (succ, unitary, theta, swap)
    succ, unitary, theta, swap = best
    return MeasurementDesign(
        success_vectors=tuple(succ),
        failure_vectors=fail_vecs,
        unitary=unitary,
        theta=float(theta),
        chi=failure_phases(e),
        solution=sol,
        embedded_inputs=embed_inputs(e),
        state1_port=2 if swap else 1,
    )
