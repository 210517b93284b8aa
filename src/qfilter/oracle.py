"""Independent numeric verification of the closed-form optimum.

Nothing in this module reuses the closed-form branch logic: the optimum is
re-derived by exhaustive grid search over the one free parameter q1 (with
q2, q3 eliminated through the zero-error constraints and feasibility
checked via the residual operator's smallest eigenvalue), so agreement
with :func:`qfilter.filter_core.solve` is genuine cross-validation.

The module also evaluates the stationarity identities that characterize an
interior optimum (:func:`appendix_residuals`), and two comparison
quantities: the optimal failure probability of *fully identifying* which
of the three states was sent (:func:`three_state_Q`, exact to a few ulps
by a 1-D convex reduction of the positive-semidefiniteness constraint),
and the two-state bound |O12| (:func:`two_state_Q`).  Filtering asks
strictly less than identification, so its failure probability should
never exceed either.  Only :func:`brute_force_filter` imports numpy (on
first use, for its vectorized grid); the rest runs on Python scalars.
"""

from __future__ import annotations

import math

from .errors import DegenerateSubspaceError, DomainError, InfeasibleError
from .filter_core import FilterSolution, solve
from .states import Ensemble, Frozen, FrozenRecord, _cholesky, _least_eigenvalue
from .states import _overlap_gram, overlaps, parallel_component_norm2

__all__ = [
    "OracleResult",
    "ComparisonRecord",
    "brute_force_filter",
    "appendix_residuals",
    "three_state_Q",
    "two_state_Q",
    "compare",
]

#: Feasibility slack on the smallest eigenvalue of the residual operator.
PSD_SLACK = 1e-10
#: Golden-section ratio (sqrt(5) - 1) / 2 of the identification search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class OracleResult(Frozen):
    """Outcome of the brute-force search, compared by identity.

    Attributes
    ----------
    q1_star:
        Grid minimizer of the average failure probability.
    Q_star:
        Average failure at the minimizer; no feasible grid point beats it.
    grid_resolution:
        Coarse-scan step the search was run at.
    residuals:
        Absolute values of the stationarity identities evaluated at the
        minimizer (see :func:`appendix_residuals`).
    """

    _fields = ("q1_star", "Q_star", "grid_resolution", "residuals")

    def __init__(self, q1_star, Q_star, grid_resolution, residuals) -> None:
        self._store(q1_star, Q_star, grid_resolution, residuals)


class ComparisonRecord(FrozenRecord):
    """Filtering vs. identification failure probabilities, compared by their fields."""

    _fields = ("Q", "Q_prime", "Q_double_prime", "ratio", "resolution")

    def __init__(self, Q, Q_prime, Q_double_prime, ratio, resolution) -> None:
        self._store(Q, Q_prime, Q_double_prime, ratio, resolution)


def _check_resolution(resolution: float) -> float:
    resolution = float(resolution)
    if not 0.0 < resolution <= 1e-2:
        raise DomainError(
            f"resolution must lie in (0, 1e-2], got {resolution!r}"
        )
    return resolution


def brute_force_filter(e: Ensemble, resolution: float = 1e-4) -> OracleResult:
    """Minimize the average failure probability by exhaustive search.

    Scans q1 from the parallel-component lower bound up to 1 in steps of
    `resolution`, derives q2 and q3 from the zero-error constraints, keeps
    the points where the residual operator is positive semidefinite
    (smallest eigenvalue >= -1e-10, computed in closed form for the
    arrow-shaped 3x3 matrix), and refines once around the incumbent at 1%
    of the step.  The returned Q_star matches the closed-form optimum to
    roughly the resolution.

    Raises
    ------
    DomainError
        If `resolution` is outside (0, 1e-2].
    InfeasibleError
        If no grid point is feasible (impossible for a valid ensemble,
        since q1 = 1 always is; signals an upstream bug).
    """
    import numpy as np

    resolution = _check_resolution(resolution)
    ov = overlaps(e)
    a12, a13 = abs(ov.O12) ** 2, abs(ov.O13) ** 2
    eta1, eta2, eta3 = e.priors
    try:
        lower = max(parallel_component_norm2(e), a12, a13)
    except DegenerateSubspaceError:
        lower = max(a12, a13)

    def scan(lo: float, hi: float, step: float):
        grid = np.arange(lo, hi, step)
        grid = np.append(grid, hi)
        grid = grid[(grid > 0.0) & (grid <= 1.0)]
        if a12 == 0.0 and a13 == 0.0:
            grid = np.append(0.0, grid)
        q2 = np.divide(a12, grid, out=np.zeros_like(grid), where=grid > 0)
        q3 = np.divide(a13, grid, out=np.zeros_like(grid), where=grid > 0)
        m11 = 1.0 - grid
        m22, m33 = 1.0 - q2, 1.0 - q3
        m23 = ov.O23 - np.divide(
            np.conj(ov.O12) * ov.O13,
            grid,
            out=np.zeros_like(grid, dtype=complex),
            where=grid > 0,
        )
        # Smallest eigenvalue of the arrow matrix diag(m11) (+) 2x2 block.
        trace = m22 + m33
        disc = np.sqrt(np.maximum((m22 - m33) ** 2 + 4.0 * np.abs(m23) ** 2, 0.0))
        min_eig = np.minimum(m11, 0.5 * (trace - disc))
        feasible = min_eig >= -PSD_SLACK
        if not np.any(feasible):
            return None, None
        q_avg = eta1 * grid + eta2 * q2 + eta3 * q3
        q_avg = np.where(feasible, q_avg, np.inf)
        idx = int(np.argmin(q_avg))
        return float(grid[idx]), float(q_avg[idx])

    q1_coarse, q_coarse = scan(min(lower, 1.0), 1.0, resolution)
    if q1_coarse is None:
        raise InfeasibleError(
            "no feasible failure probability found; q1 = 1 should always be "
            "feasible, so the instance or search is inconsistent"
        )
    q1_star, q_star = q1_coarse, q_coarse
    fine = scan(
        max(q1_coarse - resolution, 0.0),
        min(q1_coarse + resolution, 1.0),
        resolution / 100.0,
    )
    if fine[1] is not None and fine[1] < q_star:
        q1_star, q_star = fine
    q2_star = a12 / q1_star if q1_star > 0 else 0.0
    q3_star = a13 / q1_star if q1_star > 0 else 0.0
    residuals = _identity_residuals(e, (q1_star, q2_star, q3_star))
    return OracleResult(q1_star, q_star, resolution, residuals)


def _identity_residuals(
    e: Ensemble, q: tuple[float, float, float]
) -> dict[str, float]:
    ov = overlaps(e)
    mag12, mag13 = abs(ov.O12), abs(ov.O13)
    q1, q2, q3 = q
    d12 = q1 * q2 - mag12**2
    d13 = q1 * q3 - mag13**2
    if q1 > 0.0:
        # Determinant of the failure Gram matrix at the stationary phase,
        # with the off-diagonal magnitude r pinned by r*q1 = |O12||O13|.
        r = mag12 * mag13 / q1
        delta = (
            q1 * q2 * q3
            - r * r * q1
            - mag13**2 * q2
            - mag12**2 * q3
            + 2.0 * mag12 * mag13 * r
        )
    else:
        delta = 0.0
    eta1, eta2, eta3 = e.priors
    stationarity = eta1 * q1 * q1 - eta2 * mag12**2 - eta3 * mag13**2
    eta23 = eta2 * eta3
    if eta23 > 0.0:
        inv_lambda = math.sqrt(max(d12, 0.0) * max(d13, 0.0) / eta23)
    else:
        inv_lambda = 0.0
    return {
        "delta": float(abs(delta)),
        "delta_12": float(abs(d12)),
        "delta_13": float(abs(d13)),
        "stationarity": float(abs(stationarity)),
        "inv_lambda": float(abs(inv_lambda)),
    }


def appendix_residuals(e: Ensemble, sol: FilterSolution) -> dict[str, float]:
    """Stationarity identities evaluated at a closed-form solution.

    Returns absolute residuals of:

    * ``delta`` — the 3x3 determinant of the failure Gram matrix at the
      optimal relative phase, which must vanish at any zero-error optimum;
    * ``delta_12``, ``delta_13`` — the zero-error constraints
      ``q1*q2 - |O12|^2`` and ``q1*q3 - |O13|^2``;
    * ``stationarity`` — ``eta1*q1^2 - eta2*|O12|^2 - eta3*|O13|^2``,
      which vanishes only at an interior (POVM-regime) optimum and is
      reported nonzero at the boundary optima;
    * ``inv_lambda`` — ``sqrt(delta_12 * delta_13 / (eta2*eta3))``, the
      finite reciprocal of the constraint multiplier, zero at the optimum.
    """
    return _identity_residuals(e, sol.failure_probabilities)


def three_state_Q(e: Ensemble) -> float:
    """Optimal failure probability for fully identifying the state.

    Unambiguous three-way identification requires linearly independent
    states and failure probabilities q in [0, 1]^3 making the matrix F with
    diagonal q and off-diagonal overlaps O_ij positive semidefinite.  That
    set is convex and the objective eta.q linear, so the minimum over
    (q2, q3) at fixed q1 is a convex function of q1, and it has a closed
    form: with d = q1*q2 - |O12|^2 and K = |q1*O23 - conj(O12)*O13|^2,
    F >= 0 reduces to q1*q3 - |O13|^2 >= K/d, and the best d is
    sqrt(eta3*K/eta2) clamped to the box q2, q3 <= 1.  The outer convex
    problem over q1 in [|P psi1|^2, 1] (P projecting onto span(psi2,
    psi3), below which F cannot be PSD) is solved by golden-section search
    (Kiefer 1953) until the next point is not strictly inside the bracket
    in floating point; the least value evaluated, ends included, is exact
    to a few ulps, also on a kink.  Orthogonal triples return exactly 0.

    Raises
    ------
    DomainError
        If the states are linearly dependent (Gram matrix G - 1e-8*I not
        positive definite).
    """
    ov = overlaps(e)
    gram = _overlap_gram(ov.O12, ov.O13, ov.O23)
    if _cholesky(gram, 1e-8) is None:
        raise DomainError(
            "states are linearly dependent (Gram matrix eigenvalue "
            f"{_least_eigenvalue(gram):.3e}); exact identification of all three is impossible"
        )
    a12, a13, a23 = abs(ov.O12) ** 2, abs(ov.O13) ** 2, abs(ov.O23) ** 2
    if max(a12, a13, a23) < 1e-28:
        return 0.0
    eta1, eta2, eta3 = e.priors
    o23, c = ov.O23, ov.O12.conjugate() * ov.O13
    sqrt, inf = math.sqrt, math.inf
    d_ratio = sqrt(eta3 / eta2) if eta2 > 0.0 else inf
    a_term = eta2 * a12 + eta3 * a13

    def g(q1: float) -> float:
        # In units of q1 (x2 = d/q1, k2 = K/q1^2), so that q1 = 0, reachable
        # only when O12 = O13 = 0 and hence c = 0, is the two-state limit.
        # A clip bound of k2/0 is +inf, and x2 = 0 (d = 0 < K) is infeasible.
        # x2 = min(max(d_ratio*k, k2/den), 1 - a12/q1) with the ties of the
        # builtins, written out: each call costs more than the arithmetic.
        inv = 1.0 / q1 if q1 > 0.0 else 0.0
        k = abs(o23 - c * inv)
        k2, inner = k * k, 0.0
        if k2 > 0.0:
            den = 1.0 - a13 * inv
            x2 = inf
            if den:
                x2, clip = d_ratio * sqrt(k2), k2 / den
                if clip > x2:
                    x2 = clip
            cap = 1.0 - a12 * inv
            if cap < x2:
                x2 = cap
            inner = eta2 * x2 + eta3 * k2 / x2 if x2 else inf
        return eta1 * q1 + a_term * inv + inner

    # (q1 - |O12|^2)(q1 - |O13|^2) >= K holds exactly for q1 >= |P psi1|^2.
    lo = (a12 + a13 - 2.0 * (o23 * c.conjugate()).real) / (1.0 - a23)
    a, b = min(max(lo, a12, a13), 1.0), 1.0
    if a == 0.0:  # O12 = O13 = 0, so g(q1) = eta1*q1 + g(0)
        return g(a)
    x, y = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    gx, gy = g(x), g(y)
    best = min(g(a), g(b), gx, gy)
    while a < x < y < b:
        if gx <= gy:  # convex: the minimum lies in [a, y]
            b, y, gy = y, x, gx
            x = b - _INV_PHI * (b - a)
            gx = g(x)
            if gx < best:
                best = gx
        else:
            a, x, gx = x, y, gy
            y = a + _INV_PHI * (b - a)
            gy = g(y)
            if gy < best:
                best = gy
    return best


def two_state_Q(e: Ensemble) -> float:
    """Optimal two-state discrimination failure probability |O12|.

    The equal-prior bound for unambiguously telling psi1 from psi2 alone;
    used as the second comparison baseline.
    """
    return float(abs(overlaps(e).O12))


def compare(e: Ensemble, resolution: float = 1e-3) -> ComparisonRecord:
    """Filtering vs. identification vs. pairwise discrimination.

    Returns the filtering optimum Q, the three-way identification optimum
    Q' (exact to a few ulps), the two-state bound Q'', and the ratio Q/Q'.
    Filtering is never harder than identification, so the ratio is at most
    1 up to rounding; for a perfectly distinguishable (orthogonal) triple
    all quantities vanish and the ratio is defined as 1.  `resolution`
    changes no value: it is checked to lie in (0, 1e-2] and recorded.
    """
    resolution = _check_resolution(resolution)
    q_filter = solve(e).Q
    q_identify = three_state_Q(e)
    q_pairwise = two_state_Q(e)
    if q_identify <= 1e-12:
        ratio = 1.0
    else:
        ratio = q_filter / q_identify
    return ComparisonRecord(
        Q=float(q_filter),
        Q_prime=float(q_identify),
        Q_double_prime=float(q_pairwise),
        ratio=float(ratio),
        resolution=resolution,
    )
