"""Independent numeric verification of the closed-form optimum.

Nothing in this module reuses the closed-form branch logic: the optimum is
re-derived by exhaustive grid search over the one free parameter q1 (with
q2, q3 eliminated through the zero-error constraints and feasibility
checked via the residual operator's smallest eigenvalue), so agreement
with :func:`qfilter.filter_core.solve` is genuine cross-validation.

The module also evaluates the stationarity identities that characterize an
interior optimum (:func:`appendix_residuals`), and two comparison
quantities: the optimal failure probability of *fully identifying* which
of the three states was sent (:func:`three_state_Q`: gated on LDL pivots,
exact to a few ulps by a 1-D convex reduction of the positive-
semidefiniteness constraint, read off its kink by value or found by a
bracketed search on its slope that stops at the kink), and the two-state
failure |O12| (:func:`two_state_Q`), which bounds neither optimum.
Filtering asks strictly less than identification, so its failure
probability should never exceed the latter.  Only :func:`brute_force_filter`
imports numpy (on first use, for its vectorized grid); the rest runs on
Python scalars.
"""

from __future__ import annotations

import math

from .errors import DegenerateSubspaceError, DomainError, InfeasibleError
from .filter_core import FilterSolution, solve
from .states import Ensemble, Frozen, FrozenRecord, _least_eigenvalue, _overlap_gram
from .states import overlaps, parallel_component_norm2

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
        self.__dict__.update(
            q1_star=q1_star, Q_star=Q_star, grid_resolution=grid_resolution, residuals=residuals
        )


class ComparisonRecord(FrozenRecord):
    """Filtering vs. identification failure probabilities, compared by their fields."""

    _fields = ("Q", "Q_prime", "Q_double_prime", "ratio", "resolution")

    def __init__(self, Q, Q_prime, Q_double_prime, ratio, resolution) -> None:
        self.__dict__.update(
            Q=Q, Q_prime=Q_prime, Q_double_prime=Q_double_prime, ratio=ratio, resolution=resolution
        )


def _check_resolution(resolution: float) -> float:
    """``resolution`` as a float in (0, 1e-2]; ``+x`` refuses the strings and
    bytes that ``float()`` would parse, as every other numeric input does."""
    try:
        value = float(+resolution)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not 0.0 < value <= 1e-2:
        raise DomainError(f"resolution must lie in (0, 1e-2], got {resolution!r}")
    return value


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
    problem g(q1) over q1 in [a, 1], a = |P psi1|^2 (P projecting onto
    span(psi2, psi3), below which F cannot be PSD), has a kink at
    q0 = conj(O12)*O13/O23, where K = 0.  If q0 is real and a < q0 < 1, no
    clamp binds near q0, so there g = eta1*q1 + A'/q1 + 2*sqrt(eta2*eta3)*
    |O23|*|q1 - q0|/q1 with A' = eta2*|O12|^2 + eta3*|O13|^2, and its
    one-sided slopes at q0 are eta1 - A'/q0^2 -/+ 2*sqrt(eta2*eta3)*|O23|/q0.
    If they strictly bracket zero, q0 is a local, hence (g convex) global,
    minimum; rounding can put the least float value of g an ulp or two off
    q0, so the least g, valued without its slope, over q0 and the two
    floats on each side of it in [a, 1] is returned.  Otherwise the minimum
    lies in [a, q0] if both slopes are positive, in [q0, 1] if both are
    negative (g' has no jump there, and at q0, where float K is dust, they
    stand in for g's), else in [a, 1].  It is where the nondecreasing right
    derivative g'(q1), evaluated with g, changes sign: at the left end if
    g' >= 0 there, at the right end if g' <= 0 there, else inside, found
    by regula falsi with the Illinois modification (superlinear; Dowell &
    Jarratt 1971), bisecting where g' is undefined because g(a) = inf,
    until the next point is not strictly inside the bracket in floating
    point.  The least value evaluated, ends included, is exact to a few
    ulps.  Orthogonal triples return exactly 0.

    Raises
    ------
    DomainError
        If the states are linearly dependent: an LDL pivot of G - 1e-8*I, G
        the Gram matrix, is not positive (pivots decide definiteness with a
        backward error of order u*||G||, unlike a determinant; Higham 2002).
    """
    ov = overlaps(e)
    a12, a13, a23 = abs(ov.O12) ** 2, abs(ov.O13) ** 2, abs(ov.O23) ** 2
    o23, c = ov.O23, ov.O12.conjugate() * ov.O13
    p1 = 1.0 - 1e-8  # the first LDL pivot of G - 1e-8*I; the other two follow
    p2 = p1 - a12 / p1
    if not (p2 > 0.0 and p1 - a13 / p1 - abs(o23 - c / p1) ** 2 / p2 > 0.0):
        raise DomainError(
            "states are linearly dependent (Gram matrix eigenvalue "
            f"{_least_eigenvalue(_overlap_gram(ov.O12, ov.O13, o23)):.3e}); "
            "exact identification of all three is impossible"
        )
    if max(a12, a13, a23) < 1e-28:
        return 0.0
    eta1, eta2, eta3 = e.priors
    sqrt, inf = math.sqrt, math.inf
    d_ratio = sqrt(eta3 / eta2) if eta2 > 0.0 else inf
    a_term = eta2 * a12 + eta3 * a13
    kink_slope, cr2, ci2 = 2.0 * sqrt(eta2 * eta3) * abs(c), 2.0 * c.real, 2.0 * c.imag

    def g(q1: float, slope: bool = True):
        # In units of q1 (x2 = d/q1, k2 = K/q1^2), so that q1 = 0, reachable
        # only when O12 = O13 = 0 and hence c = 0, is the two-state limit.
        # A clip bound of k2/0 is +inf, and x2 = 0 (d = 0 < K) is infeasible.
        # x2 = min(max(d_ratio*k, k2/den), 1 - a12/q1) with the ties of the
        # builtins, written out: each call costs more than the arithmetic.
        # Returns g(q1) and, if `slope`, its right derivative on the clamp that
        # binds just above q1, chosen by the unclamped x2: at q1 = a both bounds meet.
        inv = 1.0 / q1 if q1 > 0.0 else 0.0
        w = o23 - c * inv
        k = abs(w)
        k2, s, inner = k * k, inv * inv, 0.0
        if k2 > 0.0:
            den, free, cap = 1.0 - a13 * inv, d_ratio * sqrt(k2), 1.0 - a12 * inv
            clip = k2 / den if den else inf
            x2 = clip if clip > free else free
            if cap < x2:
                x2 = cap
            inner = eta2 * x2 + eta3 * k2 / x2 if x2 else inf
        value = eta1 * q1 + a_term * inv + inner
        if not slope:
            return value
        dk2 = (w.real * cr2 + w.imag * ci2) * s  # d(k2)/dq1
        if not k2:  # at the kink k grows as |c|*(q1' - q1)/q1^2 on the free branch
            d_inner = kink_slope * s
        elif not x2:  # no slope: a NaN makes the search bisect
            d_inner = math.nan
        elif free >= cap:
            d_inner = eta2 * a12 * s + eta3 * (dk2 - k2 / x2 * a12 * s) / x2
        elif free <= clip < inf:
            d_inner = eta2 * (dk2 - clip * a13 * s) / den + eta3 * a13 * s
        else:  # free: d(inner)/dx2 = 0
            d_inner = eta3 * dk2 / x2
        return value, eta1 - a_term * s + d_inner

    # (q1 - |O12|^2)(q1 - |O13|^2) >= K holds exactly for q1 >= |P psi1|^2.
    lo = (a12 + a13 - 2.0 * (o23 * c.conjugate()).real) / (1.0 - a23)
    a, b = min(max(lo, a12, a13), 1.0), 1.0
    if a == 0.0:  # O12 = O13 = 0, so g(q1) = eta1*q1 + g(0)
        return g(a, False)
    q0 = c / o23 if o23 else 0j
    if not q0.imag and a < q0.real < 1.0:  # so q0 > a >= a12, a13 as well
        q0 = q0.real
        slope, jump = eta1 - a_term / (q0 * q0), 2.0 * sqrt(eta2 * eta3) * abs(o23) / q0
        if abs(slope) < jump:
            down, up = math.nextafter(q0, a), math.nextafter(q0, 1.0)
            points = (math.nextafter(down, a), down, q0, up, math.nextafter(up, 1.0))
            return min(g(q1, False) for q1 in points)
        # Both one-sided slopes have one sign: search the side where g' has
        # no jump, with q0's slope from the closed form (K is dust there).
        if slope > 0.0:
            (ga, fa), gb, fb, b = g(a), g(q0, False), slope - jump, q0
        else:
            ga, fa, (gb, fb), a = g(q0, False), slope + jump, g(b), q0
    else:
        (ga, fa), (gb, fb) = g(a), g(b)
    best, side = min(ga, gb), 0
    x = a if fa >= 0.0 or fb <= 0.0 else b - fb * (b - a) / (fb - fa)
    while a < x < b or (x != x and a < (x := 0.5 * (a + b)) < b):
        gx, fx = g(x)
        best = min(best, gx)
        if fx >= 0.0:  # at fx = 0 the next point is b, which ends the search
            b, fb, fa, side = x, fx, 0.5 * fa if side > 0 else fa, 1
        else:  # negative, or NaN where g(x) = inf
            a, fa, fb, side = x, fx, 0.5 * fb if side < 0 else fb, -1
        x = b - fb * (b - a) / (fb - fa)
    return best


def two_state_Q(e: Ensemble) -> float:
    """Optimal two-state discrimination failure probability |O12|.

    The failure of unambiguously telling psi1 from psi2 alone at equal
    priors; used as the second comparison baseline.  It bounds neither the
    filtering nor the identification optimum.
    """
    return float(abs(overlaps(e).O12))


def compare(e: Ensemble, resolution: float = 1e-3) -> ComparisonRecord:
    """Filtering vs. identification vs. pairwise discrimination.

    Returns the filtering optimum Q, the three-way identification optimum
    Q' (exact to a few ulps), the two-state failure Q'' = |O12| (no bound
    on Q or Q'), and the ratio Q/Q'.  Filtering is never harder than
    identification, so the ratio is at most 1 up to rounding; for a
    perfectly distinguishable (orthogonal) triple all quantities vanish
    and the ratio is defined as 1.  `resolution` changes no value: it is
    checked to lie in (0, 1e-2] and recorded.
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
