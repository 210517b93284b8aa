"""Closed-form optimal failure probabilities and regime classification."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilter import (
    DegeneratePriorError,
    DegenerateSubspaceError,
    DomainError,
    Ensemble,
    InternalConsistencyError,
    QFilterError,
    Regime,
    average_overlap_A,
    classify_regime,
    ensemble_from_overlaps,
    m_matrix,
    overlaps,
    parallel_component_norm2,
    solve,
    von_neumann_baseline,
)

from conftest import (
    EQUAL_PRIORS,
    coplanar_ensemble,
    fifty_fifty_ensemble,
    near_parallel_ensembles,
    orthogonal_ensemble,
    random_ensemble,
    reference_solve,
    reference_von_neumann_baseline,
    stratified_random_ensembles,
    symmetric_ensemble,
)

RT2 = math.sqrt(2.0)


def min_eig_hermitian(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())


class TestSymmetricFamily:
    @pytest.mark.parametrize("s", [0.05, 0.2, 0.45, 0.7])
    def test_intermediate_overlaps_use_generalized_measurement(self, s):
        sol = solve(symmetric_ensemble(s))
        assert sol.regime is Regime.POVM
        assert sol.q1 == pytest.approx(RT2 * s, abs=1e-12)
        assert sol.q2 == pytest.approx(s / RT2, abs=1e-12)
        assert sol.q3 == pytest.approx(s / RT2, abs=1e-12)
        assert sol.Q == pytest.approx(2.0 * RT2 * s / 3.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.75, 0.85, 0.95])
    def test_large_overlaps_use_projective_measurement(self, s):
        sol = solve(symmetric_ensemble(s))
        assert sol.regime is Regime.VN_LARGE_OVERLAP
        assert sol.q1 == pytest.approx(1.0, abs=1e-12)
        assert sol.q2 == pytest.approx(s * s, abs=1e-12)
        assert sol.q3 == pytest.approx(s * s, abs=1e-12)
        assert sol.Q == pytest.approx(1.0 / 3.0 + 2.0 * s * s / 3.0, abs=1e-12)

    def test_branch_switch_point_is_continuous(self):
        s = 1.0 / RT2
        below = solve(symmetric_ensemble(s - 1e-9))
        at = solve(symmetric_ensemble(s))
        assert at.Q == pytest.approx(2.0 * RT2 * s / 3.0, abs=1e-12)
        assert abs(at.Q - below.Q) < 1e-8

    def test_small_overlap_projective_regime_via_skewed_priors(self):
        # A dominant first prior pushes the optimum to the q1 lower bound.
        e = symmetric_ensemble(0.3, priors=np.array([0.98, 0.01, 0.01]))
        sol = solve(e)
        w = parallel_component_norm2(e)
        assert sol.regime is Regime.VN_SMALL_OVERLAP
        assert sol.q1 == pytest.approx(w, abs=1e-12)
        assert sol.Q == pytest.approx(
            e.priors[0] * w + sol.A / w, abs=1e-12
        )


class TestWorkedInstance:
    def test_fifty_fifty_failure_probabilities(self):
        sol = solve(fifty_fifty_ensemble())
        assert sol.regime is Regime.POVM
        assert sol.q1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert sol.q2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert sol.q3 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert sol.Q == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_orthogonal_triple_never_fails(self):
        sol = solve(orthogonal_ensemble())
        assert sol.q1 == sol.q2 == sol.q3 == 0.0
        assert sol.Q == 0.0

    def test_average_overlap_values(self):
        e = fifty_fifty_ensemble()
        assert average_overlap_A(e) == pytest.approx(4.0 / 27.0, abs=1e-14)
        sol = solve(e)
        assert sol.A == pytest.approx(4.0 / 27.0, abs=1e-14)
        assert sol.parallel_norm2 == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestRegimeClassification:
    def test_zero_first_prior_is_rejected(self):
        e = Ensemble(tuple(np.eye(3)), np.array([0.0, 0.5, 0.5]))
        with pytest.raises(DegeneratePriorError):
            classify_regime(e)
        with pytest.raises(DegeneratePriorError):
            solve(e)

    def test_classification_matches_solution_regime(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            e = random_ensemble(rng)
            assert classify_regime(e) is solve(e).regime


class TestSolveInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_zero_error_products_and_bounds(self, seed):
        e = random_ensemble(np.random.default_rng(seed))
        ov = overlaps(e)
        sol = solve(e)
        assert sol.q1 * sol.q2 == pytest.approx(abs(ov.O12) ** 2, abs=1e-10)
        assert sol.q1 * sol.q3 == pytest.approx(abs(ov.O13) ** 2, abs=1e-10)
        assert -1e-12 <= sol.q1 <= 1.0 + 1e-12
        assert -1e-12 <= sol.q2 <= 1.0 + 1e-12
        assert -1e-12 <= sol.q3 <= 1.0 + 1e-12
        lower = max(
            sol.parallel_norm2, abs(ov.O12) ** 2, abs(ov.O13) ** 2
        )
        assert sol.q1 >= lower - 1e-10
        assert sol.Q == pytest.approx(
            float(np.dot(e.priors, [sol.q1, sol.q2, sol.q3])), abs=1e-12
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_swapping_states_2_and_3_swaps_their_failure_probabilities(
        self, seed
    ):
        e = random_ensemble(np.random.default_rng(seed))
        sol = solve(e)
        swapped = solve(e.swapped_23())
        assert swapped.q1 == pytest.approx(sol.q1, abs=1e-12)
        assert swapped.q2 == pytest.approx(sol.q3, abs=1e-12)
        assert swapped.q3 == pytest.approx(sol.q2, abs=1e-12)
        assert swapped.Q == pytest.approx(sol.Q, abs=1e-12)
        assert swapped.regime is sol.regime

    def test_larger_second_overlap_is_handled(self):
        # |O13| > |O12| exercises the internal relabeling path.
        e = ensemble_from_overlaps(0.1, 0.6, 0.2, priors=[0.4, 0.25, 0.35])
        ov = overlaps(e)
        assert abs(ov.O13) > abs(ov.O12)
        sol = solve(e)
        assert sol.q1 * sol.q2 == pytest.approx(abs(ov.O12) ** 2, abs=1e-12)
        assert sol.q1 * sol.q3 == pytest.approx(abs(ov.O13) ** 2, abs=1e-12)
        assert min_eig_hermitian(m_matrix(e, sol.q1)) >= -1e-10

    def test_first_state_inside_span_of_others_collapses_the_choice(self):
        # psi1 in span{psi2, psi3}: the projective branches coincide and
        # there is no intermediate regime.
        psi2 = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi3 = np.array([0.6, 0.8, 0.0], dtype=complex)
        psi1 = 0.5 * psi2 + 0.5 * psi3
        psi1 /= np.linalg.norm(psi1)
        e = Ensemble((psi1, psi2, psi3), np.array([0.2, 0.5, 0.3]))
        w = parallel_component_norm2(e)
        assert w == pytest.approx(1.0, abs=1e-12)
        sol = solve(e)
        assert sol.regime is not Regime.POVM
        eta1 = e.priors[0]
        assert sol.Q == pytest.approx(eta1 + sol.A, abs=1e-10)
        assert sol.Q == pytest.approx(eta1 * w + sol.A / w, abs=1e-10)


class TestResidualOperator:
    def test_positive_semidefinite_at_the_optimum(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            e = random_ensemble(rng)
            sol = solve(e)
            if sol.q1 <= 0.0:
                continue
            assert min_eig_hermitian(m_matrix(e, sol.q1)) >= -1e-10

    def test_structure_at_a_feasible_point(self):
        e = fifty_fifty_ensemble()
        ov = overlaps(e)
        m = m_matrix(e, 0.9)
        assert m[0, 0] == pytest.approx(0.1, abs=1e-12)
        assert m[0, 1] == m[0, 2] == 0.0
        assert m[1, 1] == pytest.approx(1.0 - abs(ov.O12) ** 2 / 0.9, abs=1e-12)
        expected_off = ov.O23 - np.conj(ov.O12) * ov.O13 / 0.9
        assert m[1, 2] == pytest.approx(expected_off, abs=1e-12)
        assert m[2, 1] == pytest.approx(np.conj(expected_off), abs=1e-12)

    def test_infeasible_q1_has_negative_eigenvalue(self):
        # Below the parallel-component bound (1/3 here) no zero-error
        # measurement exists, and the residual operator detects it.
        e = fifty_fifty_ensemble()
        assert min_eig_hermitian(m_matrix(e, 0.1)) < -1e-6

    def test_rejects_out_of_range_q1(self):
        e = fifty_fifty_ensemble()
        with pytest.raises(DomainError):
            m_matrix(e, 0.0)
        with pytest.raises(DomainError):
            m_matrix(e, -0.1)
        with pytest.raises(DomainError):
            m_matrix(e, 1.1)


def _outcome(fn, e):
    """The result of ``fn(e)`` as exact bits, or the class of its error."""
    try:
        out = fn(e)
    except QFilterError as exc:
        return type(exc)
    if isinstance(out, float):
        return out.hex()
    fields = (out.q1, out.q2, out.q3, out.Q, out.A, out.parallel_norm2)
    return tuple(float(x).hex() for x in fields) + (out.regime,)


@functools.lru_cache(maxsize=None)
def _reference_cases() -> dict[str, list[Ensemble]]:
    rng = np.random.default_rng(20260817)
    stratified = stratified_random_ensembles(200, 20260816)
    # psi1 is orthogonal to psi2 but not to psi3, and lies in their span.
    in_plane = (np.eye(3)[0], np.eye(3)[1], np.array([0.6, 0.8, 0.0]))
    return {
        "stratified": stratified,
        # Every instance again with states 2 and 3 exchanged, so each one
        # goes down the other branch of the |O13| > |O12| test too.
        "stratified_swapped": [e.swapped_23() for e in stratified],
        "near_parallel": near_parallel_ensembles(4, 20011203),
        "coplanar": [coplanar_ensemble(rng, k % 2 == 0) for k in range(40)],
        "random_2d_4d": [random_ensemble(rng, d) for d in (2, 4) for _ in range(20)],
        "structured": [symmetric_ensemble(s) for s in np.linspace(0.05, 0.95, 19)]
        + [fifty_fifty_ensemble(), orthogonal_ensemble()],
        "degenerate_priors": [
            Ensemble(in_plane, np.array(p))
            for p in ([0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5])
        ],
    }


class TestReferenceRoute:
    """solve() and von_neumann_baseline() agree bit for bit with the route
    that recomputes the overlaps on every call and builds e.swapped_23()."""

    @pytest.mark.parametrize(
        "name",
        ["stratified", "stratified_swapped", "near_parallel", "coplanar",
         "random_2d_4d", "structured", "degenerate_priors"],
    )
    def test_bit_identical_to_reference(self, name):
        ensembles = _reference_cases()[name]
        for e in ensembles:
            assert _outcome(solve, e) == _outcome(reference_solve, e)
            assert _outcome(von_neumann_baseline, e) == _outcome(
                reference_von_neumann_baseline, e
            )

    def test_cases_cover_both_paths_and_the_refusals(self):
        cases = _reference_cases()
        swapped = sum(
            abs(overlaps(e).O13) > abs(overlaps(e).O12)
            for e in cases["stratified"]
        )
        assert 20 <= swapped <= 180
        errors = {
            _outcome(solve, e)
            for name in ("near_parallel", "degenerate_priors")
            for e in cases[name]
        }
        assert {
            DegenerateSubspaceError, DegeneratePriorError, InternalConsistencyError
        } <= errors
        regimes = {solve(e).regime for e in cases["stratified"]}
        assert regimes == set(Regime)
