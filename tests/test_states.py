"""State containers, overlaps, and subspace geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilter import (
    DegenerateSubspaceError,
    Ensemble,
    InvalidEnsembleError,
    InvalidStateError,
    StateVector,
    compare,
    design,
    ensemble_from_overlaps,
    gram_matrix,
    overlaps,
    parallel_component_norm2,
    projector_23,
    solve,
    von_neumann_baseline,
)

from conftest import (
    EQUAL_PRIORS,
    fifty_fifty_ensemble,
    fifty_fifty_states,
    near_parallel_ensembles,
    random_ensemble,
    stratified_random_ensembles,
)


class TestStateVector:
    def test_accepts_normalized_vector(self):
        v = StateVector(np.array([1.0, 1.0j]) / math.sqrt(2.0))
        assert v.dim == 2
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-15

    def test_renormalizes_tiny_deviation(self):
        v = StateVector(np.array([1.0 + 3e-7, 0.0]))
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_norm_deviation_above_tolerance(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([1.0 + 1e-3, 0.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.zeros(3))

    def test_rejects_one_dimensional_space(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([np.nan, 0.0]))
        with pytest.raises(InvalidStateError):
            StateVector(np.array([np.inf, 0.0]))

    def test_rejects_matrix_input(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.eye(2))

    def test_amplitudes_are_immutable(self):
        v = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0

    def test_inner_is_conjugate_linear_in_first_slot(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = StateVector(x / np.linalg.norm(x))
        v = StateVector(y / np.linalg.norm(y))
        assert u.inner(v) == pytest.approx(np.conj(v.inner(u)), abs=1e-14)
        # Scaling the *first* argument by i must conjugate into -i.
        w = StateVector(1j * u.amplitudes)
        assert w.inner(v) == pytest.approx(-1j * u.inner(v), abs=1e-14)

    def test_accepts_strided_amplitudes(self):
        columns = np.eye(3, dtype=complex)
        v = StateVector(columns[:, 1])
        np.testing.assert_array_equal(v.amplitudes, [0.0, 1.0, 0.0])
        columns[2, 0] = np.nan
        with pytest.raises(InvalidStateError, match="finite"):
            StateVector(columns[:, 0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_is_reported_as_a_norm_error(self):
        with pytest.raises(InvalidStateError, match="norm=inf"):
            StateVector(np.array([1e200, 1e200]))

    def test_padded_extends_with_zeros(self):
        v = StateVector(np.array([0.6, 0.8]))
        padded = v.padded(4)
        assert padded.shape == (4,)
        assert padded[2] == padded[3] == 0.0
        np.testing.assert_allclose(padded[:2], v.amplitudes)


class TestEnsemble:
    def test_requires_exactly_three_states(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(InvalidEnsembleError):
            Ensemble((v, v), np.array([0.5, 0.5]))

    def test_requires_equal_dimensions(self):
        with pytest.raises(InvalidEnsembleError):
            Ensemble(
                (np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0])),
                EQUAL_PRIORS,
            )

    def test_rejects_bad_priors(self):
        v1, v2, v3 = np.eye(3)
        with pytest.raises(InvalidEnsembleError):
            Ensemble((v1, v2, v3), np.array([0.5, 0.4, 0.2]))
        with pytest.raises(InvalidEnsembleError):
            Ensemble((v1, v2, v3), np.array([1.2, -0.1, -0.1]))
        with pytest.raises(InvalidEnsembleError):
            Ensemble((v1, v2, v3), np.array([0.5, 0.5]))

    def test_priors_are_copied_not_frozen_in_place(self):
        priors = np.array([0.5, 0.3, 0.2])
        e = Ensemble(tuple(fifty_fifty_states()), priors)
        assert priors.flags.writeable
        assert not np.shares_memory(priors, e.priors)
        assert not e.priors.flags.writeable
        e2 = ensemble_from_overlaps(0.3, 0.2, 0.1, priors)
        assert priors.flags.writeable
        assert not np.shares_memory(priors, e2.priors)

    def test_coerces_raw_arrays_to_state_vectors(self):
        e = fifty_fifty_ensemble()
        assert all(isinstance(s, StateVector) for s in e.states)
        assert e.dim == 3

    def test_swapped_23_exchanges_states_and_priors(self):
        e = Ensemble(tuple(np.eye(3)), np.array([0.5, 0.3, 0.2]))
        swapped = e.swapped_23()
        np.testing.assert_allclose(swapped.priors, [0.5, 0.2, 0.3])
        np.testing.assert_allclose(
            swapped.states[1].amplitudes, e.states[2].amplitudes
        )


class TestOverlaps:
    def test_worked_instance_values(self):
        ov = overlaps(fifty_fifty_ensemble())
        assert ov.O12 == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-15)
        assert ov.O13 == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-15)
        assert ov.O23 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ov.alpha == pytest.approx(0.0, abs=1e-15)

    def test_alpha_tracks_relative_phase(self):
        rng = np.random.default_rng(11)
        e = random_ensemble(rng)
        ov = overlaps(e)
        expected = -np.angle(ov.O12 * np.conj(ov.O13))
        assert ov.alpha == pytest.approx(expected, abs=1e-14)

    def test_gram_matrix_is_hermitian_psd_with_unit_diagonal(self):
        rng = np.random.default_rng(12)
        e = random_ensemble(rng)
        gram = gram_matrix(e.states)
        np.testing.assert_allclose(gram, gram.conj().T, atol=1e-14)
        np.testing.assert_allclose(np.diag(gram).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(gram).min() > -1e-12


class TestOverlapMemo:
    @pytest.fixture
    def inner_calls(self, monkeypatch):
        calls = []
        inner = StateVector.inner

        def counting_inner(self, other):
            calls.append(1)
            return inner(self, other)

        monkeypatch.setattr(StateVector, "inner", counting_inner)
        return calls

    def test_overlaps_are_computed_once_per_ensemble(self, inner_calls):
        ensembles = stratified_random_ensembles(8, 5)
        # Both orders of states 2 and 3: solve() exchanges them itself
        # when |O13| > |O12|.
        for e in ensembles + [e.swapped_23() for e in ensembles]:
            del inner_calls[:]
            assert overlaps(e) is overlaps(e)
            solve(e)
            von_neumann_baseline(e)
            design(e)
            compare(e)
            parallel_component_norm2(e)
            projector_23(e)
            assert len(inner_calls) <= 3

    def test_near_parallel_error_is_raised_on_every_call(self, inner_calls):
        e = near_parallel_ensembles(1, 7)[-1]  # psi3 = psi2
        assert abs(overlaps(e).O23) == pytest.approx(1.0, abs=1e-12)
        for _ in range(3):
            with pytest.raises(DegenerateSubspaceError):
                solve(e)
            with pytest.raises(DegenerateSubspaceError):
                parallel_component_norm2(e)
        assert len(inner_calls) <= 3


class TestProjector23:
    def test_projects_states_2_and_3_onto_themselves(self):
        e = fifty_fifty_ensemble()
        proj = projector_23(e)
        for i in (1, 2):
            psi = e.states[i].amplitudes
            np.testing.assert_allclose(proj @ psi, psi, atol=1e-12)

    def test_is_a_rank_two_orthogonal_projector(self):
        rng = np.random.default_rng(13)
        e = random_ensemble(rng)
        proj = projector_23(e)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(2.0, abs=1e-10)

    def test_rejects_parallel_pair(self):
        v = np.array([1.0, 0.0, 0.0])
        e = Ensemble((np.array([0.0, 1.0, 0.0]), v, v), EQUAL_PRIORS)
        with pytest.raises(DegenerateSubspaceError):
            projector_23(e)

    def test_parallel_norm_matches_projector(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            e = random_ensemble(rng)
            proj = projector_23(e)
            direct = float(
                np.linalg.norm(proj @ e.states[0].amplitudes) ** 2
            )
            assert parallel_component_norm2(e) == pytest.approx(direct, abs=1e-11)

    def test_parallel_norm_orthogonal_state_is_zero(self):
        e = Ensemble(tuple(np.eye(3)), EQUAL_PRIORS)
        assert parallel_component_norm2(e) == pytest.approx(0.0, abs=1e-15)

    def test_parallel_norm_coplanar_state_is_one(self):
        psi2 = np.array([1.0, 0.0, 0.0])
        psi3 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        psi1 = np.array([1.0, 2.0, 0.0]) / math.sqrt(5.0)
        e = Ensemble((psi1, psi2, psi3), EQUAL_PRIORS)
        assert parallel_component_norm2(e) == pytest.approx(1.0, abs=1e-12)


class TestEnsembleFromOverlaps:
    @given(
        o12=st.floats(0.0, 0.6),
        o13=st.floats(0.0, 0.6),
        o23=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_reproduces_requested_overlaps(self, o12, o13, o23):
        e = ensemble_from_overlaps(o12, o13, o23)
        ov = overlaps(e)
        assert abs(ov.O12 - o12) < 1e-10
        assert abs(ov.O13 - o13) < 1e-10
        assert abs(ov.O23 - o23) < 1e-10

    def test_supports_complex_overlaps(self):
        target = 0.3 * np.exp(0.7j)
        e = ensemble_from_overlaps(target, 0.2, 0.4)
        assert overlaps(e).O12 == pytest.approx(target, abs=1e-10)

    def test_rejects_impossible_gram(self):
        with pytest.raises(InvalidEnsembleError):
            ensemble_from_overlaps(0.99, 0.99, -0.9)
