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
    OverlapSet,
    StateVector,
    compare,
    design,
    ensemble_from_overlaps,
    overlaps,
    parallel_component_norm2,
    solve,
    von_neumann_baseline,
)
from qfilter.states import gram_matrix

from conftest import (
    EQUAL_PRIORS,
    exchange_cases,
    fifty_fifty_ensemble,
    fifty_fifty_states,
    near_parallel_ensembles,
    projector_23,
    random_ensemble,
    stratified_random_ensembles,
    swapped_23,
)


def complex_bits(z: complex) -> tuple[str, str]:
    """The exact bits of a complex number, signed zeros included."""
    return z.real.hex(), z.imag.hex()


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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_norm_gate_sits_at_1e_6(self, sign):
        inside = StateVector([1.0 + sign * 1e-6 * (1.0 - 1e-3), 0.0])
        assert abs(inside.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(
            InvalidStateError,
            match=r"^state vector norm deviates from 1 by more than 1e-06 \(norm=",
        ):
            StateVector([1.0 + sign * 1e-6 * (1.0 + 1e-3), 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.zeros(3))

    def test_rejects_one_dimensional_space(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([1.0]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(InvalidStateError) as err:
                StateVector(np.array([bad, 0.0]))
            assert str(err.value) == "state amplitudes must be finite"

    def test_rejects_matrix_input(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.eye(2))

    @pytest.mark.parametrize(
        "amplitudes", [[[1, 0], [0]], "ab", "10", [None, 1], 5, [1, "a"], ["1", "0"]]
    )
    def test_malformed_input_is_refused_as_an_invalid_state(self, amplitudes):
        with pytest.raises(InvalidStateError) as err:
            StateVector(amplitudes)
        assert str(err.value) == (
            f"state amplitudes must form a 1-D sequence of numbers, got {amplitudes!r}"
        )

    def test_amplitudes_are_immutable(self):
        v = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(TypeError):
            v.amplitudes[0] = 0.0
        with pytest.raises(AttributeError):
            v.amplitudes = (0j, 1 + 0j)
        with pytest.raises(AttributeError):
            del v.amplitudes

    def test_amplitudes_are_a_tuple_of_python_complex(self):
        v = StateVector(np.array([0.6, 0.8j, -0.0]))
        assert isinstance(v.amplitudes, tuple)
        assert all(type(x) is complex for x in v.amplitudes)
        want = [complex(0.6, 0.0), complex(0.0, 0.8), complex(-0.0, 0.0)]
        assert list(map(complex_bits, v.amplitudes)) == list(map(complex_bits, want))

    def test_inner_is_a_fixed_order_scalar_sum(self):
        rng = np.random.default_rng(31)
        states = [StateVector(v) for v in fifty_fifty_states() + list(np.eye(3))]
        states.append(StateVector(np.conj(np.array([0.6, 0.8, -0.0]))))
        for dim in (3, 2, 4, 7):
            z = rng.normal(size=(12, dim)) + 1j * rng.normal(size=(12, dim))
            z[::3].imag = 0.0
            states += [StateVector(x / np.linalg.norm(x)) for x in z]
        for u in states:
            for v in states:
                if u.dim != v.dim:
                    continue
                acc = 0j
                for a, b in zip(u.amplitudes, v.amplitudes):
                    acc = complex(
                        acc.real + (a.real * b.real + a.imag * b.imag),
                        acc.imag + (a.real * b.imag - a.imag * b.real),
                    )
                assert complex_bits(u.inner(v)) == complex_bits(acc)

    def test_inner_is_conjugate_linear_in_first_slot(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = StateVector(x / np.linalg.norm(x))
        v = StateVector(y / np.linalg.norm(y))
        assert u.inner(v) == pytest.approx(np.conj(v.inner(u)), abs=1e-14)
        # Scaling the *first* argument by i must conjugate into -i.
        w = StateVector([1j * a for a in u.amplitudes])
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
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidEnsembleError) as err:
                Ensemble((v1, v2, v3), [0.5, 0.5, bad])
            assert str(err.value) == "priors must be finite"

    @pytest.mark.parametrize(
        "priors, found",
        [
            ([[0.5], [0.5, 0]], "[[0.5], [0.5, 0]]"),
            ("100", "'100'"),
            ([0.5, None, 0.5], "[0.5, None, 0.5]"),
            ([0.5, 0.5], "2"),
            (["0.5", "0.25", "0.25"], "['0.5', '0.25', '0.25']"),
            ([b"0.5", 0.25, 0.25], "[b'0.5', 0.25, 0.25]"),
        ],
    )
    def test_malformed_priors_are_refused_as_an_invalid_ensemble(self, priors, found):
        with pytest.raises(InvalidEnsembleError) as err:
            Ensemble(tuple(np.eye(3)), priors)
        assert str(err.value) == f"priors must be 3 real numbers, got {found}"

    def test_priors_are_copied_not_frozen_in_place(self):
        priors = np.array([0.5, 0.3, 0.2])
        e = Ensemble(tuple(fifty_fifty_states()), priors)
        e2 = ensemble_from_overlaps(0.3, 0.2, 0.1, priors)
        assert priors.flags.writeable
        priors[0] = 0.9
        for ens in (e, e2):
            assert ens.priors == (0.5, 0.3, 0.2)
            assert all(type(p) is float for p in ens.priors)

    def test_coerces_raw_arrays_to_state_vectors(self):
        e = fifty_fifty_ensemble()
        assert all(isinstance(s, StateVector) for s in e.states)
        assert e.dim == 3

    def test_swapped_23_exchanges_states_and_priors(self):
        e = Ensemble(tuple(np.eye(3)), np.array([0.5, 0.3, 0.2]))
        swapped = swapped_23(e)
        np.testing.assert_allclose(swapped.priors, [0.5, 0.2, 0.3])
        np.testing.assert_allclose(
            swapped.states[1].amplitudes, e.states[2].amplitudes
        )


class TestOverlaps:
    @pytest.mark.parametrize("name", ["O12", "O13", "O23"])
    def test_magnitude_gate_sits_at_1_plus_1e_12(self, name):
        def overlap_set(value):
            kwargs = {"O12": 0.5 + 0j, "O13": 0.5 + 0j, "O23": 0.5 + 0j, name: value}
            return OverlapSet(alpha=0.0, **kwargs)

        for value in (1.0 + 5e-13, complex(0.0, -(1.0 + 5e-13))):
            assert getattr(overlap_set(value), name) == value
        for value in (1.0 + 2e-12, complex(0.0, -(1.0 + 2e-12))):
            with pytest.raises(InvalidEnsembleError) as err:
                overlap_set(value)
            assert str(err.value) == (
                f"|{name}| exceeds 1 beyond tolerance: {abs(value)!r}"
            )

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
        rows = gram_matrix(e.states)
        assert len(rows) == 3 and all(len(row) == 3 for row in rows)
        assert all(type(x) is complex for row in rows for x in row)
        gram = np.array(rows)
        ov = overlaps(e)
        np.testing.assert_allclose(
            [gram[0, 1], gram[0, 2], gram[1, 2]], [ov.O12, ov.O13, ov.O23], atol=1e-14
        )
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
        # Both orders of states 2 and 3: w is evaluated in exchanged order
        # when |O13| > |O12|.
        for e in ensembles + [swapped_23(e) for e in ensembles]:
            del inner_calls[:]
            assert overlaps(e) is overlaps(e)
            solve(e)
            von_neumann_baseline(e)
            design(e)
            compare(e)
            parallel_component_norm2(e)
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


class TestParallelNormExchange:
    """w does not depend on which of states 2 and 3 comes first, bit for bit."""

    @pytest.mark.parametrize("name", ["stratified", "near_parallel"])
    def test_exchanging_states_2_and_3_keeps_the_bits(self, name):
        cases = exchange_cases()[name]
        exchanged = sum(abs(overlaps(e).O13) > abs(overlaps(e).O12) for e in cases)
        assert len(cases) >= 20 and 5 <= exchanged <= len(cases) - 5
        for e in cases:
            assert parallel_component_norm2(swapped_23(e)) == parallel_component_norm2(e)


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
