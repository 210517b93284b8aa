"""State containers, overlaps, and subspace geometry."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from qfilter import states
from qfilter.states import _cholesky, _overlap_gram, gram_matrix

from conftest import (
    EQUAL_PRIORS,
    coplanar_ensemble,
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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_norm_gate_sits_at_1e_6(self, sign):
        inside = StateVector([1.0 + sign * 1e-6 * (1.0 - 1e-3), 0.0])
        assert abs(inside.amplitudes[0]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(
            InvalidStateError,
            match=r"^state vector norm deviates from 1 by more than 1e-06 \(norm=",
        ):
            StateVector([1.0 + sign * 1e-6 * (1.0 + 1e-3), 0.0])

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
    @pytest.mark.parametrize(
        "priors", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (-0.0, 0.5, 0.5), np.array([0.5, 0.5, 0.0])]
    )
    def test_priors_on_the_ends_of_the_unit_interval_are_accepted(self, priors):
        e = Ensemble(tuple(np.eye(3)), priors)
        assert [p.hex() for p in e.priors] == [float(p).hex() for p in priors]

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


E1, E2, E3 = (list(row) for row in np.eye(3))
NAN, INF = math.nan, math.inf
LARGE = 1.0 + 2e-12


def _overlap_set(**changes):
    return OverlapSet(**{"O12": 0.5 + 0j, "O13": 0.5 + 0j, "O23": 0.5 + 0j, "alpha": 0.0, **changes})


#: Every refusal of the front end (StateVector, Ensemble and its priors,
#: OverlapSet): the call, the error class and the exact message.  Rows named
#: "... before ..." pin which message wins when an input fails two checks.
FRONT_END_REFUSALS = {
    "string amplitudes": (
        lambda: StateVector(["1", "0"]), InvalidStateError,
        "state amplitudes must form a 1-D sequence of numbers, got ['1', '0']",
    ),
    "bytes amplitude": (
        lambda: StateVector([b"1", 0.0]), InvalidStateError,
        "state amplitudes must form a 1-D sequence of numbers, got [b'1', 0.0]",
    ),
    "nan amplitude": (
        lambda: StateVector([NAN, 0.0]), InvalidStateError, "state amplitudes must be finite"
    ),
    "inf amplitude in an ndarray": (
        lambda: StateVector(np.array([INF, 0.0])), InvalidStateError,
        "state amplitudes must be finite",
    ),
    "-inf imaginary part": (
        lambda: StateVector([complex(0.0, -INF), 0.0]), InvalidStateError,
        "state amplitudes must be finite",
    ),
    "finite before dimension": (
        lambda: StateVector([NAN]), InvalidStateError, "state amplitudes must be finite"
    ),
    "dimension 1": (
        lambda: StateVector(np.array([1.0])), InvalidStateError,
        "state vectors must have dimension >= 2, got 1",
    ),
    "dimension 0": (
        lambda: StateVector([]), InvalidStateError,
        "state vectors must have dimension >= 2, got 0",
    ),
    "dimension before norm": (
        lambda: StateVector([2.0]), InvalidStateError,
        "state vectors must have dimension >= 2, got 1",
    ),
    "norm above 1": (
        lambda: StateVector(np.array([1.0 + 1e-3, 0.0])), InvalidStateError,
        "state vector norm deviates from 1 by more than 1e-06 (norm=1.001); "
        "normalize explicitly",
    ),
    "norm below 1": (
        lambda: StateVector([0.5, 0.5]), InvalidStateError,
        "state vector norm deviates from 1 by more than 1e-06 (norm=0.707106781); "
        "normalize explicitly",
    ),
    "zero vector": (
        lambda: StateVector(np.zeros(3)), InvalidStateError,
        "state vector norm deviates from 1 by more than 1e-06 (norm=0); normalize explicitly",
    ),
    "overflowing norm": (
        lambda: StateVector([1e200, 1e200]), InvalidStateError,
        "state vector norm deviates from 1 by more than 1e-06 (norm=inf); normalize explicitly",
    ),
    "state inside an ensemble": (
        lambda: Ensemble((E1, E2, [b"0", 1.0]), EQUAL_PRIORS), InvalidStateError,
        "state amplitudes must form a 1-D sequence of numbers, got [b'0', 1.0]",
    ),
    "2 states": (
        lambda: Ensemble((E1, E2), EQUAL_PRIORS), InvalidEnsembleError,
        "an ensemble needs exactly 3 states, got 2",
    ),
    "4 states": (
        lambda: Ensemble((E1, E2, E3, E1), EQUAL_PRIORS), InvalidEnsembleError,
        "an ensemble needs exactly 3 states, got 4",
    ),
    "state count before priors": (
        lambda: Ensemble((E1, E2), [0.5, 0.5]), InvalidEnsembleError,
        "an ensemble needs exactly 3 states, got 2",
    ),
    "mixed dimensions": (
        lambda: Ensemble(([1.0, 0.0], E2, [0.0, 1.0]), EQUAL_PRIORS), InvalidEnsembleError,
        "all states must share one dimension, got sizes [2, 3]",
    ),
    "dimensions before priors": (
        lambda: Ensemble((E1, [0.0, 1.0, 0.0, 0.0], E3), [NAN]), InvalidEnsembleError,
        "all states must share one dimension, got sizes [3, 4]",
    ),
    "2 priors": (
        lambda: Ensemble((E1, E2, E3), np.array([0.5, 0.5])), InvalidEnsembleError,
        "priors must be 3 real numbers, got 2",
    ),
    "4 priors": (
        lambda: Ensemble((E1, E2, E3), [0.25] * 4), InvalidEnsembleError,
        "priors must be 3 real numbers, got 4",
    ),
    "string priors": (
        lambda: Ensemble((E1, E2, E3), ["0.5", "0.25", "0.25"]), InvalidEnsembleError,
        "priors must be 3 real numbers, got ['0.5', '0.25', '0.25']",
    ),
    "bytes prior": (
        lambda: Ensemble((E1, E2, E3), [0.5, b"0.25", 0.25]), InvalidEnsembleError,
        "priors must be 3 real numbers, got [0.5, b'0.25', 0.25]",
    ),
    "nan prior": (
        lambda: Ensemble((E1, E2, E3), [0.5, 0.5, NAN]), InvalidEnsembleError,
        "priors must be finite",
    ),
    "nan prior in an ndarray": (
        lambda: Ensemble((E1, E2, E3), np.array([NAN, 0.5, 0.5])), InvalidEnsembleError,
        "priors must be finite",
    ),
    "inf prior": (
        lambda: Ensemble((E1, E2, E3), [INF, 0.0, 0.0]), InvalidEnsembleError,
        "priors must be finite",
    ),
    "-inf prior": (
        lambda: Ensemble((E1, E2, E3), [1.0, -INF, 0.0]), InvalidEnsembleError,
        "priors must be finite",
    ),
    "finite before range": (
        lambda: Ensemble((E1, E2, E3), [2.0, -1.0, NAN]), InvalidEnsembleError,
        "priors must be finite",
    ),
    "prior above 1": (
        lambda: Ensemble((E1, E2, E3), np.array([1.2, -0.1, -0.1])), InvalidEnsembleError,
        "priors must lie in [0, 1], got [1.2, -0.1, -0.1]",
    ),
    "negative prior": (
        lambda: Ensemble((E1, E2, E3), (0.6, 0.5, -0.1)), InvalidEnsembleError,
        "priors must lie in [0, 1], got [0.6, 0.5, -0.1]",
    ),
    "range before sum": (
        lambda: Ensemble((E1, E2, E3), [1.5, 0.0, 0.0]), InvalidEnsembleError,
        "priors must lie in [0, 1], got [1.5, 0.0, 0.0]",
    ),
    "sum off by 0.1": (
        lambda: Ensemble((E1, E2, E3), np.array([0.5, 0.4, 0.2])), InvalidEnsembleError,
        "priors must sum to 1 within 1e-12, got sum 1.1",
    ),
    "sum off by 2e-12": (
        lambda: Ensemble((E1, E2, E3), [0.5, 0.25, 0.25 + 2e-12]), InvalidEnsembleError,
        "priors must sum to 1 within 1e-12, got sum 1.000000000002",
    ),
    "|O12| above 1": (
        lambda: _overlap_set(O12=LARGE), InvalidEnsembleError,
        "|O12| exceeds 1 beyond tolerance: 1.000000000002",
    ),
    "|O13| above 1": (
        lambda: _overlap_set(O13=complex(0.0, -LARGE)), InvalidEnsembleError,
        "|O13| exceeds 1 beyond tolerance: 1.000000000002",
    ),
    "|O23| above 1": (
        lambda: _overlap_set(O23=-LARGE), InvalidEnsembleError,
        "|O23| exceeds 1 beyond tolerance: 1.000000000002",
    ),
    "O12 before O23": (
        lambda: _overlap_set(O12=1.5, O23=LARGE), InvalidEnsembleError,
        "|O12| exceeds 1 beyond tolerance: 1.5",
    ),
    "nan O12": (
        lambda: _overlap_set(O12=NAN), InvalidEnsembleError, "O12 must not be NaN, got nan",
    ),
    "complex nan O12": (
        lambda: _overlap_set(O12=complex(NAN, 0.0)), InvalidEnsembleError,
        "O12 must not be NaN, got (nan+0j)",
    ),
    "nan imaginary part of O13": (
        lambda: _overlap_set(O13=complex(0.5, NAN)), InvalidEnsembleError,
        "O13 must not be NaN, got (0.5+nanj)",
    ),
    "nan O23": (
        lambda: _overlap_set(O23=NAN), InvalidEnsembleError, "O23 must not be NaN, got nan",
    ),
    "nan alpha": (
        lambda: _overlap_set(alpha=NAN), InvalidEnsembleError, "alpha must not be NaN, got nan",
    ),
    "magnitude before nan": (
        lambda: _overlap_set(O12=NAN, O23=LARGE), InvalidEnsembleError,
        "|O23| exceeds 1 beyond tolerance: 1.000000000002",
    ),
    "infinite part before nan": (
        lambda: _overlap_set(O12=complex(NAN, INF), alpha=NAN), InvalidEnsembleError,
        "|O12| exceeds 1 beyond tolerance: inf",
    ),
    "nan O13 before nan alpha": (
        lambda: _overlap_set(O13=NAN, alpha=NAN), InvalidEnsembleError,
        "O13 must not be NaN, got nan",
    ),
}


@pytest.mark.parametrize("name", list(FRONT_END_REFUSALS))
def test_front_end_refusal_has_its_class_and_message(name):
    make, error, message = FRONT_END_REFUSALS[name]
    with pytest.raises(error) as err:
        make()
    assert type(err.value) is error
    assert str(err.value) == message


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

    @given(data=st.data(), dim=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_overlaps_are_the_inner_products_bit_for_bit(self, data, dim):
        part = st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, allow_subnormal=False)
        )
        states = []
        for _ in range(3):
            z = [complex(data.draw(part), data.draw(part)) for _ in range(dim)]
            norm = math.sqrt(sum(abs(x) ** 2 for x in z))
            assume(norm > 1e-3)
            states.append(StateVector([complex(x.real / norm, x.imag / norm) for x in z]))
        ov = overlaps(Ensemble(states, EQUAL_PRIORS))
        s1, s2, s3 = states
        for got, (u, v) in zip((ov.O12, ov.O13, ov.O23), ((s1, s2), (s1, s3), (s2, s3))):
            assert complex_bits(got) == complex_bits(u.inner(v))
        assert ov.alpha == -cmath.phase(s1.inner(s2) * s1.inner(s3).conjugate())

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
    def overlap_computations(self, monkeypatch):
        """One entry per computation of an ensemble's overlaps."""
        calls = []
        slot = vars(Ensemble)["_overlaps"]
        compute = slot.func

        def counting(e):
            calls.append(1)
            return compute(e)

        monkeypatch.setattr(slot, "func", counting)
        return calls

    def test_overlaps_are_computed_once_per_ensemble(self, overlap_computations):
        ensembles = stratified_random_ensembles(8, 5)
        # Both orders of states 2 and 3: w is evaluated in exchanged order
        # when |O13| > |O12|.
        for e in ensembles + [swapped_23(e) for e in ensembles]:
            del overlap_computations[:]
            assert overlaps(e) is overlaps(e)
            solve(e)
            von_neumann_baseline(e)
            design(e)
            compare(e)
            parallel_component_norm2(e)
            assert len(overlap_computations) == 1

    def test_near_parallel_error_is_raised_on_every_call(self, overlap_computations):
        e = near_parallel_ensembles(1, 7)[-1]  # psi3 = psi2
        assert abs(overlaps(e).O23) == pytest.approx(1.0, abs=1e-12)
        for _ in range(3):
            with pytest.raises(DegenerateSubspaceError):
                solve(e)
            with pytest.raises(DegenerateSubspaceError):
                parallel_component_norm2(e)
        assert len(overlap_computations) == 1


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


def fifty_digit_w(e: Ensemble) -> mpmath.mpf:
    """w of the ensemble's amplitudes at 50 digits, by twice-iterated Gram-Schmidt."""
    with mpmath.workdps(50):
        psi1, *others = [[mpmath.mpc(x.real, x.imag) for x in s.amplitudes] for s in e.states]
        basis = []
        for v in others:
            for _ in range(2):
                for b in basis:
                    c = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(b, v))
                    v = [y - c * x for x, y in zip(b, v)]
            norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in v))
            basis.append([x / norm for x in v])
        return mpmath.fsum(abs(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(b, psi1))) ** 2 for b in basis)


class TestParallelNormAccuracy:
    """w is formed in the Gram-Schmidt frame of (psi2, psi3), so its error
    grows as u / eps with eps = ||psi3 - O23 psi2||, not as u / eps^2: the
    closed form over 1 - |O23|^2 was off by up to 2.3e-7 on the
    near-parallel set, and by 4.8e-14 on the stratified one."""

    @pytest.mark.parametrize("name", ["stratified", "near_parallel"])
    def test_w_is_within_2e_15_over_eps_of_50_digits(self, name):
        if name == "stratified":
            ensembles = stratified_random_ensembles(300, 20260816)
        else:
            ensembles = near_parallel_ensembles(40, 20011203)
        answered = 0
        for e in ensembles:
            try:
                w = parallel_component_norm2(e)
            except DegenerateSubspaceError:
                continue
            answered += 1
            eps = math.sqrt(1.0 - abs(overlaps(e).O23) ** 2)
            assert abs(w - fifty_digit_w(e)) <= 2e-15 / eps
        assert answered >= 80


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


def generic_cholesky(g, shift=0.0):
    """The n x n ``_cholesky`` that the written-out 3x3 one replaced: LAPACK's
    ``potf2``, column by column."""
    n = len(g)
    low = [[0j] * n for _ in range(n)]
    for j in range(n):
        left, sq = low[j][:j], 0.0
        for x in left:
            sq += x.real * x.real + x.imag * x.imag
        pivot = g[j][j].real - shift - sq
        if not pivot > 0.0:
            return None
        low[j][j] = complex(math.sqrt(pivot), 0.0)
        scale = complex(1.0 / low[j][j].real, 0.0)
        for i in range(j + 1, n):
            acc = complex(g[i][j])
            for x, y in zip(low[i], left):
                acc -= x * y.conjugate()
            low[i][j] = acc * scale
    return low


class TestCholesky:
    @staticmethod
    def matrices(rng):
        """Seeded Hermitian 3x3 rows: unit-diagonal Gram matrices (complex,
        and the real ones of ``_overlap_gram`` with float entries), general
        diagonals as in ``designer.build_L`` (first-row off-diagonals large,
        tiny or zero), and near-singular Gram matrices of coplanar states."""
        out = []
        for k in range(120):
            out.append(gram_matrix(random_ensemble(rng).states))
            o = rng.uniform(-0.7, 0.7, size=3)
            out.append(_overlap_gram(*(float(x) for x in o)))
            diag = rng.uniform(0.0, 1.0, size=3)
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            z[:2] *= (1.0, 1e-14, 0.0)[k % 3]
            l12, l13, l23 = (complex(x) for x in 0.4 * z)
            out.append([
                [complex(1.0 - diag[0], 0.0), l12, l13],
                [l12.conjugate(), complex(1.0 - diag[1], 0.0), l23],
                [l13.conjugate(), l23.conjugate(), complex(1.0 - diag[2], 0.0)],
            ])
            out.append(gram_matrix(coplanar_ensemble(rng, k % 2 == 0).states))
        # Pivots of exactly 0 (at each column, or after a shift) and NaN.
        for o in ((1.0, 0.3, 0.3), (0.6, 0.6, 1.0), (0.5, 0.5, 0.25), (0.0, 0.0, 0.0), (math.nan, 0.0, 0.0)):
            out.append(_overlap_gram(*o))
        return out

    def test_written_out_factor_is_the_generic_loop(self, monkeypatch):
        """Bit for bit, signed zeros included, at shifts 0 and 1e-8 and at
        every midpoint of ``_least_eigenvalue``'s bisection."""
        calls = []
        recorded = states._cholesky

        def recording(mat, shift=0.0):
            calls.append((mat, shift))
            return recorded(mat, shift)

        mats = self.matrices(np.random.default_rng(57))
        monkeypatch.setattr(states, "_cholesky", recording)
        for mat in mats:
            calls += [(mat, 0.0), (mat, 1e-8), (mat, 1.0)]
            states._least_eigenvalue(mat)
        outcomes = set()
        for mat, shift in calls:
            got, want = _cholesky(mat, shift), generic_cholesky(mat, shift)
            outcomes.add(got is None)
            if want is None:
                assert got is None, (mat, shift)
                continue
            assert [complex_bits(x) for row in got for x in row] == [
                complex_bits(x) for row in want for x in row
            ], (mat, shift)
        assert outcomes == {True, False} and len(calls) > 20 * len(mats)
