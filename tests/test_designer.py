"""Measurement design: success/failure vectors and the realizing unitary."""

import cmath
import itertools
import json
import math
import re
import types

import numpy as np
import pytest

from qfilter import (
    BeamSplitterLayer,
    DegenerateSubspaceError,
    DomainError,
    Ensemble,
    FilterSolution,
    InconsistentSolutionError,
    InfeasibleError,
    InternalConsistencyError,
    InvalidEnsembleError,
    InvalidStateError,
    MeasurementDesign,
    MeshProgram,
    NoUnitaryError,
    Regime,
    SimulationReport,
    StateVector,
    decompose,
    design,
    ensemble_from_overlaps,
    overlaps,
    port_probabilities,
    sample,
    solve,
)
import qfilter
from qfilter import designer, multiport
from qfilter.designer import (
    build_L,
    complete_unitary,
    embed_inputs,
    failure_phases,
    failure_vectors,
    success_vectors,
)
from qfilter.states import _least_eigenvalue, gram_matrix
from qfilter.cli import _design_checks, load_ensemble, main as cli_main

from conftest import (
    EQUAL_PRIORS,
    FIXTURES_DIR,
    coplanar_ensemble,
    embedded,
    exhaustive_design,
    fifty_fifty_ensemble,
    fifty_fifty_expected_outputs,
    fifty_fifty_expected_unitary,
    gauge_candidates,
    near_parallel_ensembles,
    orthogonal_ensemble,
    perfbench_module,
    placed,
    random_ensemble,
    rebuilt,
    reference_complete_unitary,
    stratified_random_ensembles,
    symmetric_ensemble,
    symmetric_expected_outputs,
    symmetric_expected_unitary,
)


class TestFailureSide:
    def test_phases_vanish_for_real_positive_overlaps(self):
        chi = failure_phases(fifty_fifty_ensemble())
        assert chi == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_phases_follow_the_overlaps_of_state_1(self):
        rng = np.random.default_rng(5)
        e = random_ensemble(rng)
        ov = overlaps(e)
        chi = failure_phases(e)
        assert chi[0] == 0.0
        assert chi[1] == pytest.approx(float(np.angle(ov.O12)), abs=1e-14)
        assert chi[2] == pytest.approx(float(np.angle(ov.O13)), abs=1e-14)

    def test_failure_vectors_live_in_the_last_mode(self):
        e = fifty_fifty_ensemble()
        sol = solve(e)
        phis = failure_vectors(sol, failure_phases(e))
        qs = (sol.q1, sol.q2, sol.q3)
        for phi, q in zip(phis, qs):
            assert len(phi) == 4 and all(type(x) is complex for x in phi)
            np.testing.assert_allclose(phi[:3], 0.0, atol=1e-15)
            assert abs(phi[3]) == pytest.approx(math.sqrt(q), abs=1e-12)

    def test_failure_vectors_reproduce_the_overlaps_of_state_1(self):
        rng = np.random.default_rng(6)
        e = random_ensemble(rng)
        sol = solve(e)
        phis = failure_vectors(sol, failure_phases(e))
        ov = overlaps(e)
        assert np.vdot(phis[0], phis[1]) == pytest.approx(ov.O12, abs=1e-10)
        assert np.vdot(phis[0], phis[2]) == pytest.approx(ov.O13, abs=1e-10)

    def test_design_computes_the_phases_once(self, monkeypatch):
        phases = designer.failure_phases
        calls = {"failure_phases": 0, "angle": 0}

        def counting_phases(e):
            calls["failure_phases"] += 1
            return phases(e)

        monkeypatch.setattr(designer, "failure_phases", counting_phases)
        seen = set()
        for e in stratified_random_ensembles(12, 4):
            sol = solve(e)
            calls["failure_phases"] = 0
            dsn = design(e, sol)
            assert calls["failure_phases"] == 1
            assert dsn.chi == phases(e)
            seen.add(sol.regime)
            if sol.regime is not Regime.POVM:
                # Read off U's outputs: the phases agree within rounding.
                for got, chi in zip(dsn.failure_vectors, dsn.chi):
                    assert abs(cmath.phase(got[3] * cmath.exp(-1j * chi))) <= 1e-12
                continue
            for got, want in zip(dsn.failure_vectors, failure_vectors(sol, phases(e))):
                assert got.tobytes() == np.array(want).tobytes()
        assert seen == set(Regime)
        # Real overlaps and a real L23: arg O12 and arg O13 are the only angles.
        phase = cmath.phase

        def counting_phase(z):
            calls["angle"] += 1
            return phase(z)

        counting_cmath = types.SimpleNamespace(**vars(cmath))
        counting_cmath.phase = counting_phase
        monkeypatch.setattr(designer, "cmath", counting_cmath)
        for e in [fifty_fifty_ensemble(), symmetric_ensemble(0.3)]:
            sol = solve(e)
            calls["angle"] = 0
            design(e, sol)
            assert calls["angle"] == 2


class TestSuccessGram:
    def test_success_gram_decouples_state_1(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = random_ensemble(rng)
            sol = solve(e)
            L = np.array(build_L(e, sol, failure_phases(e)))
            assert abs(L[0, 1]) < 1e-10
            assert abs(L[0, 2]) < 1e-10
            assert L[0, 0].real == pytest.approx(1.0 - sol.q1, abs=1e-12)
            assert np.linalg.eigvalsh((L + L.conj().T) / 2.0).min() >= -1e-10

    def test_inconsistent_failure_probabilities_are_detected(self):
        e = fifty_fifty_ensemble()
        sol = solve(e)
        bogus = FilterSolution(
            q1=1.0, q2=1.0, q3=1.0, Q=1.0,
            regime=sol.regime, A=sol.A, parallel_norm2=sol.parallel_norm2,
        )
        with pytest.raises(InconsistentSolutionError):
            build_L(e, bogus, failure_phases(e))


def numpy_L(e: Ensemble, sol: FilterSolution) -> np.ndarray:
    """The residual Gram matrix of :func:`build_L`, built in numpy."""
    ov = overlaps(e)
    q1, q2, q3 = sol.failure_probabilities
    _, chi2, chi3 = failure_phases(e)
    l12 = ov.O12 - np.sqrt(max(q1 * q2, 0.0)) * np.exp(1j * chi2)
    l13 = ov.O13 - np.sqrt(max(q1 * q3, 0.0)) * np.exp(1j * chi3)
    l23 = ov.O23 - np.sqrt(max(q2 * q3, 0.0)) * np.exp(1j * (chi3 - chi2))
    return np.array(
        [[1.0 - q1, l12, l13],
         [np.conj(l12), 1.0 - q2, l23],
         [np.conj(l13), np.conj(l23), 1.0 - q3]],
        dtype=complex,
    )


def gate_cases(name: str) -> list[tuple[Ensemble, FilterSolution]]:
    """Answered instances of a set, or bogus solutions built from them."""
    if name == "near_parallel":
        ensembles = near_parallel_ensembles(40, 20011203)
    elif name == "fixtures":
        ensembles = oracle_instances("fixtures")
    else:
        ensembles = stratified_random_ensembles(300 if name == "stratified" else 100, 20260816)
    cases = []
    for e in ensembles:
        try:
            sol = solve(e)
        except DegenerateSubspaceError:
            continue
        if name != "bogus":
            cases.append((e, sol))
            continue
        # Scaled failure probabilities: the first-row entries of L no longer
        # vanish, and some of these matrices are indefinite.
        for f in (0.5, 0.9, 0.999, 1.5):
            q = [f * x for x in sol.failure_probabilities]
            cases.append((e, FilterSolution(*q, sol.Q, sol.regime, sol.A, sol.parallel_norm2)))
    if name == "bogus":
        e = fifty_fifty_ensemble()
        sol = solve(e)
        cases.append((e, FilterSolution(1.0, 1.0, 1.0, 1.0, sol.regime, sol.A, sol.parallel_norm2)))
    return cases


class TestLeastEigenvalueGate:
    """``build_L`` gates on a scalar least eigenvalue instead of eigvalsh."""

    @pytest.mark.parametrize("name", ["stratified", "near_parallel", "fixtures", "bogus"])
    def test_same_decision_message_and_eigenvalue_as_eigvalsh(self, name):
        cases = gate_cases(name)
        refused = 0
        for e, sol in cases:
            mat = numpy_L(e, sol)
            want = float(np.linalg.eigvalsh(mat).min())
            assert abs(_least_eigenvalue(mat.tolist()) - want) <= 1e-12
            if want < -1e-8:
                refused += 1
                with pytest.raises(InconsistentSolutionError) as err:
                    build_L(e, sol, failure_phases(e))
                assert str(err.value) == (
                    f"residual Gram matrix has negative eigenvalue {want:.3e}; the "
                    "failure probabilities are not consistent with this ensemble"
                )
            else:
                np.testing.assert_array_equal(build_L(e, sol, failure_phases(e)), mat)
        assert len(cases) >= 4
        assert (refused > 0) == (name == "bogus")


class TestSuccessVectors:
    def test_fifty_fifty_geometry(self):
        e = fifty_fifty_ensemble()
        sol = solve(e)
        L = build_L(e, sol, failure_phases(e))
        vecs, _ = success_vectors(L, sol.failure_probabilities)
        # State 1 succeeds into mode 1 alone; 2 and 3 share modes 2-3.
        assert abs(vecs[0][0]) == pytest.approx(math.sqrt(1.0 - sol.q1), abs=1e-12)
        np.testing.assert_allclose(vecs[0][1:], 0.0, atol=1e-12)
        for v in (vecs[1], vecs[2]):
            assert abs(v[0]) < 1e-12
            assert abs(v[3]) < 1e-12
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        np.testing.assert_allclose(gram, L, atol=1e-10)

    def test_vanishing_success_of_state_1_gives_zero_vector(self):
        e = symmetric_ensemble(0.9)  # q1 = 1 here
        sol = solve(e)
        L = build_L(e, sol, failure_phases(e))
        vecs, _ = success_vectors(L, sol.failure_probabilities)
        np.testing.assert_allclose(vecs[0], 0.0, atol=1e-12)

    def test_vanishing_success_of_state_2_gives_zero_vector(self):
        # psi1's in-span part lies along psi2 and psi3 is orthogonal to both,
        # so q1 = |O12|^2 and q2 = 1 exactly: no mixing angle is defined.
        e = Ensemble(((0.6, 0.0, 0.8), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.9, 0.05, 0.05))
        sol = solve(e)
        assert sol.q2 == 1.0
        L = build_L(e, sol, failure_phases(e))
        vecs, theta = success_vectors(L, sol.failure_probabilities)
        assert vecs[1] == [0j] * 4
        assert theta == math.pi / 4
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        np.testing.assert_allclose(gram, L, atol=1e-12)

    def test_gram_is_reproduced_for_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            e = random_ensemble(rng)
            sol = solve(e)
            L = build_L(e, sol, failure_phases(e))
            vecs, _ = success_vectors(L, sol.failure_probabilities)
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            np.testing.assert_allclose(gram, L, atol=1e-9)

    def test_impossible_success_gram_is_rejected(self):
        # This instance has a nonzero success correlation between states
        # 2 and 3; shrinking their success norms below it is impossible.
        e = symmetric_ensemble(0.5)
        sol = solve(e)
        L = build_L(e, sol, failure_phases(e))
        assert abs(L[1][2]) > 0.1
        bogus = FilterSolution(
            q1=sol.q1, q2=0.999, q3=0.999, Q=sol.Q,
            regime=sol.regime, A=sol.A, parallel_norm2=sol.parallel_norm2,
        )
        L_fake = [list(row) for row in L]
        L_fake[1][1] = complex(1.0 - bogus.q2)
        L_fake[2][2] = complex(1.0 - bogus.q3)
        with pytest.raises(InfeasibleError):
            success_vectors(L_fake, bogus.failure_probabilities)


def unsplit_success_vectors(L, q, swap, signs):
    """``success_vectors`` as one function, each entry formed as ``(sign * r)
    * cos``: the order of operations before the geometry was shared."""
    p = [max(1.0 - q_i, 0.0) for q_i in q]
    l23, p23 = complex(L[1][2]), p[1] * p[2]
    cos2theta, phase3 = 0.0, 1.0 + 0.0j
    if p23 > 1e-24:
        bound = math.sqrt(p23)
        if abs(l23.imag) <= 1e-12 * max(1.0, abs(l23)):
            cos2theta = min(max(l23.real / bound, -1.0), 1.0)
        else:
            cos2theta = min(abs(l23) / bound, 1.0)
            phase3 = cmath.exp(1j * cmath.phase(l23))
    theta = 0.5 * math.acos(cos2theta)
    cos, sin = math.cos(theta), math.sin(theta)
    mode1, mode_a, mode_b = (1, 0, 2) if swap else (0, 1, 2)
    r1, r2, r3 = (math.sqrt(p_i) for p_i in p)
    v1, v2, v3 = ([0j] * 4 for _ in range(3))
    v1[mode1] = complex(signs[0] * r1, 0.0)
    v2[mode_a] = complex(signs[1] * r2 * cos, 0.0)
    v2[mode_b] = complex(signs[1] * r2 * sin, 0.0)
    v3[mode_a] = complex(signs[2] * r3 * cos, 0.0) * phase3
    v3[mode_b] = complex(-signs[2] * r3 * sin, 0.0) * phase3
    return [v1, v2, v3], theta


class TestSharedGeometry:
    """``design`` places the success vectors once per POVM-regime design, and
    none in the projective regimes; the standard placement, and the oracle's
    moves of it to every gauge, have the bits of the unsplit construction
    (on any residual matrix)."""

    @pytest.mark.parametrize("name", ["stratified", "fixtures", "random_2d"])
    def test_design_builds_the_geometry_once(self, monkeypatch, name):
        calls = []
        func = designer.success_vectors
        monkeypatch.setattr(designer, "success_vectors", lambda *args: calls.append(1) or func(*args))
        povm = 0
        for e in oracle_instances(name):
            sol = solve(e)
            del calls[:]
            design(e, sol)
            povm += sol.regime is Regime.POVM
            assert len(calls) == int(sol.regime is Regime.POVM)
        # Inputs spanning 2 modes have w = 1, so they are never POVM.
        assert (povm > 0) == (name != "random_2d")

    @pytest.mark.parametrize(
        "name", ["stratified", "structured", "near_boundary", "random_2d", "rank_2"]
    )
    def test_every_gauge_is_placed_with_the_values_of_success_vectors(self, name):
        """The standard placement has the bits of the unsplit construction,
        and all 16 ``(swap, signs)`` its values: a sign flips the sign of a
        zero at most."""
        seen = set()
        for e in oracle_instances(name)[:100]:
            sol = solve(e)
            L = build_L(e, sol, failure_phases(e))
            q = sol.failure_probabilities
            standard, theta = success_vectors(L, q)
            for swap in (False, True):
                for signs in itertools.product((1, -1), repeat=3):
                    want, want_theta = unsplit_success_vectors(L, q, swap, signs)
                    if not swap and signs == (1, 1, 1):
                        assert np.array(standard).tobytes() == np.array(want).tobytes()
                    assert np.array_equal(placed(standard, swap, signs), want)
                    assert theta == want_theta
                    seen.add((swap, signs))
        assert len(seen) == 16


class TestEmbedding:
    def test_three_dimensional_states_gain_a_fourth_zero_mode(self):
        e = fifty_fifty_ensemble()
        emb = embed_inputs(e)
        for vec, state in zip(emb, e.states):
            assert len(vec) == 4 and all(type(x) is complex for x in vec)
            np.testing.assert_allclose(vec[:3], state.amplitudes, atol=0)
            assert vec[3] == 0.0

    def test_two_dimensional_states_are_supported(self):
        e = Ensemble(
            (
                np.array([1.0, 0.0]),
                np.array([0.6, 0.8]),
                np.array([0.6, -0.8]),
            ),
            EQUAL_PRIORS,
        )
        emb = embed_inputs(e)
        assert all(len(v) == 4 for v in emb)

    def test_four_dimensional_states_are_rejected(self):
        vecs = tuple(np.eye(4)[:3])
        e = Ensemble(vecs, EQUAL_PRIORS)
        with pytest.raises(DomainError):
            embed_inputs(e)


#: Entries that ``complex()`` parses or refuses with a bare error, and that
#: ``StateVector`` and ``decompose`` refuse as not numbers.
NOT_NUMBERS = [None, "1", "1+0j", b"1", "abc"]


class TestCompleteUnitary:
    def test_maps_inputs_to_outputs_unitarily(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = random_ensemble(rng)
            dsn = design(e)
            unitary = np.array(complete_unitary(e, dsn.outputs))
            np.testing.assert_allclose(
                unitary.conj().T @ unitary, np.eye(4), atol=1e-10
            )
            for vec, out in zip(embedded(e), dsn.outputs):
                np.testing.assert_allclose(unitary @ vec, out, atol=1e-9)

    def test_gram_mismatch_is_rejected_with_the_offending_pair(self):
        e = fifty_fifty_ensemble()
        outputs = [v.copy() for v in fifty_fifty_expected_outputs()]
        outputs[2] = np.array([0.0, 0.0, 1.0, 0.0])  # wrong inner products
        with pytest.raises(NoUnitaryError) as err:
            complete_unitary(e, outputs)
        assert "(2, 3)" in str(err.value) or "(1, 3)" in str(err.value)

    def test_gram_refusal_names_the_pair_of_a_full_scan(self):
        """Only entries i <= j are compared; the pair and the message are
        those of scanning all 9 entries in row-major order."""
        rng = np.random.default_rng(29)
        for k in range(60):
            e = random_ensemble(rng)
            outputs = [np.array(v) for v in design(e).outputs]
            outputs[k % 3] = outputs[k % 3] + 1e-3 * (rng.normal(size=4) + 1j * rng.normal(size=4))
            outs = [[complex(x) for x in v] for v in outputs]
            diff = [
                abs(g - designer._vdot(a, b))
                for row, a in zip(gram_matrix(e.states), outs)
                for g, b in zip(row, outs)
            ]
            i, j = divmod(diff.index(max(diff)), 3)
            with pytest.raises(NoUnitaryError) as err:
                complete_unitary(e, outputs)
            assert str(err.value) == (
                "no unitary maps these inputs to these outputs: inner products "
                f"of pair ({i + 1}, {j + 1}) differ by {max(diff):.3e} (tolerance 1e-08)"
            )

    @pytest.mark.parametrize(
        "bad", [math.nan, complex(0.0, math.nan), math.inf, complex(0.0, -math.inf)]
    )
    @pytest.mark.parametrize("vector", [0, 1, 2])
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_non_finite_output_entries_are_refused(self, bad, vector, mode):
        """A NaN failed no ``x > tol`` gate; it is refused like a mismatch,
        in every output vector, on the signal modes and the failure mode."""
        outputs = [v.astype(complex) for v in fifty_fifty_expected_outputs()]
        outputs[vector][mode] = bad
        with pytest.raises(NoUnitaryError) as err:
            complete_unitary(fifty_fifty_ensemble(), outputs)
        pair = str(err.value).split("pair ")[1][:6]
        assert str(vector + 1) in pair
        assert str(err.value).endswith(
            f"differ by {'nan' if cmath.isnan(bad) else 'inf'} (tolerance 1e-08)"
        )

    @pytest.mark.parametrize("outputs", [5, [[1.0, 0.0]] * 3, [None] * 3])
    def test_outputs_that_are_not_three_4_vectors_are_refused(self, outputs):
        with pytest.raises(DomainError) as err:
            complete_unitary(fifty_fifty_ensemble(), outputs)
        assert str(err.value) == "outputs must be three 4-mode vectors"

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    @pytest.mark.parametrize("vector, mode", [(0, 0), (1, 2), (2, 3)])
    def test_entries_that_are_not_numbers_are_refused(self, bad, vector, mode):
        """``complex()`` alone parses "1" and "1+0j", and raises a bare
        ValueError for "abc"; a string is not a number here."""
        outputs = [list(v.astype(complex)) for v in fifty_fifty_expected_outputs()]
        outputs[vector][mode] = bad
        with pytest.raises(DomainError) as err:
            complete_unitary(fifty_fifty_ensemble(), outputs)
        assert str(err.value) == "outputs must be three 4-mode vectors"


class TestDesignShapes:
    """A design holds 3 rows of 4 entries per vector field, a 4x4 unitary and
    state 1 on port 1 or 2."""

    @pytest.fixture(scope="class")
    def fields(self):
        dsn = design(fifty_fifty_ensemble())
        return {name: getattr(dsn, name) for name in type(dsn)._fields}

    @pytest.mark.parametrize(
        "name", ["success_vectors", "failure_vectors", "unitary", "embedded_inputs"]
    )
    @pytest.mark.parametrize("shape", ["short rows", "long rows", "one row fewer", "one row more"])
    def test_other_shapes_are_refused_naming_the_field(self, fields, name, shape):
        rows = [list(row) for row in fields[name]]
        if shape == "short rows":
            rows = [row[:3] for row in rows]
        elif shape == "long rows":
            rows[-1].append(0j)
        elif shape == "one row fewer":
            rows.pop()
        else:
            rows.append([0j] * 4)
        count = 4 if name == "unitary" else 3
        with pytest.raises(DomainError) as err:
            MeasurementDesign(**{**fields, name: rows})
        lengths = [len(row) for row in rows]
        assert str(err.value) == f"{name} must be {count} rows of 4 entries, got {lengths}"

    @pytest.mark.parametrize(
        "name", ["success_vectors", "failure_vectors", "unitary", "embedded_inputs"]
    )
    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    def test_entries_that_are_not_numbers_are_refused_naming_the_field(self, fields, name, bad):
        """Strings were parsed as numbers, and None raised a bare TypeError."""
        rows = [list(row) for row in fields[name]]
        rows[-1][1] = bad
        count = 4 if name == "unitary" else 3
        with pytest.raises(DomainError) as err:
            MeasurementDesign(**{**fields, name: rows})
        assert str(err.value) == f"{name} must be {count} rows of 4 numbers, got {rows!r}"

    @pytest.mark.parametrize("port", [0, 3, 4, -1, 1.0, 2.0, "x", None, True])
    def test_other_state1_ports_are_refused_naming_the_field(self, fields, port):
        # sample would miscount violations for 0, 3 or 4, and fail with a
        # bare TypeError for 1.0 or "x".
        with pytest.raises(DomainError) as err:
            MeasurementDesign(**{**fields, "state1_port": port})
        assert str(err.value) == f"state1_port must be the int 1 or 2, got {port!r}"

    @pytest.mark.parametrize("port", [1, 2])
    def test_ports_1_and_2_are_accepted(self, fields, port):
        assert MeasurementDesign(**{**fields, "state1_port": port}).state1_port == port

    def test_embedded_inputs_of_3_entries_never_reach_port_probabilities(self, fields):
        embedded_3 = [row[:3] for row in fields["embedded_inputs"]]
        with pytest.raises(DomainError, match="^embedded_inputs must be 3 rows of 4 entries"):
            MeasurementDesign(**{**fields, "embedded_inputs": embedded_3})

    def test_the_designed_shapes_are_accepted_as_rows(self, fields):
        rows = {name: [list(row) for row in fields[name]] for name in designer._VECTOR_FIELDS}
        dsn = MeasurementDesign(**{**fields, **rows})
        reference = design(fifty_fifty_ensemble())
        for i in range(3):
            assert port_probabilities(dsn, i) == port_probabilities(reference, i)


class TestDesignedMeasurement:
    def test_fifty_fifty_reference_design(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        for got, want in zip(dsn.outputs, fifty_fifty_expected_outputs()):
            np.testing.assert_allclose(got, want, atol=1e-9)
        assert dsn.theta == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert dsn.chi == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
        assert dsn.state1_port == 1
        assert dsn.set_ports == (2, 3)
        got_u = dsn.unitary
        want_u = fifty_fifty_expected_unitary()
        np.testing.assert_allclose(got_u[:, :3], want_u[:, :3], atol=1e-9)
        # The completion column is fixed only up to a global phase; anchor
        # the phase on the largest expected entry and compare in full.
        anchor = int(np.argmax(np.abs(want_u[:, 3])))
        phase = got_u[anchor, 3] / want_u[anchor, 3]
        assert abs(abs(phase) - 1.0) < 1e-9
        np.testing.assert_allclose(got_u[:, 3], phase * want_u[:, 3], atol=1e-9)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.65])
    def test_symmetric_triple_reference_design(self, s):
        e = symmetric_ensemble(s)
        dsn = design(e)
        for got, want in zip(dsn.outputs, symmetric_expected_outputs(s)):
            np.testing.assert_allclose(got, want, atol=1e-9)
        # State 1 succeeds into mode 2 for this family.
        assert dsn.state1_port == 2
        assert dsn.set_ports == (1, 3)
        got_u = dsn.unitary
        want_u = symmetric_expected_unitary(s)
        np.testing.assert_allclose(got_u[:, :3], want_u[:, :3], atol=1e-9)
        np.testing.assert_allclose(
            np.abs(got_u[:, 3]), np.abs(want_u[:, 3]), atol=1e-9
        )

    def test_orthogonal_triple_needs_no_interferometer(self):
        dsn = design(orthogonal_ensemble())
        np.testing.assert_allclose(dsn.unitary, np.eye(4), atol=1e-9)

    def test_unambiguity_and_failure_rates_for_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            e = random_ensemble(rng)
            sol = solve(e)
            dsn = design(e, sol)
            unitary = dsn.unitary
            np.testing.assert_allclose(
                unitary.conj().T @ unitary, np.eye(4), atol=1e-10
            )
            outs = [unitary @ v for v in embedded(e)]
            claim = dsn.state1_port - 1
            others = [p - 1 for p in dsn.set_ports]
            qs = (sol.q1, sol.q2, sol.q3)
            for i, out in enumerate(outs):
                probs = np.abs(out) ** 2
                if i == 0:
                    assert probs[others].sum() < 1e-10
                else:
                    assert probs[claim] < 1e-10
                assert probs[3] == pytest.approx(qs[i], abs=1e-9)

    def test_gram_preservation_for_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            e = random_ensemble(rng)
            dsn = design(e)
            gram_in = gram_matrix([StateVector(v) for v in embedded(e)])
            gram_out = gram_matrix([StateVector(v) for v in dsn.outputs])
            np.testing.assert_allclose(gram_in, gram_out, atol=1e-9)

    def test_solution_is_recomputed_when_not_supplied(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        assert dsn.solution.Q == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert dsn.solution.regime is Regime.POVM

    def test_vector_fields_are_read_only_views_of_python_rows(self):
        for e in stratified_random_ensembles(10, 3) + [fifty_fifty_ensemble()]:
            dsn = design(e)
            rows = {
                "success_vectors": dsn._success_vectors,
                "failure_vectors": dsn._failure_vectors,
                "unitary": dsn._unitary,
                "embedded_inputs": dsn._embedded_inputs,
                "outputs": tuple(tuple(row) for row in dsn._outputs),
            }
            for name, want in rows.items():
                assert all(type(x) is complex for row in want for x in row)
                view = getattr(dsn, name)
                arrays = [view] if name == "unitary" else list(view)
                assert all(not a.flags.writeable and a.dtype == complex for a in arrays)
                assert np.array(view).tobytes() == np.array(want, dtype=complex).tobytes()
                assert getattr(dsn, name) is view
            np.testing.assert_array_equal(
                dsn.outputs, np.add(dsn.success_vectors, dsn.failure_vectors)
            )
            # Keyword construction from the views gives the same rows.
            again = rebuilt(dsn)
            assert again._unitary == dsn._unitary
            assert again._success_vectors == dsn._success_vectors
            # Any other name is missing, so hasattr(dsn, "tolist") is False.
            with pytest.raises(AttributeError) as err:
                dsn.tolist
            assert str(err.value) == "tolist"


#: (c, d, priors): psi1 = (c, 0, sqrt(1 - c^2)), psi2 = e1, psi3 at angle d
#: from psi2 in the (1, 2) plane.  psi1's in-span part lies along psi2, so
#: the exact q2 is 1, and ``solve``'s sits ~1e-13 below it.
NEAR_BOUNDARY = [
    (0.36124918817329643, 0.0015538715153622853,
     (0.9931442590823166, 0.005197694402083313, 0.0016580465155999731)),
    (0.2677732690562591, 0.002757912203306029,
     (0.9720706603129428, 0.008503009932030868, 0.019426329755026433)),
    (0.43232303795648774, 0.002019729028931413,
     (0.9450236768594797, 0.0459738187751771, 0.009002504365343153)),
    (0.3511830408451394, 0.0016205241112029261,
     (0.9311220215983655, 0.03740490849834109, 0.03147306990329332)),
    (0.3541359738744093, 0.0018285953477239505,
     (0.9204789243889581, 0.031833777882801215, 0.04768729772824071)),
    (0.4683400588222117, 0.00211162073133565,
     (0.9843088640686495, 0.0016714630649994882, 0.014019672866351085)),
]


def near_boundary_ensemble(c: float, d: float, priors) -> Ensemble:
    return Ensemble(
        (
            np.array([c, 0.0, math.sqrt(1.0 - c * c)]),
            np.array([1.0, 0.0, 0.0]),
            np.array([math.cos(d), math.sin(d), 0.0]),
        ),
        np.asarray(priors),
    )


def oracle_instances(name: str) -> list[Ensemble]:
    rng = np.random.default_rng(20260817)
    if name == "stratified":
        return stratified_random_ensembles(300, 20260816)
    if name == "symmetric":
        return [symmetric_ensemble(s) for s in np.linspace(0.05, 0.95, 19)]
    if name == "structured":
        # 16-candidate path where the permutation changes the layer count.
        # The Gram matrix stops being positive definite near s = 0.906.
        return [
            ensemble_from_overlaps(s, s, s / math.sqrt(2.0))
            for s in np.linspace(0.05, 0.9, 18)
        ]
    if name == "reference":
        return [fifty_fifty_ensemble(), orthogonal_ensemble()]
    if name == "random_3d":
        return [random_ensemble(rng) for _ in range(100)]
    if name == "random_2d":
        return [random_ensemble(rng, dim=2) for _ in range(100)]
    if name == "rank_2":
        return [coplanar_ensemble(rng, in_span=k % 2 == 0) for k in range(100)]
    if name == "fixtures":
        return [load_ensemble(str(p))[0] for p in sorted(FIXTURES_DIR.glob("*.json"))]
    return [near_boundary_ensemble(*args) for args in NEAR_BOUNDARY]


def family_grid(count: int, seed: int) -> list[Ensemble]:
    """A seeded draw from the sweep families' grid: O12 = O13 = s with
    O23 = s (symmetric) or O23 = s2 (two-overlap), at the sweeps' priors;
    overlaps without a positive-definite Gram matrix are skipped."""
    rng = np.random.default_rng(seed)
    priors = [EQUAL_PRIORS, (0.5, 0.3, 0.2), (0.2, 0.5, 0.3)]
    grid, grid2 = np.linspace(0.01, 0.99, 41), np.linspace(-0.95, 0.95, 39)
    ensembles = []
    for _ in range(count):
        s = float(rng.choice(grid))
        o23 = s if rng.random() < 0.25 else float(rng.choice(grid2))
        try:
            ensembles.append(ensemble_from_overlaps(s, s, o23, priors[rng.integers(3)]))
        except InvalidEnsembleError:
            pass
    return ensembles


class TestGaugeSearch:
    """POVM-regime designs score two rotated placements of one completed
    unitary; the projective regimes take none (``TestProjectiveRoute``).
    Against the exhaustive search over the 8 or 16 sign-and-swap gauges,
    each design has no more layers, is exactly zero-error with q on port 4,
    and maps each input onto its success plus failure vector."""

    @pytest.mark.parametrize(
        "name",
        ["stratified", "symmetric", "structured", "reference", "random_3d", "fixtures", "family"],
    )
    def test_no_more_layers_than_the_exhaustive_search(self, name):
        povm = 0
        ensembles = family_grid(400, 20261021) if name == "family" else oracle_instances(name)
        for e in ensembles:
            sol = solve(e)
            if sol.regime is not Regime.POVM:
                continue
            povm += 1
            dsn, want = design(e, sol), exhaustive_design(e, sol)
            layers, bound = len(decompose(dsn.unitary).layers), len(decompose(want.unitary).layers)
            assert layers <= bound
            if name == "random_3d":
                assert bound == 6 and layers < bound  # dense: one column-4 entry is zeroed
            assert dsn.theta == want.theta
            # Column 4's phase is fixed: its largest entry (the first on a tie) is real
            # and positive, to the rounding of the division that fixes it.
            pivot = max([row[3] for row in dsn._unitary], key=abs)
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-15
            # No success amplitude is a negative zero, which the artifacts would print as -0.0.
            assert all(math.copysign(1, x) > 0 for v in dsn._success_vectors for z in v for x in (z.real, z.imag) if x == 0)
            for i, q_i in enumerate(sol.failure_probabilities):
                probs = port_probabilities(dsn, i)
                forbidden = sum(probs[p - 1] for p in dsn.set_ports) if i == 0 else probs[dsn.state1_port - 1]
                assert forbidden <= 1e-24
                assert abs(probs[3] - q_i) <= 1e-12
                x = dsn._embedded_inputs[i]
                amps = [0j + u[0] * x[0] + u[1] * x[1] + u[2] * x[2] + u[3] * x[3] for u in dsn._unitary]
                assert max(abs(a - b) for a, b in zip(amps, dsn._outputs[i])) <= 1e-14
        assert povm


class TestNearBoundary:
    """The six ``NEAR_BOUNDARY`` ensembles are ``VN_SMALL_OVERLAP`` with q2
    exactly 1 (psi2 = e1 lies in the plane of psi2 and psi3), which the
    closed-form w missed by up to 8e-13.  Their designs come straight from
    the measurement basis, and every check passes."""

    def test_the_cli_design_checks_pass(self):
        for args in NEAR_BOUNDARY:
            e = near_boundary_ensemble(*args)
            sol = solve(e)
            assert sol.regime is Regime.VN_SMALL_OVERLAP and sol.q2 == 1.0
            dsn = design(e, sol)
            assert dsn.theta == 0.0
            assert _design_checks(e, dsn, 1e-10) is None
            for i, q_i in enumerate(sol.failure_probabilities):
                assert abs(port_probabilities(dsn, i)[3] - q_i) <= 1e-12

    def test_qfilter_design_answers(self, tmp_path, capsys):
        c, d, priors = NEAR_BOUNDARY[0]
        states = [[c, 0.0, math.sqrt(1.0 - c * c)], [1.0, 0.0, 0.0], [math.cos(d), math.sin(d), 0.0]]
        path = tmp_path / "near_boundary.json"
        path.write_text(json.dumps({
            "schema": "qfilter.ensemble/1",
            "label": "near boundary",
            "states": [[{"re": x, "im": 0.0} for x in state] for state in states],
            "priors": list(priors),
        }))
        assert cli_main(["design", "--input", str(path)]) == 0, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)["solution"]["regime"] == "VN_SMALL_OVERLAP"


def vn_small_cases(name: str) -> list[tuple[Ensemble, FilterSolution]]:
    """The VN_SMALL_OVERLAP instances of a stratified, near-parallel or real set
    (real states, half of them nearly coplanar, first prior dominant)."""
    if name == "stratified":
        ensembles = stratified_random_ensembles(300, 20260816)
    elif name == "near_parallel":
        ensembles = near_parallel_ensembles(40, 20011203)
    else:
        rng = np.random.default_rng(5)
        ensembles = []
        for k in range(60):
            z = rng.normal(size=(3, 3))
            if k % 2:
                z[0] = z[1] + z[2] + 0.1 * z[0]
            states = tuple(v / np.linalg.norm(v) for v in z)
            ensembles.append(Ensemble(states, rng.dirichlet([8.0, 1.0, 1.0])))
    cases = []
    for e in ensembles:
        try:
            sol = solve(e)
        except DegenerateSubspaceError:
            continue
        if sol.regime is Regime.VN_SMALL_OVERLAP:
            cases.append((e, sol))
    return cases


class TestSmallOverlapTheta:
    """q1 = w: the success vectors of states 2 and 3 share port 2."""

    @pytest.mark.parametrize("name", ["stratified", "near_parallel", "real"])
    def test_theta_is_exactly_0(self, name):
        """Each port-4 probability, measured on the basis, is q_i within 1e-9."""
        cases = vn_small_cases(name)
        assert len(cases) >= 15
        for e, sol in cases:
            dsn = design(e, sol)
            assert dsn.theta == 0.0
            unitary = dsn.unitary
            np.testing.assert_allclose(unitary.conj().T @ unitary, np.eye(4), atol=1e-10)
            probs = [np.abs(unitary @ v) ** 2 for v in embedded(e)]
            claim = dsn.state1_port - 1
            others = [p - 1 for p in dsn.set_ports]
            assert probs[0][others].sum() < 1e-10
            assert max(probs[1][claim], probs[2][claim]) < 1e-10
            for p, q_i in zip(probs, sol.failure_probabilities):
                assert p[3] == pytest.approx(q_i, abs=1e-9)
            np.testing.assert_allclose(
                gram_matrix(embedded(e)), gram_matrix(dsn.outputs), atol=1e-9
            )

    def test_q_off_by_twice_the_gate_is_refused_on_near_parallel_states(self):
        """``solve``'s q sit within 1e-10 of the 50-digit optimum where states
        2 and 3 are nearly parallel, so the flat ``GRAM_TOL`` holds there: q1
        moved by half of it designs, q1 moved by twice it, or by 1e-6, is
        refused."""
        optimum = perfbench_module("reference").optimum
        cases = vn_small_cases("near_parallel")
        assert min(1.0 - abs(overlaps(e).O23) for e, _ in cases) < 1e-8
        for e, sol in cases:
            ref = optimum([s.amplitudes for s in e.states], e.priors)[:3]
            assert max(abs(q_i - r_i) for q_i, r_i in zip(sol.failure_probabilities, ref)) <= 1e-10
            design(e, rebuilt(sol, q1=sol.q1 + 0.5 * designer.GRAM_TOL))
            for shift in (2.0 * designer.GRAM_TOL, 1e-6):
                with pytest.raises(InconsistentSolutionError, match="off q by up to"):
                    design(e, rebuilt(sol, q1=sol.q1 + shift))

    def test_qfilter_design_answers_near_parallel_states(self, tmp_path, capsys):
        """The console command designs every near-parallel VN_SMALL_OVERLAP item."""
        cases = vn_small_cases("near_parallel")
        assert len(cases) >= 30
        path = tmp_path / "near_parallel.json"
        for e, _ in cases:
            path.write_text(json.dumps({
                "schema": "qfilter.ensemble/1",
                "states": [[{"re": x.real, "im": x.imag} for x in s.amplitudes] for s in e.states],
                "priors": list(e.priors),
            }))
            assert cli_main(["design", "--input", str(path)]) == 0, capsys.readouterr().err
            assert json.loads(capsys.readouterr().out)["solution"]["regime"] == "VN_SMALL_OVERLAP"


def projective_cases(name: str) -> list[tuple[Ensemble, FilterSolution]]:
    """The projective-regime instances of a set; ``pool`` is the benchmark's
    ``large_overlap`` and ``coplanar_dominant`` pipeline items of seed 1."""
    if name == "pool":
        items = perfbench_module("inputs").pipeline_pool(1)
        ensembles = [
            Ensemble(tuple(it.states), it.priors)
            for it in items if it.stratum in ("large_overlap", "coplanar_dominant")
        ]
    else:
        ensembles = oracle_instances(name)
    cases = [(e, solve(e)) for e in ensembles]
    return [(e, sol) for e, sol in cases if sol.regime is not Regime.POVM]


class TestProjectiveRoute:
    """Projective-regime designs come straight from the measurement basis."""

    @pytest.mark.parametrize("name", ["random_3d", "random_2d", "rank_2", "stratified", "pool"])
    def test_exact_zero_error_with_q_on_port_4(self, name):
        regimes = set()
        for e, sol in projective_cases(name)[:80]:
            dsn = design(e, sol)
            regimes.add(sol.regime)
            assert dsn.state1_port == 1
            assert multiport._unitarity_residual(dsn._unitary) <= 1e-14
            for i, q_i in enumerate(sol.failure_probabilities):
                probs = port_probabilities(dsn, i)
                forbidden = probs[1] + probs[2] if i == 0 else probs[0]
                assert forbidden <= 1e-20
                assert abs(probs[3] - q_i) <= 1e-9
                # U times the input, summed as port_probabilities sums it.
                x = dsn._embedded_inputs[i]
                amps = [0j + u[0] * x[0] + u[1] * x[1] + u[2] * x[2] + u[3] * x[3] for u in dsn._unitary]
                assert amps == list(dsn._outputs[i])
                assert dsn._success_vectors[i][3] == 0 and dsn._failure_vectors[i][:3] == (0j,) * 3
            want = exhaustive_design(e, sol)
            assert len(decompose(dsn.unitary).layers) <= len(decompose(want.unitary).layers)
        assert regimes == {Regime.VN_LARGE_OVERLAP, Regime.VN_SMALL_OVERLAP}

    def test_large_overlap_rows_are_the_measurement_basis(self):
        """Port 1 is e4^T, port 4 conj(psi1), and port 2 leaves mode 3 alone."""
        for e, sol in projective_cases("stratified"):
            if sol.regime is Regime.VN_LARGE_OVERLAP:
                rows = design(e, sol)._unitary
                assert rows[0] == (0j, 0j, 0j, 1 + 0j)
                assert rows[3] == tuple(x.conjugate() for x in embed_inputs(e)[0])
                assert rows[1][2] == rows[1][3] == 0

    def test_small_overlap_port_1_is_orthogonal_to_states_2_and_3(self):
        """Port 3 is e4^T; port 1 certifies state 1 with probability 1 - w."""
        for e, sol in projective_cases("stratified"):
            if sol.regime is Regime.VN_SMALL_OVERLAP:
                dsn = design(e, sol)
                assert dsn._unitary[2] == (0j, 0j, 0j, 1 + 0j)
                assert port_probabilities(dsn, 0)[0] == pytest.approx(1.0 - sol.q1, abs=1e-9)

    @pytest.mark.parametrize("regime", [Regime.VN_LARGE_OVERLAP, Regime.VN_SMALL_OVERLAP])
    @pytest.mark.parametrize("shift", [-2.0, 2.0, 1e5])
    def test_an_inconsistent_solution_is_refused(self, regime, shift):
        """On both sides of ``GRAM_TOL``: q2 moved by 2 (or 1e5) times it is
        refused, and moved by half of it designs."""
        e, sol = next(case for case in projective_cases("stratified") if case[1].regime is regime)
        with pytest.raises(InconsistentSolutionError, match="off q by up to"):
            design(e, rebuilt(sol, q2=sol.q2 + shift * designer.GRAM_TOL))
        design(e, rebuilt(sol, q2=sol.q2 + math.copysign(0.5, shift) * designer.GRAM_TOL))

    def test_a_small_overlap_solution_for_parallel_states_is_refused(self):
        e = Ensemble(((0.6, 0.0, 0.8), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), (0.9, 0.05, 0.05))
        sol = FilterSolution(0.36, 1.0, 1.0, 0.424, Regime.VN_SMALL_OVERLAP, 0.036, 0.36)
        with pytest.raises(InconsistentSolutionError, match="no VN_SMALL_OVERLAP measurement fits"):
            design(e, sol)


def completion_outcome(complete, e, outputs):
    """The unitary, or the class and message of the error raised."""
    try:
        return complete(e, outputs)
    except (DomainError, NoUnitaryError) as exc:
        return type(exc), str(exc)


def completion_residuals(unitary, e, outputs) -> tuple[float, float]:
    """Unitarity residual and worst input-to-output mapping error."""
    unitary = np.asarray(unitary)
    unitarity = np.abs(unitary.conj().T @ unitary - np.eye(4)).max()
    mapping = max(np.abs(unitary @ v - o).max() for v, o in zip(embedded(e), outputs))
    return unitarity, mapping


def assert_completes_like_the_reference(e, outputs, got=None):
    """``complete_unitary`` is as accurate as the reference and, within a
    bound that grows as 1/sigma_min of the inputs, the same unitary."""
    got = np.asarray(complete_unitary(e, outputs) if got is None else got)
    want = reference_complete_unitary(e, outputs)
    for g, w in zip(completion_residuals(got, e, outputs), completion_residuals(want, e, outputs)):
        assert g <= w + 1e-15
    singular = np.linalg.svd(np.array(embedded(e)), compute_uv=False)
    assert np.abs(got - want).max() <= 4e-15 / singular[singular > 1e-10].min()


class TestReferenceCompletion:
    """``complete_unitary`` agrees with ``reference_complete_unitary``, which
    redoes all of its Gram-Schmidt work in numpy on every call."""

    @pytest.mark.parametrize(
        "name",
        ["stratified", "random_2d", "rank_2", "near_boundary", "structured", "fixtures"],
    )
    def test_every_gauge_candidate_matches_the_reference(self, name):
        for e in oracle_instances(name):
            outputs = [outs for *_, outs in gauge_candidates(e, solve(e))]
            assert len(outputs) in (8, 16)
            for outs in outputs:
                assert_completes_like_the_reference(e, outs)

    def test_later_calls_on_one_ensemble_match_the_reference(self):
        rng = np.random.default_rng(31)
        ensembles = [random_ensemble(rng) for _ in range(5)]
        ensembles += [coplanar_ensemble(rng, in_span=k % 2 == 0) for k in range(4)]
        for e in ensembles:
            candidates = list(gauge_candidates(e, solve(e)))
            # The swapped placement first, then the standard one.
            for *_, outs in (candidates[-1], candidates[0], candidates[-1]):
                assert_completes_like_the_reference(e, outs)

    def test_errors_match_the_reference(self):
        e = fifty_fifty_ensemble()
        good = [v.copy() for v in fifty_fifty_expected_outputs()]
        scaled = [v.copy() for v in good]
        scaled[1] *= 1.0 + 1e-6
        cases = [
            [good[0], good[1], np.array([0.0, 0.0, 1.0, 0.0])],  # Gram mismatch
            scaled,  # norm mismatch above GRAM_TOL
            good[:2],
            [v[:3] for v in good],
            [np.append(v, 0.0) for v in good],
            good,
        ]
        kinds = set()
        for outs in cases + cases:  # a second call on the ensemble, same outcome
            want = completion_outcome(reference_complete_unitary, e, outs)
            got = completion_outcome(complete_unitary, e, outs)
            if isinstance(want, np.ndarray):
                assert_completes_like_the_reference(e, outs, got)
                kinds.add(np.ndarray)
            else:
                assert got == want
                kinds.add(want[0])
        assert kinds == {NoUnitaryError, DomainError, np.ndarray}
        four_modes = Ensemble(tuple(np.eye(4)[:3]), EQUAL_PRIORS)
        for _ in range(2):
            want = completion_outcome(reference_complete_unitary, four_modes, good)
            assert want[0] is DomainError
            assert completion_outcome(complete_unitary, four_modes, good) == want


class TestCompletionWork:
    """Each piece of Gram-Schmidt work in a design is done once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count calls of the completion helpers, by name."""
        calls = {"_project_out": 0, "complete_unitary": 0, "input_side": 0, "pivoted": 0}

        def counting(key, name):
            func = getattr(designer, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            monkeypatch.setattr(designer, name, wrapper)

        counting("_project_out", "_project_out")
        counting("complete_unitary", "complete_unitary")
        counting("input_side", "_orthonormal_basis")
        counting("pivoted", "_complement")
        return calls

    def test_project_out_calls_per_design(self, calls):
        """POVM: 3 input vectors, 3 output vectors and the output completion;
        the input completion, e4, is read off.  So is the output completion
        where the outputs leave a mode exactly empty (q = 0 here).  The
        projective regimes complete nothing: ``VN_SMALL_OVERLAP`` projects
        psi1 out of one direction, ``VN_LARGE_OVERLAP`` nothing."""
        counts = set()
        for e in stratified_random_ensembles(40, 8) + oracle_instances("fixtures"):
            sol = solve(e)
            calls.update(_project_out=0, complete_unitary=0)
            dsn = design(e, sol)
            if sol.regime is not Regime.POVM:
                assert calls["complete_unitary"] == 0
                assert calls["_project_out"] == int(sol.regime is Regime.VN_SMALL_OVERLAP)
                counts.add((sol.regime, calls["_project_out"]))
                continue
            # Permutable: one completion, the winner read off its rows.
            assert calls["complete_unitary"] == 1
            empty = any(not any(out[k] for out in dsn._outputs) for k in range(4))
            # 12 when the winner was completed again, 23 before the memo, 8
            # while e4 was projected out
            assert calls["_project_out"] == (6 if empty else 7)
            counts.add(calls["_project_out"])
        assert counts == {6, 7, (Regime.VN_SMALL_OVERLAP, 1), (Regime.VN_LARGE_OVERLAP, 0)}

    @pytest.mark.parametrize("name", ["stratified", "random_2d", "rank_2", "near_boundary"])
    def test_every_design_completes_at_most_one_unitary(self, calls, name):
        """One for a POVM-regime design, none for a projective one; inputs
        spanning 2 modes, and near q2 = 1, included."""
        for e in oracle_instances(name)[:20]:
            sol = solve(e)
            calls.update(complete_unitary=0)
            design(e, sol)
            assert calls["complete_unitary"] == int(sol.regime is Regime.POVM)

    def test_input_side_runs_once_per_completion(self, calls):
        for e in stratified_random_ensembles(6, 9) + [fifty_fifty_ensemble()]:
            calls.update(complete_unitary=0, input_side=0, pivoted=0)
            dsn = design(e)
            later = [outs for *_, outs in gauge_candidates(e, dsn.solution)][-3:]
            for outs in later:
                complete_unitary(e, outs)
            completions = calls["complete_unitary"] + len(later)
            assert completions == 3 + (dsn.solution.regime is Regime.POVM)
            # Each completion orthonormalizes the inputs once, and completes
            # the input basis and the output basis once each.
            assert calls["input_side"] == completions
            assert calls["pivoted"] == 2 * completions

    @pytest.fixture
    def rounds(self, monkeypatch):
        """``(len(basis), mode)`` of each coordinate direction projected out."""
        rounds: list[tuple[int, int]] = []
        project_out = designer._project_out

        def recording(vec, basis):
            rounds.append((len(basis), int(np.argmax(np.abs(vec)))))
            return project_out(vec, basis)

        monkeypatch.setattr(designer, "_project_out", recording)
        return rounds

    def test_empty_modes_are_read_off_without_projecting(self, rounds):
        """2-D inputs leave e3 and e4 exactly empty: both are read off."""
        rng = np.random.default_rng(43)
        inputs = [[v.tolist() for v in embedded(random_ensemble(rng, dim=2))] for _ in range(10)]
        for ins in inputs:
            basis = designer._orthonormal_basis(ins)[0]
            assert len(basis) == 2
            rounds.clear()
            complement = designer._complement(basis)
            assert rounds == []
            assert np.array(complement).tobytes() == np.eye(4, dtype=complex)[2:].tobytes()
            assert np.array(complement).tobytes() == np.array(unpruned_complement(basis)).tobytes()

    def test_empty_modes_of_projective_outputs_are_read_off_without_projecting(self, rounds):
        """A projective design's outputs span 3 modes and leave one exactly
        empty, port 1 or 3 (its row is e4^T): that e_k is read off at entry."""
        bases = [designer._orthonormal_basis(design(e)._outputs)[0] for e, _ in projective_cases("stratified")[:40]]
        assert len(bases) >= 10
        for basis in bases:
            empty = [k for k in range(4) if not any(b[k] for b in basis)]
            assert len(basis) == 3 and len(empty) == 1
            rounds.clear()
            complement = designer._complement(basis)
            assert rounds == []
            assert np.array(complement).tobytes() == np.eye(4, dtype=complex)[empty].tobytes()
            assert np.array(complement).tobytes() == np.array(unpruned_complement(basis)).tobytes()

    @pytest.mark.parametrize("dust", [1e-5, 3e-5])
    def test_an_empty_mode_behind_a_dusty_one_is_projected_out(self, rounds, dust):
        """e4's exact 0 is the least mass, e1's dust the next: e4 is projected
        out first and e1 second, one direction per round, and the completion
        is the unpruned rule's."""
        rows = [[dust, 1.0, 0.2, 0.0], [0.5 * dust, -0.3, 1.0, 0.0]]
        basis = designer._orthonormal_basis([[complex(x) for x in v] for v in rows])[0]
        assert 0.0 < sum(abs(b[0]) ** 2 for b in basis) <= 1e-8
        rounds.clear()
        complement = designer._complement(basis)
        assert rounds == [(2, 3), (3, 0)]
        assert np.array(complement).tobytes() == np.array(unpruned_complement(basis)).tobytes()

    def test_entries_whose_mass_underflows_are_projected_out(self, rounds):
        """An entry of 1e-170 has squared mass 0.0, as an empty mode has; the
        entries, not the masses, decide, so e3 is projected out and keeps it.
        e3 and e4 tie at 0.0, and e3 comes first."""
        basis = [[1 + 0j, 0j, 1e-170 + 0j, 0j], [0j, 1 + 0j, 0j, 0j]]
        assert sum(abs(b[2]) ** 2 for b in basis) == 0.0
        complement = designer._complement(basis)
        assert rounds == [(2, 2), (3, 3)]
        assert complement[0][0] == -1e-170 and complement[0][2] == 1.0
        assert np.array(complement).tobytes() == np.array(unpruned_complement(basis)).tobytes()

    def test_least_mass_pivots_are_the_unpruned_rule(self):
        """On orthonormal bases of 1-3 rounded real 2-D and 3-D inputs, whose
        coordinate masses often tie exactly or within rounding, and of 1-2
        complex 4-D vectors, whose later rounds see the masses each pick
        adds, every completion is orthonormal and orthogonal to its basis.
        It is the largest-residual rule's bit for bit wherever no round's two
        least masses lie within 1e-12, where both rules pick the same
        direction."""
        # Here coordinate masses tie exactly (first) or within an ulp
        # (second), and the least mass is not the largest residual.
        inputs = [[[0.3, 0.1, 0.1]], [[-1.5, -0.8, 0.7], [-0.5, 0.0, 0.5]]]
        rng = np.random.default_rng(53)
        for i in range(3000):
            dim = 2 + i % 2
            inputs.append(np.round(rng.normal(size=(1 + i // 2 % dim, dim)), 1).tolist())
        for i in range(400):
            inputs.append((rng.normal(size=(1 + i % 2, 4)) + 1j * rng.normal(size=(1 + i % 2, 4))).tolist())
        compared, tied = 0, []
        for vectors in inputs:
            rows = [[complex(x) for x in v] + [0j] * (4 - len(v)) for v in vectors]
            basis = designer._orthonormal_basis(rows)[0]
            if not basis:
                continue
            got = designer._complement(basis)
            frame = np.array(basis + got)
            overlap = frame[len(basis):].conj() @ frame.T
            assert np.abs(overlap - np.eye(4)[len(basis):]).max() <= 1e-15, vectors
            same = np.array(got).tobytes() == np.array(unpruned_complement(basis)).tobytes()
            gap = least_mass_gaps(basis)
            if gap > 1e-12:
                assert same, vectors
                compared += 1
            elif not same:
                assert gap <= 1e-15, vectors  # a tie, exact or within rounding
                tied.append(vectors)
        assert compared > 2500
        assert inputs[0] in tied and inputs[1] in tied

    def test_pipeline_completions_are_the_unpruned_rule(self, monkeypatch):
        """Every completion that the POVM designs of the benchmark's
        ``pipeline`` pool of seed 1 make is the largest-residual rule's, bit
        for bit."""
        completions = []
        complement = designer._complement

        def recording(basis):
            completions.append((basis, complement(basis)))
            return completions[-1][1]

        monkeypatch.setattr(designer, "_complement", recording)
        povm = 0
        for item in perfbench_module("inputs").pipeline_pool(1):
            dsn = design(Ensemble(tuple(item.states), item.priors))
            povm += dsn.solution.regime is Regime.POVM
        assert povm >= 20 and len(completions) == 2 * povm
        for basis, got in completions:
            assert np.array(got).tobytes() == np.array(unpruned_complement(basis)).tobytes()


def least_mass_gaps(basis):
    """The least gap, over the rounds of ``designer._complement(basis)``,
    between the two least coordinate masses of the directions not yet
    picked; infinite where the completion is read off."""
    if sum(not any(b[k] for b in basis) for k in range(4)) == 4 - len(basis):
        return math.inf
    full, remaining, gaps = list(basis), list(range(4)), []
    for u in designer._complement(basis):
        mass = sum(np.abs(b) ** 2 for b in full)
        first, second = sorted(mass[k] for k in remaining)[:2]
        gaps.append(second - first)
        remaining.remove(min(remaining, key=lambda k: mass[k]))
        full.append(u)
    return min(gaps)


def unpruned_complement(basis):
    """``designer._complement`` by the largest computed residual: each round
    projects out every remaining coordinate direction and keeps the largest
    residual, the first on a tie."""
    full = list(basis)
    remaining = list(range(4))
    while len(full) < 4:
        units = [[complex(m == k) for m in range(4)] for k in remaining]
        residuals = [designer._project_out(unit, full) for unit in units]
        norms = [designer._norm(w) for w in residuals]
        norm = max(norms)
        pick = norms.index(norm)
        full.append([x * (1.0 / norm) for x in residuals[pick]])
        del remaining[pick]
    return full[len(basis):]


class TestGaugeScoringWork:
    """The gauge search counts layers without building mesh programs."""

    @pytest.mark.parametrize("name", ["stratified", "random_2d", "rank_2", "near_boundary"])
    def test_design_makes_no_decompose_call(self, monkeypatch, name):
        calls = []

        def counting(unitary):
            calls.append(unitary)
            return decompose(unitary)

        for module in (qfilter, multiport, designer):
            monkeypatch.setattr(module, "decompose", counting, raising=False)
        for e in oracle_instances(name)[:40]:
            design(e)
        assert calls == []

    @pytest.mark.parametrize(
        "name, counts",
        [("stratified", {0, 2}), ("structured", {0, 2}), ("reference", {2}), ("near_boundary", {0})],
    )
    def test_layers_are_counted_once_per_placement(self, monkeypatch, name, counts):
        """Two layer counts per POVM-regime design, one per placement, and
        none in the projective regimes.  The design has the fewer layers,
        and state 1 stays on port 1 where the two placements tie."""
        calls = []
        layer_count = designer._layer_count
        monkeypatch.setattr(
            designer, "_layer_count", lambda rows: calls.append(layer_count(rows)) or calls[-1]
        )
        seen, ties = set(), 0
        for e in oracle_instances(name)[:40]:
            sol = solve(e)
            del calls[:]
            dsn = design(e, sol)
            assert len(calls) == (2 if sol.regime is Regime.POVM else 0)
            seen.add(len(calls))
            if calls:
                assert len(decompose(dsn.unitary).layers) == min(calls)
                if calls[0] == calls[1]:
                    ties += 1
                    assert dsn.state1_port == 1
        assert seen == counts
        assert ties or name != "stratified"  # every dense design ties at 5 layers

    @pytest.mark.parametrize("size, refused", [(1e-6, True), (1e-12, False)])
    def test_a_projective_unitary_is_checked_for_unitarity(self, monkeypatch, size, refused):
        """No projective unitary is nulled, so ``design`` checks its unitarity
        once: a row off by 1e-6 is refused, and one off by 1e-12 designs."""
        instances = [e for e, _ in projective_cases("stratified")[:40]]
        projective = designer._projective_unitary

        def perturbed(ins, regime):
            rows = projective(ins, regime)
            rows[1] = [x + size for x in rows[1]]
            return rows

        monkeypatch.setattr(designer, "_projective_unitary", perturbed)
        assert {solve(e).regime for e in instances} == {Regime.VN_LARGE_OVERLAP, Regime.VN_SMALL_OVERLAP}
        for e in instances:
            if refused:
                with pytest.raises(InternalConsistencyError, match="unitarity residual"):
                    design(e)
            else:
                assert design(e).state1_port == 1


def exact(value):
    """``value`` with every type and bit spelled out: containers by type and
    items (a dict key by key), numbers by type and ``float.hex``."""
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, *map(exact, value))
    if isinstance(value, complex):
        return (type(value).__name__, value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, int):
        return (type(value).__name__, value)
    return value


class TestBuiltRecords:
    """``design``, ``decompose`` and ``sample`` build their records directly
    from the values they computed.  Each record stores what the public
    constructor stores given its public fields: the same names, exact types
    (tuples of Python ``complex``, ``float`` and ``int``) and bits."""

    @pytest.mark.parametrize("name", ["stratified", "fixtures", "near_boundary", "random_2d"])
    def test_direct_records_are_what_the_constructors_build(self, name):
        for k, e in enumerate(oracle_instances(name)):
            dsn = design(e, solve(e))
            report = sample(dsn, e, 10**6, k)
            # Read before the ndarray views land in the records' __dict__.
            stored = [exact(r.__dict__) for r in (dsn, report)]
            program = decompose(dsn.unitary)
            records = [dsn, report, program, *program.layers]
            stored += [exact(r.__dict__) for r in records[2:]]
            for record, fields in zip(records, stored):
                again = rebuilt(record)
                assert exact(again.__dict__) == fields, type(record).__name__
                with pytest.raises(AttributeError):
                    setattr(record, record._fields[0], None)
            assert type(dsn.state1_port) is int
            assert all(type(x) is complex for row in dsn._unitary for x in row)
            for layer in program.layers:
                assert BeamSplitterLayer(layer.p, layer.q, layer.t, layer.r, layer.phi) == layer
                assert type(layer.p) is type(layer.q) is int
                assert type(layer.t) is type(layer.r) is type(layer.phi) is float
            assert MeshProgram(program.layers, program.output_phases) == program
            assert all(type(x) is float for row in report._exact_probabilities for x in row)
            assert all(type(x) is int for row in report._counts for x in row)


#: Each public call that reads a number, as a function of an ensemble, its
#: design and the number, with the error and the message it refuses it with.
PAST_THE_FLOAT_RANGE = {
    "StateVector": (lambda e, dsn, x: StateVector([x, 0, 0]), InvalidStateError,
                    "state amplitudes must form a 1-D sequence of numbers"),
    "Ensemble": (lambda e, dsn, x: Ensemble(e.states, [x, 0, 0]), InvalidEnsembleError,
                 "priors must be 3 real numbers"),
    "decompose": (lambda e, dsn, x: decompose([[x, 0, 0, 0], *dsn._unitary[1:]]), DomainError,
                  "matrix rows must be 1-D sequences of numbers"),
    "complete_unitary": (lambda e, dsn, x: complete_unitary(e, [[x, 0, 0, 0]] * 3), DomainError,
                         "outputs must be three 4-mode vectors"),
    "MeasurementDesign": (lambda e, dsn, x: rebuilt(dsn, unitary=[[x, 0, 0, 0]] * 4), DomainError,
                          "unitary must be 4 rows of 4 numbers"),
    "SimulationReport": (lambda e, dsn, x: rebuilt(sample(dsn, e, 100, 1), exact_probabilities=[[x, 0, 0, 0]] * 3),
                         DomainError, "exact_probabilities must be 3 rows of 4 numbers"),
    "BeamSplitterLayer": (lambda e, dsn, x: BeamSplitterLayer(1, 2, x, 0), DomainError,
                          "t, r and phi must be real numbers"),
    "MeshProgram": (lambda e, dsn, x: MeshProgram([], [x, 0]), DomainError,
                    "output phases must be real numbers"),
}


@pytest.mark.parametrize("call", list(PAST_THE_FLOAT_RANGE))
def test_an_int_past_the_float_range_is_refused_naming_the_field(call):
    """``10**400`` has no float: ``complex()`` and ``float()`` raise
    ``OverflowError``, which each parse refuses with its own message."""
    run, error, message = PAST_THE_FLOAT_RANGE[call]
    e = fifty_fifty_ensemble()
    with pytest.raises(error, match=re.escape(message)) as info:
        run(e, design(e), 10**400)
    assert not isinstance(info.value, OverflowError)
