"""Measurement design: success/failure vectors and the realizing unitary."""

import cmath
import gc
import math
import types
import weakref

import numpy as np
import pytest

from qfilter import (
    DegenerateSubspaceError,
    DomainError,
    Ensemble,
    FilterSolution,
    InconsistentSolutionError,
    InfeasibleError,
    NoUnitaryError,
    Regime,
    StateVector,
    decompose,
    design,
    ensemble_from_overlaps,
    overlaps,
    port_probabilities,
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
from qfilter.cli import load_ensemble

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
        for e in stratified_random_ensembles(12, 4):
            sol = solve(e)
            calls["failure_phases"] = 0
            dsn = design(e, sol)
            assert calls["failure_phases"] == 1
            assert dsn.chi == phases(e)
            for got, want in zip(dsn.failure_vectors, failure_vectors(sol, phases(e))):
                assert got.tobytes() == np.array(want).tobytes()
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
        vecs, _ = success_vectors(L, sol.failure_probabilities, False, (1, 1, 1))
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
        vecs, _ = success_vectors(L, sol.failure_probabilities, False, (1, 1, 1))
        np.testing.assert_allclose(vecs[0], 0.0, atol=1e-12)

    def test_vanishing_success_of_state_2_gives_zero_vector(self):
        # psi1's in-span part lies along psi2 and psi3 is orthogonal to both,
        # so q1 = |O12|^2 and q2 = 1 exactly: no mixing angle is defined.
        e = Ensemble(((0.6, 0.0, 0.8), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.9, 0.05, 0.05))
        sol = solve(e)
        assert sol.q2 == 1.0
        L = build_L(e, sol, failure_phases(e))
        vecs, theta = success_vectors(L, sol.failure_probabilities, False, (1, 1, 1))
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
            vecs, _ = success_vectors(L, sol.failure_probabilities, False, (1, 1, 1))
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
            success_vectors(L_fake, bogus.failure_probabilities, False, (1, 1, 1))


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

    @pytest.mark.parametrize("outputs", [5, [[1.0, 0.0]] * 3, [None] * 3])
    def test_outputs_that_are_not_three_4_vectors_are_refused(self, outputs):
        with pytest.raises(DomainError) as err:
            complete_unitary(fifty_fifty_ensemble(), outputs)
        assert str(err.value) == "outputs must be three 4-mode vectors"


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
#: q2 sits ~1e-13 below 1 and L23 vanishes while theta is not pi/4: lone
#: sign flips are then not mode exchanges.
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


class TestGaugeSearch:
    @pytest.mark.parametrize(
        "name",
        [
            "stratified", "symmetric", "structured", "reference",
            "random_3d", "random_2d", "rank_2", "near_boundary",
        ],
    )
    def test_matches_the_exhaustive_search(self, name):
        for e in oracle_instances(name):
            sol = solve(e)
            got, want = design(e, sol), exhaustive_design(e, sol)
            assert len(decompose(got.unitary).layers) == len(
                decompose(want.unitary).layers
            )
            if name in ("random_2d", "rank_2"):
                # Inputs spanning 2 modes: every candidate is still read off
                # the one standard-gauge completion, whose complement is not
                # the one a candidate's own outputs would get.  So a tie on
                # layers may go to another gauge; it must still be exact.
                for i, q_i in enumerate(sol.failure_probabilities):
                    probs = port_probabilities(got, i)
                    ports = [got.state1_port - 1] if i else [p - 1 for p in got.set_ports]
                    assert sum(probs[p] for p in ports) <= 1e-12
                    assert probs[3] == pytest.approx(q_i, abs=1e-12)
                continue
            assert got.state1_port == want.state1_port
            assert got.theta == want.theta
            for a, b in zip(got.success_vectors, want.success_vectors):
                assert np.array_equal(a, b)
            # The same winner, completed in another rounding order (and, on
            # the permutable path, read off the standard-gauge unitary).
            assert np.abs(got.unitary - want.unitary).max() <= 1e-13

    def test_near_boundary_set_offers_lone_flips_off_pi_over_4(self):
        for args in NEAR_BOUNDARY:
            e = near_boundary_ensemble(*args)
            sol = solve(e)
            assert abs(build_L(e, sol, failure_phases(e))[1][2]) <= 1e-12
            assert abs(design(e, sol).theta - math.pi / 4.0) > 1e-12


def vn_small_cases(name: str) -> list[tuple[Ensemble, FilterSolution]]:
    """The VN_SMALL_OVERLAP instances of a stratified, near-parallel or real set.

    The real set (real states, half of them nearly coplanar, first prior
    dominant) is where a negative L23 makes theta pi/2.
    """
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


class TestRankOneTheta:
    """q1 = w makes the success vectors of states 2 and 3 parallel."""

    @pytest.mark.parametrize("name", ["stratified", "near_parallel", "real"])
    def test_theta_is_exactly_0_or_pi_over_2(self, name):
        cases = vn_small_cases(name)
        assert len(cases) >= 15
        thetas = set()
        for e, sol in cases:
            dsn = design(e, sol)
            assert dsn.theta in (0.0, math.pi / 2.0)
            thetas.add(dsn.theta)
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
        if name == "real":
            assert thetas == {0.0, math.pi / 2.0}


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
        for outs in cases + cases:  # the second round reads the memo
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
        for e in stratified_random_ensembles(40, 8) + oracle_instances("fixtures"):
            sol = solve(e)
            calls.update(_project_out=0, complete_unitary=0)
            design(e, sol)
            # Permutable: one completion, the winner read off its rows.
            assert calls["complete_unitary"] == 1
            # 12 when the winner was completed again, 23 before the memo
            assert calls["_project_out"] <= 8

    @pytest.mark.parametrize("name", ["random_2d", "rank_2", "near_boundary"])
    def test_every_design_completes_one_unitary(self, calls, name):
        """Inputs spanning 2 modes, and L23 = 0 off theta = pi/4, included."""
        for e in oracle_instances(name)[:20]:
            sol = solve(e)
            calls.update(complete_unitary=0)
            design(e, sol)
            assert calls["complete_unitary"] == 1

    def test_input_side_runs_once_per_ensemble(self, calls):
        for e in stratified_random_ensembles(6, 9) + [fifty_fifty_ensemble()]:
            calls.update(complete_unitary=0, input_side=0, pivoted=0)
            dsn = design(e)
            later = [outs for *_, outs in gauge_candidates(e, dsn.solution)][-3:]
            for outs in later:
                complete_unitary(e, outs)
            completions = calls["complete_unitary"] + len(later)
            assert calls["input_side"] == 1
            # One pivoted completion of the inputs, one per output triple.
            assert calls["pivoted"] == 1 + completions

    def test_exact_pivot_ties_are_all_projected_out(self, monkeypatch):
        """2-D inputs leave e3 and e4 exactly tied; both are computed, e3 wins."""
        rounds: list[tuple[int, int]] = []
        project_out = designer._project_out

        def recording(vec, basis):
            rounds.append((len(basis), int(np.argmax(np.abs(vec)))))
            return project_out(vec, basis)

        rng = np.random.default_rng(43)
        inputs = [[v.tolist() for v in embedded(random_ensemble(rng, dim=2))] for _ in range(10)]
        bases = [designer._orthonormal_basis(ins)[0] for ins in inputs]
        monkeypatch.setattr(designer, "_project_out", recording)
        for basis in bases:
            assert len(basis) == 2
            rounds.clear()
            complement = designer._complement(basis)
            # Round one keeps both tied candidates, round two only e4.
            assert rounds == [(2, 2), (2, 3), (3, 3)]
            assert np.array(complement).tobytes() == np.eye(4, dtype=complex)[2:].tobytes()

    def test_memo_does_not_keep_the_ensemble_alive(self, monkeypatch):
        frames = weakref.WeakKeyDictionary()
        monkeypatch.setattr(designer, "_INPUT_FRAMES", frames)
        e = random_ensemble(np.random.default_rng(41))
        dsn = design(e)
        assert len(frames) == 1
        del e
        gc.collect()
        assert len(frames) == 0
        four_modes = Ensemble(tuple(np.eye(4)[:3]), EQUAL_PRIORS)
        with pytest.raises(DomainError):
            complete_unitary(four_modes, dsn.outputs)
        assert len(frames) == 0


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
