"""Measurement design: success/failure vectors and the realizing unitary."""

import gc
import math
import weakref

import numpy as np
import pytest

from qfilter import (
    DomainError,
    Ensemble,
    FilterSolution,
    InconsistentSolutionError,
    InfeasibleError,
    NoUnitaryError,
    Regime,
    StateVector,
    build_L,
    complete_unitary,
    decompose,
    design,
    embed_inputs,
    ensemble_from_overlaps,
    failure_phases,
    failure_vectors,
    gram_matrix,
    overlaps,
    solve,
    success_vectors,
)
import qfilter
from qfilter import designer, multiport
from qfilter.cli import load_ensemble

from conftest import (
    EQUAL_PRIORS,
    FIXTURES_DIR,
    coplanar_ensemble,
    exhaustive_design,
    fifty_fifty_ensemble,
    fifty_fifty_expected_outputs,
    fifty_fifty_expected_unitary,
    gauge_candidates,
    orthogonal_ensemble,
    random_ensemble,
    reference_complete_unitary,
    stratified_random_ensembles,
    symmetric_ensemble,
    symmetric_expected_outputs,
    symmetric_expected_unitary,
)


def embedded(e: Ensemble) -> list[np.ndarray]:
    return [s.padded(4) for s in e.states]


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
        phis = failure_vectors(e, sol)
        qs = (sol.q1, sol.q2, sol.q3)
        for phi, q in zip(phis, qs):
            assert phi.shape == (4,)
            np.testing.assert_allclose(phi[:3], 0.0, atol=1e-15)
            assert abs(phi[3]) == pytest.approx(math.sqrt(q), abs=1e-12)

    def test_failure_vectors_reproduce_the_overlaps_of_state_1(self):
        rng = np.random.default_rng(6)
        e = random_ensemble(rng)
        sol = solve(e)
        phis = failure_vectors(e, sol)
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
            for got, want in zip(dsn.failure_vectors, failure_vectors(e, sol)):
                assert got.tobytes() == want.tobytes()
        # Real overlaps and a real L23: arg O12 and arg O13 are the only angles.
        angle = np.angle

        def counting_angle(z, *args, **kwargs):
            calls["angle"] += 1
            return angle(z, *args, **kwargs)

        monkeypatch.setattr(np, "angle", counting_angle)
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
            L = build_L(e, sol)
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
            build_L(e, bogus)


class TestSuccessVectors:
    def test_fifty_fifty_geometry(self):
        e = fifty_fifty_ensemble()
        sol = solve(e)
        L = build_L(e, sol)
        vecs = success_vectors(L, sol)
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
        vecs = success_vectors(build_L(e, sol), sol)
        np.testing.assert_allclose(vecs[0], 0.0, atol=1e-12)

    def test_gram_is_reproduced_for_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            e = random_ensemble(rng)
            sol = solve(e)
            L = build_L(e, sol)
            vecs = success_vectors(L, sol)
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            np.testing.assert_allclose(gram, L, atol=1e-9)

    def test_impossible_success_gram_is_rejected(self):
        # This instance has a nonzero success correlation between states
        # 2 and 3; shrinking their success norms below it is impossible.
        e = symmetric_ensemble(0.5)
        sol = solve(e)
        L = build_L(e, sol)
        assert abs(L[1, 2]) > 0.1
        bogus = FilterSolution(
            q1=sol.q1, q2=0.999, q3=0.999, Q=sol.Q,
            regime=sol.regime, A=sol.A, parallel_norm2=sol.parallel_norm2,
        )
        L_fake = L.copy()
        L_fake[1, 1] = 1.0 - bogus.q2
        L_fake[2, 2] = 1.0 - bogus.q3
        with pytest.raises(InfeasibleError):
            success_vectors(L_fake, bogus)


class TestEmbedding:
    def test_three_dimensional_states_gain_a_fourth_zero_mode(self):
        e = fifty_fifty_ensemble()
        emb = embed_inputs(e)
        for vec, state in zip(emb, e.states):
            assert vec.shape == (4,)
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
        assert all(v.shape == (4,) for v in emb)

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
            unitary = complete_unitary(e, dsn.outputs)
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
            assert np.array_equal(got.unitary, want.unitary)
            assert got.state1_port == want.state1_port
            assert got.theta == want.theta
            for a, b in zip(got.success_vectors, want.success_vectors):
                assert np.array_equal(a, b)
            assert len(decompose(got.unitary).layers) == len(
                decompose(want.unitary).layers
            )

    def test_near_boundary_set_offers_lone_flips_off_pi_over_4(self):
        for args in NEAR_BOUNDARY:
            e = near_boundary_ensemble(*args)
            sol = solve(e)
            assert abs(build_L(e, sol)[1, 2]) <= 1e-12
            assert abs(design(e, sol).theta - math.pi / 4.0) > 1e-12


def completion_outcome(complete, e, outputs):
    """The unitary's bytes, or the class and message of the error raised."""
    try:
        return complete(e, outputs).tobytes()
    except (DomainError, NoUnitaryError) as exc:
        return type(exc), str(exc)


class TestReferenceCompletion:
    """``complete_unitary`` is bit for bit ``reference_complete_unitary``."""

    @pytest.mark.parametrize(
        "name",
        ["stratified", "random_2d", "rank_2", "near_boundary", "structured", "fixtures"],
    )
    def test_every_gauge_candidate_matches_the_reference(self, name):
        for e in oracle_instances(name):
            outputs = [outs for *_, outs in gauge_candidates(e, solve(e))]
            assert len(outputs) in (8, 16)
            for outs in outputs:
                got = complete_unitary(e, outs)
                assert got.tobytes() == reference_complete_unitary(e, outs).tobytes()

    def test_later_calls_on_one_ensemble_match_the_reference(self):
        rng = np.random.default_rng(31)
        ensembles = [random_ensemble(rng) for _ in range(5)]
        ensembles += [coplanar_ensemble(rng, in_span=k % 2 == 0) for k in range(4)]
        for e in ensembles:
            candidates = list(gauge_candidates(e, solve(e)))
            # The swapped placement first, then the standard one.
            for *_, outs in (candidates[-1], candidates[0], candidates[-1]):
                got = complete_unitary(e, outs)
                assert got.tobytes() == reference_complete_unitary(e, outs).tobytes()

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
            assert completion_outcome(complete_unitary, e, outs) == want
            kinds.add(bytes if isinstance(want, bytes) else want[0])
        assert kinds == {NoUnitaryError, DomainError, bytes}
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
        rebuilt = kept_base = 0
        for e in stratified_random_ensembles(40, 8):
            sol = solve(e)
            calls.update(_project_out=0, complete_unitary=0)
            design(e, sol)
            if calls["complete_unitary"] == 1:
                # 14 before pivot pruning, 23 before the memo
                assert calls["_project_out"] <= 8
                kept_base += 1
            else:
                assert calls["complete_unitary"] == 2
                # 21 before pivot pruning, 43 before the memo
                assert calls["_project_out"] <= 12
                rebuilt += 1
        assert rebuilt and kept_base

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
        inputs = [embedded(random_ensemble(rng, dim=2)) for _ in range(10)]
        bases = [designer._orthonormal_basis(ins)[0] for ins in inputs]
        monkeypatch.setattr(designer, "_project_out", recording)
        eye = np.eye(4, dtype=complex)
        for basis in bases:
            assert len(basis) == 2
            rounds.clear()
            complement = designer._complement(basis)
            # Round one keeps both tied candidates, round two only e4.
            assert rounds == [(2, 2), (2, 3), (3, 3)]
            assert [v.tobytes() for v in complement] == [eye[2].tobytes(), eye[3].tobytes()]

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
