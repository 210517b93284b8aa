"""Measurement design: success/failure vectors and the realizing unitary."""

import cmath
import fractions
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
    InternalConsistencyError,
    InvalidEnsembleError,
    InvalidStateError,
    MeasurementDesign,
    MeshProgram,
    Regime,
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
from qfilter.designer import embed_inputs, failure_phases
from qfilter.states import gram_matrix
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
    near_parallel_ensembles,
    orthogonal_ensemble,
    perfbench_module,
    random_ensemble,
    rebuilt,
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
        dsn = design(e)
        for phi, q in zip(dsn._failure_vectors, dsn.solution.failure_probabilities):
            assert len(phi) == 4 and all(type(x) is complex for x in phi)
            assert phi[:3] == (0j, 0j, 0j)
            assert abs(phi[3]) == pytest.approx(math.sqrt(q), abs=1e-12)

    def test_failure_vectors_reproduce_the_overlaps_of_state_1(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            e = random_ensemble(rng)
            phis = design(e).failure_vectors
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
            # Read off U's outputs: the phases agree within rounding.
            for got, chi in zip(dsn.failure_vectors, dsn.chi):
                assert abs(cmath.phase(got[3] * cmath.exp(-1j * chi))) <= 1e-12
        assert seen == set(Regime)
        # Real overlaps: arg O12 and arg O13 are the only angles.
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
        # Scaled failure probabilities: q1 q_j is no longer |O1j|^2.
        for f in (0.5, 0.9, 0.999, 1.5):
            q = [f * x for x in sol.failure_probabilities]
            cases.append((e, FilterSolution(*q, sol.Q, sol.regime, sol.A, sol.parallel_norm2)))
    if name == "bogus":
        e = fifty_fifty_ensemble()
        sol = solve(e)
        cases.append((e, FilterSolution(1.0, 1.0, 1.0, 1.0, sol.regime, sol.A, sol.parallel_norm2)))
    return cases


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


def ladder_ensembles() -> list[Ensemble]:
    """POVM-regime ensembles with ``a1 = |<n|psi1>| = 10^-k``, k = 1 ... 7, so
    that ``w = 1 - a1^2`` runs to 1 and the inputs' least singular value to
    0: psi2 = e1, psi3 at 60 degrees from it in the (1, 2) plane, psi1 at
    two angles in that plane plus ``a1 e3``, and priors putting A midway
    between eta1 w^2 and eta1.  Formed as ``1 - y^2``, s loses its digits
    here, and the forbidden probabilities grow as (u/a1)^2, to 3e-18."""
    ensembles = []
    psi2, psi3 = np.array([1.0, 0.0, 0.0]), np.array([0.5, math.sqrt(3.0) / 2.0, 0.0])
    for k in range(1, 8):
        a1 = 10.0**-k
        b1 = math.sqrt(1.0 - a1 * a1)
        for phi in (0.3, 1.2):
            psi1 = np.array([b1 * math.cos(phi), b1 * math.sin(phi), a1])
            mean = (abs(psi1 @ psi2) ** 2 + abs(psi1 @ psi3) ** 2) / 2.0
            eta1 = mean / (mean + (1.0 + b1**4) / 2.0)
            ensembles.append(Ensemble((psi1, psi2, psi3), (eta1, (1.0 - eta1) / 2.0, (1.0 - eta1) / 2.0)))
    return ensembles


def orthogonal_triples() -> list[Ensemble]:
    """The orthogonal triple's states in each of their 6 orders, each as
    given and under a real and a complex random unitary, and psi1 = e3 with
    ``|O12| = |O13| = 1e-17`` added, as given and under each unitary.  Only
    the identity order leaves psi1's part off n exactly 0: in the others
    rounding leaves dust, along n itself where psi1 has equal entries in two
    of n's modes (psi1 = (0, r, r) with n = (0, -r, -r))."""
    rng = np.random.default_rng(20261022)
    rotations = [np.eye(3), np.linalg.qr(rng.normal(size=(3, 3)))[0],
                 np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]]
    states = orthogonal_ensemble().states
    triples = [[states[k].amplitudes for k in order] for order in itertools.permutations(range(3))]
    triples.append([np.array([1e-17, 1e-17, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    return [Ensemble(tuple(rot @ np.asarray(s) for s in triple), EQUAL_PRIORS.copy())
            for triple in triples for rot in rotations]


def povm_cases(name: str) -> list[tuple[Ensemble, FilterSolution]]:
    """The POVM-regime instances of a set: an oracle set, the sweep families'
    grid, the a1 ladder, the orthogonal triples, or the answered
    near-parallel items."""
    if name == "orthogonal":
        cases = [(e, solve(e)) for e in orthogonal_triples()]
    elif name == "near_parallel":
        cases = gate_cases("near_parallel")
    elif name == "family":
        cases = [(e, solve(e)) for e in family_grid(400, 20261021)]
    elif name == "ladder":
        cases = [(e, solve(e)) for e in ladder_ensembles()]
    else:
        cases = [(e, solve(e)) for e in oracle_instances(name)]
    return [(e, sol) for e, sol in cases if sol.regime is Regime.POVM]


class TestGaugeSearch:
    """POVM-regime designs are written down from the frame and score two
    placements; the projective regimes take none (``TestProjectiveRoute``).
    Against the exhaustive search over the 8 or 16 sign-and-swap gauges of
    the Gram-Schmidt completion, each design has no more layers, is exactly
    zero-error with q on port 4, and maps each input onto its success plus
    failure vector."""

    @pytest.mark.parametrize(
        "name",
        ["stratified", "symmetric", "structured", "reference", "random_3d", "fixtures", "family",
         "ladder", "orthogonal", "near_parallel"],
    )
    def test_no_more_layers_than_the_exhaustive_search(self, name):
        cases = povm_cases(name)
        assert len(cases) >= 2
        # The orthogonal triple (q1 = 0, where psi1 has no part f) is in these.
        assert any(sol.q1 == 0.0 for _, sol in cases) == (name in ("reference", "fixtures", "orthogonal"))
        for e, sol in cases:
            dsn, want = design(e, sol), exhaustive_design(e, sol)
            layers, bound = len(decompose(dsn.unitary).layers), len(decompose(want.unitary).layers)
            assert layers <= bound
            if name == "random_3d":
                assert bound == 6 and layers < bound  # dense: one column-4 entry is zeroed
            # theta = acos(cos 2 theta) / 2 magnifies an ulp of its argument
            # near theta = 0 and pi/2, where the ladder and near-parallel items go.
            assert abs(math.cos(2.0 * dsn.theta) - math.cos(2.0 * want.theta)) <= 1e-13
            if name not in ("ladder", "near_parallel"):
                assert abs(dsn.theta - want.theta) <= 1e-12
            # Column 4 is real, and its largest entry (the first on a tie) positive.
            column = [row[3] for row in dsn._unitary]
            assert max(column, key=abs).real > 0 and all(x.imag == 0 for x in column)
            # No success amplitude is a negative zero, which the artifacts would print as -0.0.
            assert all(math.copysign(1, x) > 0 for v in dsn._success_vectors for z in v for x in (z.real, z.imag) if x == 0)
            for i, q_i in enumerate(sol.failure_probabilities):
                probs = port_probabilities(dsn, i)
                forbidden = sum(probs[p - 1] for p in dsn.set_ports) if i == 0 else probs[dsn.state1_port - 1]
                assert forbidden <= 1e-24
                assert abs(probs[3] - q_i) <= 1e-12
                x = dsn._embedded_inputs[i]
                amps = [0j + u[0] * x[0] + u[1] * x[1] + u[2] * x[2] + u[3] * x[3] for u in dsn._unitary]
                assert amps == list(dsn._outputs[i])

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

    @pytest.mark.parametrize("name", ["stratified", "rank_2", "random_2d", "fixtures"])
    def test_the_closed_form_meets_both_projective_boundaries(self, name):
        """A projective solution read as a POVM one is the POVM closed form at
        its boundary: q1 = w (s = 0) or q1 = 1 (with w = 1 too on the rank-2
        and 2-D sets, v = 0).  Where rounding puts b1^2 above q1 = w, y is
        taken as 1; every such design is zero-error with q on port 4."""
        cases = [(e, rebuilt(sol, regime=Regime.POVM)) for e, sol in projective_cases(name)]
        assert {sol.failure_probabilities[0] == 1.0 for _, sol in cases} == {True, False}
        for e, sol in cases:
            dsn = design(e, sol)
            for i, q_i in enumerate(sol.failure_probabilities):
                probs = port_probabilities(dsn, i)
                forbidden = sum(probs[p - 1] for p in dsn.set_ports) if i == 0 else probs[dsn.state1_port - 1]
                assert forbidden <= 1e-24
                assert abs(probs[3] - q_i) <= 1e-12

    @pytest.mark.parametrize(
        "name", ["stratified", "symmetric", "structured", "reference", "random_3d", "fixtures", "orthogonal"]
    )
    def test_both_placements_are_zero_error_dilations(self, name):
        """Placement B is placement A's rows in the port order (g, s1, z, 4),
        and each, before any row flip, is unitary and zero-error with q on
        port 4, whichever of the two the design keeps."""
        for e, sol in povm_cases(name):
            ins = embed_inputs(e)
            cand_a, cand_b = designer._povm_candidates(ins, sol.q1)
            s1, z, g, p4 = cand_a
            assert cand_b == [g, s1, z, p4]
            assert z[3] == 0
            assert multiport._unitarity_residual(cand_a) <= 1e-14
            for i, q_i in enumerate(sol.failure_probabilities):
                probs = [abs(sum(u * x for u, x in zip(row, ins[i]))) ** 2 for row in cand_a]
                forbidden = probs[1] + probs[2] if i == 0 else probs[0]
                assert forbidden <= 1e-24
                assert abs(probs[3] - q_i) <= 1e-12

    @pytest.mark.parametrize("name", ["orthogonal", "ladder", "stratified", "rank_2"])
    def test_the_frame_is_orthonormal_and_holds_psi1(self, name):
        """n and f are orthonormal, n is orthogonal to psi2 and psi3, and psi1
        lies in span{n, f}, each within 1e-14, also where psi1's part off n
        is rounding dust lying along n (the orthogonal triples)."""
        sets = {"orthogonal": orthogonal_triples, "ladder": ladder_ensembles}
        for e in sets[name]() if name in sets else oracle_instances(name):
            ins = np.array(embed_inputs(e))
            n, f = np.array(designer._frame(ins.tolist()))
            np.testing.assert_allclose(np.array([n, f]).conj() @ np.array([n, f]).T, np.eye(2), atol=1e-14)
            assert abs(np.vdot(n, ins[1])) <= 1e-14 and abs(np.vdot(n, ins[2])) <= 1e-14
            assert np.linalg.norm(ins[0] - np.vdot(n, ins[0]) * n - np.vdot(f, ins[0]) * f) <= 1e-14

    def test_every_bogus_solution_is_refused(self):
        """Scaled q (q1 q_j != |O1j|^2 for a scale other than 1, or q1 outside
        [w, 1]) and q = (1, 1, 1) on the fifty-fifty instance, in every
        regime: no design is built."""
        cases = gate_cases("bogus")
        assert {sol.regime for _, sol in cases} == set(Regime)
        for e, sol in cases:
            with pytest.raises(InconsistentSolutionError):
                design(e, sol)


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


def one_of_each_regime() -> dict[Regime, Ensemble]:
    """The first instance of each regime in a small stratified draw."""
    found = {}
    for e in stratified_random_ensembles(12, 4):
        found.setdefault(solve(e).regime, e)
    assert set(found) == set(Regime)
    return found


class TestSuppliedSolution:
    """``design`` reads a supplied solution's q as floats, once: anything but
    3 finite real numbers is refused with ``InconsistentSolutionError``
    naming them.  Unparsed, a NaN q1 passed every square root and was
    blamed on the code (``InternalConsistencyError`` from the nulling), a NaN
    q2 was refused as "off q by up to 1.110e-16", and a string or None
    raised a bare ``TypeError``."""

    REFUSAL = "failure probabilities must be 3 finite real numbers, got "

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("field", ["q1", "q2", "q3"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_a_q_that_is_not_finite_is_refused(self, regime, field, bad):
        e = one_of_each_regime()[regime]
        sol = rebuilt(solve(e), **{field: bad})
        with pytest.raises(InconsistentSolutionError) as err:
            design(e, sol)
        assert str(err.value) == self.REFUSAL + repr(sol.failure_probabilities)

    @pytest.mark.parametrize("field", ["q1", "q2", "q3"])
    @pytest.mark.parametrize("bad", NOT_NUMBERS + [0.5j])
    def test_a_q_that_is_not_a_real_number_is_refused(self, field, bad):
        e = fifty_fifty_ensemble()
        sol = rebuilt(solve(e), **{field: bad})
        with pytest.raises(InconsistentSolutionError) as err:
            design(e, sol)
        assert str(err.value) == self.REFUSAL + repr(sol.failure_probabilities)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("cast", [np.float64, fractions.Fraction])
    def test_other_real_types_design_as_their_floats(self, regime, cast):
        e = one_of_each_regime()[regime]
        sol = solve(e)
        cast_sol = rebuilt(sol, **{f: cast(getattr(sol, f)) for f in ("q1", "q2", "q3")})
        dsn, want = design(e, cast_sol), design(e, sol)
        assert dsn.solution is cast_sol
        assert exact(dsn._unitary) == exact(want._unitary)
        assert exact(dsn._failure_vectors) == exact(want._failure_vectors)


class TestSuccessSide:
    """The success vectors keep the inputs' Gram matrix less the failure
    vectors' (Gram preservation), state 1's is orthogonal to the other two,
    and a state that always fails leaves no success amplitude."""

    @pytest.mark.parametrize("name", ["stratified", "random_3d", "random_2d", "rank_2", "fixtures"])
    def test_success_gram_is_the_input_gram_less_the_failure_gram(self, name):
        for e in oracle_instances(name)[:40]:
            dsn = design(e)
            ins = gram_matrix([StateVector(v) for v in embedded(e)])
            succ = np.array(dsn.success_vectors)
            fails = np.array(dsn.failure_vectors)
            np.testing.assert_allclose(succ.conj() @ succ.T, ins - fails.conj() @ fails.T, atol=1e-14)
            assert abs(np.vdot(succ[0], succ[1])) <= 1e-12 and abs(np.vdot(succ[0], succ[2])) <= 1e-12
            for v, q in zip(succ, dsn.solution.failure_probabilities):
                assert np.vdot(v, v).real == pytest.approx(1.0 - q, abs=1e-12)

    def test_state_1_leaves_nothing_where_it_always_fails(self):
        cases = [case for case in projective_cases("stratified") if case[1].regime is Regime.VN_LARGE_OVERLAP]
        assert cases
        for e, sol in cases:
            assert sol.q1 == 1.0
            assert sum(abs(x) ** 2 for x in design(e, sol)._success_vectors[0]) <= 1e-30

    def test_state_2_leaves_nothing_where_it_always_fails(self):
        for args in NEAR_BOUNDARY:
            e = near_boundary_ensemble(*args)
            dsn = design(e)
            assert dsn.solution.q2 == 1.0
            assert sum(abs(x) ** 2 for x in dsn._success_vectors[1]) <= 1e-30


@pytest.mark.parametrize("size, refused", [(1e-6, True), (1e-12, False)])
@pytest.mark.parametrize("route", ["_projective_unitary", "_povm_candidates"])
def test_the_unitary_is_checked_for_unitarity(monkeypatch, route, size, refused):
    """A row off by 1e-6 is refused, and one off by 1e-12 designs: ``design``
    checks a projective unitary's unitarity, and the layer counts' nulling
    refuses a POVM placement first."""
    povm = route == "_povm_candidates"
    regimes = {Regime.POVM} if povm else {Regime.VN_LARGE_OVERLAP, Regime.VN_SMALL_OVERLAP}
    instances = [e for e in oracle_instances("stratified")[:40] if solve(e).regime in regimes]
    assert {solve(e).regime for e in instances} == regimes
    build = getattr(designer, route)

    def perturbed(*args):
        built = build(*args)
        for rows in built if povm else [built]:
            rows[1] = [x + size for x in rows[1]]
        return built

    monkeypatch.setattr(designer, route, perturbed)
    for e in instances:
        if refused:
            with pytest.raises(InternalConsistencyError, match="unitarity residual|off-diagonal residue"):
                design(e)
        else:
            assert design(e).solution.regime in regimes


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
    "MeasurementDesign": (lambda e, dsn, x: rebuilt(dsn, unitary=[[x, 0, 0, 0]] * 4), DomainError,
                          "unitary must be 4 rows of 4 numbers"),
    "SimulationReport": (lambda e, dsn, x: rebuilt(sample(dsn, e, 100, 1), exact_probabilities=[[x, 0, 0, 0]] * 3),
                         DomainError, "exact_probabilities must be 3 rows of 4 numbers"),
    "design": (lambda e, dsn, x: design(e, rebuilt(dsn.solution, q2=x)), InconsistentSolutionError,
               "failure probabilities must be 3 finite real numbers"),
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
