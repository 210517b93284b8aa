"""Acceptance gate: one test per required behavior, at stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Tolerances and runtime budgets are part of the contract
and are asserted here, not merely logged.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from qfilter import (
    Ensemble,
    Regime,
    StateVector,
    appendix_residuals,
    brute_force_filter,
    design,
    ensemble_from_overlaps,
    overlaps,
    parallel_component_norm2,
    sample,
    solve,
    three_state_Q,
    von_neumann_baseline,
)
from qfilter.cli import main
from qfilter.multiport import decompose, recompose
from qfilter.states import gram_matrix

from conftest import (
    EQUAL_PRIORS,
    embedded,
    fifty_fifty_ensemble,
    fifty_fifty_expected_outputs,
    fifty_fifty_expected_unitary,
    m_matrix,
    random_ensemble,
    stratified_random_ensembles,
    swapped_23,
    symmetric_ensemble,
    symmetric_expected_outputs,
    symmetric_expected_unitary,
)

RT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def regime_spanning_suite():
    """200 randomized ensembles solved both ways, shared by two criteria."""
    start = time.perf_counter()
    ensembles = stratified_random_ensembles(200, seed=20260816)
    rows = []
    counts = {regime: 0 for regime in Regime}
    for e in ensembles:
        sol = solve(e)
        oracle = brute_force_filter(e, resolution=1e-4)
        counts[sol.regime] += 1
        rows.append((e, sol, oracle))
    elapsed = time.perf_counter() - start
    return rows, counts, elapsed


def test_closed_form_symmetric_family():
    start = time.perf_counter()
    for s in (0.1, 0.3, 0.5, 1.0 / RT2):
        sol = solve(symmetric_ensemble(s))
        assert abs(sol.q1 - RT2 * s) <= 1e-12
        assert abs(sol.q2 - s / RT2) <= 1e-12
        assert abs(sol.q3 - s / RT2) <= 1e-12
        assert abs(sol.Q - 2.0 * RT2 * s / 3.0) <= 1e-12
    for s in (0.8, 0.9):
        sol = solve(symmetric_ensemble(s))
        assert abs(sol.q1 - 1.0) <= 1e-12
        assert abs(sol.q2 - s * s) <= 1e-12
        assert abs(sol.q3 - s * s) <= 1e-12
        assert abs(sol.Q - (1.0 / 3.0 + 2.0 * s * s / 3.0)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_fifty_fifty_instance_values():
    e = fifty_fifty_ensemble()
    sol = solve(e)
    assert abs(sol.q1 - 2.0 / 3.0) <= 1e-12
    assert abs(sol.q2 - 1.0 / 3.0) <= 1e-12
    assert abs(sol.q3 - 1.0 / 3.0) <= 1e-12
    assert abs(sol.Q - 4.0 / 9.0) <= 1e-12
    assert abs(von_neumann_baseline(e) - 5.0 / 9.0) <= 1e-12


def test_filtering_vs_identification_ratio():
    s1, s2 = RT2 / 5.0, 4.0 / 5.0
    e = ensemble_from_overlaps(s1, s1, s2, priors=EQUAL_PRIORS)
    q_filter = solve(e).Q
    q_prime_closed = (s1 * s1 / s2 + 2.0 * s2) / 3.0
    q_prime_numeric = three_state_Q(e)
    assert abs(q_prime_numeric - q_prime_closed) <= 1e-9
    for q_prime in (q_prime_closed, q_prime_numeric):
        assert abs(q_filter / q_prime - 0.47) <= 0.005


def test_failure_curve_branch_switch(capsys):
    code = main(["sweep", "--start", "0.01", "--stop", "0.99", "--step", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# qfilter.sweep/1"
    assert lines[1] == "s,Q,Q_prime,Q_double_prime"
    rows = [[float(x) for x in ln.split(",")] for ln in lines[2:]]
    assert len(rows) == 99
    switch = 1.0 / RT2
    for s, q, q_prime, _ in rows:
        if s <= switch:
            assert abs(q - 2.0 * RT2 * s / 3.0) <= 1e-9
        else:
            assert abs(q - (1.0 / 3.0 + 2.0 * s * s / 3.0)) <= 1e-9
        assert q < q_prime


def test_brute_force_matches_closed_forms_across_regimes(
    regime_spanning_suite,
):
    rows, counts, elapsed = regime_spanning_suite
    assert len(rows) == 200
    worst = max(abs(oracle.Q_star - sol.Q) for _, sol, oracle in rows)
    assert worst <= 2e-4
    for regime in Regime:
        assert counts[regime] >= 10, (regime, counts)
    assert elapsed < 30.0


def test_interior_stationarity_residuals(regime_spanning_suite):
    rows, _, _ = regime_spanning_suite
    interior = [
        (e, sol) for e, sol, _ in rows if sol.regime is Regime.POVM
    ]
    assert interior
    for e, sol in interior:
        residuals = appendix_residuals(e, sol)
        for key in ("delta", "delta_12", "delta_13", "stationarity"):
            assert residuals[key] <= 1e-9, (key, residuals[key])


def test_unitary_and_mesh_pipeline():
    cases = []
    for s in (0.3, 0.5):
        cases.append(
            (
                symmetric_ensemble(s),
                symmetric_expected_outputs(s),
                symmetric_expected_unitary(s),
            )
        )
    cases.append(
        (
            fifty_fifty_ensemble(),
            fifty_fifty_expected_outputs(),
            fifty_fifty_expected_unitary(),
        )
    )
    for e, expected_outputs, expected_unitary in cases:
        dsn = design(e)
        unitary = dsn.unitary
        assert np.abs(unitary.conj().T @ unitary - np.eye(4)).max() <= 1e-10
        for vec, want in zip(embedded(e), expected_outputs):
            got = unitary @ vec
            assert np.abs(got - want).max() <= 1e-9
        # Success columns are pinned exactly; the completion column is
        # fixed by a largest-entry-real-positive convention, so compare
        # it up to a global phase.
        assert np.abs(unitary[:, :3] - expected_unitary[:, :3]).max() <= 1e-9
        assert (
            np.abs(np.abs(unitary[:, 3]) - np.abs(expected_unitary[:, 3])).max()
            <= 1e-9
        )
        program = decompose(unitary)
        assert np.abs(recompose(program) - unitary).max() <= 1e-9

    fifty = design(fifty_fifty_ensemble())
    program = decompose(fifty.unitary)
    assert [(layer.p, layer.q) for layer in program.layers] == [(3, 4), (1, 4)]
    for layer in program.layers:
        assert abs(abs(layer.t) - 1.0 / RT2) <= 1e-12
        assert abs(abs(layer.r) - 1.0 / RT2) <= 1e-12


def test_million_trial_audit():
    e = fifty_fifty_ensemble()
    dsn = design(e)
    start = time.perf_counter()
    report = sample(dsn, e, trials=1_000_000, seed=20260816)
    elapsed = time.perf_counter() - start
    assert report.violations == 0
    band = 5.0 * math.sqrt((4.0 / 9.0) * (5.0 / 9.0) / 1_000_000)
    assert abs(report.empirical_Q - 4.0 / 9.0) <= band
    assert elapsed < 10.0


def test_randomized_property_suite():
    rng = np.random.default_rng(424242)

    # Gram preservation through the designed unitary.
    for _ in range(15):
        e = random_ensemble(rng)
        dsn = design(e)
        gram_in = gram_matrix([StateVector(v) for v in embedded(e)])
        gram_out = gram_matrix([StateVector(v) for v in dsn.outputs])
        assert np.abs(np.array(gram_in) - np.array(gram_out)).max() <= 1e-9

    # Residual-operator positivity and the failure-probability bounds.
    for _ in range(40):
        e = random_ensemble(rng)
        sol = solve(e)
        ov = overlaps(e)
        lower = max(
            parallel_component_norm2(e), abs(ov.O12) ** 2, abs(ov.O13) ** 2
        )
        assert sol.q1 >= lower - 1e-10
        assert sol.q1 <= 1.0 + 1e-12
        if sol.q1 > 0.0:
            m = m_matrix(e, sol.q1)
            assert np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() >= -1e-10

    # Exchanging states 2 and 3 exchanges their failure probabilities.
    for _ in range(25):
        e = random_ensemble(rng)
        sol = solve(e)
        swapped = solve(swapped_23(e))
        assert abs(swapped.q1 - sol.q1) <= 1e-12
        assert abs(swapped.q2 - sol.q3) <= 1e-12
        assert abs(swapped.q3 - sol.q2) <= 1e-12

    # A first state lying in the span of the other two leaves no room
    # for an intermediate regime: both projective branches coincide.
    for _ in range(10):
        z = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        psi2, psi3 = (v / np.linalg.norm(v) for v in z)
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1 = coeffs[0] * psi2 + coeffs[1] * psi3
        norm = np.linalg.norm(psi1)
        if norm < 1e-6:
            continue
        psi1 = psi1 / norm
        priors = rng.dirichlet([1.0, 1.0, 1.0])
        e = Ensemble((psi1, psi2, psi3), priors)
        w = parallel_component_norm2(e)
        assert abs(w - 1.0) <= 1e-9
        sol = solve(e)
        assert sol.regime is not Regime.POVM
        eta1 = float(e.priors[0])
        assert abs(sol.Q - (eta1 + sol.A)) <= 1e-9
        assert abs(sol.Q - (eta1 * w + sol.A / w)) <= 1e-9
