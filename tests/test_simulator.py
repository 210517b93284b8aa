"""Exact port statistics, Monte Carlo audit, and the projective baseline."""

import math

import numpy as np
import pytest

from qfilter import (
    DomainError,
    Ensemble,
    design,
    parallel_component_norm2,
    port_probabilities,
    sample,
    solve,
    von_neumann_baseline,
)
from qfilter.filter_core import average_overlap_A

from conftest import (
    EQUAL_PRIORS,
    fifty_fifty_ensemble,
    orthogonal_ensemble,
    random_ensemble,
    symmetric_ensemble,
)


class TestPortProbabilities:
    def test_rows_are_probability_distributions(self):
        rng = np.random.default_rng(41)
        e = random_ensemble(rng)
        dsn = design(e)
        for i in range(3):
            probs = port_probabilities(dsn, i)
            assert len(probs) == 4 and all(type(p) is float for p in probs)
            assert min(probs) >= -1e-14
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_matches_unitary_action(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        probs = port_probabilities(dsn, 0)
        np.testing.assert_allclose(
            probs, [1.0 / 3.0, 0.0, 0.0, 2.0 / 3.0], atol=1e-12
        )

    def test_index_is_validated(self):
        dsn = design(fifty_fifty_ensemble())
        with pytest.raises(DomainError):
            port_probabilities(dsn, 3)
        with pytest.raises(DomainError):
            port_probabilities(dsn, -1)


class TestSampling:
    def test_counts_are_consistent(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        report = sample(dsn, e, trials=10_000, seed=1)
        assert report.counts.shape == (3, 4)
        assert int(report.counts.sum()) == report.trials == 10_000
        assert report.seed == 1
        assert report.violations == 0

    def test_fixed_seed_is_reproducible(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        a = sample(dsn, e, trials=5_000, seed=42)
        b = sample(dsn, e, trials=5_000, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.empirical_Q == b.empirical_Q

    def test_different_seeds_differ(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        a = sample(dsn, e, trials=20_000, seed=1)
        b = sample(dsn, e, trials=20_000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_empirical_failure_rate_tracks_the_exact_one(self):
        e = symmetric_ensemble(0.5)
        dsn = design(e)
        sol = solve(e)
        trials = 200_000
        report = sample(dsn, e, trials=trials, seed=3)
        band = 5.0 * math.sqrt(sol.Q * (1.0 - sol.Q) / trials)
        assert abs(report.empirical_Q - sol.Q) <= band
        assert report.violations == 0

    def test_exact_probabilities_weighted_by_priors_give_Q(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            e = random_ensemble(rng)
            dsn = design(e)
            report = sample(dsn, e, trials=1, seed=0)
            weighted = float(
                np.dot(e.priors, report.exact_probabilities[:, 3])
            )
            assert weighted == pytest.approx(dsn.solution.Q, abs=1e-10)

    def test_trial_count_is_validated(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        with pytest.raises(DomainError):
            sample(dsn, e, trials=0, seed=0)
        with pytest.raises(DomainError):
            sample(dsn, e, trials=10**9 + 1, seed=0)

    def test_design_and_ensemble_must_match(self):
        e = fifty_fifty_ensemble()
        other = symmetric_ensemble(0.5)
        dsn = design(e)
        with pytest.raises(DomainError):
            sample(dsn, other, trials=100, seed=0)

    def test_orthogonal_triple_never_hits_the_failure_port(self):
        e = orthogonal_ensemble()
        dsn = design(e)
        report = sample(dsn, e, trials=50_000, seed=5)
        assert report.empirical_Q == 0.0
        assert report.counts[:, 3].sum() == 0
        assert report.violations == 0


class TestProjectiveBaseline:
    def test_fifty_fifty_instance_value(self):
        assert von_neumann_baseline(fifty_fifty_ensemble()) == pytest.approx(
            5.0 / 9.0, abs=1e-12
        )

    def test_orthogonal_triple_is_free(self):
        assert von_neumann_baseline(orthogonal_ensemble()) == 0.0

    def test_large_overlap_branch(self):
        e = symmetric_ensemble(0.9)
        expected = 1.0 / 3.0 + 2.0 * 0.81 / 3.0
        assert von_neumann_baseline(e) == pytest.approx(expected, abs=1e-12)

    def test_small_overlap_branch_uses_the_subspace_split(self):
        e = symmetric_ensemble(0.3, priors=np.array([0.98, 0.01, 0.01]))
        w = parallel_component_norm2(e)
        a_val = average_overlap_A(e)
        expected = 0.98 * w + a_val / w
        assert von_neumann_baseline(e) == pytest.approx(expected, abs=1e-12)

    def test_tiny_parallel_component_keeps_the_projection_value(self):
        # w = d^2 = 1e-14 and A = w/4 > 0: the projection value
        # eta1*w + A/w = 0.25, not the eta1 + A = 0.5 of failing on psi1.
        d = 1e-7
        psi1 = np.array([math.sqrt(1.0 - d * d), d, 0.0])
        e = Ensemble((psi1, np.eye(3)[1], np.eye(3)[2]), np.array([0.5, 0.25, 0.25]))
        assert parallel_component_norm2(e) == pytest.approx(1e-14, rel=1e-12)
        assert von_neumann_baseline(e) == pytest.approx(0.25, abs=1e-12)

    def test_never_beats_the_optimal_measurement(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            e = random_ensemble(rng)
            assert von_neumann_baseline(e) >= solve(e).Q - 1e-12
