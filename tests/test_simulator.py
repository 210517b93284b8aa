"""Exact port statistics, Monte Carlo audit, and the projective baseline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from qfilter import _stream
from qfilter._stream import _seed_words, spawned_stream
from qfilter.filter_core import average_overlap_A
from qfilter.simulator import MAX_TRIALS

from conftest import (
    EQUAL_PRIORS,
    fifty_fifty_ensemble,
    orthogonal_ensemble,
    random_ensemble,
    rebuilt,
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

    @pytest.mark.parametrize(
        "name, trials, seed",
        [
            ("trials", 2.7, 0),
            ("trials", "100", 0),
            ("trials", 1.0, 0),
            ("seed", 100, 1.0),
            ("seed", 100, "7"),
        ],
    )
    def test_trials_and_seed_must_be_integers(self, name, trials, seed):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        with pytest.raises(DomainError) as err:
            sample(dsn, e, trials, seed)
        value = trials if name == "trials" else seed
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    def test_integral_trials_and_seed_are_accepted(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        report = sample(dsn, e, np.int64(100), np.uint64(7))
        assert (report.trials, report.seed) == (100, 7)
        assert type(report.trials) is int and type(report.seed) is int
        assert report._counts == sample(dsn, e, 100, 7)._counts

    def test_design_and_ensemble_must_match(self):
        e = fifty_fifty_ensemble()
        other = symmetric_ensemble(0.5)
        dsn = design(e)
        with pytest.raises(DomainError):
            sample(dsn, other, trials=100, seed=0)

    def test_port_rows_must_be_distributions(self):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        broken = rebuilt(dsn, unitary=np.multiply(dsn.unitary, math.nan))
        with pytest.raises(DomainError, match="port probabilities of state 1 sum to nan"):
            sample(broken, e, trials=100, seed=0)

    @pytest.mark.parametrize("state1_port", [1, 2])
    @pytest.mark.parametrize("swap_24", [False, True])
    def test_a_leaking_design_counts_its_violations(self, state1_port, swap_24):
        """A design whose unitary passes the inputs through, or exchanges
        modes 2 and 4, sends state 1 to a "not target" port and, with the
        swapped placement, states 2 and 3 to the target's port."""
        e = fifty_fifty_ensemble()
        order = (0, 3, 2, 1) if swap_24 else (0, 1, 2, 3)
        unitary = [[complex(k == m) for m in range(4)] for k in order]
        leaky = rebuilt(design(e), unitary=unitary, state1_port=state1_port)
        report = sample(leaky, e, trials=20_000, seed=9)
        counts = report.counts.tolist()
        claim = state1_port - 1
        not_target = [m for m in (0, 1, 2) if m != claim]
        forbidden = sum(counts[0][m] for m in not_target) + counts[1][claim] + counts[2][claim]
        assert report.violations == forbidden > 0
        assert report.empirical_Q == sum(row[3] for row in counts) / 20_000
        assert (report.empirical_Q > 0.0) is swap_24

    def test_orthogonal_triple_never_hits_the_failure_port(self):
        e = orthogonal_ensemble()
        dsn = design(e)
        report = sample(dsn, e, trials=50_000, seed=5)
        assert report.empirical_Q == 0.0
        assert report.counts[:, 3].sum() == 0
        assert report.violations == 0


def numpy_stream(seed: int) -> np.random.Generator:
    """The reference: numpy's generator of the first stream spawned from `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


#: Weights of a probability row: exact zeros, tiny entries (n*p far below
#: 30 at any n) and entries of order one.
WEIGHT = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 1.0))


class TestStream:
    """The Python-int stream of ``sample`` is numpy's, bit for bit."""

    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160)),
        n=st.one_of(st.integers(1, 200), st.integers(1, MAX_TRIALS)),
        weights=st.lists(WEIGHT, min_size=2, max_size=6).filter(lambda w: sum(w) > 0.0),
    )
    # An entry above 0.5, and a zero row tail behind it.
    @example(seed=2**128, n=MAX_TRIALS, weights=[0.2, 0.0, 0.7, 0.1, 0.0])
    # n*p on both sides of 30 in one row, seed beyond 2^128.
    @example(seed=2**128 + 1, n=10**6, weights=[1e-5, 0.6, 2e-5, 0.4])
    @example(seed=0, n=1, weights=[0.0, 1.0])
    # The third conditional probability rounds above 1: 0.4 / (1 - 0.3 - 0.3).
    @example(seed=3, n=10**6, weights=[0.3, 0.3, 0.4, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_multinomial_matches_numpy(self, seed, n, weights):
        total = sum(weights)
        pvals = [w / total for w in weights]
        ours, ref = spawned_stream(seed), numpy_stream(seed)
        for _ in range(3):
            assert ours.multinomial(n, pvals) == ref.multinomial(n, pvals).tolist()

    @pytest.mark.parametrize(
        "seed", [2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**160 + 1, 2**1000]
    )
    def test_seed_words_match_numpy_across_the_constant_table(self, monkeypatch, seed):
        """The table holds the 20 constants of a seed below 2**128; a larger
        seed extends it.  Each run starts from that size, so both sides of
        its edge, and the growth, are checked every time."""
        monkeypatch.setattr(_stream, "_POOL_CONSTANTS", _stream._POOL_CONSTANTS[:20])
        child = np.random.SeedSequence(seed).spawn(1)[0]
        words = tuple(int(w) for w in child.generate_state(4, np.uint64))
        assert _seed_words(seed, 0) == words
        assert len(_stream._POOL_CONSTANTS) == max(20, 4 * (1 + -(-seed.bit_length() // 32)))
        ours, ref = spawned_stream(seed), numpy_stream(seed)
        assert [ours.next_double() for _ in range(8)] == ref.random(8).tolist()

    @pytest.mark.parametrize(
        "n, p", [(10**6, 0.3), (10**9, 0.5), (10**9, 0.97), (5000, 0.02)]
    )
    def test_binomial_matches_numpy_into_the_btpe_tails(self, n, p):
        """500 BTPE draws each.  Draws outside [xl, xr] come from the
        exponential tails with |y - m| > 20, which go through the squeeze
        and, when it is inconclusive, the Stirling bound."""
        ours, ref = spawned_stream(n), numpy_stream(n)
        drawn = [ours.binomial(n, p) for _ in range(500)]
        assert drawn == ref.binomial(n, p, size=500).tolist()
        r = min(p, 1.0 - p)
        m = math.floor(n * r + r)
        p1 = math.floor(2.195 * math.sqrt(n * r * (1.0 - r)) - 4.6 * (1.0 - r)) + 0.5
        # numpy draws B(n, 1 - p) for p > 1/2 and returns n minus it.
        ys = [y if p <= 0.5 else n - y for y in drawn]
        assert any(abs(y - m) > max(p1 + 1, 20) for y in ys)

    #: (seed, n, pvals) -> counts, as numpy 2.4 draws them: the stream stays
    #: fixed even if a later numpy changes its Generator algorithms.
    PINNED = [
        (7, 10**6, [0.5, 0.25, 0.25], [499365, 250252, 250383]),
        (7, 333_333, [1 / 3, 0.0, 0.0, 2 / 3], [110768, 0, 0, 222565]),
        (2**130 + 5, 10**9, [0.05, 0.6, 0.0, 0.35], [49983375, 600011158, 0, 350005467]),
        (12345, 40, [0.9, 0.1], [34, 6]),
        (0, 1, [0.25, 0.25, 0.25, 0.25], [1, 0, 0, 0]),
    ]

    @pytest.mark.parametrize("seed, n, pvals, counts", PINNED)
    def test_pinned_counts(self, seed, n, pvals, counts):
        assert spawned_stream(seed).multinomial(n, pvals) == counts


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
