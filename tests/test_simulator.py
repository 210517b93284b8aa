"""Exact port statistics, Monte Carlo audit, and the projective baseline."""

import collections
import inspect
import itertools
import math
import random
import sys

import mpmath
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
from qfilter._stream import binomial, multinomial
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


#: Weights of a probability row: exact zeros, tiny entries (n*p far below
#: 10 at any n) and entries of order one.
WEIGHT = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 1.0))


def scripted(*draws):
    """A stand-in for ``random.Random(seed).random`` that returns `draws` in
    order, and the iterator, to check afterwards that all were used."""
    it = iter(draws)
    return it.__next__, it


def binomial_steps(run) -> set:
    """Run ``run()`` under a line tracer and return the steps taken in
    frames of ``_stream.binomial``: (line, next line, whether p < 0 on
    reaching it), each line as its stripped source text."""
    lines, first = inspect.getsourcelines(_stream.binomial)
    text = {first + i: line.strip() for i, line in enumerate(lines)}
    steps = set()

    def trace(frame, event, arg):
        if frame.f_code is not _stream.binomial.__code__:
            return None
        prev = None

        def step(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = text[frame.f_lineno]
                steps.add((prev, line, frame.f_locals["p"] < 0.0))
                prev = line
            return step

        return step

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(old)
    return steps


def chi_square_pvalue(observed: dict, pmf: dict, draws: int) -> float:
    """The upper tail of Pearson's chi-square of `observed` counts against
    `draws` times `pmf`, with outcomes in order pooled until each bin
    expects at least 5 draws (the last bin takes the remainder)."""
    bins = [[0, 0.0]]
    for outcome in sorted(pmf):
        if bins[-1][1] >= 5.0:
            bins.append([0, 0.0])
        bins[-1][0] += observed.get(outcome, 0)
        bins[-1][1] += draws * pmf[outcome]
    if len(bins) > 1 and bins[-1][1] < 5.0:
        obs, exp = bins.pop()
        bins[-1][0] += obs
        bins[-1][1] += exp
    assert sum(observed.values()) == draws and set(observed) <= set(pmf)
    stat = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    return float(mpmath.gammainc((len(bins) - 1) / 2, stat / 2, mpmath.inf, regularized=True))


class TestStream:
    """``sample``'s binomials and multinomials over ``random.Random(seed)``."""

    #: (seed, n, pvals) -> counts, recorded on this stream: MT19937 for an
    #: int seed, the geometric method and BTRS.
    PINNED = [
        (7, 10**6, [0.5, 0.25, 0.25], [499743, 250283, 249974]),
        (7, 333_333, [1 / 3, 0.0, 0.0, 2 / 3], [110971, 0, 0, 222362]),
        (2**130 + 5, 10**9, [0.05, 0.6, 0.0, 0.35], [49994116, 599993582, 0, 350012302]),
        (12345, 40, [0.9, 0.1], [34, 6]),
        (0, 1, [0.25, 0.25, 0.25, 0.25], [0, 0, 1, 0]),
    ]

    @pytest.mark.parametrize("seed, n, pvals, counts", PINNED)
    def test_pinned_counts(self, seed, n, pvals, counts):
        assert multinomial(random.Random(seed).random, n, pvals) == counts

    #: (n, p): n*p = 6 (geometric), 10 (BTRS at its edge), 16 and 300
    #: (BTRS); p > 1/2 reflected to n*(1 - p) = 7.5 (geometric) and 60 (BTRS).
    BINOMIAL_CASES = [(30, 0.2), (25, 0.4), (40, 0.4), (1000, 0.3), (50, 0.85), (200, 0.7)]
    #: Seeds fixed in advance; every case is run on each.
    CHI_SQUARE_SEEDS = [1, 2, 3]
    #: Each case passes when its chi-square p-value is at least this level.
    #: 21 cases at 1e-4: an exact sampler fails one by chance with
    #: probability about 2e-3, and for the fixed seeds the outcome is fixed.
    LEVEL = 1e-4
    DRAWS = 20_000

    @pytest.mark.parametrize("seed", CHI_SQUARE_SEEDS)
    @pytest.mark.parametrize("n, p", BINOMIAL_CASES)
    def test_binomial_draws_follow_the_exact_pmf(self, n, p, seed):
        rnd = random.Random(seed).random
        observed = collections.Counter(binomial(rnd, n, p) for _ in range(self.DRAWS))
        pmf = {k: math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)}
        assert chi_square_pvalue(observed, pmf, self.DRAWS) >= self.LEVEL

    @pytest.mark.parametrize("seed", CHI_SQUARE_SEEDS)
    def test_multinomial_draws_follow_the_exact_pmf(self, seed):
        """The chain of conditional binomials, over a row with a zero weight."""
        n, pvals = 4, [0.5, 0.0, 0.3, 0.2]
        rnd = random.Random(seed).random
        observed = collections.Counter(
            tuple(multinomial(rnd, n, pvals)) for _ in range(self.DRAWS)
        )
        pmf = {}
        for a, c in itertools.product(range(n + 1), repeat=2):
            if a + c <= n:
                d = n - a - c
                ways = math.factorial(n) // (math.factorial(a) * math.factorial(c) * math.factorial(d))
                pmf[(a, 0, c, d)] = ways * 0.5**a * 0.3**c * 0.2**d
        assert chi_square_pvalue(observed, pmf, self.DRAWS) >= self.LEVEL

    def test_every_branch_is_reached(self):
        def run():
            rnd = random.Random(1).random
            for n, p in [(30, 0.2), (20, 0.5), (10**6, 0.3), (1000, 0.7)]:
                for _ in range(300):
                    binomial(rnd, n, p)
            # 0.4 / (1 - 0.3 - 0.3) rounds above 1, so its reflection is
            # below 0 and the 0.4 takes every draw left.
            assert multinomial(rnd, 10**6, [0.3, 0.3, 0.4, 1e-17])[3] == 0

        steps = binomial_steps(run)
        arcs = {(prev, line) for prev, line, _ in steps}
        log_test = next(line for _, line in arcs if line.startswith("if math.log(v)"))
        assert ("if p > 0.5:", "return n - binomial(rnd, n, 1.0 - p)") in arcs  # reflection
        assert ("if p <= 0.0:", "return 0", True) in steps  # a chain ratio above 1
        assert ("if n * p < 10.0:", "rate = math.log1p(-p)") in arcs  # geometric method
        assert ("if k < 0 or k > n:", "continue") in arcs  # BTRS: out of range
        assert ("if us >= 0.07 and v <= vr:", "return k") in arcs  # squeeze acceptance
        assert (log_test, "return k") in arcs  # log acceptance
        assert any(prev == log_test and line != "return k" for prev, line in arcs)  # log rejection

    def test_a_zero_draw_is_never_divided_by_nor_its_log_taken(self):
        # Geometric method: log(1 - 0.0) = 0 is a gap of one trial.
        rnd, rest = scripted(0.0, 0.0, 0.5)
        assert binomial(rnd, 5, 0.2) == 2
        assert next(rest, None) is None
        # BTRS: u = 0.0 is rejected; then 0.0 as v at us = 0.03 < 0.07, then
        # the mode by the squeeze.
        rnd, rest = scripted(0.0, 0.03, 0.0, 0.5, 0.5)
        assert binomial(rnd, 100, 0.5) == 50
        assert next(rest, None) is None

    def test_the_geometric_rate_is_log1p(self):
        """At p = 1e-14 a first gap of log(1 - u) / log1p(-p) = 999,600.4
        trials fits in n = 10**6, and the second of 6.9e13 does not: one
        count.  log(1 - p) is 0.08% short, so the first gap would not fit."""
        rnd, rest = scripted(1.0 - math.exp(-9.996e-9), 0.5)
        assert binomial(rnd, 10**6, 1e-14) == 1
        assert next(rest, None) is None

    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160)),
        n=st.one_of(st.integers(1, 200), st.integers(1, MAX_TRIALS)),
        weights=st.lists(WEIGHT, min_size=2, max_size=6).filter(lambda w: sum(w) > 0.0),
    )
    # An entry above 0.5, and a zero row tail behind it.
    @example(seed=2**128, n=MAX_TRIALS, weights=[0.2, 0.0, 0.7, 0.1, 0.0])
    # n*p on both sides of 10 in one row, seed beyond 2^128.
    @example(seed=2**128 + 1, n=10**6, weights=[1e-5, 0.6, 2e-5, 0.4])
    @example(seed=0, n=1, weights=[0.0, 1.0])
    # 0.4 / (1 - 0.3 - 0.3) rounds above 1.
    @example(seed=3, n=10**6, weights=[0.3, 0.3, 0.4, 0.0])
    @example(seed=3, n=10**6, weights=[0.3, 0.3, 0.4, 1e-17])
    @settings(max_examples=300, deadline=None)
    def test_counts_sum_to_n_and_zero_weights_are_never_drawn(self, seed, n, weights):
        total = sum(weights)
        pvals = [w / total for w in weights]
        rnd = random.Random(seed).random
        for _ in range(3):
            counts = multinomial(rnd, n, pvals)
            assert sum(counts) == n and min(counts) >= 0
            assert all(k == 0 for k, p in zip(counts, pvals) if p == 0.0)


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
