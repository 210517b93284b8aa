"""Brute-force cross-validation and comparison baselines."""

import collections
import inspect
import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qfilter import (
    DegenerateSubspaceError,
    DomainError,
    Ensemble,
    InfeasibleError,
    InvalidEnsembleError,
    Regime,
    appendix_residuals,
    brute_force_filter,
    compare,
    ensemble_from_overlaps,
    overlaps,
    parallel_component_norm2,
    solve,
    three_state_Q,
    two_state_Q,
)
from qfilter.states import _cholesky, _overlap_gram, gram_matrix

from conftest import (
    EQUAL_PRIORS,
    coplanar_ensemble,
    fifty_fifty_ensemble,
    grid_three_state_Q,
    orthogonal_ensemble,
    random_ensemble,
    symmetric_ensemble,
)

RT2 = math.sqrt(2.0)

# float.hex of three_state_Q on fixed overlaps (o12, o13, o23) and priors,
# recorded before the search's inner function g was rewritten for speed.
# Rows 5, 15, 24 and 41 were re-recorded when a bracketed search on the slope
# of g replaced golden section: each moved 1 ulp, toward its 50-digit value.
# Next to random triples, some of which change bits when g sums its terms
# in another order, and near-singular Gram matrices (least eigenvalue about
# 2e-7 and 8e-7), the labels name the branch of g each row reaches: q1 = 0
# (two-state limit), eta2 = 0 (d_ratio = inf), eta3 = 0, den = 1 - a13/q1
# = 0, an infeasible x2 = 0, and the kinks of the symmetric family, which
# are read off q0 = conj(O12)*O13/O23 without a search (s = 0.6 lies 8.6e-18
# from the 50-digit value).  The last three rows are real families that the
# kink rule must leave to the search: the minimum off the kink, and q0
# above 1 or below 0.
Q_PRIME_BITS = [
    ("random", (0.130509+0.073895j), (-0.222447+0.279062j), (0.633078+0.339868j), (0.182, 0.366, 0.452), "0x1.90fbfcf4f8750p-1"),
    ("random", (-0.011379+0.049035j), (-0.280282-0.191998j), (-0.297249+0.425487j), (0.549, 0.338, 0.113), "0x1.82b94bbfe190ap-2"),
    ("random", (0.074872+0.002898j), (-0.514633+0.22379j), (0.306782+0.26495j), (0.629, 0.175, 0.196), "0x1.32fb63c118542p-1"),
    ("random", (-0.439013+0.062914j), (0.104092-0.741892j), (0.365225+0.263823j), (0.351, 0.466, 0.183), "0x1.b3de36bd22f75p-1"),
    ("random", (-0.432899-0.265873j), (0.196952-0.261851j), (-0.603892-0.07064j), (0.694, 0.133, 0.173), "0x1.6d3b25a009358p-1"),
    ("random", (0.163255-0.377488j), (-0.113049-0.348039j), (0.008554-0.172483j), (0.322, 0.212, 0.466), "0x1.dace0da7b9fc2p-2"),
    ("random", (0.137523+0.410754j), (-0.33024-0.413658j), (0.00281-0.224271j), (0.593, 0.166, 0.241), "0x1.71378e978e422p-1"),
    ("random", (0.593614+0.248233j), (-0.379949-0.177453j), (0.274711+0.310705j), (0.355, 0.163, 0.482), "0x1.dcf8912e5950ep-1"),
    ("random", (0.381626-0.72211j), (0.659676-0.423066j), (0.564575+0.282165j), (0.21, 0.409, 0.381), "0x1.7c94304be3254p-1"),
    ("random", (0.018489-0.014811j), (0.207742-0.437739j), (0.512238-0.614756j), (0.098, 0.653, 0.249), "0x1.c25a3d0148d2ep-1"),
    ("random", (0.092943+0.21179j), (0.098745-0.335974j), (-0.404943+0.618427j), (0.765, 0.047, 0.188), "0x1.1cc10d8a37ff6p-1"),
    ("random", (0.113497+0.868306j), (0.352147-0.061406j), (-0.093213+0.020448j), (0.3, 0.126, 0.574), "0x1.93a177eb9c9c4p-1"),
    ("random", (-0.115814+0.360973j), (-0.123974+0.304259j), (0.445702-0.13272j), (0.86, 0.08, 0.06), "0x1.2f741e8cc0c10p-2"),
    ("random", (0.105438+0.296958j), (0.018639-0.215631j), (-0.779591+0.20321j), (0.681, 0.025, 0.294), "0x1.b60ab60bc55f2p-2"),
    ("random", (0.286773-0.188753j), (0.317891-0.161119j), (0.205006+0.641401j), (0.586, 0.11, 0.304), "0x1.337c8a26a333ep-1"),
    ("random", (-0.442937-0.156087j), (-0.396308+0.238965j), (-0.031021-0.265486j), (0.385, 0.2, 0.415), "0x1.2efc6ca4577e2p-1"),
    ("random", (-0.012103+0.065379j), (-0.405029+0.175603j), (0.086991+0.013256j), (0.322, 0.166, 0.512), "0x1.9755ef8e53e59p-2"),
    ("random", (0.28408-0.134958j), (0.077436+0.065152j), (-0.00306+0.117103j), (0.39, 0.14, 0.47), "0x1.9b41a823fdb84p-3"),
    ("near-singular", 0.7, 0.96846503539, 0.5, (0.4, 0.35, 0.25), "0x1.ffff42cf63fd6p-1"),
    ("near-singular", 0.7, 0.76145235515, (0.3+0.4j), (0.4, 0.35, 0.25), "0x1.fffff79d7e0fcp-1"),
    ("orthogonal", 0.0, 0.0, 0.0, (0.5, 0.3, 0.2), "0x0.0p+0"),
    ("two-state POVM", 0.0, 0.0, 0.6, (0.2, 0.4, 0.4), "0x1.eb851eb851eb8p-2"),
    ("two-state projective", 0.0, 0.0, 0.6, (0.3, 0.6, 0.1), "0x1.4395810624dd3p-2"),
    ("two-state complex", 0.0, 0.0, (0.3-0.5j), (0.5, 0.25, 0.25), "0x1.2a8b73e294fb4p-2"),
    ("eta2 = 0", 0.5, (0.4+0.2j), 0.3, (0.6, 0.0, 0.4), "0x1.ffae24c69e6f5p-2"),
    ("eta2 = 0", 0.2j, 0.7, -0.4, (0.3, 0.0, 0.7), "0x1.8c44444444444p-1"),
    ("eta3 = 0", 0.5, (0.4+0.2j), 0.3, (0.6, 0.4, 0.0), "0x1.10dcdb7997294p-1"),
    ("eta3 = 0", 0.2j, 0.7, -0.4, (0.3, 0.7, 0.0), "0x1.2626262626262p-1"),
    ("eta1 = 1", 0.5, (0.4+0.2j), 0.3, (1.0, 0.0, 0.0), "0x1.7357357357359p-2"),
    ("den = 0", 0.30240000000000006, 0.54, 0.56, (0.25, 0.25, 0.5), "0x1.40d400eda30c8p-1"),
    ("x2 = 0", 0.54, 0.30240000000000006, 0.56, (0.25, 0.25, 0.5), "0x1.eb367a0f9096cp-2"),
    ("symmetric kink", 0.1, 0.1, 0.1, (0.5, 0.3, 0.2), "0x1.999999999999ap-4"),
    ("symmetric kink", 0.2, 0.2, 0.2, (0.5, 0.3, 0.2), "0x1.999999999999ap-3"),
    ("symmetric kink", 0.3, 0.3, 0.3, (0.5, 0.3, 0.2), "0x1.3333333333334p-2"),
    ("symmetric kink", 0.4, 0.4, 0.4, (0.5, 0.3, 0.2), "0x1.999999999999ap-2"),
    ("symmetric kink", 0.5, 0.5, 0.5, (0.5, 0.3, 0.2), "0x1.0000000000000p-1"),
    ("symmetric kink", 0.6, 0.6, 0.6, (0.5, 0.3, 0.2), "0x1.3333333333333p-1"),
    ("symmetric kink", 0.7, 0.7, 0.7, (0.5, 0.3, 0.2), "0x1.6666666666666p-1"),
    ("symmetric kink", 0.8, 0.8, 0.8, (0.5, 0.3, 0.2), "0x1.999999999999ap-1"),
    ("symmetric kink", 0.9, 0.9, 0.9, (0.5, 0.3, 0.2), "0x1.ccccccccccccdp-1"),
    ("off the kink", 0.5, 0.5, 0.5, (0.8, 0.1, 0.1), "0x1.dcdca3d985faep-2"),
    ("q0 = 1.2", 0.6, 0.6, 0.3, (0.5, 0.3, 0.2), "0x1.64ff84396ed8fp-1"),
    ("q0 < 0", 0.5, 0.5, -0.3, (0.5, 0.3, 0.2), "0x1.b6028062f6259p-1"),
]


def kink_50_digits(e):
    """(g(q0), left slope, right slope) of g at q0 = conj(O12)*O13/O23, at 50
    digits, or None unless q0 is real and lies in (max(|P psi1|^2, |O12|^2,
    |O13|^2), 1) (see :func:`three_state_Q`).  The float overlaps that
    three_state_Q receives are taken as exact, so that the rounding of
    :func:`overlaps` itself (an ulp or two of O23 on some inputs) is not
    charged to three_state_Q."""
    ov = overlaps(e)
    with mpmath.workdps(50):
        o12, o13, o23 = (mpmath.mpc(z.real, z.imag) for z in (ov.O12, ov.O13, ov.O23))
        eta1, eta2, eta3 = (mpmath.mpf(p) for p in e.priors)
        c = mpmath.conj(o12) * o13
        q0 = c / o23
        if q0.imag:
            return None
        q0 = q0.real
        a12, a13 = abs(o12) ** 2, abs(o13) ** 2
        lo = (a12 + a13 - 2 * (o23 * mpmath.conj(c)).real) / (1 - abs(o23) ** 2)
        if not max(lo, a12, a13) < q0 < 1:
            return None
        a_term = eta2 * a12 + eta3 * a13
        slope = eta1 - a_term / q0**2
        jump = 2 * mpmath.sqrt(eta2 * eta3) * abs(o23) / q0
        return eta1 * q0 + a_term / q0, slope - jump, slope + jump


def kink_minimum_50_digits(e):
    """g(q0) at 50 digits where the one-sided slopes of g at the kink q0 of
    :func:`kink_50_digits` bracket zero, else None."""
    kink = kink_50_digits(e)
    return kink[0] if kink is not None and kink[1] < 0 < kink[2] else None


def kink_side(e):
    """Where the minimum of g lies when its kink q0 is inside (a, 1) but
    the one-sided slopes there do not bracket zero: "left" of q0 when both
    are positive, "right" when both are negative; else None."""
    kink = kink_50_digits(e)
    if kink is None or kink[1] < 0 < kink[2]:
        return None
    return "left" if kink[1] >= 0 else "right"


def minimum_50_digits(e):
    """(min g, where) at 50 digits: g(q1) of :func:`three_state_Q` minimized
    over [max(|P psi1|^2, |O12|^2, |O13|^2), 1] by golden section down to a
    bracket of 1e-30, which moves the value by far less than an ulp of Q'.
    ``where`` is "a" or "1" when the bracket never left that end, else
    "inside".  The float overlaps are taken as exact (see
    :func:`kink_minimum_50_digits`); the optimal x2 = d/q1 at fixed q1 is
    sqrt(eta3/eta2)*k clamped to [k^2/(1 - |O13|^2/q1), 1 - |O12|^2/q1]."""
    ov = overlaps(e)
    with mpmath.workdps(50):
        o12, o13, o23 = (mpmath.mpc(z.real, z.imag) for z in (ov.O12, ov.O13, ov.O23))
        eta1, eta2, eta3 = (mpmath.mpf(p) for p in e.priors)
        c = mpmath.conj(o12) * o13
        a12, a13 = abs(o12) ** 2, abs(o13) ** 2
        d_ratio = mpmath.sqrt(eta3 / eta2) if eta2 else mpmath.inf
        a_term = eta2 * a12 + eta3 * a13

        def g(q1):
            k2 = abs(o23 - c / q1) ** 2
            if not k2:
                return eta1 * q1 + a_term / q1
            den, cap = 1 - a13 / q1, 1 - a12 / q1
            clip = k2 / den if den > 0 else mpmath.inf
            x2 = min(max(d_ratio * mpmath.sqrt(k2), clip), cap)
            inner = eta2 * x2 + eta3 * k2 / x2 if x2 > 0 else mpmath.inf
            return eta1 * q1 + a_term / q1 + inner

        lo = (a12 + a13 - 2 * (o23 * mpmath.conj(c)).real) / (1 - abs(o23) ** 2)
        a, b = min(max(lo, a12, a13), 1), mpmath.mpf(1)
        ends = (a, b)
        ratio = (mpmath.sqrt(5) - 1) / 2
        x, y = b - ratio * (b - a), a + ratio * (b - a)
        gx, gy = g(x), g(y)
        while b - a > mpmath.mpf(10) ** -30:
            if gx <= gy:
                b, y, gy = y, x, gx
                x = b - ratio * (b - a)
                gx = g(x)
            else:
                a, x, gx = x, y, gy
                y = a + ratio * (b - a)
                gy = g(y)
        where = "a" if a == ends[0] else "1" if b == ends[1] else "inside"
        return min(gx, gy, g(a), g(b)), where

class TestBruteForce:
    def test_agrees_with_closed_form_on_the_symmetric_family(self):
        for s in (0.2, 0.5, 0.8):
            e = symmetric_ensemble(s)
            sol = solve(e)
            result = brute_force_filter(e, resolution=1e-4)
            assert abs(result.Q_star - sol.Q) <= 2e-4
            assert abs(result.q1_star - sol.q1) <= 2e-3
            assert result.grid_resolution == 1e-4

    def test_fifty_fifty_instance(self):
        result = brute_force_filter(fifty_fifty_ensemble(), resolution=1e-4)
        assert result.Q_star == pytest.approx(4.0 / 9.0, abs=1e-4)

    def test_orthogonal_triple_is_free(self):
        result = brute_force_filter(orthogonal_ensemble(), resolution=1e-3)
        assert result.Q_star == pytest.approx(0.0, abs=1e-12)
        assert result.q1_star == pytest.approx(0.0, abs=1e-12)

    def test_never_finds_anything_below_the_closed_form(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            e = random_ensemble(rng)
            sol = solve(e)
            result = brute_force_filter(e, resolution=1e-3)
            # Grid points are feasible, so they can only do worse.
            assert result.Q_star >= sol.Q - 1e-9

    def test_parallel_states_2_and_3_leave_two_state_filtering(self):
        # psi2 = psi3, so the parallel-component bound is undefined and the
        # search starts at |O12|^2.  Filtering is then telling psi1 from psi2
        # at priors eta1 and eta2 + eta3: it fails at 2*sqrt(eta1*(eta2 + eta3))
        # * |O12| = sqrt(2)/3, with q1 = |O12|*sqrt((eta2 + eta3)/eta1) = 1/sqrt(2).
        psi1, psi2 = (0.5, math.sqrt(0.75), 0.0), (1.0, 0.0, 0.0)
        e = Ensemble((psi1, psi2, psi2), EQUAL_PRIORS)
        with pytest.raises(DegenerateSubspaceError):
            parallel_component_norm2(e)
        result = brute_force_filter(e, resolution=1e-4)
        assert result.Q_star == pytest.approx(RT2 / 3.0, abs=1e-6)
        assert result.q1_star == pytest.approx(1.0 / RT2, abs=1e-4)

    def test_resolution_is_validated(self):
        e = fifty_fifty_ensemble()
        with pytest.raises(DomainError):
            brute_force_filter(e, resolution=0.0)
        with pytest.raises(DomainError):
            brute_force_filter(e, resolution=0.5)
        with pytest.raises(DomainError):
            brute_force_filter(e, resolution=-1e-4)

    @pytest.mark.parametrize("resolution", ["1e-3", b"1e-3", None, 1e-3j, 10**400])
    def test_a_resolution_that_is_not_a_real_number_is_refused(self, resolution):
        """``compare`` and ``brute_force_filter`` parsed numeric strings and
        bytes, and let ``float()``'s TypeError and OverflowError through."""
        e = fifty_fifty_ensemble()
        message = re.escape(f"resolution must lie in (0, 1e-2], got {resolution!r}")
        for call in (compare, brute_force_filter):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(e, resolution)


class TestStationarityResiduals:
    KEYS = {"delta", "delta_12", "delta_13", "stationarity", "inv_lambda"}

    def test_interior_optimum_satisfies_all_identities(self):
        e = symmetric_ensemble(0.5)
        sol = solve(e)
        assert sol.regime is Regime.POVM
        res = appendix_residuals(e, sol)
        assert set(res) == self.KEYS
        for key in self.KEYS:
            assert res[key] <= 1e-10, key

    def test_a_zero_prior_leaves_no_multiplier_to_invert(self):
        # eta2*eta3 = 0: inv_lambda is reported as 0, the other identities hold.
        e = ensemble_from_overlaps(0.3, 0.4, 0.5, priors=(0.5, 0.5, 0.0))
        res = appendix_residuals(e, solve(e))
        assert res["inv_lambda"] == 0.0
        for key in self.KEYS:
            assert res[key] <= 1e-10, key

    def test_boundary_optimum_reports_nonzero_stationarity(self):
        e = symmetric_ensemble(0.9)
        sol = solve(e)
        assert sol.regime is Regime.VN_LARGE_OVERLAP
        res = appendix_residuals(e, sol)
        assert res["delta"] <= 1e-10
        assert res["delta_12"] <= 1e-10
        assert res["delta_13"] <= 1e-10
        expected_gap = abs(1.0 - 2.0 * 0.81) / 3.0
        assert res["stationarity"] == pytest.approx(expected_gap, abs=1e-10)

    def test_orthogonal_triple_has_zero_residuals(self):
        e = orthogonal_ensemble()
        res = appendix_residuals(e, solve(e))
        for value in res.values():
            assert value == 0.0

    def test_brute_force_reports_residuals_at_its_minimizer(self):
        result = brute_force_filter(fifty_fifty_ensemble(), resolution=1e-3)
        assert set(result.residuals) == self.KEYS
        # At grid accuracy the identities hold only approximately.
        assert result.residuals["delta_12"] <= 1e-6
        assert result.residuals["stationarity"] <= 1e-2


class TestThreeStateIdentification:
    def test_symmetric_family_optimum_is_the_overlap(self):
        for s in (0.2, 0.5, 0.8):
            value = three_state_Q(symmetric_ensemble(s))
            assert value == pytest.approx(s, abs=1e-9)

    def test_two_overlap_family_closed_form(self):
        s2 = 4.0 / 5.0
        for s1 in (0.1, RT2 / 5.0, 0.6, math.sqrt(s2)):
            e = ensemble_from_overlaps(s1, s1, s2)
            value = three_state_Q(e)
            expected = (s1 * s1 / s2 + 2.0 * s2) / 3.0
            assert value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_symmetric_family_at_unequal_priors_is_exact_at_the_kink(self, s):
        # Q' = s is where the minimized function of q1 has a kink, so the
        # search must run to the floating-point resolution of q1.
        e = ensemble_from_overlaps(s, s, s, priors=(0.5, 0.3, 0.2))
        assert abs(three_state_Q(e) - s) <= 4 * math.ulp(s)

    def test_two_overlap_family_at_equal_priors_is_exact(self):
        checked = 0
        for s2 in (0.3, 0.5, 0.8):
            for s1 in (0.05 * k for k in range(1, 20)):
                if s1 * s1 > s2:
                    continue
                exact = float((Fraction(s1) ** 2 / Fraction(s2) + 2 * Fraction(s2)) / 3)
                value = three_state_Q(ensemble_from_overlaps(s1, s1, s2))
                assert abs(value - exact) <= 4 * math.ulp(exact), (s1, s2)
                checked += 1
        assert checked == 41

    @pytest.mark.parametrize(
        "label, o12, o13, o23, priors, bits",
        Q_PRIME_BITS,
        ids=[f"{i}-{row[0]}" for i, row in enumerate(Q_PRIME_BITS)],
    )
    def test_keeps_its_bits(self, label, o12, o13, o23, priors, bits):
        e = ensemble_from_overlaps(o12, o13, o23, priors=priors)
        assert float.hex(three_state_Q(e)) == bits

    def test_kink_minima_are_within_2_ulp_of_50_digits(self):
        # Real symmetric and two-overlap families at equal and Dirichlet
        # priors.  Where the 50-digit one-sided slopes of g at q0 bracket
        # zero, Q' = g(q0) = eta1*q0 + A'/q0.
        rng = np.random.default_rng(54)
        checked = kinks = 0
        while checked < 240:
            s1 = float(rng.uniform(0.05, 0.95))
            s2 = s1 if checked % 2 else float(rng.uniform(0.3, 0.9))
            priors = EQUAL_PRIORS if checked % 4 < 2 else tuple(rng.dirichlet([1.0] * 3))
            try:
                e = ensemble_from_overlaps(s1, s1, s2, priors=priors)
                q_prime = three_state_Q(e)
            except (InvalidEnsembleError, DomainError):
                continue
            checked += 1
            exact = kink_minimum_50_digits(e)
            if exact is not None:
                kinks += 1
                assert abs(q_prime - exact) <= 2 * math.ulp(float(exact)), (s1, s2, priors)
        assert kinks >= 120

    @staticmethod
    def off_kink_cases():
        """Seeded ensembles that the kink rule leaves to the search: unequal-
        prior symmetric, two-overlap and complex (q0 not real) ones, 12 each;
        then the minimum just above a, where the slope at a must follow the
        clip, not the cap; then the branch rows of Q_PRIME_BITS, also at
        priors that send them off the kink (x2 = 0 there makes g(a) = inf)."""
        rng = np.random.default_rng(58)
        cases = []
        while len(cases) < 36:
            family = len(cases) % 3
            priors = tuple(rng.dirichlet([5.0, 3.0, 2.0]))
            s1, s2 = (float(x) for x in rng.uniform(0.05, 0.95, size=2))
            o13 = s1 * complex(math.cos(s2 * 7.0), math.sin(s2 * 7.0)) if family == 2 else s1
            try:
                e = ensemble_from_overlaps(s1, o13, s1 if family == 0 else s2, priors=priors)
                three_state_Q(e)
            except (InvalidEnsembleError, DomainError):
                continue
            if kink_minimum_50_digits(e) is None:
                cases.append(e)
        cases.append(ensemble_from_overlaps(0.9135, 0.9135, 0.9135, priors=(0.708, 0.177, 0.115)))
        for label, o12, o13, o23, priors, _ in Q_PRIME_BITS:
            if label in ("den = 0", "x2 = 0", "eta2 = 0", "eta3 = 0"):
                for p in (priors, (0.05, 0.05, 0.9), (0.05, 0.9, 0.05)):
                    cases.append(ensemble_from_overlaps(o12, o13, o23, priors=p))
        return cases

    def test_off_kink_minima_are_within_2_ulp_of_50_digits(self):
        # Each value, and the number of evaluations of g: 5 on the kink, 2
        # when the slopes at the bracket's ends put the minimum at one of
        # them, and a superlinear number otherwise (the seeded cases average
        # 12.5, since no bracket holds the kink's jump in slope).
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "g":
                calls[-1] += frame.f_code.co_filename == three_state_Q.__code__.co_filename

        def counted(e):
            calls.append(0)
            sys.setprofile(count)
            try:
                return three_state_Q(e)
            finally:
                sys.setprofile(None)

        ends = set()
        for e in self.off_kink_cases():
            exact, where = minimum_50_digits(e)
            ends.add(where)
            assert abs(counted(e) - exact) <= 2 * math.ulp(float(exact)), (overlaps(e), e.priors)
            assert where == "inside" or calls[-1] == 2, (overlaps(e), e.priors)
        assert ends == {"a", "1", "inside"}
        assert sum(calls[:36]) <= 12.5 * 36
        for label, o12, o13, o23, priors, _ in Q_PRIME_BITS:
            if label == "symmetric kink":
                counted(ensemble_from_overlaps(o12, o13, o23, priors=priors))
                assert calls[-1] == 5

    def test_concave_in_the_priors_and_unmoved_by_the_exchange(self):
        """Two relations that read no closed form.  Q' is the least eta.q
        over a set that does not depend on eta, so it is concave in the
        priors; and exchanging (psi2, eta2) with (psi3, eta3) relabels the
        problem, so Q' stays.  The seeded symmetric, two-overlap and
        complex-q0 sets include minima on each side of a kink in (a, 1)
        whose one-sided slopes do not bracket zero."""
        rng = np.random.default_rng(60)
        sides = collections.Counter()
        checked = 0
        while checked < 300:
            family = checked % 3
            s1, s2 = (float(x) for x in rng.uniform(0.05, 0.95, size=2))
            o13 = s1 * complex(math.cos(s2 * 7.0), math.sin(s2 * 7.0)) if family == 2 else s1
            p, p2 = tuple(rng.dirichlet([1.0] * 3)), tuple(rng.dirichlet([1.0] * 3))
            mid = tuple(0.5 * (x + y) for x, y in zip(p, p2))
            try:
                states = ensemble_from_overlaps(s1, o13, s1 if family == 0 else s2).states
                ensembles = [Ensemble(states, q) for q in (p, p2, mid)]
                values = [three_state_Q(e) for e in ensembles]
            except (InvalidEnsembleError, DomainError):
                continue
            checked += 1
            chord = 0.5 * (values[0] + values[1])
            assert values[2] - chord >= -4 * math.ulp(values[2]), (s1, o13, s2, p, p2)
            for e, value in zip(ensembles, values):
                (psi1, psi2, psi3), (eta1, eta2, eta3) = e.states, e.priors
                swapped = three_state_Q(Ensemble((psi1, psi3, psi2), (eta1, eta3, eta2)))
                assert abs(swapped - value) <= 4 * math.ulp(value), (overlaps(e), e.priors)
                sides[kink_side(e)] += 1
        assert sides["left"] >= 40 and sides["right"] >= 40, sides

    def test_an_accepted_input_builds_no_gram_matrix(self):
        # The dependence gate reads LDL pivots off the overlap terms; the
        # Gram matrix and its eigenvalue are formed only for the refusal.
        watched = {_cholesky.__code__, _overlap_gram.__code__}
        seen = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                seen.append(frame.f_code.co_name)

        def calls(e):
            seen.clear()
            sys.setprofile(watch)
            try:
                three_state_Q(e)
            except DomainError:
                pass
            finally:
                sys.setprofile(None)
            return set(seen)

        for s in (0.3, 0.9135):
            assert calls(ensemble_from_overlaps(s, s, s, priors=(0.708, 0.177, 0.115))) == set()
        assert calls(ensemble_from_overlaps(0.5, 0.5, -0.3, priors=(0.5, 0.3, 0.2))) == set()
        dependent = coplanar_ensemble(np.random.default_rng(57), False)
        assert calls(dependent) == {"_cholesky", "_overlap_gram"}

    def test_takes_only_the_ensemble(self):
        # Q' is exact to a few ulps, so there is no step or tolerance to pass.
        assert list(inspect.signature(three_state_Q).parameters) == ["e"]

    def test_orthogonal_triple_is_exactly_zero(self):
        assert three_state_Q(orthogonal_ensemble()) == 0.0

    def test_nearly_orthogonal_triple_is_nearly_zero(self):
        e = ensemble_from_overlaps(1e-6, 1e-6, 1e-6)
        assert three_state_Q(e) <= 5e-3

    def test_linearly_dependent_states_are_rejected(self):
        psi2 = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi3 = np.array([0.6, 0.8, 0.0], dtype=complex)
        psi1 = (psi2 + psi3) / np.linalg.norm(psi2 + psi3)
        e = Ensemble((psi1, psi2, psi3), EQUAL_PRIORS)
        with pytest.raises(DomainError):
            three_state_Q(e)

    def test_filtering_never_does_worse_than_identifying(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 8:
            e = random_ensemble(rng)
            try:
                q_prime = three_state_Q(e)
            except DomainError:
                continue
            assert solve(e).Q <= q_prime + 1e-9
            checked += 1

    def test_never_above_and_close_to_the_grid_oracle(self):
        rng = np.random.default_rng(53)
        ensembles = [random_ensemble(rng) for _ in range(200)]
        for _ in range(20):
            s = rng.uniform(0.05, 0.95)
            ensembles.append(symmetric_ensemble(s, rng.dirichlet([1.0] * 3)))
            s1 = rng.uniform(0.05, 0.85)
            ensembles.append(
                ensemble_from_overlaps(s1, s1, 0.8, priors=rng.dirichlet([1.0] * 3))
            )
        checked = 0
        for e in ensembles:
            try:
                exact = three_state_Q(e)
            except DomainError:
                continue
            # Every grid point is feasible, so the grid can only lie above.
            grid = grid_three_state_Q(e, resolution=2e-3)
            assert exact <= grid + 1e-12
            assert grid - exact <= 1e-3
            checked += 1
        assert checked >= 230

    @pytest.mark.parametrize(
        "priors, regime",
        [
            ((0.2, 0.4, 0.4), "povm"),
            ((0.1, 0.5, 0.4), "povm"),
            ((0.3, 0.6, 0.1), "projective"),
            ((0.2, 0.05, 0.75), "projective"),
            ((0.5, 0.0, 0.5), "projective"),
            ((0.5, 0.5, 0.0), "projective"),
        ],
    )
    def test_two_state_limit_of_jaeger_and_shimony(self, priors, regime):
        # psi1 orthogonal to psi2 and psi3 leaves unambiguous discrimination
        # of psi2 against psi3 (Jaeger & Shimony, Phys. Lett. A 197, 83).
        o23 = 0.6
        e = ensemble_from_overlaps(0.0, 0.0, o23, priors=priors)
        eta2, eta3 = priors[1], priors[2]
        lo, hi = min(eta2, eta3), max(eta2, eta3)
        if regime == "povm":
            assert o23 <= math.sqrt(lo / hi)
            expected = 2.0 * math.sqrt(eta2 * eta3) * o23
        else:
            assert o23 > math.sqrt(lo / hi)
            expected = hi * o23**2 + lo
        assert three_state_Q(e) == pytest.approx(
            expected, abs=1e-9
        )

    @pytest.mark.parametrize(
        "priors", [(0.6, 0.0, 0.4), (0.6, 0.4, 0.0), (1.0, 0.0, 0.0)]
    )
    def test_zero_priors(self, priors):
        rng = np.random.default_rng(54)
        for _ in range(5):
            e = random_ensemble(rng)
            e = Ensemble(e.states, np.array(priors))
            exact = three_state_Q(e)
            grid = grid_three_state_Q(e, resolution=1e-3)
            assert exact <= grid + 1e-12
            assert grid - exact <= 1e-3
            if priors == (1.0, 0.0, 0.0):
                # q2 = q3 = 1 is free, leaving q1 >= |P psi1|^2 with P the
                # projector onto span(psi2, psi3).
                assert exact == pytest.approx(
                    parallel_component_norm2(e), abs=1e-12
                )


def unit_diagonal_gram(eigenvalues, rng: np.random.Generator) -> np.ndarray:
    """A random Hermitian 3x3 matrix with these eigenvalues (summing to 3)
    and unit diagonal: a Haar-like rotation of diag(eigenvalues), whose
    diagonal two complex Givens rotations then set to 1 (Bendel & Mickey,
    Comm. Statist. B 7, 1978), each solved for its tangent in the form that
    does not cancel."""
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v = np.linalg.qr(z)[0]
    g = v @ np.diag(eigenvalues) @ v.conj().T
    for _ in range(2):
        d = g.diagonal().real
        i, j = int(np.argmin(d)), int(np.argmax(d))
        r, phase = abs(g[i, j]), np.exp(-1j * np.angle(g[i, j]))
        t = (1.0 - d[i]) / (r + math.sqrt(r * r + (d[j] - 1.0) * (1.0 - d[i])))
        c = 1.0 / math.sqrt(1.0 + t * t)
        w = np.eye(3, dtype=complex)
        w[i, i], w[j, i], w[i, j], w[j, j] = c, t * c * phase, -t * c * phase.conjugate(), c
        g = w.conj().T @ g @ w
    return g


class TestDependenceGate:
    """``three_state_Q`` refuses dependent states when an LDL pivot of
    G - 1e-8*I, G the Gram matrix, is not positive, with the same decision
    as eigvalsh and as a Cholesky factorization (potf2) of G - 1e-8*I.

    Pivots, not Sylvester's leading minors: elimination decides
    definiteness with a backward error of order u*||G||, while the expanded
    3x3 determinant of G - 1e-8*I has no such bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 10).  Near collinearity,
    with two small eigenvalues (the ``collinear`` set's draws), the
    determinant is a product of 1e-13 to 1e-10 and a second eigenvalue
    down to 1e-7, below the rounding of its terms: on 20,000 such draws it
    disagreed with eigvalsh 3,239 times, the pivots never."""

    @staticmethod
    def cases(name: str, rng: np.random.Generator) -> list[Ensemble]:
        if name == "random":
            return [random_ensemble(rng) for _ in range(200)]
        if name == "dependent":
            return [coplanar_ensemble(rng, k % 2 == 0) for k in range(40)] + [
                random_ensemble(rng, dim=2) for _ in range(20)
            ]
        out = []
        if name == "collinear":
            # Least eigenvalue 1e-8 * (1 -+ 1e-5 ... 1e-2), the next 1e-7 ... 1.
            for k in range(400):
                least = 1e-8 * (1.0 + (1 if k % 2 else -1) * 10 ** rng.uniform(-5.0, -2.0))
                second = 10 ** rng.uniform(-7.0, 0.0)
                g = unit_diagonal_gram([least, second, 3.0 - least - second], rng)
                o12, o13, o23 = (complex(g[i, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
                out.append(ensemble_from_overlaps(o12, o13, o23, priors=rng.dirichlet([1.0] * 3)))
            return out
        # Least eigenvalue 1e-8 * (1 -+ 1e-3): a random G shifted and rescaled.
        for k in range(40):
            g0 = np.array(gram_matrix(random_ensemble(rng).states))
            lam0 = float(np.linalg.eigvalsh(g0).min())
            tau = 1e-8 * (1.0 + (1e-3 if k % 2 else -1e-3))
            t = tau * (1.0 - lam0) / (1.0 - tau)
            g = (g0 + (t - lam0) * np.eye(3)) / (1.0 - lam0 + t)
            o12, o13, o23 = (complex(g[i, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
            out.append(ensemble_from_overlaps(o12, o13, o23, priors=rng.dirichlet([1.0] * 3)))
        return out

    @pytest.mark.parametrize(
        "name, refusals",
        [("random", 0), ("dependent", 60), ("boundary", 20), ("collinear", 200)],
    )
    def test_same_decision_as_eigvalsh(self, name, refusals):
        refused = 0
        for e in self.cases(name, np.random.default_rng(56)):
            want = float(np.linalg.eigvalsh(np.array(gram_matrix(e.states))).min())
            ov = overlaps(e)
            potf2 = _cholesky(_overlap_gram(ov.O12, ov.O13, ov.O23), 1e-8)
            assert (potf2 is None) == (want <= 1e-8), (ov, want)
            if want > 1e-8:
                three_state_Q(e)
                continue
            refused += 1
            with pytest.raises(DomainError) as err:
                three_state_Q(e)
            message = str(err.value)
            assert message.startswith("states are linearly dependent")
            got = float(re.search(r"eigenvalue (\S+)\)", message).group(1))
            assert abs(got - want) <= 1e-12
        assert refused == refusals


class TestPairwiseBaseline:
    def test_known_values(self):
        assert two_state_Q(symmetric_ensemble(0.5)) == pytest.approx(
            0.5, abs=1e-12
        )
        assert two_state_Q(fifty_fifty_ensemble()) == pytest.approx(
            RT2 / 3.0, abs=1e-12
        )
        assert two_state_Q(orthogonal_ensemble()) == 0.0


class TestCompare:
    def test_two_overlap_benchmark_ratio(self):
        s1, s2 = RT2 / 5.0, 4.0 / 5.0
        e = ensemble_from_overlaps(s1, s1, s2)
        record = compare(e, resolution=1e-3)
        assert record.Q == pytest.approx(4.0 / 15.0, abs=1e-12)
        assert record.Q_prime == pytest.approx(17.0 / 30.0, abs=1e-9)
        assert record.ratio == pytest.approx(8.0 / 17.0, abs=1e-9)
        assert record.Q_double_prime == pytest.approx(s1, abs=1e-12)

    def test_symmetric_family_ratio_is_constant(self):
        for s in (0.2, 0.4, 0.6):
            record = compare(symmetric_ensemble(s), resolution=1e-3)
            assert record.ratio == pytest.approx(2.0 * RT2 / 3.0, abs=1e-9)

    def test_orthogonal_triple_ratio_convention(self):
        record = compare(orthogonal_ensemble(), resolution=1e-3)
        assert record.Q == record.Q_prime == record.Q_double_prime == 0.0
        assert record.ratio == 1.0

    def test_resolution_is_recorded_and_changes_no_value(self):
        """``resolution`` is validated and recorded, but Q' is exact and the
        same to the bit at every value."""
        rng = np.random.default_rng(55)
        ensembles = [random_ensemble(rng) for _ in range(10)]
        ensembles.append(symmetric_ensemble(0.4, (0.5, 0.3, 0.2)))
        for e in ensembles:
            records = [compare(e, resolution=r) for r in (1e-2, 1e-3, 1e-4)]
            assert [r.resolution for r in records] == [1e-2, 1e-3, 1e-4]
            assert records[0].Q_prime == records[1].Q_prime == records[2].Q_prime
