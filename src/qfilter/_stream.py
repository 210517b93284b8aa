"""Exact binomial and multinomial draws from a standard-library stream.

``sample`` draws from ``rnd = random.Random(seed).random``: MT19937, whose
sequence for an int seed Python keeps across versions.  A binomial is
drawn on the side p <= 1/2 by Devroye's geometric method when n * p < 10
and by BTRS (Hörmann, J. Statist. Comput. Simul. 46, 101, 1993) otherwise,
as Python 3.12's ``random.binomialvariate`` draws it, less two faults:
here no draw ``rnd()`` = 0.0 is divided by or has its logarithm taken, and
the geometric rate is ``log1p(-p)``, not ``log(1 - p)``, which is 0.08%
off at p = 1e-14 and 0 below p = 1.1e-16.
"""

from __future__ import annotations

import math

__all__ = ["binomial", "multinomial"]


def binomial(rnd, n: int, p: float) -> int:
    """One draw of Binomial(n, p) from uniform draws ``rnd()`` in [0, 1); a
    ``p`` above 1, as a :func:`multinomial` chain ratio can round, is 1."""
    if p > 0.5:
        return n - binomial(rnd, n, 1.0 - p)
    if p <= 0.0:
        return 0
    if n * p < 10.0:
        # Successes are the trials that end the geometric gaps fitting in n.
        rate = math.log1p(-p)
        x = y = 0
        while True:
            y += math.floor(math.log(1.0 - rnd()) / rate) + 1
            if y > n:
                return x
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = rnd() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue  # rnd() gave 0.0, where k tends to -inf: out of range
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - rnd()  # in (0, 1], so log(v) is finite
        if us >= 0.07 and v <= vr:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def multinomial(rnd, n: int, pvals) -> list[int]:
    """Counts of ``n`` draws over ``pvals``, which sum to 1.

    Each weight but the last positive one draws a binomial of the draws
    left, at its share of the weight left; the last positive weight takes
    the rest, so a zero weight never gets a count.
    """
    counts = [0] * len(pvals)
    last = max(j for j, p in enumerate(pvals) if p > 0.0)
    rest = 1.0
    for j in range(last):
        if not n:
            break
        counts[j] = k = binomial(rnd, n, pvals[j] / rest)
        n -= k
        rest -= pvals[j]
    counts[last] = n
    return counts
