"""50-digit reference optimum, independent of ``qfilter``.

The closed-form optimum is re-evaluated in mpmath at 50 significant digits
from the generated arrays themselves.  The geometry is computed by
projection: psi1 is projected onto an orthonormal basis of span{psi2, psi3}
built by twice-iterated Gram-Schmidt, rather than through the float
formula ``(|O12|^2 + |O13|^2 - 2 Re(O12 O23 conj(O13))) / (1 - |O23|^2)``
that the program uses, so the reference stays exact for nearly parallel
psi2, psi3 (and degrades gracefully to a one-dimensional span at eps = 0).
"""

from __future__ import annotations

import mpmath

DIGITS = 50


def _inner(a, b):
    return mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b))


def optimum(states, priors) -> tuple[float, float, float, float]:
    """Reference (q1, q2, q3, Q) of the optimal filter, rounded to floats."""
    with mpmath.workdps(DIGITS):
        vecs = []
        for row in states:
            v = [mpmath.mpc(float(a.real), float(a.imag)) for a in row]
            norm = mpmath.sqrt(_inner(v, v).real)
            vecs.append([x / norm for x in v])
        eta = [mpmath.mpf(float(p)) for p in priors]
        a12 = abs(_inner(vecs[0], vecs[1])) ** 2
        a13 = abs(_inner(vecs[0], vecs[2])) ** 2
        big_a = eta[1] * a12 + eta[2] * a13
        if big_a == 0:
            return 0.0, 0.0, 0.0, 0.0
        basis: list[list] = []
        for v in vecs[1:]:
            w = list(v)
            for _ in range(2):
                for b in basis:
                    c = _inner(b, w)
                    w = [x - c * y for x, y in zip(w, b)]
            norm = mpmath.sqrt(_inner(w, w).real)
            if norm > mpmath.mpf(10) ** (-(DIGITS - 10)):
                basis.append([x / norm for x in w])
        w2 = mpmath.fsum(abs(_inner(b, vecs[0])) ** 2 for b in basis)
        if big_a > eta[0]:
            q1 = mpmath.mpf(1)
        elif big_a < eta[0] * w2 * w2:
            q1 = w2
        else:
            q1 = mpmath.sqrt(big_a / eta[0])
        q2, q3 = a12 / q1, a13 / q1
        q_avg = eta[0] * q1 + eta[1] * q2 + eta[2] * q3
        return float(q1), float(q2), float(q3), float(q_avg)
