"""numpy's ``Generator.multinomial`` stream, reproduced on Python ints.

:func:`spawned_stream` gives the generator
``numpy.random.default_rng(numpy.random.SeedSequence(seed).spawn(1)[0])``
as a :class:`PCG64` whose :meth:`PCG64.multinomial` returns the same counts
as that generator's ``multinomial`` for the same calls, bit for bit:

* ``SeedSequence`` hashes the seed's 32-bit words into a 4-word pool and
  draws four 64-bit words from it (numpy's ``bit_generator.pyx``);
* PCG64 is the 128-bit LCG with the XSL-RR output (O'Neill,
  HMC-CS-2014-0905), stepped before each output;
* a multinomial is a chain of binomials, each drawn by inversion when
  ``n * p <= 30`` and by BTPE otherwise (Kachitvichyanukul & Schmeiser,
  CACM 31, 216, 1988), in the floating-point operation order of numpy's
  ``distributions.c``.
"""

from __future__ import annotations

import math
from itertools import islice

__all__ = ["PCG64", "spawned_stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0


def _words32(n: int) -> list[int]:
    """The 32-bit words of ``n >= 0``, least significant first; ``[0]`` for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive ``hashmix`` call.

    The running hash constant does not depend on the data it mixes, so
    its sequence ``init * mult**k`` is the same for every seed: the tables
    below hold its prefixes.
    """
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


#: The constants of the pool's ``hashmix`` calls, 4 per entropy word: 20
#: for a seed below 2**128 and its spawn key.  Extended by :func:`_seed_words`.
_POOL_CONSTANTS = tuple(islice(_hash_constants(_INIT_A, _MULT_A), 20))
#: The constants of ``generate_state``'s 8 words (4 of 64 bits).
_STATE_CONSTANTS = tuple(islice(_hash_constants(_INIT_B, _MULT_B), 8))


def _seed_words(seed: int, spawn_key: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed, spawn_key=(spawn_key,)).generate_state(4, uint64)``,
    with ``hashmix`` and ``mix`` inline.  Their constants are read off
    :data:`_POOL_CONSTANTS`, first extended for entropy longer than before."""
    global _POOL_CONSTANTS
    run = _words32(seed)
    # With a spawn key the run entropy is zero-padded to the pool size.
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words32(spawn_key)
    if len(_POOL_CONSTANTS) < 4 * len(entropy):
        _POOL_CONSTANTS = tuple(islice(_hash_constants(_INIT_A, _MULT_A), 4 * len(entropy)))
    consts = iter(_POOL_CONSTANTS)
    pool = []
    for word in entropy[:_POOL_SIZE]:
        x, h = next(consts)
        value = ((word ^ x) * h) & _MASK32
        pool.append(value ^ (value >> 16))
    # Each pool word, then each further entropy word, is mixed into every
    # other pool word; the further words ride behind the pool, never mixed into.
    pool += entropy[_POOL_SIZE:]
    for src in range(len(pool)):
        for dst in range(_POOL_SIZE):
            if src != dst:
                x, h = next(consts)
                value = ((pool[src] ^ x) * h) & _MASK32
                value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
                pool[dst] = value ^ (value >> 16)
    state = []
    for i, (x, h) in enumerate(_STATE_CONSTANTS):
        value = ((pool[i % _POOL_SIZE] ^ x) * h) & _MASK32
        state.append(value ^ (value >> 16))
    return tuple(state[k] | state[k + 1] << 32 for k in range(0, 8, 2))


def spawned_stream(seed: int) -> "PCG64":
    """The PCG64 generator of ``SeedSequence(seed).spawn(1)[0]``."""
    w0, w1, w2, w3 = _seed_words(seed, 0)
    return PCG64(w0 << 64 | w1, w2 << 64 | w3)


class PCG64:
    """numpy's PCG64 bit generator and the ``Generator`` draws built on it."""

    __slots__ = ("_state", "_inc")

    def __init__(self, initstate: int, initseq: int) -> None:
        # pcg64_srandom_r: from state 0, step, add `initstate`, step again.
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128

    def next_double(self) -> float:
        """A double in [0, 1) from the top 53 bits of the next output."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out = (x >> rot | x << (64 - rot)) & _MASK64
        return (out >> 11) * _TWO_M53

    def multinomial(self, n: int, pvals) -> list[int]:
        """``Generator.multinomial(n, pvals)`` of one row (``random_multinomial``)."""
        d = len(pvals)
        counts = [0] * d
        remaining_p = 1.0
        dn = n
        for j in range(d - 1):
            counts[j] = self.binomial(dn, pvals[j] / remaining_p)
            dn -= counts[j]
            if dn <= 0:
                break
            remaining_p -= pvals[j]
        if dn > 0:
            counts[d - 1] = dn
        return counts

    def binomial(self, n: int, p: float) -> int:
        """numpy's ``random_binomial``: inversion or BTPE on the side p <= 1/2."""
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            if p * n <= 30.0:
                return self._inversion(n, p)
            return self._btpe(n, p)
        # In a multinomial chain p can round above 1; then q < 0 and the
        # inversion returns 0, as in numpy.
        q = 1.0 - p
        if q * n <= 30.0:
            return n - self._inversion(n, q)
        return n - self._btpe(n, q)

    def _inversion(self, n: int, p: float) -> int:
        """numpy's ``random_binomial_inversion``, for n * p <= 30."""
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        np_ = n * p
        bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
        x = 0
        px = qn
        u = self.next_double()
        while u > px:
            x += 1
            if x > bound:
                x = 0
                px = qn
                u = self.next_double()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, p: float) -> int:
        """numpy's ``random_binomial_btpe``, for n * p > 30."""
        # Called with p <= 1/2 only, so r = min(p, 1 - p) = p and the final
        # reflection for p > 1/2 never applies.
        r = p
        q = 1.0 - r
        fm = n * r + r
        m = math.floor(fm)
        nrq = n * r * q
        p1 = math.floor(2.195 * math.sqrt(nrq) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl = xm - p1
        xr = xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        next_double = self.next_double
        while True:
            u = next_double() * p4
            v = next_double()
            if u <= p1:
                # Triangular region: accepted outright.
                return math.floor(xm - p1 * v + u)
            if u <= p2:
                # Parallelograms.
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:
                # Left exponential tail; numpy rejects v == 0.
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                # Right exponential tail.
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not (k > 20 and k < nrq / 2.0 - 1):
                # Explicit evaluation of f(y) / f(m).
                s = r / q
                a = s * (n + 1)
                F = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        F *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        F /= a / i - s
                if v > F:
                    continue
                return y
            # Squeeze on log(v), then the bound from Stirling's formula.
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            A = math.log(v) if v > 0.0 else -math.inf
            if A < t - rho:
                return y
            if A > t + rho:
                continue
            x1 = y + 1
            f1 = m + 1
            z = n + 1 - m
            w = n - y + 1
            x2 = x1 * x1
            f2 = f1 * f1
            z2 = z * z
            w2 = w * w
            if A > (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * r / (x1 * q))
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
            ):
                continue
            return y
