"""Maximal-length (m-) sequences over GF(2).

A binary sequence generated by an n-stage linear feedback shift register
with a primitive feedback polynomial has period N = 2**n - 1 and three
properties this package leans on:

* balance: the +/-1 chip sum over one period is exactly -1
  (bit b -> chip 1 - 2b, i.e. ones map to -1);
* two-valued periodic autocorrelation: N at lag 0, -1 elsewhere;
* the window property: every nonzero n-bit word appears exactly once as
  a cyclic window, which is what makes windows usable as identifiers.

The generator extends the impulse response with whole-array XORs of
earlier slices (the recurrence of f(x)**(2**k) = f(x**(2**k)) reaches
2**k times further back, so each step can double the block it writes).
It certifies the period from the register state at N and N/p for every
prime p | N, and refuses non-primitive feedback taps, so a wrong table
entry cannot slip through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PRIMITIVE_TAPS",
    "MSequence",
    "NonPrimitiveTapsError",
    "distinct_msequences",
    "generate_msequence",
    "periodic_autocorrelation",
]

# Known-good feedback taps (exponents of the feedback polynomial, the
# constant term is implied) for each register length.  Primitivity is
# still verified at generation time via the measured period.
PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}

MIN_DEGREE = 2
MAX_DEGREE = 24


class NonPrimitiveTapsError(ValueError):
    """The feedback taps do not generate a maximal-length sequence."""

    def __init__(self, n: int, taps: tuple[int, ...], measured_period: int):
        self.n = n
        self.taps = taps
        self.measured_period = measured_period
        super().__init__(
            f"taps {taps} of degree {n} give period {measured_period}, "
            f"not 2**{n} - 1 = {2**n - 1}: feedback polynomial not primitive"
        )


@dataclass(frozen=True, eq=False)
class MSequence:
    """One period of a maximal-length sequence.

    ``taps`` is None for sequences derived by decimation rather than
    generated from an explicit feedback polynomial.
    """

    n: int
    taps: tuple[int, ...] | None
    bits: np.ndarray  # uint8, one period, length 2**n - 1
    chips: np.ndarray  # int8, 1 - 2*bits

    @property
    def period(self) -> int:
        return self.bits.size

    def window_values(self) -> np.ndarray:
        """All N cyclic window values, an int64 permutation of 1..N.

        Entry j reads b[j-n+1] ... b[j] (cyclically), oldest bit most significant.
        """
        n = self.n
        return _window_values(np.concatenate([self.bits[self.period - n + 1:], self.bits]),
                              n, self.period)


def _window_values(bits: np.ndarray, n: int, count: int) -> np.ndarray:
    """Values of the windows bits[j:j+n], oldest bit most significant, for j < count."""
    vals = np.zeros(count, dtype=np.int32)  # n <= 24 bits; half the memory traffic of int64
    for i in range(n):
        vals <<= 1
        vals |= bits[i:i + count]
    return vals.astype(np.int64)


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or not (MIN_DEGREE <= n <= MAX_DEGREE):
        raise ValueError(
            f"register length must be an integer in [{MIN_DEGREE}, {MAX_DEGREE}], got {n!r}"
        )


def _prime_factors(N: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= N:
        if N % p == 0:
            primes.append(p)
            while N % p == 0:
                N //= p
        p += 1
    if N > 1:
        primes.append(N)
    return primes


def _impulse_response(n: int, lags: tuple[int, ...], length: int) -> np.ndarray:
    """First ``length`` bits of b[j] = XOR over lags l of b[j - l], for j >= n.

    The first n bits are the impulse 1, 0, ..., 0.

    Squaring the feedback polynomial k times scales every lag by 2**k, and the
    squared recurrence holds for j >= 2**k * n.  So once the known prefix is
    L >= 2**k * n bits long, the next 2**k * min(lags) bits are one XOR of
    earlier slices per lag.
    """
    b = np.zeros(length, dtype=np.uint8)
    b[0] = 1
    known = n
    step = min(lags)
    while known < length:
        scale = 1 << ((known // n).bit_length() - 1)  # largest 2**k with 2**k * n <= known
        stop = min(known + scale * step, length)
        block = b[known:stop]
        for lag in lags:
            block ^= b[known - scale * lag:stop - scale * lag]
        known = stop
    return b


def generate_msequence(n: int, taps: tuple[int, ...] | None = None) -> MSequence:
    """Generate one period of an m-sequence from an n-stage register.

    Parameters
    ----------
    n : int
        Register length, 2 <= n <= 24.
    taps : tuple of int, optional
        Feedback polynomial exponents (must contain n; the constant term
        is implied).  Defaults to the built-in table.

    The register is seeded with the impulse state, and the bits are the
    ones a register walk from that state outputs.  They are built by
    doubling: the feedback polynomial f annihilates the sequence, so does
    f(x)**(2**k) = f(x**(2**k)), and each block is a few whole-array XORs
    of earlier slices (milliseconds at n = 20).  The polynomial is
    primitive exactly when the impulse state recurs after N = 2**n - 1
    steps and after no N/p steps for a prime p | N; when it is not, the
    first return is measured and :class:`NonPrimitiveTapsError` carries
    that period.
    """
    _check_degree(n)
    if taps is None:
        taps = PRIMITIVE_TAPS[n]
    taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
    if not taps or taps[0] != n:
        raise ValueError(f"taps must include the register length {n}, got {taps}")
    if taps[-1] < 1:
        raise ValueError(f"tap exponents must be >= 1 (constant term is implied), got {taps}")

    # Feedback recurrence b[j] = XOR of b[j - (n - e)] over exponents e < n,
    # including the implied e = 0.  The register state after s steps is the
    # window b[s .. s+n-1]; the seed is the impulse.
    N = (1 << n) - 1
    b = _impulse_response(n, tuple(n - e for e in taps[1:] + (0,)), N + n)
    seed = b[:n]

    def recurs_after(s: int) -> bool:
        return np.array_equal(b[s:s + n], seed)

    if not recurs_after(N) or any(recurs_after(N // p) for p in _prime_factors(N)):
        states = _window_values(b, n, N + 1)
        period = 1 + int(np.argmax(states[1:] == states[0]))
        raise NonPrimitiveTapsError(n, taps, period)
    bits = b[:N]
    chips = (1 - 2 * bits.astype(np.int16)).astype(np.int8)
    return MSequence(n=n, taps=taps, bits=bits, chips=chips)


def periodic_autocorrelation(chips: np.ndarray) -> np.ndarray:
    """Unnormalised periodic autocorrelation R[k] = sum_j c[j] c[(j+k) mod N].

    It is ``_lag_corr`` of the chips with themselves.
    """
    c = np.asarray(chips, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("chips must be a 1-D array of length >= 2")
    return _lag_corr(c, c[None])[0].astype(np.int64)


def _lag_corr(ref: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """All-lag cyclic correlations, out[j, d] = sum_k ref[k] signals[j, (k+d) % L].

    Chips are +/-1, so every entry is an integer; the FFT product is
    rounded back to it, exactly up to n = 24 (the FFT error stays far
    below 0.5).  One signal at a time keeps peak memory flat.
    """
    L = ref.size
    fr = np.conj(np.fft.rfft(ref.astype(np.float64)))
    out = np.empty((signals.shape[0], L))
    for j, sig in enumerate(signals):
        out[j] = np.rint(np.fft.irfft(fr * np.fft.rfft(sig.astype(np.float64)), L))
    return out


def _decimate(seq: MSequence, q: int) -> MSequence:
    """Decimation d[k] = b[(q k) mod N]; an m-sequence again when gcd(q, N) = 1."""
    N = seq.period
    if math.gcd(q, N) != 1:
        raise ValueError(f"decimation index {q} shares a factor with the period {N}")
    idx = (q * np.arange(N)) % N
    bits = seq.bits[idx]
    chips = (1 - 2 * bits.astype(np.int16)).astype(np.int8)
    return MSequence(n=seq.n, taps=None, bits=bits, chips=chips)


def _coset(q: int, n: int, N: int) -> frozenset[int]:
    return frozenset((q << i) % N for i in range(n))


def distinct_msequences(n: int, count: int) -> list[MSequence]:
    """``count`` cyclically distinct m-sequences of the same degree.

    The first is the table sequence of degree n; the rest are decimations
    of it by representatives of distinct cyclotomic cosets, which covers
    the reciprocal sequence and beyond.  Raises ValueError when fewer than
    ``count`` distinct sequences exist (there are euler_phi(2**n - 1) / n
    in total).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    base = generate_msequence(n)
    out = [base]
    if count == 1:
        return out
    N = base.period
    used = {_coset(1, n, N)}
    q = 3
    while len(out) < count and q < N:
        if math.gcd(q, N) == 1:
            coset = _coset(q, n, N)
            if coset not in used:
                used.add(coset)
                derived = _decimate(base, q)
                if int(derived.chips.astype(np.int64).sum()) != -1:
                    raise ValueError(
                        f"decimation by {q} lost the balance property (degree {n})"
                    )
                out.append(derived)
        q += 2
    if len(out) < count:
        raise ValueError(
            f"only {len(out)} cyclically distinct m-sequences of degree {n} exist; "
            f"{count} requested"
        )
    return out
