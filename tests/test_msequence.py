"""Maximal-length sequences: generation, exact correlation laws, decimation."""

import numpy as np
import pytest

from mchan.msequence import (
    MAX_DEGREE,
    MIN_DEGREE,
    PRIMITIVE_TAPS,
    NonPrimitiveTapsError,
    decimate,
    distinct_msequences,
    generate_msequence,
    periodic_autocorrelation,
    reciprocal_taps,
)


def register_walk(n, taps):
    """Reference: step an n-stage Fibonacci register from the impulse state.

    Returns (bits of the first 2**n - 1 steps, first return time of the seed
    state).  The state packs the last n bits with the newest at bit 0.
    """
    mask = 1 << (n - 1)  # implied constant term
    for e in taps[1:]:
        mask |= 1 << (n - 1 - e)
    full = (1 << n) - 1
    seed = state = 1 << (n - 1)
    bits = []
    for k in range(1 << n):
        if k < full:
            bits.append((state >> (n - 1)) & 1)
        state = ((state << 1) | ((state & mask).bit_count() & 1)) & full
        if state == seed:
            return bits, k + 1
    raise AssertionError("an invertible register always returns to its seed")


def test_degree3_classic_taps():
    seq = generate_msequence(3, taps=(3, 1))  # x^3 + x + 1
    assert seq.bits.tolist() == [1, 0, 0, 1, 0, 1, 1]
    assert seq.period == 7
    assert seq.chips.tolist() == [-1, 1, 1, -1, 1, -1, -1]


def test_degree4_table_taps():
    seq = generate_msequence(4)
    assert seq.taps == (4, 3)
    assert seq.bits.tolist() == [1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0]


def test_nonprimitive_taps_rejected():
    # x^3 + 1 factors; the impulse orbit closes after 3 steps
    with pytest.raises(NonPrimitiveTapsError) as exc:
        generate_msequence(3, taps=(3,))
    assert exc.value.measured_period == 3
    # x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive (order 5)
    with pytest.raises(NonPrimitiveTapsError) as exc:
        generate_msequence(4, taps=(4, 3, 2, 1))
    assert exc.value.measured_period == 5


def test_degree_validation():
    with pytest.raises(ValueError):
        generate_msequence(MIN_DEGREE - 1)
    with pytest.raises(ValueError):
        generate_msequence(MAX_DEGREE + 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_period_balance_autocorrelation(n):
    seq = generate_msequence(n)
    N = 2**n - 1
    assert seq.period == N
    # one extra one than zeros  =>  chip sum is exactly -1
    assert int(seq.chips.astype(np.int64).sum()) == -1
    r = periodic_autocorrelation(seq.chips)
    assert r[0] == N
    assert set(r[1:].tolist()) == {-1}


@pytest.mark.parametrize("n", [*range(2, 19), 20])
def test_bits_equal_the_register_walk(n):
    bits, period = register_walk(n, PRIMITIVE_TAPS[n])
    assert period == 2**n - 1
    assert generate_msequence(n).bits.tolist() == bits


@pytest.mark.parametrize("taps", [(4, 2), (6, 3), (8, 4), (10, 3, 1), (12, 6), (16, 8)])
def test_measured_period_equals_the_register_walk(taps):
    # squares of lower-degree polynomials, and (10, 3, 1): x + 1 divides it, period 372
    _, period = register_walk(taps[0], taps)
    with pytest.raises(NonPrimitiveTapsError) as exc:
        generate_msequence(taps[0], taps=taps)
    assert exc.value.measured_period == period
    assert period < 2 ** taps[0] - 1


def test_primitive_reciprocal_taps_equal_the_register_walk():
    for n in (9, 16, 17):
        taps = reciprocal_taps(PRIMITIVE_TAPS[n])
        bits, _ = register_walk(n, taps)
        assert generate_msequence(n, taps=taps).bits.tolist() == bits


def test_degree22_balance():
    seq = generate_msequence(22)
    assert seq.period == 2**22 - 1
    assert int(seq.chips.astype(np.int64).sum()) == -1


@pytest.mark.parametrize("n", [*range(3, 9), 12, 16, 20])
def test_windows_are_a_permutation(n):
    seq = generate_msequence(n)
    vals = seq.window_values()
    assert vals.dtype == np.int64
    assert np.array_equal(np.sort(vals), np.arange(1, 2**n))


def test_window_value_matches_vectorised_form():
    for n in (2, 6, 11):
        seq = generate_msequence(n)
        vals = seq.window_values()
        assert vals.tolist() == [seq.window_value(j) for j in range(seq.period)]


def test_reciprocal_taps():
    assert reciprocal_taps((3, 2)) == (3, 1)
    assert reciprocal_taps((8, 6, 5, 4)) == (8, 4, 3, 2)
    # reciprocal taps are valid feedback for the same degree
    seq = generate_msequence(8, taps=reciprocal_taps(PRIMITIVE_TAPS[8]))
    assert seq.period == 255


def test_reciprocal_reverses_sequence():
    fwd = generate_msequence(5)
    rev = generate_msequence(5, taps=reciprocal_taps(PRIMITIVE_TAPS[5]))
    # time reversal up to a cyclic shift: cross-correlate against the flip
    a = fwd.chips.astype(np.float64)
    b = rev.chips[::-1].astype(np.float64)
    cc = np.rint(np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(b), 31))
    assert int(cc.max()) == 31  # perfect alignment at some shift


def test_decimate_requires_coprime_index():
    seq = generate_msequence(4)  # period 15
    with pytest.raises(ValueError):
        decimate(seq, 3)
    d7 = decimate(seq, 7)
    assert d7.period == 15
    assert d7.taps is None
    assert int(d7.chips.astype(np.int64).sum()) == -1


def test_distinct_sequences_are_cyclically_distinct():
    seqs = distinct_msequences(5, 6)  # euler_phi(31)/5 = 6, all of them
    assert len(seqs) == 6
    N = 31
    for i in range(6):
        assert seqs[i].period == N
        assert int(seqs[i].chips.astype(np.int64).sum()) == -1
        fa = np.fft.rfft(seqs[i].chips.astype(np.float64))
        for j in range(i + 1, 6):
            fb = np.fft.rfft(seqs[j].chips.astype(np.float64))
            cc = np.rint(np.fft.irfft(np.conj(fa) * fb, N)).astype(np.int64)
            # a cyclic shift of the same sequence would correlate to N somewhere
            assert int(cc.max()) < N


def test_distinct_sequences_exhaustion():
    with pytest.raises(ValueError):
        distinct_msequences(5, 7)
    with pytest.raises(ValueError):
        distinct_msequences(3, 0)


def test_taps_table_is_usable_everywhere():
    # spot-check the larger degrees not covered by the loop above
    for n in (13, 16):
        seq = generate_msequence(n)
        assert seq.period == 2**n - 1
        assert PRIMITIVE_TAPS[n][0] == n
