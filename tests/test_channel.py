"""Error-rate models and capacity: exact values, bounds, and domain checks."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import norm

import mchan.channel as channel
from mchan.channel import (
    ChannelDomainError,
    ChannelPoint,
    ExactCoherentOrthogonal,
    QuadratureError,
    UnionBound,
    capacity_bits_per_symbol,
    q_function,
)

EXACT = ExactCoherentOrthogonal()


def scipy_ser(m: int, h: float) -> float:
    """Independent quadrature of the same integral (different engine)."""
    shift = h * math.sqrt(2.0)

    def f(u):
        return norm.pdf(u) * (1.0 - norm.cdf(u + shift) ** (m - 1))

    val, _ = integrate.quad(f, -10.0, 10.0, epsabs=1e-13, limit=200)
    return val


def scipy_tail_ser(m: int, h: float) -> float:
    """Relative-accuracy reference: quad on pieces split at the integrand's peak."""
    shift, k = h * math.sqrt(2.0), m - 1

    def f(u):
        return norm.pdf(u) * -math.expm1(k * float(special.log_ndtr(u + shift)))

    peak = -shift / 2.0
    edges = [peak + d for d in (-40.0, -20.0, -6.0, -2.0, 0.0, 2.0, 6.0, 20.0, 40.0)]
    return math.fsum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))


def test_q_function_basics():
    assert q_function(0.0) == 0.5
    assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-15)
    assert q_function(6.0) < 1e-8


def test_binary_exact_equals_q():
    # Relative, out to Q(10) = 7.6e-24: the tail is where p matters most.
    for i in range(0, 101):
        h = i / 10.0
        assert EXACT.ser(2, h) == pytest.approx(q_function(h), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("m", [3, 8, 33, 64])
def test_exact_ser_relative_accuracy_in_the_tail(m):
    checked = 0
    for i in range(0, 19):
        h = i / 2.0
        ref = scipy_tail_ser(m, h)
        if ref < 1e-15:
            break
        assert EXACT.ser(m, h) == pytest.approx(ref, rel=1e-8, abs=0.0)
        checked += 1
    assert checked >= 14  # down to p ~ 1e-15, past h = 6.5


def test_exact_ser_is_refused_above_its_validated_m():
    m = channel._RULE_MAX_M
    assert m == 64
    worst = 0.0
    for i in range(0, 19):
        h = i / 2.0
        ref = scipy_tail_ser(m, h)
        if ref < 1e-15:
            break
        worst = max(worst, abs(EXACT.ser(m, h) - ref) / ref)
    assert worst <= 1e-13
    with pytest.raises(ChannelDomainError, match="m <= 64"):
        EXACT.ser(m + 1, 1.0)
    with pytest.raises(ChannelDomainError):
        EXACT.ser_table((1024,), np.array([1.0, 2.0]))
    assert UnionBound().ser(1024, 5.0) == pytest.approx(1023 * q_function(5.0), rel=1e-14)


def scipy_tail_ser_slope(m: int, h: float) -> float:
    """dp/dh = -sqrt(2) (m-1) Integral phi(u) phi(u+s) Phi(u+s)**(m-2) du by quad, in pieces."""
    shift, k = h * math.sqrt(2.0), m - 2

    def f(u):
        v = u + shift
        return math.exp(-0.5 * (u * u + v * v) + k * float(special.log_ndtr(v))) / (2.0 * math.pi)

    peak = -shift / 2.0
    edges = [peak + d for d in (-40.0, -20.0, -6.0, -2.0, 0.0, 2.0, 6.0, 20.0, 40.0)]
    return -math.sqrt(2.0) * (m - 1) * math.fsum(
        integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("m, bound", [(3, 1e-12), (8, 1e-12), (33, 1e-12), (64, 2e-12)])
def test_exact_ser_slope_relative_accuracy_in_the_tail(m, bound):
    # dp/dh comes from the same call and nodes as p, which it leaves unchanged.
    for h in (0.5, 3.0, 6.5):  # three of the tail points above
        (p,), (p_h,) = EXACT._ser_slope([m], [h])
        assert p == EXACT.ser(m, h)
        ref = scipy_tail_ser_slope(m, h)
        assert abs(p_h - ref) <= bound * abs(ref)


@pytest.mark.parametrize("m,h", [(2, 0.5), (4, 1.0), (8, 1.5), (16, 0.2), (32, 2.5), (64, 3.0)])
def test_exact_ser_matches_independent_quadrature(m, h):
    assert EXACT.ser(m, h) == pytest.approx(scipy_ser(m, h), abs=1e-9)


# (m, h, p) of the earlier adaptive Simpson integrator at an absolute
# tolerance of 1e-12, each within 3e-12 of a 40-digit quadrature.
FROZEN_SER = (
    (2, 0.1, 0.4601721627230558),
    (2, 2.0, 0.022750131948204622),
    (2, 4.0, 3.167124185956792e-05),
    (3, 0.5, 0.45375555614294927),
    (3, 3.0, 0.0026179064014771147),
    (4, 1.0, 0.32222046702961754),
    (4, 4.0, 9.359498878289123e-05),
    (8, 0.1, 0.8480712957792274),
    (8, 1.5, 0.2552031290842998),
    (8, 5.0, 1.99016918946049e-06),
    (16, 0.5, 0.8164393047874243),
    (16, 3.0, 0.015250593399528877),
    (33, 0.1, 0.9596265432479079),
    (33, 2.0, 0.2462221248077595),
    (33, 5.0, 8.852203355044491e-06),
    (64, 1.0, 0.7997905803471608),
    (64, 3.0, 0.04251136371151611),
    (64, 5.0, 1.697639786051349e-05),
)


def test_frozen_reference_values():
    # frozen from the scipy oracle above
    assert EXACT.ser(4, 1.0) == pytest.approx(0.3222204670295912, abs=1e-10)
    c4 = capacity_bits_per_symbol(4, EXACT.ser(4, 1.0))
    assert c4 == pytest.approx(0.5825128343681643, abs=1e-10)
    for m, h, p in FROZEN_SER:
        assert EXACT.ser(m, h) == pytest.approx(p, abs=1e-10)


def test_array_call_equals_scalar_calls():
    h = np.concatenate(([0.0], np.geomspace(1e-3, 12.0, 63)))
    for model in (EXACT, UnionBound()):
        table = model.ser_table((2, 8, 64), h)
        assert table.shape == (3, h.size)
        for m, row in zip((2, 8, 64), table):
            scalar = [model.ser(m, float(x)) for x in h]
            assert all(isinstance(v, float) for v in scalar)
            assert row.tobytes() == np.array(scalar).tobytes()


H_ARRAYS = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 40.0)), min_size=1,
                    max_size=80).map(np.array)
M_LISTS = st.lists(st.sampled_from((2, 3, 4, 8, 16, 31, 32, 64)), min_size=1, max_size=6)


@settings(deadline=None, max_examples=25)
@given(ms=M_LISTS, h=H_ARRAYS)
def test_ser_table_rows_equal_ser_bit_for_bit(ms, h):
    for model in (EXACT, UnionBound()):
        table = model.ser_table(ms, h)
        assert table.shape == (len(ms), h.size)
        for m, row in zip(ms, table):
            assert row.tobytes() == np.array([model.ser(m, float(x)) for x in h]).tobytes()


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from((2, 4, 8, 16, 32, 64)), h=H_ARRAYS)
def test_ser_at_an_h_does_not_depend_on_the_other_h(m, h):
    # The node sum is one dot product per h, so p depends only on (m, h).
    p = EXACT.ser_table((m,), h)[0]
    assert p.tobytes() == np.concatenate([EXACT.ser_table((m,), h[i:i + 1])[0]
                                          for i in range(h.size)]).tobytes()


PAIRS = st.lists(st.tuples(st.integers(2, 64), st.one_of(st.just(0.0), st.floats(1e-3, 40.0))),
                 max_size=6)


@settings(deadline=None, max_examples=50)
@given(m=st.integers(2, 64), h=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
       others=PAIRS, at=st.integers(0, 6), grid=H_ARRAYS)
def test_p_and_its_slope_do_not_depend_on_what_shares_the_call(m, h, others, at, grid):
    # One kernel entry serves one pair, a table and a round of probes; p and
    # dp/dh at (m, h) are the same bits in each.
    (p,), (p_h,) = EXACT._ser_slope([m], [h])
    bits = np.float64(p).tobytes()
    assert np.float64(EXACT.ser(m, h)).tobytes() == bits
    hs = np.insert(grid, min(at, grid.size), h)
    assert EXACT.ser_table((m, 2, m), hs)[[0, 2], min(at, grid.size)].tobytes() == bits * 2
    at = min(at, len(others))
    pairs = others[:at] + [(m, h)] + others[at:]
    p_all, p_h_all = EXACT._ser_slope([k for k, _ in pairs], [x for _, x in pairs])
    assert (np.float64(p_all[at]).tobytes(), np.float64(p_h_all[at]).tobytes()) == (
        bits, np.float64(p_h).tobytes())


@settings(deadline=None, max_examples=25)
@given(ms=M_LISTS, bad=st.sampled_from((65, 1024, 1, 0, 4.0)), at=st.integers(0, 6))
def test_ser_table_refuses_a_bad_m_before_computing(ms, bad, at):
    ms = ms[:at] + [bad] + ms[at:]

    def untouched(x):
        raise AssertionError("the kernel ran before m was checked")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_q_array", untouched)
        with pytest.raises(ChannelDomainError):
            EXACT.ser_table(ms, np.array([0.5, 1.0]))


def test_non_finite_rule_raises(monkeypatch):
    monkeypatch.setattr(channel, "_q_array", lambda x: np.full(x.shape, np.nan))
    with pytest.raises(QuadratureError):
        EXACT.ser(4, 1.0)


def test_union_bound_dominates_exact():
    union = UnionBound()
    for m in (2, 4, 8, 16, 32):
        for i in range(0, 26):
            h = i / 5.0
            pu = union.ser(m, h)
            # for m = 2 the bound is tight, so leave quadrature headroom
            assert pu >= EXACT.ser(m, h) - 1e-9
            assert pu <= (m - 1) / m


def test_ser_zero_esinr_is_uniform_guessing():
    for m in (2, 4, 8, 32, 64):
        assert EXACT.ser(m, 0.0) == (m - 1) / m  # exactly: C_m must vanish there


def test_ser_monotone_decreasing_in_h():
    # Strictly non-increasing, with no slack for quadrature noise.
    h = np.linspace(0.0, 10.0, 4096)
    assert np.all(np.diff(EXACT.ser_table((2, 8, 64), h), axis=1) <= 0.0)


def test_ser_increases_with_ensemble_size():
    values = [EXACT.ser(m, 1.0) for m in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ser_argument_validation():
    with pytest.raises(ChannelDomainError):
        EXACT.ser(1, 1.0)
    with pytest.raises(ChannelDomainError):
        EXACT.ser(4, -0.5)
    with pytest.raises(ChannelDomainError):
        EXACT.ser(4, math.nan)
    with pytest.raises(ChannelDomainError):
        EXACT.ser_table((4,), np.array([1.0, -0.5]))
    with pytest.raises(ChannelDomainError):
        UnionBound().ser_table((4,), np.array([1.0, math.inf]))
    for model in (EXACT, UnionBound()):  # ser takes one h; a grid of h is a table
        with pytest.raises(TypeError):
            model.ser(4, np.array([1.0, 2.0]))


def test_capacity_endpoints_exact():
    for m in (2, 4, 8, 16, 32, 64):
        assert capacity_bits_per_symbol(m, 0.0) == math.log2(m)
        assert capacity_bits_per_symbol(m, (m - 1) / m) == 0.0


def test_capacity_monotone_decreasing_in_p():
    m = 8
    p_max = (m - 1) / m
    prev = math.log2(m) + 1.0
    for k in range(1000):
        p = p_max * k / 999.0
        c = capacity_bits_per_symbol(m, p)
        assert c <= prev + 1e-12
        assert 0.0 <= c <= math.log2(m)
        prev = c


def test_capacity_at_subnormal_error_rates():
    for m in (2, 64):
        for p in (5e-324, 1e-310, 1e-300):
            c = capacity_bits_per_symbol(m, p)
            assert math.isfinite(c)
            assert c == pytest.approx(math.log2(m), rel=1e-15)
            assert c <= math.log2(m)


def test_capacity_relative_accuracy_near_uniform_guessing():
    # C vanishes quadratically at p_max; the plain sum of logs keeps only
    # an absolute accuracy there.
    for m in (2, 3, 8, 64):
        p_max = (m - 1) / m
        for k in range(1, 7):
            p = p_max * (1.0 - 10.0 ** -k)
            with localcontext() as ctx:
                ctx.prec = 50
                q = Decimal(p)
                nats = (Decimal(m).ln() + (1 - q) * (1 - q).ln()
                        + q * (q / (m - 1)).ln())
                ref = float(nats / Decimal(2).ln())
            assert capacity_bits_per_symbol(m, p) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_capacity_domain_errors():
    with pytest.raises(ChannelDomainError):
        capacity_bits_per_symbol(8, -0.01)
    with pytest.raises(ChannelDomainError):
        capacity_bits_per_symbol(8, 7 / 8 + 0.01)
    with pytest.raises(ChannelDomainError):
        capacity_bits_per_symbol(1, 0.0)


def test_channel_point_esinr():
    pt = ChannelPoint(m=4, g=2.0, b_s=8.0)
    assert pt.h == pytest.approx(4.0, rel=1e-15)


def test_channel_point_validation():
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=1, g=1.0, b_s=2.0)
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=4, g=0.0, b_s=2.0)
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=4, g=1.0, b_s=-2.0)

