"""Error-rate models and capacity: exact values, bounds, and domain checks."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import norm

import mchan.channel as channel
from mchan.channel import (
    ChannelDomainError,
    ChannelPoint,
    ExactCoherentOrthogonal,
    QuadratureError,
    SerTableRangeError,
    TableSer,
    UnionBound,
    capacity_bits_per_symbol,
    continuous_capacity,
    q_function,
    ser,
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
        for m in (2, 8, 64):
            p = model.ser(m, h)
            assert isinstance(p, np.ndarray) and p.shape == h.shape
            scalar = [model.ser(m, float(x)) for x in h]
            assert all(isinstance(v, float) for v in scalar)
            np.testing.assert_allclose(p, scalar, rtol=1e-14, atol=0.0)
    grid = EXACT.ser(4, h.reshape(8, 8))
    assert grid.shape == (8, 8)


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
    for m in (2, 8, 64):
        assert np.all(np.diff(EXACT.ser(m, h)) <= 0.0)


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
        EXACT.ser(4, np.array([1.0, -0.5]))
    with pytest.raises(ChannelDomainError):
        UnionBound().ser(4, np.array([1.0, math.inf]))


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
    phys = ChannelPoint.from_bandwidth(m=4, g=2.0, bandwidth_hz=2.0, symbol_duration_s=2.0)
    assert phys.b_s == 8.0
    assert phys.h == pt.h


def test_channel_point_validation():
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=1, g=1.0, b_s=2.0)
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=4, g=0.0, b_s=2.0)
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=4, g=1.0, b_s=-2.0)
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=4, g=1.0, b_s=2.0, bandwidth_hz=1.0)  # missing duration
    with pytest.raises(ChannelDomainError):
        ChannelPoint(m=4, g=1.0, b_s=2.0, bandwidth_hz=5.0, symbol_duration_s=5.0)


def test_ser_wrapper_uses_point_esinr():
    pt = ChannelPoint(m=2, g=1.0, b_s=2.0)  # h = 1
    assert ser(pt, EXACT) == EXACT.ser(2, 1.0)


def test_table_model_interpolates_and_refuses_extrapolation():
    table = TableSer([(0.0, 0.5), (1.0, 0.2), (2.0, 0.05)])
    assert table.ser(2, 0.0) == 0.5
    assert table.ser(2, 1.0) == 0.2
    assert table.ser(2, 0.5) == pytest.approx(0.35, rel=1e-12)
    with pytest.raises(SerTableRangeError):
        table.ser(2, 2.5)
    with pytest.raises(SerTableRangeError):
        table.ser(2, np.array([1.0, 2.5]))
    np.testing.assert_array_equal(table.ser(2, np.array([0.0, 1.0, 2.0])), [0.5, 0.2, 0.05])
    # clamped to the m-ary ceiling
    assert table.ser(2, 0.0) <= 0.5


def test_table_model_knot_validation():
    with pytest.raises(ChannelDomainError):
        TableSer([(0.0, 0.5)])
    with pytest.raises(ChannelDomainError):
        TableSer([(0.0, 0.5), (0.0, 0.4)])  # not strictly increasing in h
    with pytest.raises(ChannelDomainError):
        TableSer([(0.0, 0.2), (1.0, 0.4)])  # p increases
    with pytest.raises(ChannelDomainError):
        TableSer([(0.0, 1.0), (1.0, 0.4)])  # p out of [0, 1)


def test_continuous_capacity():
    assert continuous_capacity(1.0, 0.0) == 0.0
    assert continuous_capacity(1000.0, 1.0) == pytest.approx(1000.0, rel=1e-12)
    assert continuous_capacity(5.0, 3.0) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ChannelDomainError):
        continuous_capacity(0.0, 1.0)
    with pytest.raises(ChannelDomainError):
        continuous_capacity(1.0, -0.1)
