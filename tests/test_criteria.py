"""Invariant efficiency criteria: frozen values, identities, unit plumbing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchan.channel import ChannelPoint, ExactCoherentOrthogonal, capacity_bits_per_symbol
from mchan.criteria import (
    LinkBudget,
    NoCoverageError,
    NoiseSpec,
    UndefinedCriterionError,
    cell_radius,
    icce,
    icie,
    icpe,
    icpe_joule_forms,
    icpe_of_esinr,
    icse,
)

MODEL = ExactCoherentOrthogonal()


def test_frozen_point_values():
    # m=4, g=1, B_s=2 => h=1; p and C frozen in test_channel
    pt = ChannelPoint(m=4, g=1.0, b_s=2.0)
    c = capacity_bits_per_symbol(4, MODEL.ser(4, 1.0))
    assert icse(pt, MODEL) == pytest.approx(c, rel=1e-12)  # 2C / B_s with B_s = 2
    assert icpe(pt, MODEL) == pytest.approx(1.0 / c, rel=1e-12)
    assert icpe(pt, MODEL) == pytest.approx(1.716700372936285, rel=1e-8)


def test_icpe_depends_on_h_only():
    # many (g, B_s) splits of the same h must give identical w
    h = 1.3
    ref = icpe_of_esinr(8, h, MODEL)
    for g in (0.3, 0.9, 2.7, 8.1):
        b_s = 2.0 * (h / g) ** 2
        pt = ChannelPoint(m=8, g=g, b_s=b_s)
        assert pt.h == pytest.approx(h, rel=1e-12)
        assert icpe(pt, MODEL) == pytest.approx(ref, rel=1e-10)


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from((2, 4, 8, 16, 32, 64)), g=st.floats(0.1, 10.0),
       b_s=st.floats(0.1, 100.0), s=st.floats(0.1, 10.0))
def test_icpe_is_invariant_along_constant_h(m, g, b_s, s):
    # (g, B_s) -> (g s, B_s / s^2) keeps h = g sqrt(B_s / 2), so w must not move.
    w = icpe(ChannelPoint(m=m, g=g, b_s=b_s), MODEL)
    w_scaled = icpe(ChannelPoint(m=m, g=g * s, b_s=b_s / (s * s)), MODEL)
    assert w_scaled == pytest.approx(w, rel=1e-12)


def test_icse_icpe_product_identity():
    # w * c_F == g**2 (both normalisations share C and B_s)
    for m, g, b_s in [(2, 1.0, 2.0), (4, 0.7, 5.0), (16, 2.0, 1.0), (8, 1.1, 3.3)]:
        pt = ChannelPoint(m=m, g=g, b_s=b_s)
        assert icpe(pt, MODEL) * icse(pt, MODEL) == pytest.approx(g * g, rel=1e-12)


def test_of_esinr_forms_match_point_forms():
    pt = ChannelPoint(m=4, g=1.8, b_s=0.5)
    assert icpe_of_esinr(4, pt.h, MODEL) == pytest.approx(icpe(pt, MODEL), rel=1e-12)


def test_icpe_small_h_plateau():
    # for m=2 the power criterion flattens toward pi*ln(2) as h -> 0
    w = icpe_of_esinr(2, 0.01, MODEL)
    assert w == pytest.approx(2.1776355720, rel=1e-6)
    assert w == pytest.approx(math.pi * math.log(2.0), rel=3e-5)


def test_icpe_undefined_at_zero_capacity():
    with pytest.raises(UndefinedCriterionError):
        icpe_of_esinr(4, 0.0, MODEL)


def test_joule_forms():
    noise = NoiseSpec(n0_noise=2.0, n0_interference=3.0)
    assert noise.n0_total == 5.0
    per_symbol, per_bit = icpe_joule_forms(w=2.0, noise=noise, b_s=4.0)
    assert per_symbol == pytest.approx(2.0 * 5.0 * 4.0 / 2.0, rel=1e-12)  # w * N0 * B_s / 2
    assert per_bit == pytest.approx(per_symbol * 4.0 / 2.0, rel=1e-12)


def test_joule_forms_need_positive_noise():
    with pytest.raises(ValueError):
        icpe_joule_forms(w=2.0, noise=NoiseSpec(0.0, 0.0), b_s=4.0)


def test_criteria_of_w_refuse_nan_and_pass_infinite_w():
    # w is +inf at zero capacity, which the CLI prints; a nan w is no value.
    noise = NoiseSpec(n0_noise=1.0)
    for of_w in (lambda w: icpe_joule_forms(w, noise, 2.0), lambda w: icce(w, 1000.0),
                 lambda w: icie(w, 1000.0)):
        with pytest.raises(ValueError, match="ICPE w must be >= 0"):
            of_w(math.nan)
    assert icpe_joule_forms(math.inf, noise, 2.0) == (math.inf, math.inf)
    assert icce(math.inf, 1000.0) == math.inf


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(n0_noise=-1.0, n0_interference=0.0)


def test_cell_radius_hand_example():
    # power ratio 16, exponent 4 => radius doubles the reference distance
    budget = LinkBudget(
        tx_power_w=16.0,
        system_gain=1.0,
        ref_loss=1.0,
        ref_distance_m=100.0,
        path_loss_exponent=4.0,
        noise_interference_w=1.0,
    )
    assert cell_radius(budget, g_target=1.0) == pytest.approx(200.0, rel=1e-12)
    # doubling the target amplitude costs a factor 4 in the ratio
    assert cell_radius(budget, g_target=2.0) == pytest.approx(
        100.0 * 4.0 ** 0.25, rel=1e-12
    )


def test_cell_radius_no_coverage():
    budget = LinkBudget(
        tx_power_w=0.5,
        system_gain=1.0,
        ref_loss=1.0,
        ref_distance_m=100.0,
        path_loss_exponent=4.0,
        noise_interference_w=1.0,
    )
    with pytest.raises(NoCoverageError):
        cell_radius(budget, g_target=1.0)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(1.0, 1.0, 1.0, 100.0, 1.5, 1.0)  # exponent below free space
    with pytest.raises(ValueError):
        LinkBudget(-1.0, 1.0, 1.0, 100.0, 4.0, 1.0)


def test_icce_scales_with_coverage_area():
    w = 2.0
    r_m = 1000.0  # 1 km => area pi km^2
    assert icce(w, r_m) == pytest.approx(w / math.pi, rel=1e-12)
    assert icce(w, 2.0 * r_m) == pytest.approx(w / (4.0 * math.pi), rel=1e-12)


def test_icie_identity_cost_matches_icce():
    assert icie(3.0, 1000.0) == pytest.approx(icce(3.0, 1000.0), rel=1e-12)
    assert icie(3.0, 1000.0, cost_fn=lambda w: 2.0 * w) == pytest.approx(
        2.0 * icce(3.0, 1000.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        icie(3.0, 1000.0, cost_fn=lambda w: math.inf)
