"""Constrained extremum search: frozen optima, cross-checks, verifiers."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mchan.channel as channel
import mchan.extremum as extremum
from mchan.channel import (
    ChannelPoint,
    ExactCoherentOrthogonal,
    capacity_bits_per_symbol,
)
from mchan.criteria import UndefinedCriterionError, icpe, icpe_of_esinr, icse
from mchan.extremum import (
    DEFAULT_M_SET,
    ExtremumSpec,
    GridRange,
    InfeasibleSearchError,
    maximize_icse,
    minimize_icpe,
    sweep_curves,
    verify_statement1,
    verify_statement3,
)

EXACT = ExactCoherentOrthogonal()

# Frozen infima of w(h) = h^2 / C_m(p(h)) and their minimisers h*, the
# roots of F(h) = 2 C - h C_p p_h, computed once with mpmath 1.3.0 at 34
# digits.
H_STAR = {4: 0.72047796398742139823, 8: 1.1693372642256438241, 16: 1.5119151125264789168,
          32: 1.7963789403050058563, 64: 2.0434514004486023712}
W_INF = {4: 1.6788218474884149915, 8: 1.4854346175278661804, 16: 1.3811390714581596551,
         32: 1.3155109572618088916, 64: 1.2700874108759407937}


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
def test_unconstrained_minimum_matches_frozen_oracle(m):
    # The search ends on a sign change of dw/dh, so h* holds to ~5e-14
    # although w is flat there.
    res = minimize_icpe(ExtremumSpec(m_fixed=m))
    assert res.value == pytest.approx(W_INF[m], rel=1e-13)
    assert res.h == pytest.approx(H_STAR[m], rel=1e-12)
    assert res.attained
    assert res.w == pytest.approx(res.value, rel=1e-12)
    # reported (g, b_s) must reproduce h
    assert res.g * math.sqrt(res.b_s / 2.0) == pytest.approx(res.h, rel=1e-12)


def test_minimum_matches_dense_h_scan():
    # independent brute-force oracle: dense scan of w(h) for m=8
    hs = np.geomspace(0.7, 2.0, 400)
    grid_min = min(icpe_of_esinr(8, float(h), EXACT) for h in hs)
    res = minimize_icpe(ExtremumSpec(m_fixed=8))
    assert res.value <= grid_min + 1e-9
    assert grid_min == pytest.approx(res.value, rel=1e-4)


def test_reduced_and_grid2d_agree_unconstrained():
    spec = ExtremumSpec(m_fixed=4)
    a = minimize_icpe(spec, method="reduced")
    b = minimize_icpe(spec, method="grid2d")
    assert b.value == pytest.approx(a.value, rel=1e-8)
    assert b.m == a.m
    assert b.note == "direct 2-D search"


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from(DEFAULT_M_SET),
       g_lo=st.floats(1e-2, 1.0), g_decades=st.floats(0.5, 3.0), g_points=st.integers(3, 10),
       b_lo=st.floats(0.1, 10.0), b_decades=st.floats(0.5, 3.0), b_points=st.integers(3, 10))
# The best grid point is the window edge h_lo, and its slope points into the window.
@example(m=8, g_lo=1.0, g_decades=1.0, g_points=3, b_lo=1.0, b_decades=1.0, b_points=3)
def test_reduced_and_grid2d_agree_on_small_grids(m, g_lo, g_decades, g_points,
                                                 b_lo, b_decades, b_points):
    spec = ExtremumSpec(m_fixed=m,
                        g_range=GridRange(g_lo, g_lo * 10.0 ** g_decades, g_points),
                        b_s_range=GridRange(b_lo, b_lo * 10.0 ** b_decades, b_points))
    a = minimize_icpe(spec, "reduced")
    b = minimize_icpe(spec, "grid2d")
    assert b.w == pytest.approx(a.w, rel=1e-6)


def test_reduced_and_grid2d_agree_constrained():
    spec = ExtremumSpec(m_fixed=4, c_f_min=1.0)
    a = minimize_icpe(spec, method="reduced")
    b = minimize_icpe(spec, method="grid2d")
    assert b.value == pytest.approx(a.value, rel=1e-6)
    assert "c_f_min" in a.constraint_slack
    assert a.constraint_slack["c_f_min"] >= 0.0
    assert a.c_f >= 1.0


@pytest.mark.parametrize("search", [minimize_icpe, maximize_icse])
def test_reduced_and_grid2d_agree_with_g_and_base_fixed(search):
    # Only m is free: each m's window is the one point h = g sqrt(B_s/2),
    # which is attained, and grid2d runs no line search.
    spec = ExtremumSpec(g_fixed=1.0, b_s_fixed=2.0, m_set=(2, 4, 8))
    a = search(spec, method="reduced")
    b = search(spec, method="grid2d")
    assert (b.m, b.g, b.b_s, b.h) == (a.m, a.g, a.b_s, a.h) == (a.m, 1.0, 2.0, 1.0)
    assert b.value == a.value
    assert a.attained and b.attained


def test_free_m_prefers_larger_ensemble():
    # w_inf falls with m, so the search over {2, 4, 8} must pick 8
    res = minimize_icpe(ExtremumSpec(m_set=(2, 4, 8)))
    assert res.m == 8
    assert res.value == pytest.approx(W_INF[8], rel=1e-6)


def test_binary_infimum_is_boundary():
    res = minimize_icpe(ExtremumSpec(
        m_fixed=2,
        g_range=GridRange(1e-2, 1.0, 32),
        b_s_range=GridRange(0.1, 10.0, 32),
    ))
    assert not res.attained
    assert res.value == pytest.approx(math.pi * math.log(2.0), rel=5e-3)
    assert res.value > math.pi * math.log(2.0)  # infimum is never reached


def test_maximize_icse_fixed_base_hits_upper_edge():
    # at fixed base ICSE grows with h; with the amplitude capped at 1 the
    # optimum sits at the window edge and is reported as unattained
    res = maximize_icse(ExtremumSpec(m_fixed=4, b_s_fixed=2.0,
                                     g_range=GridRange(1e-2, 1.0, 32)))
    assert not res.attained
    assert res.h == pytest.approx(1.0, rel=1e-12)
    assert res.value == pytest.approx(0.5825128343681643, rel=1e-9)  # C_4 at h=1
    assert res.c_f == pytest.approx(res.value, rel=1e-12)


def test_maximize_icse_saturates_on_the_capacity_plateau():
    # with a generous amplitude range the capacity ceiling log2(m) is
    # reached within float precision, so the supremum is attained
    res = maximize_icse(ExtremumSpec(m_fixed=4, b_s_fixed=2.0))
    assert res.value == pytest.approx(math.log2(4), rel=1e-12)


@pytest.mark.parametrize("points", [28, 62])
def test_c_f_maximum_on_the_capacity_plateau_does_not_depend_on_the_grid(points):
    # Where p underflows to 0, C_m is exactly log2 m on every point left of
    # the window end, yet in exact arithmetic it still rises with h, so the
    # supremum of c_F at a fixed base is the window end, not attained.  The
    # search walks the plateau there on any grid; one that stopped on the
    # plateau's first grid point would report h 40.98 with 28 points and
    # 39.15 with 62.
    b_s, g_range = 0.623978378554434, GridRange(0.9952684317789671, 920.5579947298701, points)
    res = maximize_icse(ExtremumSpec(m_fixed=16, b_s_fixed=b_s, g_range=g_range))
    assert not res.attained
    assert res.h == g_range.hi * math.sqrt(b_s / 2.0)
    assert res.value == res.c_f == 2.0 * math.log2(16) / b_s


def test_near_infimum_band_caps_power():
    eps = 0.05
    res = maximize_icse(ExtremumSpec(m_fixed=8, icpe_band_eps=eps))
    assert res.w <= W_INF[8] * (1.0 + eps) * (1.0 + 1e-6)
    assert "w_cap" in res.constraint_slack
    assert "near-infimum band" in res.note


@pytest.mark.parametrize("m", DEFAULT_M_SET)
def test_band_search_meets_its_cap_exactly_and_widens_with_eps(m):
    # The ICPE minimiser h* lies in every band by construction, so no eps
    # may be reported infeasible, and the c_F found must not fall as the
    # band widens.
    c_f = []
    for eps in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        res = maximize_icse(ExtremumSpec(m_fixed=m, icpe_band_eps=eps))
        assert res.constraint_slack["w_cap"] >= 0.0
        c_f.append(res.c_f)
    assert all(b >= a for a, b in zip(c_f, c_f[1:]))


BAND_EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@pytest.fixture(scope="module")
def band_scan():
    """(m, eps) -> (w_inf(m), band search result) over DEFAULT_M_SET x BAND_EPS."""
    out = {}
    for m in DEFAULT_M_SET:
        w_inf = minimize_icpe(ExtremumSpec(m_fixed=m)).value
        for eps in BAND_EPS:
            out[m, eps] = w_inf, maximize_icse(ExtremumSpec(m_fixed=m, icpe_band_eps=eps))
    return out


@pytest.mark.parametrize("m", DEFAULT_M_SET)
@pytest.mark.parametrize("eps", BAND_EPS)
def test_band_search_reaches_the_band_edge(band_scan, m, eps):
    # c_F rises with h up to the band edge w = w_inf (1 + eps), however
    # narrow the band: at most 1 % of the band is left unused.
    w_inf, res = band_scan[m, eps]
    assert 0.0 <= res.constraint_slack["w_cap"] <= 1e-2 * eps * w_inf
    assert res.constraint_active["w_cap"]


def test_search_work_counts(band_scan):
    # Deterministic guards on the refinement's cost (grid points included).
    assert minimize_icpe(ExtremumSpec()).evaluations <= 460  # 438; 557 by golden section
    # m = 2: the infimum sits on the window edge, and the slope probe there
    # points out of the window, which ends the search after the 64-point grid.
    assert minimize_icpe(ExtremumSpec(m_fixed=2)).evaluations == 65
    total = sum(res.evaluations for _, res in band_scan.values())
    assert total <= 2900  # 2710; 4685 when the band pass counted the seed pass's grid again
    # The constrained pass reuses the first pass's grid outputs, h* (that
    # pass's last probe) spliced in, so each point counts once: here the
    # 64 grid points and the 14 probes of both passes.
    assert minimize_icpe(ExtremumSpec(m_fixed=8, w_cap=1.48545)).evaluations == 78  # was 143
    assert maximize_icse(ExtremumSpec(m_fixed=8, icpe_band_eps=0.05)).evaluations == 86  # was 152


def test_kernel_calls_per_search(monkeypatch):
    # Every m of a search, every base of a verifier and both passes of a
    # band search share one SER table on their scan grids (a grid call);
    # each round of probes is one kernel call for every live search (a
    # probe round).  The default search makes 384 grid points and 54
    # probes: one at m = 2, whose slope at h_lo points out of the window,
    # and 10-11 to close each slope root, so the 6 searches take 11 rounds.
    tables, rounds = [], []
    table, slope = ExactCoherentOrthogonal.ser_table, ExactCoherentOrthogonal._ser_slope

    def counted_table(self, ms, h):
        tables.append(tuple(ms))
        return table(self, ms, h)

    def counted_round(self, ms, hs):
        rounds.append(len(ms))
        return slope(self, ms, hs)

    monkeypatch.setattr(ExactCoherentOrthogonal, "ser_table", counted_table)
    monkeypatch.setattr(ExactCoherentOrthogonal, "_ser_slope", counted_round)
    res = minimize_icpe(ExtremumSpec())
    assert tables == [DEFAULT_M_SET]  # 1 grid call
    assert len(rounds) <= 12  # 11 rounds for the 54 probes of the 6 searches
    assert res.evaluations == 6 * 64 + sum(rounds)
    tables.clear()
    maximize_icse(ExtremumSpec(m_fixed=8, icpe_band_eps=1e-3))
    assert tables == [(8,)]
    tables.clear()
    rounds.clear()
    minimize_icpe(ExtremumSpec(g_fixed=1.0, m_set=(4, 16)))
    assert tables == [(4, 16)]
    assert len(rounds) <= 10  # 10 rounds of 2 probes
    tables.clear()
    rounds.clear()
    verify_statement1(4, b_s_grid=GridRange(0.5, 50.0, 4))  # one search per base
    assert tables == [(4,)]  # one table for the 4 bases' scan grids
    assert len(rounds) <= 12 and max(rounds) == 4  # 11 (12 at the reference SIMD level)


@settings(deadline=None, max_examples=15)
@given(m_set=st.sets(st.sampled_from(DEFAULT_M_SET), min_size=2).map(lambda s: tuple(sorted(s))),
       maximise=st.booleans(), g_lo=st.floats(1e-2, 1.0), g_decades=st.floats(0.5, 3.0),
       b_lo=st.floats(0.1, 10.0), b_decades=st.floats(0.5, 3.0), points=st.integers(3, 40),
       cap=st.one_of(st.none(), st.floats(1.3, 3.0)))
def test_lockstep_search_equals_each_m_alone(m_set, maximise, g_lo, g_decades, b_lo, b_decades,
                                             points, cap):
    # The m's of a search run in lockstep, one kernel call per round; p and
    # dp/dh depend only on (m, h), so each m's search takes the probes it
    # takes alone, and the result is the best of them with every m's
    # evaluations, field for field.
    spec = ExtremumSpec(m_set=m_set, g_range=GridRange(g_lo, g_lo * 10.0 ** g_decades, points),
                        b_s_range=GridRange(b_lo, b_lo * 10.0 ** b_decades, points), w_cap=cap)
    search = maximize_icse if maximise else minimize_icpe
    alone, certificates = [], []
    for m in m_set:
        try:
            alone.append(search(replace(spec, m_fixed=m)))
        except InfeasibleSearchError as exc:
            certificates.append(exc.certificate)
    if not alone:
        with pytest.raises(InfeasibleSearchError) as exc:
            search(spec)
        assert exc.value.certificate == max(certificates, key=lambda c: c["margin"])
        return
    best = (max(alone, key=lambda r: (r.value, -r.m)) if maximise else
            min(alone, key=lambda r: (r.value, r.m)))
    together = search(spec)
    assert repr(together) == repr(replace(best, evaluations=together.evaluations))
    if not certificates:
        assert together.evaluations == sum(r.evaluations for r in alone)


@settings(deadline=None, max_examples=10)
@given(m=st.sampled_from(DEFAULT_M_SET[:4]), lo=st.floats(0.1, 1.0), decades=st.floats(1.0, 2.0),
       bases=st.integers(2, 6), points=st.integers(8, 32))
def test_lockstep_flatness_rows_equal_each_base_alone(m, lo, decades, bases, points):
    # The bases of verify_statement1 share one SER table and refine in
    # lockstep; each row is the search of its base alone.
    g_range = GridRange(1e-4, 10.0, points)
    b_grid = GridRange(lo, lo * 10.0 ** decades, bases)
    report = verify_statement1(m, g_range=g_range, b_s_grid=b_grid)
    for row, b_s in zip(report.rows, b_grid.log_grid(), strict=True):
        r = minimize_icpe(ExtremumSpec(m_fixed=m, b_s_fixed=b_s, g_range=g_range))
        assert (row.b_s, row.h_min, row.w_min, row.attained) == (b_s, r.h, r.value, r.attained)


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from(DEFAULT_M_SET), k=st.integers(0, 56), maximise=st.booleans(),
       floor=st.floats(0.3, 0.999), cap=st.floats(1.001, 2.0))
@example(m=2, k=0, maximise=True, floor=0.3, cap=1.001)  # w is flattest here
def test_constraints_met_on_the_scan_grid_are_met_exactly(m, k, maximise, floor, cap):
    # c_f_min and w_cap both hold at the k-th point of the h scan grid, so
    # the search must succeed and report every slack >= 0 with no tolerance.
    spec = ExtremumSpec(m_fixed=m)
    g, b = spec.g_range, spec.b_s_range
    h = GridRange(g.lo * math.sqrt(b.lo / 2.0), g.hi * math.sqrt(b.hi / 2.0), 64).log_grid()[k]
    c = capacity_bits_per_symbol(m, EXACT.ser(m, h))
    b_lo = max(b.lo, 2.0 * (h / g.hi) ** 2)
    spec = replace(spec, c_f_min=2.0 * c / b_lo * floor, w_cap=h * h / c * cap)
    res = (maximize_icse if maximise else minimize_icpe)(spec)
    assert set(res.constraint_slack) == {"c_f_min", "w_cap"}
    assert all(s >= 0.0 for s in res.constraint_slack.values())


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from(DEFAULT_M_SET), maximise=st.booleans(),
       fixed=st.sampled_from([None, "g", "b_s"]),
       constraint=st.sampled_from([None, "c_f_min", "w_cap"]),
       g_lo=st.floats(1e-2, 1.0), g_decades=st.floats(0.5, 3.0),
       b_lo=st.floats(0.1, 10.0), b_decades=st.floats(0.5, 3.0),
       points=st.integers(3, 16), k=st.integers(0, 15), factor=st.floats(0.3, 0.99))
# At fixed g, c_F = C g**2 / h**2 peaks at the root of dw/dh.
@example(m=8, maximise=True, fixed="g", constraint=None, g_lo=0.1, g_decades=2.0, b_lo=0.1,
         b_decades=3.0, points=8, k=0, factor=0.5)
# On the capacity plateau: see test_capacity_plateau_closes_the_margin_alone.
@example(m=8, maximise=True, fixed=None, constraint="w_cap", g_lo=0.8125, g_decades=2.0,
         b_lo=8.0, b_decades=2.75, points=9, k=1, factor=0.3046875)
@example(m=2, maximise=True, fixed=None, constraint="w_cap", g_lo=1.0, g_decades=2.0,
         b_lo=0.25, b_decades=0.5, points=3, k=1, factor=0.3125)
def test_search_ends_on_a_first_order_certificate(m, maximise, fixed, constraint, g_lo,
                                                  g_decades, b_lo, b_decades, points, k, factor):
    # The reported h is a slope root, a margin root, a kink, or a window end
    # whose slope points out of the window.  So no feasible point a relative
    # 1e-6 away inside the window is better (beyond rounding); only such a
    # window end is reported unattained; and an active constraint is
    # violated on one side.
    g = GridRange(g_lo, g_lo * 10.0 ** g_decades, points)
    b = GridRange(b_lo, b_lo * 10.0 ** b_decades, points)
    spec = ExtremumSpec(m_fixed=m, g_range=g, b_s_range=b,
                        g_fixed=math.sqrt(g.lo * g.hi) if fixed == "g" else None,
                        b_s_fixed=math.sqrt(b.lo * b.hi) if fixed == "b_s" else None)
    g_ends = (spec.g_fixed,) * 2 if fixed == "g" else (g.lo, g.hi)
    b_ends = (spec.b_s_fixed,) * 2 if fixed == "b_s" else (b.lo, b.hi)
    h_lo, h_hi = (x * math.sqrt(y / 2.0) for x, y in zip(g_ends, b_ends))

    def criteria(h):  # c_F at the smallest compatible base, and w
        if spec.b_s_fixed is not None:
            base = spec.b_s_fixed
        elif spec.g_fixed is not None:
            base = 2.0 * (h / spec.g_fixed) ** 2
        else:
            base = max(b.lo, 2.0 * (h / g.hi) ** 2)
        c = capacity_bits_per_symbol(m, EXACT.ser(m, h))
        return 2.0 * c / base, h * h / c

    if constraint is not None:  # met at the k-th scan-grid point
        c_f, w = criteria(GridRange(h_lo, h_hi, points).log_grid()[k % points])
        spec = replace(spec, **{constraint: c_f * factor if constraint == "c_f_min"
                                else w / factor})
    res = (maximize_icse if maximise else minimize_icpe)(spec)
    assert all(v >= 0.0 for v in res.constraint_slack.values())
    value = -res.value if maximise else res.value
    infeasible_sides = []
    for x in (res.h * (1.0 - 1e-6), res.h * (1.0 + 1e-6)):
        if not h_lo <= x <= h_hi:
            continue
        c_f, w = criteria(x)
        margin = min(c_f - spec.c_f_min if spec.c_f_min else math.inf,
                     spec.w_cap - w if spec.w_cap else math.inf)
        infeasible_sides.append(margin < 0.0)
        if margin >= 0.0:
            rise = ((-c_f if maximise else w) - value) / abs(value)
            assert rise >= -1e-13  # no better point next to it
            if res.h in (h_lo, h_hi) and rise > 1e-9:  # the slope points out
                assert not res.attained
    if not res.attained:
        assert res.h in (h_lo, h_hi)
    if any(res.constraint_active.values()):
        assert any(infeasible_sides)


@pytest.mark.parametrize("m, g_lo, g_decades, b_lo, b_decades, points, factor", [
    (8, 0.8125, 2.0, 8.0, 2.75, 9, 0.3046875),
    (2, 1.0, 2.0, 0.25, 0.5, 3, 0.3125),
])
def test_capacity_plateau_closes_the_margin_alone(m, g_lo, g_decades, b_lo, b_decades, points,
                                                  factor):
    # C_m is log2 m to ~1e-12 here, so c_F's slope is ~1e-11 where the
    # w_cap margin is ~-20.  A bracket on min(slope, margin) mixes those
    # scales and stalls short of the margin's root; only the margin
    # changes sign, so it alone is closed, in a few probes.
    g = GridRange(g_lo, g_lo * 10.0 ** g_decades, points)
    b = GridRange(b_lo, b_lo * 10.0 ** b_decades, points)
    h = GridRange(g.lo * math.sqrt(b.lo / 2.0), g.hi * math.sqrt(b.hi / 2.0), points).log_grid()[1]
    w_cap = h * h / capacity_bits_per_symbol(m, EXACT.ser(m, h)) / factor
    res = maximize_icse(ExtremumSpec(m_fixed=m, g_range=g, b_s_range=b, w_cap=w_cap))
    assert res.evaluations <= 40  # 25 and 28
    assert res.constraint_active["w_cap"]
    assert 0.0 <= res.constraint_slack["w_cap"] <= 1e-12 * w_cap


def test_refinement_cap_raises(monkeypatch):
    # A bracket that does not close within the cap is a numerical failure,
    # never an ending.
    monkeypatch.setattr(extremum, "_MAX_REFINE_ITER", 3)
    with pytest.raises(ArithmeticError, match="did not close a bracket in 3 probes"):
        minimize_icpe(ExtremumSpec(m_fixed=8))


def test_explicit_power_cap_binds():
    res = maximize_icse(ExtremumSpec(m_fixed=4, w_cap=2.0))
    assert res.w <= 2.0
    assert res.constraint_active["w_cap"]


@pytest.mark.parametrize("method", ["reduced", "grid2d"])
def test_infeasible_search_raises_with_certificate(method):
    # c_F = 2 C / B_s <= 2 log2(2) / 0.1 = 20 over the whole region; it
    # peaks at the kink h = g_hi * sqrt(b_s_lo / 2), which the reduced scan
    # grid and the grid2d mesh both hold, so both certify it, to the digit.
    spec = ExtremumSpec(m_fixed=2, c_f_min=25.0)
    with pytest.raises(InfeasibleSearchError) as exc:
        minimize_icpe(spec, method)
    cert = exc.value.certificate
    assert set(cert) == {"m", "h", "g", "b_s", "c_f", "w", "margin"}
    assert cert["margin"] == pytest.approx(cert["c_f"] - 25.0, rel=1e-12)
    assert (cert["margin"], cert["h"]) == (-6.960751242098709, 2.23606797749979)
    assert cert["h"] == pytest.approx(cert["g"] * math.sqrt(cert["b_s"] / 2.0), rel=1e-12)


def _reference_level_env() -> dict[str, str]:
    """This environment with numpy's dispatch above X86_V3 (AVX-512) turned off.

    numpy runs exp, log1p and expm1 in AVX-512 loops where the CPU has
    them, and those round some last bits differently from the AVX2 and
    baseline loops, so a value frozen to the last bit holds per SIMD
    level.  The reference level is X86_V3: a child process whose
    environment turns off the dispatch targets above it that numpy finds
    on this CPU runs there.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    for level in ("X86_V3", "AVX2"):  # numpy >= 2.4 names the level; earlier, its last feature
        if level in __cpu_dispatch__:
            above = __cpu_dispatch__[__cpu_dispatch__.index(level) + 1:]
            # numpy reports a feature this process has turned off as not found.
            off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
            off += [f for f in above if __cpu_features__[f]]
            return dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off))
    pytest.skip("the reference SIMD level is defined on x86-64")


FROZEN_AT_REFERENCE_LEVEL = """
import json
from mchan.extremum import ExtremumSpec, minimize_icpe
r = minimize_icpe(ExtremumSpec(m_fixed=8), method="grid2d")
print(json.dumps([minimize_icpe(ExtremumSpec()).evaluations,
                  [r.m, r.g, r.b_s, r.h, r.value, r.w, r.attained, r.evaluations, r.note]]))
"""


def test_frozen_values_at_the_reference_simd_level():
    # The default search's evaluations (438 with numpy's AVX-512 loops) and
    # the grid2d result, frozen at the reference SIMD level.
    # On the default log grids h depends only on 3i + 2j (g index i, B_s
    # index j), so about 20 mesh cells share the best h up to rounding.
    # Among the cells within 4 ulp of the best w the search refines from
    # the one whose g is nearest the g-range's geometric centre, so the
    # last bits of p do not pick the reported (g, B_s).  Both line
    # searches (in g at that cell's B_s, then in B_s at the g found) run on
    # log grids in h and end on a root of the slope, so h holds to ~2e-15
    # (reference h* = 1.1693372642256438).  Scanning h rather than g and
    # B_s themselves sets the last 1-2 digits of g, B_s and h.
    proc = subprocess.run([sys.executable, "-c", FROZEN_AT_REFERENCE_LEVEL],
                          env=_reference_level_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    evaluations, grid2d = json.loads(proc.stdout)
    assert evaluations == 439
    assert grid2d == [8, 0.30224529545729806, 29.93577294720491, 1.169337264225646,
                      1.4854346175278672, 1.4854346175278672, True, 4237, "direct 2-D search"]


def test_grid2d_result_matches_the_frozen_infimum():
    # The last bits are frozen at the reference SIMD level (above); on any
    # level the result is the reduced search's optimum.
    res = minimize_icpe(ExtremumSpec(m_fixed=8), method="grid2d")
    assert res.m == 8 and res.attained and res.note == "direct 2-D search"
    assert res.h == pytest.approx(H_STAR[8], rel=1e-13)
    assert res.value == res.w == pytest.approx(W_INF[8], rel=1e-14)
    assert res.g * math.sqrt(res.b_s / 2.0) == pytest.approx(res.h, rel=1e-15)


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from(DEFAULT_M_SET), lo=st.floats(1e-3, 1.0), decades=st.floats(0.5, 4.6),
       points=st.integers(50, 400))
def test_w_has_one_slope_sign_change(m, lo, decades, points):
    # For m >= 3, w falls to its minimum at h* and rises after it; for
    # m = 2 it rises throughout.  So w_cap - w, and c_F = g**2 / w at a
    # fixed g or above the kink, peak at h* (or at h_lo for m = 2), which is
    # where a search whose scan grid is infeasible looks next.
    h = np.geomspace(lo, min(lo * 10.0 ** decades, 40.0), points)
    p = EXACT.ser_table((m,), h)[0]
    w = [x * x / capacity_bits_per_symbol(m, q) for x, q in zip(h.tolist(), p.tolist())]
    rising = np.diff(w) > 0.0
    if m == 2:
        assert rising.all()
    else:
        assert not (rising[:-1] & ~rising[1:]).any()  # it falls, then rises


@settings(deadline=None, max_examples=25)
@given(m=st.sampled_from(DEFAULT_M_SET[1:]), maximise=st.booleans(),
       g_lo=st.floats(0.1, 1.0), g_decades=st.floats(0.1, 1.0),
       b_lo=st.floats(0.5, 5.0), b_decades=st.floats(0.1, 1.0),
       points=st.integers(2, 8), t=st.floats(0.01, 0.99))
def test_w_cap_feasible_only_between_grid_points_is_met(m, maximise, g_lo, g_decades, b_lo,
                                                        b_decades, points, t):
    # w_cap lies between w_inf and the smallest w on the scan grid, so no
    # grid point is feasible, yet h* is: the search must find it.
    g = GridRange(g_lo, g_lo * 10.0 ** g_decades, points)
    b = GridRange(b_lo, b_lo * 10.0 ** b_decades, points)
    h_lo, h_hi = g.lo * math.sqrt(b.lo / 2.0), g.hi * math.sqrt(b.hi / 2.0)
    assume(h_lo < H_STAR[m] < h_hi)
    grid = GridRange(h_lo, h_hi, points).log_grid()
    if maximise:  # c_F enters, so its kink joins the scan grid
        grid.append(g.hi * math.sqrt(b.lo / 2.0))
    p = EXACT.ser_table((m,), np.array(grid))[0]
    w_grid = min(x * x / capacity_bits_per_symbol(m, q) for x, q in zip(grid, p.tolist()))
    spec = ExtremumSpec(m_fixed=m, g_range=g, b_s_range=b)
    w_inf = minimize_icpe(spec).value
    w_cap = w_inf + t * (w_grid - w_inf)
    res = (maximize_icse if maximise else minimize_icpe)(replace(spec, w_cap=w_cap))
    assert res.constraint_slack["w_cap"] >= 0.0
    assert res.w <= w_cap


def test_flatness_verifier_on_a_coarse_grid():
    report = verify_statement1(
        4,
        g_range=GridRange(1e-2, 10.0, 24),
        b_s_grid=GridRange(0.5, 50.0, 5),
    )
    assert report.threshold == 1e-6
    assert report.passed
    assert report.spread_rel <= 1e-6
    assert len(report.rows) == 5
    # every per-base minimum agrees with the frozen infimum and minimiser
    for row in report.rows:
        assert row.w_min == pytest.approx(W_INF[4], rel=1e-13)
        assert row.h_min == pytest.approx(H_STAR[4], rel=1e-12)
        assert row.attained


def test_monotonicity_verifier_interior_m():
    report = verify_statement3(8, g_values=(0.5, 1.0, 2.0), h_window=(1e-2, 10.0))
    assert report.passed
    assert report.attained
    assert report.h_star == pytest.approx(H_STAR[8], rel=1e-12)
    assert report.strictly_decreasing
    assert report.product_spread_rel <= 1e-12
    bases = [r.b_s_star for r in report.rows]
    assert bases[0] > bases[1] > bases[2]
    # quadrupling g**2 quarters the optimal base
    assert bases[0] / bases[1] == pytest.approx(4.0, rel=1e-12)


def test_monotonicity_verifier_binary_boundary():
    report = verify_statement3(2, g_values=(0.5, 1.0, 2.0), h_window=(1e-2, 5.0))
    assert not report.attained  # no interior minimum for m = 2
    assert report.strictly_decreasing
    assert report.passed
    assert report.threshold == 1e-3


@pytest.mark.parametrize("h_window", [(5.0, 1.0), (2.0, 2.0), (0.0, 5.0), (1.0, math.inf)])
def test_monotonicity_verifier_refuses_an_empty_window(h_window):
    # A reversed or empty window has no minimiser; its lo must not pass as one.
    with pytest.raises(ValueError, match="range"):
        verify_statement3(8, g_values=(0.5, 1.0, 2.0), h_window=h_window)


def test_sweep_curves_consistency():
    pts = sweep_curves([4], [1.0], GridRange(0.5, 8.0, 3), model=EXACT)
    assert len(pts) == 3
    for pt in pts:
        assert pt.h == pytest.approx(pt.g * math.sqrt(pt.b_s / 2.0), rel=1e-15)
        if math.isfinite(pt.w):
            assert pt.w * pt.c_f == pytest.approx(pt.g * pt.g, rel=1e-12)
            assert pt.w == pytest.approx(icpe_of_esinr(4, pt.h, EXACT), rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(ms=st.lists(st.sampled_from(DEFAULT_M_SET), min_size=1, max_size=3, unique=True),
       gs=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=2),
       lo=st.floats(0.1, 5.0), decades=st.floats(0.5, 2.5), points=st.integers(2, 16))
def test_sweep_curves_equal_point_criteria(ms, gs, lo, decades, points):
    # A curve point is the point query at its (m, g, B_s), bit for bit.
    for pt in sweep_curves(ms, gs, GridRange(lo, lo * 10.0 ** decades, points), EXACT):
        point = ChannelPoint(pt.m, pt.g, pt.b_s)
        assert pt.h == point.h
        assert pt.c_f == icse(point, EXACT)
        if math.isfinite(pt.w):
            assert pt.w == icpe(point, EXACT)
        else:
            with pytest.raises(UndefinedCriterionError):
                icpe(point, EXACT)


def test_grid_range_validation_and_grid():
    with pytest.raises(ValueError):
        GridRange(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        GridRange(2.0, 1.0, 8)
    with pytest.raises(ValueError):
        GridRange(1.0, 2.0, 1)
    grid = GridRange(0.1, 100.0, 7).log_grid()
    assert grid[0] == 0.1
    assert grid[-1] == 100.0
    assert len(grid) == 7
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_spec_validation():
    with pytest.raises(ValueError):
        ExtremumSpec(m_fixed=4, g_fixed=1.0, b_s_fixed=2.0)  # nothing left free
    with pytest.raises(ValueError):
        ExtremumSpec(m_set=())
    with pytest.raises(ValueError):
        ExtremumSpec(c_f_min=-1.0)
    with pytest.raises(ValueError):
        minimize_icpe(ExtremumSpec(m_fixed=4), method="annealing")
    with pytest.raises(ValueError, match="icpe_band_eps"):  # grid2d has no ICPE pass
        maximize_icse(ExtremumSpec(m_fixed=8, icpe_band_eps=0.05), method="grid2d")
    with pytest.raises(ValueError, match="icpe_band_eps"):  # the band bounds c_F only
        minimize_icpe(ExtremumSpec(m_fixed=8, icpe_band_eps=0.05))
    assert ExtremumSpec().m_values == tuple(sorted(DEFAULT_M_SET))


def test_search_is_deterministic():
    spec = ExtremumSpec(m_fixed=4)
    a = minimize_icpe(spec)
    b = minimize_icpe(spec)
    assert a == b
