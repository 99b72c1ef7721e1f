"""Relative accuracy of the exact SER model against an independent reference.

Reference: Q(h) for m = 2, and ``scipy.integrate.quad`` of the
complementary error integral with ``scipy.special.log_ndtr`` for m > 2,
split at the integrand's peak.  Both are computed outside any timed
region.
"""

from __future__ import annotations

import math

import numpy as np

from mchan.channel import ExactCoherentOrthogonal

P_FLOOR = 1e-15  # probe h up to the largest value where p >= P_FLOOR
POINTS_PER_M = 24
M_DRAWS = 8


def reference_ser(m: int, h: float) -> float:
    # Imported here, after the run has read its peak memory.
    from scipy import integrate, special

    if m == 2:
        return 0.5 * math.erfc(h / math.sqrt(2.0))
    shift, k = h * math.sqrt(2.0), m - 1

    def integrand(u: float) -> float:
        return math.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi)) * (
            -math.expm1(k * float(special.log_ndtr(u + shift))))

    peak = -shift / 2.0
    edges = sorted({min(max(peak + d, -60.0), 60.0)
                    for d in (-60.0, -20.0, -6.0, -2.0, 0.0, 2.0, 6.0, 20.0, 60.0)})
    return math.fsum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))


def _h_max(m: int) -> float:
    lo, hi = 0.0, 12.0
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reference_ser(m, mid) >= P_FLOOR else (lo, mid)
    return lo


def ser_max_rel_err(seed: int) -> float:
    """Largest |p - p_ref| / p_ref over seed-drawn (m, h), m in 2..64.

    h is stratified over (0, h_max(m)] so every run covers the far tail.
    """
    rng = np.random.default_rng([seed, 0x5E2])  # a stream apart from the rounds
    model = ExactCoherentOrthogonal()
    worst = 0.0
    for m in rng.choice(np.arange(2, 65), size=M_DRAWS, replace=False):
        m = int(m)
        h_max = _h_max(m)
        for k in range(POINTS_PER_M):
            h = h_max * (k + float(rng.random())) / POINTS_PER_M
            ref = reference_ser(m, h)
            worst = max(worst, abs(model.ser(m, h) - ref) / ref)
    return worst
