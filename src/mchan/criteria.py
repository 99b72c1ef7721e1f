"""Invariant efficiency criteria built on the (g, B_s) coordinates.

All criteria reduce to the energy SINR h = g * sqrt(B_s / 2):

* ICSE  c_F = C_m / (B_s / 2)        -- spectral, bit/s/Hz
* ICPE  w   = g**2 / c_F = h**2 / C_m -- power, dimensionless SINR per bit rate
* ICEE  w_Jc = w * N_0m * B_s / 2, w_Jb = w_Jc * B_s / 2 -- Joule forms
* ICCE  w / (pi * R_km**2)           -- territorial power efficiency
* ICIE  cost(w) / (pi * R_km**2)     -- territorial cost efficiency

ICPE written as h**2 / C_m(p(h)) depends on (g, B_s) only through h, which
is the invariance property the extremum searches and the acceptance checks
lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from mchan.channel import (
    ChannelDomainError,
    ChannelPoint,
    SerModel,
    capacity_bits_per_symbol,
)

__all__ = [
    "LinkBudget",
    "NoCoverageError",
    "NoiseSpec",
    "UndefinedCriterionError",
    "cell_radius",
    "icce",
    "icie",
    "icpe",
    "icpe_joule_forms",
    "icpe_of_esinr",
    "icse",
]


class UndefinedCriterionError(ArithmeticError):
    """A criterion is undefined at the requested point (zero capacity)."""


class NoCoverageError(ValueError):
    """The link budget cannot reach the target SINR at the reference distance."""


@dataclass(frozen=True)
class NoiseSpec:
    """One-sided spectral densities of noise and interference, W/Hz."""

    n0_noise: float
    n0_interference: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.n0_noise, self.n0_interference):
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"spectral densities must be finite and >= 0, got {v!r}")

    @property
    def n0_total(self) -> float:
        """Combined density N_0m = N_0n + N_0i."""
        return self.n0_noise + self.n0_interference


@dataclass(frozen=True)
class LinkBudget:
    """Radio link budget for the cell-radius inversion.

    Received power model: P_r(d) = P_t * G_sys / (L_0 * (d / d_0)**a),
    so the target g**2 = P_r / (P_i + P_n) is met out to

        R_c = d_0 * (P_t * G_sys / (L_0 * g**2 * (P_i + P_n)))**(1/a).
    """

    tx_power_w: float
    system_gain: float
    ref_loss: float
    ref_distance_m: float
    path_loss_exponent: float
    noise_interference_w: float

    def __post_init__(self) -> None:
        for name in (
            "tx_power_w",
            "system_gain",
            "ref_loss",
            "ref_distance_m",
            "noise_interference_w",
        ):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        v = self.path_loss_exponent
        if not (v >= 2.0 and math.isfinite(v)):
            raise ValueError(f"path_loss_exponent must be finite and >= 2, got {v!r}")


def icse(point: ChannelPoint, model: SerModel) -> float:
    """Invariant spectral efficiency c_F = C_m / (B_s / 2), bit/s/Hz."""
    c = capacity_bits_per_symbol(point.m, model.ser(point.m, point.h))
    return 2.0 * c / point.b_s


def icpe(point: ChannelPoint, model: SerModel) -> float:
    """Invariant power efficiency w = g**2 / c_F = h**2 / C_m.

    Raises :class:`UndefinedCriterionError` at zero capacity (h = 0 is
    still fine for m = 2 only in the limit sense; the function itself
    requires C_m > 0).
    """
    return icpe_of_esinr(point.m, point.h, model)


def icpe_of_esinr(m: int, h: float, model: SerModel) -> float:
    """ICPE as a function of the energy SINR alone: w(h) = h**2 / C_m(p(h))."""
    c, w = _capacity_and_w(m, h, model.ser(m, h))
    if c <= 0.0:
        raise UndefinedCriterionError(
            f"capacity is zero at m={m}, h={h!r}; ICPE undefined"
        )
    return w


def _capacity_and_w(m: int, h: float, p: float) -> tuple[float, float]:
    """C_m and ICPE w = h**2 / C_m (+inf where capacity vanishes) from the SER ``p`` at h.

    The one C_m/w rule of the package: the criteria above, the CLI's
    point rows, and every search, sweep and grid2d mesh use it.
    """
    c = capacity_bits_per_symbol(m, p)
    return c, (h * h / c if c > 0.0 else math.inf)


def icpe_joule_forms(w: float, noise: NoiseSpec, b_s: float) -> tuple[float, float]:
    """Energy criteria (w_Jc, w_Jb): Joules per symbol and per bit-rate unit.

    w_Jc = w * N_0m * B_s / 2 and w_Jb = w_Jc * B_s / 2.  Requires a
    strictly positive combined density N_0m.
    """
    if not (w >= 0.0):  # w is +inf at zero capacity
        raise ValueError(f"ICPE w must be >= 0, got {w!r}")
    if not (b_s > 0.0 and math.isfinite(b_s)):
        raise ChannelDomainError(f"signal base must be finite and > 0, got {b_s!r}")
    n0 = noise.n0_total
    if n0 <= 0.0:
        raise ValueError("Joule conversion requires a positive combined density N_0m")
    w_jc = w * n0 * b_s / 2.0
    w_jb = w_jc * b_s / 2.0
    return w_jc, w_jb


def cell_radius(budget: LinkBudget, g_target: float) -> float:
    """Largest distance (metres) at which the budget sustains g_target."""
    if not (g_target > 0.0 and math.isfinite(g_target)):
        raise ValueError(f"target SINR amplitude must be finite and > 0, got {g_target!r}")
    ratio = budget.tx_power_w * budget.system_gain / (
        budget.ref_loss * g_target * g_target * budget.noise_interference_w
    )
    if ratio < 1.0:
        raise NoCoverageError(
            f"link budget falls short of g={g_target!r} even at the reference "
            f"distance (margin ratio {ratio!r})"
        )
    return budget.ref_distance_m * ratio ** (1.0 / budget.path_loss_exponent)


def _cell_area_km2(radius_m: float) -> float:
    if not (radius_m > 0.0 and math.isfinite(radius_m)):
        raise ValueError(f"cell radius must be finite and > 0, got {radius_m!r}")
    r_km = radius_m / 1000.0
    return math.pi * r_km * r_km


def icce(w: float, radius_m: float) -> float:
    """Territorial power efficiency w / (pi * R_km**2), per km^2."""
    if not (w >= 0.0):  # w is +inf at zero capacity
        raise ValueError(f"ICPE w must be >= 0, got {w!r}")
    return w / _cell_area_km2(radius_m)


def icie(
    w: float,
    radius_m: float,
    cost_fn: Callable[[float], float] | None = None,
) -> float:
    """Territorial cost efficiency cost(w) / (pi * R_km**2).

    ``cost_fn`` maps the power criterion to an infrastructural cost; the
    default is the identity, which makes ICIE coincide with ICCE.
    """
    if not (w >= 0.0):  # w is +inf at zero capacity
        raise ValueError(f"ICPE w must be >= 0, got {w!r}")
    cost = w if cost_fn is None else cost_fn(w)
    if not math.isfinite(cost):
        raise ValueError(f"cost function returned a non-finite value {cost!r}")
    return cost / _cell_area_km2(radius_m)
