"""m-ary digital channel: energy SINR, symbol error rate, capacity.

A working point of the channel is described by the ensemble size ``m``,
the SINR amplitude ``g`` (``g**2 = P_s / (P_i + P_n)``) and the signal
base ``B_s = 2 * deltaF_s * T_s``.  Everything downstream depends on the
pair (g, B_s) only through the energy SINR

    h = g * sqrt(B_s / 2),        h**2 = E_s / N_0m,

which is why h is the natural reduction variable for the whole package.

For coherently detected equal-energy orthogonal signals the exact symbol
error probability is

    p(m, h) = 1 - Integral phi(u) * Phi(u + h*sqrt(2))**(m-1) du,

with phi/Phi the standard normal pdf/cdf.  It is evaluated in the
complementary form

    p = Integral phi(u) * -expm1((m-1) * log1p(-Q(u + h*sqrt(2)))) du,

with the tail Q = 1 - Phi taken from ``math.erfc``, so that p keeps its
relative accuracy when it is tiny.  One fixed 128-node Gauss-Legendre
rule is laid on u in [-h/sqrt(2) - 8, -h/sqrt(2) + 8]: the integrand's
mass sits near u = 0 for small h and near u = -h/sqrt(2), with width
1/sqrt(2), for large h.  The same rule serves every h, so p is smooth in
h and an ndarray of h is integrated in one vectorised call.  Against an
independent high-precision quadrature the relative error is below 1e-14
for m <= 64 and h <= 9.5, and against Q(h) for m = 2 below 1e-12 up to
h = 37, where Q(h) nears the smallest double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "ChannelDomainError",
    "ChannelPoint",
    "ExactCoherentOrthogonal",
    "QuadratureError",
    "SerModel",
    "SerTableRangeError",
    "TableSer",
    "UnionBound",
    "capacity_bits_per_symbol",
    "continuous_capacity",
    "q_function",
    "ser",
]

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# The SER rule: 128 nodes on a window of half-width 8 about the
# integrand's mass.  Wider windows need more nodes for m near 64 (half-width
# 10 leaves a 1.5e-11 relative error at m = 64, h = 0.9); narrower ones start
# to truncate mass (2.6e-12 at half-width 7).
_RULE_NODES = 128
_RULE_HALF_WIDTH = 8.0
_RULE_BLOCK = 32


class ChannelDomainError(ValueError):
    """A parameter lies outside the domain of a channel operation."""


class SerTableRangeError(ChannelDomainError):
    """Requested ESINR lies outside a table model's knot range."""


class QuadratureError(ArithmeticError):
    """The SER quadrature rule produced a non-finite value."""


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / _SQRT2)


@dataclass(frozen=True)
class ChannelPoint:
    """A channel working point (m, g, B_s).

    Parameters
    ----------
    m : int
        Ensemble size (number of orthogonal signals), m >= 2.
    g : float
        SINR amplitude, g > 0.
    b_s : float
        Signal base 2 * deltaF_s * T_s, b_s > 0.
    bandwidth_hz, symbol_duration_s : float, optional
        Physical decomposition of the base.  Either both are given and
        must satisfy 2 * bandwidth_hz * symbol_duration_s == b_s (to
        within rounding), or both are omitted.
    """

    m: int
    g: float
    b_s: float
    bandwidth_hz: float | None = None
    symbol_duration_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 2:
            raise ChannelDomainError(f"ensemble size m must be an integer >= 2, got {self.m!r}")
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise ChannelDomainError(f"SINR amplitude g must be finite and > 0, got {self.g!r}")
        if not (self.b_s > 0.0 and math.isfinite(self.b_s)):
            raise ChannelDomainError(f"signal base b_s must be finite and > 0, got {self.b_s!r}")
        if (self.bandwidth_hz is None) != (self.symbol_duration_s is None):
            raise ChannelDomainError(
                "bandwidth_hz and symbol_duration_s must be given together or not at all"
            )
        if self.bandwidth_hz is not None:
            if self.bandwidth_hz <= 0.0 or self.symbol_duration_s <= 0.0:
                raise ChannelDomainError("bandwidth and symbol duration must be > 0")
            product = 2.0 * self.bandwidth_hz * self.symbol_duration_s
            if not math.isclose(product, self.b_s, rel_tol=1e-12):
                raise ChannelDomainError(
                    f"2 * bandwidth * duration = {product!r} disagrees with b_s = {self.b_s!r}"
                )

    @classmethod
    def from_bandwidth(
        cls, m: int, g: float, bandwidth_hz: float, symbol_duration_s: float
    ) -> "ChannelPoint":
        """Build a point from the physical pair (deltaF_s, T_s)."""
        return cls(
            m=m,
            g=g,
            b_s=2.0 * bandwidth_hz * symbol_duration_s,
            bandwidth_hz=bandwidth_hz,
            symbol_duration_s=symbol_duration_s,
        )

    @property
    def h(self) -> float:
        """Energy SINR h = g * sqrt(B_s / 2)."""
        return self.g * math.sqrt(self.b_s / 2.0)


class SerModel:
    """Symbol-error-rate model interface: ``ser(m, h)``.

    ``h`` is a float or an ndarray of energy SINRs; the result has the
    same type (and shape), so a grid of h costs one call.
    """

    def ser(self, m: int, h: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _check_args(m: int, h: float | np.ndarray) -> np.ndarray:
        if not isinstance(m, int) or m < 2:
            raise ChannelDomainError(f"ensemble size m must be an integer >= 2, got {m!r}")
        hs = np.asarray(h, dtype=float)
        if not (np.isfinite(hs) & (hs >= 0.0)).all():
            raise ChannelDomainError(f"energy SINR h must be finite and >= 0, got {h!r}")
        return hs


def _same_kind(h: float | np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """``p`` as an ndarray for an ndarray ``h``, as a float otherwise."""
    return p if isinstance(h, np.ndarray) else float(p)


def _q_array(x: np.ndarray) -> np.ndarray:
    """Q elementwise, through ``math.erfc`` (relative accuracy in the tail)."""
    z = (x / _SQRT2).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, z), float, count=len(z)).reshape(x.shape)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and its derivative by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the SER rule on [-_RULE_HALF_WIDTH, _RULE_HALF_WIDTH].

    Newton's method on the Legendre recurrence from Tricomi's initial
    roots; the weights carry the window scale and phi's 1/sqrt(2 pi).
    Built on first use, so importing the package stays cheap.
    """
    n = _RULE_NODES
    x = np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-14:  # quadratic convergence: x is now exact
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = _RULE_HALF_WIDTH * np.concatenate((-x, x[::-1]))
    weights = (_RULE_HALF_WIDTH * _INV_SQRT_2PI) * np.concatenate((w, w[::-1]))
    return nodes, weights


def _orthogonal_ser(k: int, h: np.ndarray) -> np.ndarray:
    """The error integral for k = m - 1 at each h of a 1-D array.

    Blocks of _RULE_BLOCK values of h keep every temporary (128 nodes per
    h) small, so a long sweep does not raise the process's peak memory.
    """
    nodes, weights = _gauss_legendre_rule()
    p = np.empty(h.shape)
    for start in range(0, h.size, _RULE_BLOCK):
        shift = (h[start:start + _RULE_BLOCK] / _SQRT2)[:, None]  # mass at u = -shift
        u = nodes - shift
        q = _q_array(nodes + shift)  # Q(u + h*sqrt(2))
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf where Q rounds to 1
            miss = -np.expm1(k * np.log1p(-q))  # 1 - Phi**k without cancellation
        p[start:start + _RULE_BLOCK] = (np.exp(-0.5 * u * u) * miss) @ weights
    return p


@dataclass(frozen=True)
class ExactCoherentOrthogonal(SerModel):
    """Exact SER of coherently detected equal-energy orthogonal signals.

    One fixed Gauss-Legendre rule serves every h (see the module
    docstring): relative accuracy holds in the tail, p is smooth and
    non-increasing in h, and ``p(m, 0)`` is exactly ``(m-1)/m``.
    """

    def ser(self, m: int, h: float | np.ndarray) -> float | np.ndarray:
        hs = self._check_args(m, h)
        p = _orthogonal_ser(m - 1, hs.reshape(-1)).reshape(hs.shape)
        if not np.isfinite(p).all():
            raise QuadratureError(f"the SER rule gave a non-finite value at m={m}, h={h!r}")
        p_max = (m - 1) / m
        return _same_kind(h, np.where(hs == 0.0, p_max, np.minimum(p, p_max)))


@dataclass(frozen=True)
class UnionBound(SerModel):
    """Union bound p <= min((m-1) * Q(h), (m-1)/m)."""

    def ser(self, m: int, h: float | np.ndarray) -> float | np.ndarray:
        hs = self._check_args(m, h)
        k = m - 1
        return _same_kind(h, np.minimum(k * _q_array(hs), k / m))


class TableSer(SerModel):
    """Piecewise-linear SER over caller-supplied (h, p) knots.

    Knots must be sorted by strictly increasing h with p non-increasing
    and within [0, 1).  Evaluation outside the knot range raises
    :class:`SerTableRangeError`; the model never extrapolates.
    """

    def __init__(self, knots: list[tuple[float, float]] | tuple[tuple[float, float], ...]):
        knots = tuple((float(h), float(p)) for h, p in knots)
        if len(knots) < 2:
            raise ChannelDomainError("a table model needs at least two knots")
        for i, (h, p) in enumerate(knots):
            if not (math.isfinite(h) and h >= 0.0):
                raise ChannelDomainError(f"knot {i}: h must be finite and >= 0, got {h!r}")
            if not (0.0 <= p < 1.0):
                raise ChannelDomainError(f"knot {i}: p must lie in [0, 1), got {p!r}")
            if i > 0:
                if h <= knots[i - 1][0]:
                    raise ChannelDomainError("knot h values must be strictly increasing")
                if p > knots[i - 1][1]:
                    raise ChannelDomainError("knot p values must be non-increasing in h")
        self.knots = knots
        self._h, self._p = (np.array(column) for column in zip(*knots))

    def ser(self, m: int, h: float | np.ndarray) -> float | np.ndarray:
        hs = self._check_args(m, h)
        h_lo, h_hi = self.knots[0][0], self.knots[-1][0]
        if np.any((hs < h_lo) | (hs > h_hi)):
            raise SerTableRangeError(
                f"h={h!r} outside table range [{h_lo!r}, {h_hi!r}]; refusing to extrapolate"
            )
        p = np.interp(hs, self._h, self._p)
        return _same_kind(h, np.minimum(p, (m - 1) / m))


def ser(point: ChannelPoint, model: SerModel) -> float:
    """Symbol error rate of a working point under the given model."""
    return model.ser(point.m, point.h)


def capacity_bits_per_symbol(m: int, p: float) -> float:
    """Capacity of the symmetric m-ary channel, bits per symbol.

    C_m(p) = log2(m) + (1-p) * log2(1-p) + p * log2(p / (m-1)),
    with the convention x * log2(x) = 0 at x = 0.  Defined for
    0 <= p <= (m-1)/m; C is log2(m) at p=0 and exactly 0 at the
    uniform-guessing point p = (m-1)/m.

    Towards that point C vanishes like x**2 in the excess
    x = m * (1-p) - 1 of the correct decision over guessing, and the sum
    above would leave it only an absolute accuracy of ~1e-16.  For
    p >= p_max / 2 it is therefore written in x, where the log2(m) terms
    cancel exactly:

        C = ((1+x) * log2(1+x) + (m-1-x) * log2(1 - x/(m-1))) / m,

    which keeps a relative accuracy of ~1e-16 / x, what the rounding of p
    itself allows.
    """
    if not isinstance(m, int) or m < 2:
        raise ChannelDomainError(f"ensemble size m must be an integer >= 2, got {m!r}")
    p_max = (m - 1) / m
    if not (0.0 <= p <= p_max):
        raise ChannelDomainError(f"error rate p={p!r} outside [0, {p_max!r}] for m={m}")
    if p == 0.0:
        return math.log2(m)
    if p == p_max:
        return 0.0
    if p >= 0.5 * p_max:
        x = (m - 1) - m * p  # exact for m a power of two (Sterbenz)
        value = ((1.0 + x) * math.log1p(x)
                 + (m - 1 - x) * math.log1p(-x / (m - 1))) / (m * _LOG2)
    else:
        # log2(p) - log2(m-1), not log2(p / (m-1)): the quotient underflows
        # to 0 for subnormal p.
        value = (
            math.log2(m)
            + (1.0 - p) * math.log1p(-p) / _LOG2
            + p * (math.log2(p) - math.log2(m - 1))
        )
    # Rounding can push the value a hair below zero near the endpoint.
    return max(0.0, value)


def continuous_capacity(bandwidth_hz: float, snr: float) -> float:
    """Continuous-channel capacity deltaF * log2(1 + snr), bits/s."""
    if not (bandwidth_hz > 0.0 and math.isfinite(bandwidth_hz)):
        raise ChannelDomainError(f"bandwidth must be finite and > 0, got {bandwidth_hz!r}")
    if not (snr >= 0.0 and math.isfinite(snr)):
        raise ChannelDomainError(f"snr must be finite and >= 0, got {snr!r}")
    return bandwidth_hz * math.log1p(snr) / _LOG2
