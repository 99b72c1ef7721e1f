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
h.  One kernel entry integrates any set of (m, h) pairs: Q, log1p(-Q) and
the Gaussian weight at the nodes depend on h only, so they are computed
once per distinct h, and the work of each m runs only on the h paired
with it.  ``ser`` (one pair), ``ser_table`` (every m of a set at every h
of an array) and the searches' probe rounds (any pairs, with dp/dh) are
shapes of that entry, and each (m, h) gets its own node sum: p depends
only on (m, h), never on which other m or h share the call.  Against an
independent high-precision quadrature the relative error is below 1e-14
for m <= 64 and h <= 9.5, and against Q(h) for m = 2 below 1e-12 up to
h = 37, where Q(h) nears the smallest double.  Larger ensembles are
refused: at m = 256 the same rule is off by 2e-11.

Every extremum search and verifier runs on this exact model.  Its probes
take p and, from the same call on the same nodes,
dp/dh = -sqrt(2) (m-1) Integral phi(u) phi(u + h*sqrt(2)) Phi(u + h*sqrt(2))**(m-2) du,
within 1e-12 relative for m <= 33 and 2e-12 at m = 64
(``ExactCoherentOrthogonal._ser_slope``).  The union bound
``UnionBound`` serves the point criteria and curve sweeps only, m > 64
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Sequence

import numpy as np

__all__ = [
    "ChannelDomainError",
    "ChannelPoint",
    "ExactCoherentOrthogonal",
    "QuadratureError",
    "SerModel",
    "UnionBound",
    "capacity_bits_per_symbol",
    "q_function",
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
_RULE_BLOCK = 64
# The largest m the rule is validated for (to 1e-13 in tests/test_channel.py).
_RULE_MAX_M = 64


class ChannelDomainError(ValueError):
    """A parameter lies outside the domain of a channel operation."""


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
        Signal base 2 * deltaF_s * T_s, b_s > 0; only the product of
        bandwidth and symbol duration enters any criterion.
    """

    m: int
    g: float
    b_s: float

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 2:
            raise ChannelDomainError(f"ensemble size m must be an integer >= 2, got {self.m!r}")
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise ChannelDomainError(f"SINR amplitude g must be finite and > 0, got {self.g!r}")
        if not (self.b_s > 0.0 and math.isfinite(self.b_s)):
            raise ChannelDomainError(f"signal base b_s must be finite and > 0, got {self.b_s!r}")

    @property
    def h(self) -> float:
        """Energy SINR h = g * sqrt(B_s / 2)."""
        return self.g * math.sqrt(self.b_s / 2.0)


class SerModel:
    """Symbol-error-rate model interface.

    ``ser(m, h)`` is p at one energy SINR h (a float), as a float;
    ``ser_table(ms, h)`` is p for every m of ``ms`` (rows) at every h of a
    1-D array (columns), each entry equal to ``ser`` at its (m, h) bit for bit.
    """

    def ser(self, m: int, h: float) -> float:
        raise NotImplementedError

    def ser_table(self, ms: Sequence[int], h: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _checked(ms: Sequence[int], h: np.ndarray) -> np.ndarray:
    """``h`` as a float array, once every m of ``ms`` and every h is checked."""
    for m in ms:
        if not isinstance(m, int) or m < 2:
            raise ChannelDomainError(f"ensemble size m must be an integer >= 2, got {m!r}")
    hs = np.asarray(h, dtype=float)
    if not (np.isfinite(hs) & (hs >= 0.0)).all():
        raise ChannelDomainError(f"energy SINR h must be finite and >= 0, got {h!r}")
    return hs


def _q_array(x: np.ndarray) -> np.ndarray:
    """Q elementwise, through ``math.erfc`` (relative accuracy in the tail)."""
    z = (x / _SQRT2).ravel()  # read as floats through a memoryview: no list is built
    return 0.5 * np.fromiter(map(math.erfc, memoryview(z)), float, count=z.size).reshape(x.shape)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and its derivative by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the SER rule on [-_RULE_HALF_WIDTH, _RULE_HALF_WIDTH].

    Newton's method on the Legendre recurrence from Tricomi's initial
    roots; the weights carry the window scale, phi's 1/sqrt(2 pi) and a
    minus sign, which turns expm1((m-1) log Phi) into 1 - Phi**(m-1)
    exactly.
    The third array weighs dp/dh: with u = node - h/sqrt(2),
    phi(u) phi(u + h*sqrt(2)) = exp(-node**2) exp(-h**2/2) / (2 pi), so
    it adds exp(-node**2), the other 1/sqrt(2 pi) and dp/dh's -sqrt(2).
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
    return nodes, -weights, (-_SQRT2 * _INV_SQRT_2PI) * weights * np.exp(-nodes * nodes)


def _orthogonal_ser(h: list[float], pairs: Sequence[tuple[int, slice | list[int]]],
                    slope: bool = False):
    """p at the (m, h) pairs that ``pairs`` names, as one flat array.

    The one kernel entry of the exact SER.  ``h`` lists checked values of
    h, and each entry (m, cols) of ``pairs`` pairs m with the h that
    ``cols`` (a slice or a list of indices) picks from them; the result
    runs over the entries in their order, so a table comes out row by row.
    Q(u + h*sqrt(2)), its log1p(-Q) and the Gaussian weight depend on h
    only, so they are computed once per h of ``h``, and the work of an m
    runs only on the h paired with it.  Each pair's node sum is its own
    dot product (``np.vecdot``; a matmul rounds a 1-row operand
    differently from a many-row one), so p depends only on (m, h), never
    on what shares the call.  p is capped at (m-1)/m, its exact value at
    h = 0.  An m above the rule's validated range is refused before
    anything is computed.  With ``slope`` the result is the pair
    (p, dp/dh), each of that shape, and p is unchanged.
    """
    m_top = max((m for m, _ in pairs), default=2)
    if m_top > _RULE_MAX_M:
        raise ChannelDomainError(f"the exact SER rule is validated for m <= {_RULE_MAX_M}, "
                                 f"got m={m_top}")
    nodes, weights, slope_weights = _gauss_legendre_rule()
    hs = np.array(h)
    shift = (hs / _SQRT2)[:, None]  # mass at u = -shift
    u = nodes - shift
    gauss = np.exp(-0.5 * u * u)
    # Q < 1 at every node for h >= 0 (1 - Q is 6.7e-16 at the first node,
    # -7.9986), so log1p(-Q) is finite.
    log_cdf = np.log1p(-_q_array(nodes + shift))  # log Phi(u + h*sqrt(2))
    decay = shift * shift if slope else None
    at_zero = hs == 0.0 if 0.0 in h else None
    ps, p_hs = [], []
    for m, cols in pairs:
        lc = log_cdf[cols]
        # Phi**(m-1) - 1 without cancellation; the weights carry its minus sign.
        p_max = (m - 1) / m
        p = np.minimum(np.vecdot(gauss[cols] * np.expm1((m - 1) * lc), weights), p_max)
        if at_zero is not None:
            p[at_zero[cols]] = p_max
        ps.append(p)
        if slope:  # Phi**(m-2) * exp(-shift**2) on the slope weights
            p_hs.append((m - 1) * np.vecdot(np.exp((m - 2) * lc - decay[cols]), slope_weights))
    p = ps[0] if len(ps) == 1 else np.concatenate(ps)
    if not np.isfinite(p).all():
        raise QuadratureError(f"the SER rule gave a non-finite value at m in "
                              f"{[m for m, _ in pairs]}, h={h!r}")
    if slope:
        return p, p_hs[0] if len(p_hs) == 1 else np.concatenate(p_hs)
    return p


@dataclass(frozen=True)
class ExactCoherentOrthogonal(SerModel):
    """Exact SER of coherently detected equal-energy orthogonal signals.

    One fixed Gauss-Legendre rule serves every h (see the module
    docstring): relative accuracy holds in the tail, p is smooth and
    non-increasing in h, and ``p(m, 0)`` is exactly ``(m-1)/m``.  It is
    validated for m <= 64 and raises :class:`ChannelDomainError` above.
    ``ser``, ``ser_table`` and ``_ser_slope`` are shapes of the one kernel
    entry: one pair, the outer product of an m set and a 1-D array of h,
    and any pairs with dp/dh.
    """

    def ser(self, m: int, h: float) -> float:
        return _orthogonal_ser(_checked((m,), np.array([float(h)])).tolist(),
                               ((m, slice(None)),)).item()

    def ser_table(self, ms: Sequence[int], h: np.ndarray) -> np.ndarray:
        """p for every m of ``ms`` (rows) at every h of a 1-D array (columns).

        The table is computed in blocks of _RULE_BLOCK values of h, which
        keep every temporary (128 nodes per h) small, so a long sweep does
        not raise the process's peak memory.
        """
        hs = _checked(ms, h).tolist()
        table = np.empty((len(ms), len(hs)))
        every = [(m, slice(None)) for m in ms]
        for start in range(0, len(hs) or 1, _RULE_BLOCK):  # an empty h still checks the m's
            block = hs[start:start + _RULE_BLOCK]
            table[:, start:start + len(block)] = _orthogonal_ser(block, every).reshape(
                len(ms), len(block))
        return table

    def _ser_slope(self, ms: Sequence[int], hs: Sequence[float]
                   ) -> tuple[list[float], list[float]]:
        """p and dp/dh at each pair (ms[k], hs[k]), from one kernel call.

        Unchecked: a search's grid call has checked its window.  Each
        distinct h is one column of the call, and each run of equal m
        takes the columns of its pairs (a slice where they run in order),
        so the call returns the pairs in their order.
        """
        column: dict[float, int] = {}
        cols = [column.setdefault(h, len(column)) for h in hs]
        pairs, k = [], 0
        for m, run in groupby(ms):
            n = len(list(run))
            c, k = cols[k:k + n], k + n
            pairs.append((m, slice(c[0], c[0] + n) if c == list(range(c[0], c[0] + n)) else c))
        p, p_h = _orthogonal_ser(list(column), pairs, slope=True)
        return p.tolist(), p_h.tolist()


@dataclass(frozen=True)
class UnionBound(SerModel):
    """Union bound p <= min((m-1) * Q(h), (m-1)/m)."""

    def ser(self, m: int, h: float) -> float:
        return self.ser_table((m,), np.array([float(h)])).item()

    def ser_table(self, ms: Sequence[int], h: np.ndarray) -> np.ndarray:
        hs = _checked(ms, h)
        k = np.array(ms, dtype=float).reshape(-1, 1) - 1.0  # m - 1 per row, exactly
        return np.minimum(k * _q_array(hs), k / (k + 1.0))


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
