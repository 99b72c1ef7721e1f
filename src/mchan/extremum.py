"""Constrained extremum searches over the (g, B_s) plane.

ICPE depends on (g, B_s) only through the energy SINR h = g * sqrt(B_s/2),
so every search here runs in h: build the h-window induced by the axes (a
fixed axis is the one-point range, which adds no grid points), scan it on
a log-spaced grid, refine from the best grid point, then map the
optimiser back to a concrete (g, B_s) pair.  Every search and verifier
runs on the exact SER model (:class:`~mchan.channel.ExactCoherentOrthogonal`,
m <= 64); only ``sweep_curves`` takes another.  One SER table
(``ser_table``) gives p on the scan grids of every m: the m's of a search,
the bases of ``verify_statement1``, the grid2d mesh or a curve family, and
both passes of the near-infimum band search, share one table.  C_m and w
come from the one rule ``criteria._capacity_and_w``.

Every refinement ends on one rule: a sign change of the objective's slope
(an interior optimum) or of the constraint margin (a constraint edge),
each closed on its own by one Illinois regula falsi to a bracket of a few
ulps; or at a grid point where no direction descends, which is a window
end or a kink of c_F.  If no grid point of an m is feasible, the ICPE
minimiser h* joins its grid first: the w_cap margin peaks there, and so
does a c_F floor's at a fixed g or above the kink.  The slope comes from
dp/dh, which the SER kernel integrates on its own nodes.  A search is a
generator that yields each h it probes, and one driver runs the
independent searches of a call (the m's of a search, the bases of
``verify_statement1``) in lockstep: their scan grids share one SER table,
and each round of probes is one kernel call.  p and dp/dh depend only on
(m, h), so each search takes the probes, and returns the result, it
would alone.  The flags are that rule's outcome, not tolerances:
``attained`` is false only at a window end whose slope points out of the
window (for m = 2 the power criterion has no interior minimum and its
infimum pi * ln 2 is only approached as h -> 0), and a constraint is
active only on its own margin root.  A direct search (``method="grid2d"``), a (g, B_s) mesh plus two
reduced line searches from its best cell, is kept as a cross-check.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Generator, TypeVar

import numpy as np

from mchan.channel import ExactCoherentOrthogonal, SerModel
from mchan.criteria import _capacity_and_w

__all__ = [
    "DEFAULT_M_SET",
    "ExtremumResult",
    "ExtremumSpec",
    "FlatnessReport",
    "FlatnessRow",
    "GridRange",
    "InfeasibleSearchError",
    "MonotonicityReport",
    "MonotonicityRow",
    "CurvePoint",
    "maximize_icse",
    "minimize_icpe",
    "sweep_curves",
    "verify_statement1",
    "verify_statement3",
]

DEFAULT_M_SET: tuple[int, ...] = (2, 4, 8, 16, 32, 64)

# The SER model of every search and verifier, and sweep_curves' default.
_EXACT = ExactCoherentOrthogonal()

# A refinement stops on a bracket this wide in log x (a few ulps of x).
_BRACKET = 4.0 * sys.float_info.epsilon
# The loop guard of a refinement; Illinois closes a grid interval in ~10 probes.
_MAX_REFINE_ITER = 200
_LOG2 = math.log(2.0)
# verify_statement1's bound on the spread of the per-base minima.
_STATEMENT1_THRESHOLD = 1e-6
# verify_statement3's grid points on the h window and its bound on the spread.
_STATEMENT3_POINTS = 96
_STATEMENT3_THRESHOLD = 1e-3

_T = TypeVar("_T")


class InfeasibleSearchError(ValueError):
    """No point in the search region satisfies the constraints.

    ``certificate`` holds the nearest-feasible point found: the evaluated
    point with the largest constraint margin, with its criterion values.
    """

    def __init__(self, message: str, certificate: dict):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class GridRange:
    """A strictly positive axis range searched on a log-spaced grid."""

    lo: float
    hi: float
    points: int = 64

    def __post_init__(self) -> None:
        if not (self.lo > 0.0 and math.isfinite(self.lo)):
            raise ValueError(f"range lo must be finite and > 0, got {self.lo!r}")
        if not (self.hi > self.lo and math.isfinite(self.hi)):
            raise ValueError(f"range hi must be finite and > lo, got {self.hi!r}")
        if self.points < 2:
            raise ValueError(f"range needs at least 2 points, got {self.points!r}")

    def log_grid(self) -> list[float]:
        ratio = self.hi / self.lo
        n = self.points
        grid = [self.lo * ratio ** (i / (n - 1)) for i in range(n)]
        grid[-1] = self.hi
        return grid


@dataclass(frozen=True)
class ExtremumSpec:
    """Search specification.

    Fix any subset of {m, g, b_s} with the *_fixed fields; the rest are
    searched over ``m_set`` and the log-grid ranges.  ``c_f_min`` and
    ``w_cap`` are optional constraints (ICSE floor / ICPE ceiling);
    ``icpe_band_eps`` restricts an ICSE maximisation to the near-infimum
    power band w <= w_inf(m) * (1 + eps); ``minimize_icpe`` refuses it.
    Constraints are met exactly: a reported point has c_F >= c_f_min and
    w <= w_cap with no tolerance.
    The objective is named by the search function that takes the spec.
    """

    m_fixed: int | None = None
    g_fixed: float | None = None
    b_s_fixed: float | None = None
    m_set: tuple[int, ...] = DEFAULT_M_SET
    g_range: GridRange = field(default_factory=lambda: GridRange(1e-2, 1e1, 64))
    b_s_range: GridRange = field(default_factory=lambda: GridRange(1e-1, 1e3, 64))
    c_f_min: float | None = None
    w_cap: float | None = None
    icpe_band_eps: float | None = None

    def __post_init__(self) -> None:
        if self.m_fixed is not None and (not isinstance(self.m_fixed, int) or self.m_fixed < 2):
            raise ValueError(f"m_fixed must be an integer >= 2, got {self.m_fixed!r}")
        if not self.m_set or any((not isinstance(m, int)) or m < 2 for m in self.m_set):
            raise ValueError("m_set must be a non-empty tuple of integers >= 2")
        for name in ("g_fixed", "b_s_fixed"):
            v = getattr(self, name)
            if v is not None and not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if self.m_fixed is not None and self.g_fixed is not None and self.b_s_fixed is not None:
            raise ValueError("all of m, g, b_s fixed: nothing to optimise")
        for name in ("c_f_min", "w_cap", "icpe_band_eps"):
            v = getattr(self, name)
            if v is not None and not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0 when given, got {v!r}")

    @property
    def m_values(self) -> tuple[int, ...]:
        if self.m_fixed is not None:
            return (self.m_fixed,)
        return tuple(sorted(set(self.m_set)))


@dataclass(frozen=True)
class ExtremumResult:
    """Outcome of a search: the optimiser, its criteria, and bookkeeping.

    ``attained=False`` flags a boundary extremum: the search ended on a
    window end where the objective's slope points out of the window, so
    the infimum or supremum is only approached there.
    ``constraint_slack`` maps constraint names to signed margins (positive
    = satisfied with room); ``constraint_active`` is true for a constraint
    whose margin root the search ended on (or whose margin is exactly 0
    at the reported point).
    """

    objective: str
    m: int
    g: float
    b_s: float
    h: float
    value: float
    c_f: float
    w: float
    attained: bool
    constraint_slack: dict[str, float]
    constraint_active: dict[str, bool]
    evaluations: int
    note: str = ""


# ---------------------------------------------------------------------------
# scalar minimisation (log coordinates, a sign change of slope or margin)


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    """The scan grid of [lo, hi]: its log grid, or lo alone for a degenerate window."""
    return GridRange(lo, hi, points).log_grid() if hi > lo * (1.0 + 1e-15) else [lo]


Outputs = tuple[float, float, float, float]  # objective, margin, C_m, w: see _feasibility
# The outputs at h, and the objective's slope left and right of h, from h and (p, dp/dh) there.
Probe = Callable[[float, float, float], tuple[Outputs, float, float]]
# A search in lockstep: it yields each h at which it needs (p, dp/dh) and is
# sent that pair; its return value is its result.
Search = Generator[float, tuple[float, float], _T]
# (maximise, c_f_min, w_cap): which objective and constraints _feasibility applies.
Constraints = tuple[bool, float | None, float | None]
_UNCONSTRAINED: Constraints = (False, None, None)


def _lockstep(ms: list[int], searches: list[Search]) -> list:
    """Run the searches, ``searches[k]`` at m = ``ms[k]``, and return their results in order.

    In each round every live search's next h joins one kernel call
    (``_ser_slope``), so independent searches refine together; a search
    that has returned drops out.  p and dp/dh depend only on (m, h), so
    each search takes the same probes, and returns the same result, as
    it would alone.
    """
    results = [None] * len(searches)
    live: list[tuple[int, float]] = []  # (k, the h that search k asks for)

    def advance(k: int, sent: tuple[float, float] | None) -> None:
        try:
            live.append((k, searches[k].send(sent)))
        except StopIteration as stop:
            results[k] = stop.value

    for k in range(len(searches)):
        advance(k, None)
    while live:
        asked, live = live, []
        ps, p_hs = _EXACT._ser_slope([ms[k] for k, _ in asked], [h for _, h in asked])
        for (k, _), p, p_h in zip(asked, ps, p_hs):
            advance(k, (p, p_h))
    return results


def _minimise(probe: Probe, grid: list[float], outs: list[Outputs]
              ) -> Search[tuple[float, Outputs, int, str]]:
    """Refine the objective on an ascending scan ``grid`` in h to its minimum.

    ``outs`` are :func:`_feasibility`'s outputs at each grid point: the
    objective (+inf where h is infeasible), the constraint margin
    (feasible iff >= 0), C_m and w.  The caller computes them, so grids of
    several m or passes can share their kernel work.  Each probe yields
    its h and is sent (p, dp/dh) there (see :func:`_lockstep`);
    ``probe(h, p, p_h)`` returns those outputs at h with the objective's
    slope in log h from the left and from the right of h (they differ
    only at a kink, which the caller puts on the grid, so each grid
    interval is smooth).

    From the best grid point the search follows the slope's descent to the
    next grid point.  If the descent changes sign there, :func:`_close`
    closes the slope root; if the margin is negative at that root, or if
    only the margin changed sign, it closes the margin's root before it.
    Its feasible end is the optimum: a slope root or a constraint edge
    ("margin").  If neither changes sign, the walk goes on to that grid
    point (a tie of rounding).  It ends without a root at a grid point
    where no direction descends: a window end whose slope points out of
    the window ("end") or a kink.  Returns ``(h, outputs at h,
    evaluations, how it ended)``, where every ending but "end" and
    "margin" is "optimum"; every reported point has margin >= 0.  If no
    grid point is feasible the grid point with the largest margin is
    returned ("infeasible").
    """
    n, evals = len(grid), len(grid)
    i = min(range(n), key=lambda j: outs[j][0])  # the first of equal minima
    if not math.isfinite(outs[i][0]):
        i = max(range(n), key=lambda j: outs[j][1])
        return grid[i], outs[i], evals, "infeasible"
    if n == 1:
        return grid[0], outs[0], evals, "optimum"
    out, left, right = probe(grid[i], *(yield grid[i]))
    evals += 1
    while True:
        if right < 0.0 and i + 1 < n:
            step, descent = 1, -right
        elif left > 0.0 and i > 0:
            step, descent = -1, left
        elif i in (0, n - 1) and (right if i == 0 else -left) > 0.0:
            return grid[i], out, evals, "end"
        else:
            return grid[i], out, evals, "optimum"
        j = i + step
        out_j, left_j, right_j = probe(grid[j], *(yield grid[j]))
        evals += 1
        descent_j = -step * (left_j if step > 0 else right_j)
        if min(descent_j, out_j[1]) < 0.0:
            break
        i, out, left, right = j, out_j, left_j, right_j

    # Each bracket closes one smooth function, so the two scales never mix.
    outer = (grid[j], out_j[1], out_j)
    if descent_j < 0.0:
        h, o, k = yield from _close(lambda o, s: -step * s, probe, (grid[i], descent, out),
                                    (grid[j], descent_j, out_j))
        evals += k
        if o[1] >= 0.0:
            return h, o, evals, "optimum"
        outer = (h, o[1], o)
    h, o, k = yield from _close(lambda o, s: o[1], probe, (grid[i], out[1], out), outer)
    return h, o, evals + k, "margin"


End = tuple[float, float, Outputs]  # a bracket end: h, f at h, outputs at h


def _close(f: Callable[[Outputs, float], float], probe: Probe, inner: End, outer: End
           ) -> Search[tuple[float, Outputs, int]]:
    """The root of ``f(outputs, slope)`` between ``inner`` (f >= 0) and ``outer`` (f < 0).

    An Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) in log h
    narrows the bracket to _BRACKET, or to an exact zero, and returns its
    end with f >= 0 (h and its outputs) and the probes it took.  It raises
    ArithmeticError rather than take more than _MAX_REFINE_ITER probes.
    """
    (h_in, f_in, out_in), (h_out, f_out, _) = inner, outer
    t_in, t_out = math.log(h_in), math.log(h_out)
    kept = 0  # +1: the inner end was kept last, -1: the outer end
    for evals in range(_MAX_REFINE_ITER + 1):
        t = 0.5 * (t_in + t_out)
        if f_in == 0.0 or abs(t_out - t_in) <= _BRACKET or t in (t_in, t_out):
            return h_in, out_in, evals
        if evals == _MAX_REFINE_ITER:
            raise ArithmeticError(f"refinement did not close a bracket in {evals} probes")
        if math.isfinite(f_in) and math.isfinite(f_out):
            t_rf = t_in + (t_out - t_in) * f_in / (f_in - f_out)
            if min(t_in, t_out) < t_rf < max(t_in, t_out):
                t = t_rf
        h = math.exp(t)
        o, s, _ = probe(h, *(yield h))  # inside a grid interval both slopes agree
        v = f(o, s)
        if v >= 0.0:
            t_in, f_in, h_in, out_in = t, v, h, o
            if kept < 0:
                f_out *= 0.5
            kept = -1
        else:
            t_out, f_out = t, v
            if kept > 0:
                f_in *= 0.5
            kept = 1


# ---------------------------------------------------------------------------
# the h-reduction of a search region


# The g axis, then the B_s axis, each (lo, hi, points); a fixed axis is (x, x, 1).
Axes = tuple[tuple[float, float, int], tuple[float, float, int]]


def _axes(spec: ExtremumSpec) -> Axes:
    """The (g, B_s) axes of a search region; a fixed axis is the one-point range."""
    return tuple((r.lo, r.hi, r.points) if x is None else (x, x, 1)
                 for x, r in ((spec.g_fixed, spec.g_range), (spec.b_s_fixed, spec.b_s_range)))


def _kink(axes: Axes) -> float:
    """h where the smallest compatible base switches from b_s_lo to 2 (h/g_hi)**2."""
    (_, g_hi, _), (b_lo, _, _) = axes
    return g_hi * math.sqrt(b_lo / 2.0)


def _b_s_compat(axes: Axes, h: float) -> tuple[float, float]:
    """Interval of bases compatible with h under the axes."""
    (g_lo, g_hi, _), (b_lo, b_hi, _) = axes
    # The lower bound is b_s_lo itself up to and at the kink.
    lo = max(b_lo, 2.0 * (h / g_hi) ** 2) if h > _kink(axes) else b_lo
    hi = min(b_hi, 2.0 * (h / g_lo) ** 2)
    # max also absorbs float fuzz at the window corners (hi < lo).
    return lo, max(hi, lo)


def _base_slope(axes: Axes, h: float) -> tuple[float, float]:
    """d log b_s / d log h of ``_b_s_compat``'s lower bound, left and right of h."""
    h_k = _kink(axes)
    return (2.0 if h > h_k else 0.0), (2.0 if h >= h_k else 0.0)


def _h_window(axes: Axes) -> tuple[float, float]:
    (g_lo, g_hi, _), (b_lo, b_hi, _) = axes
    return g_lo * math.sqrt(b_lo / 2.0), g_hi * math.sqrt(b_hi / 2.0)


def _feasibility(c: float, w: float, b_s: float | None, constraints: Constraints) -> Outputs:
    """Objective, constraint margin, C_m and w from C_m and w at base ``b_s``.

    The one feasibility rule of every search: the margin is
    min(c_F - c_f_min, w_cap - w) over the constraints given (+inf with
    none), with c_F = 2 C_m / b_s, and a point is feasible iff its margin
    is >= 0.  The objective (w, or -c_F when maximising) is +inf elsewhere.
    """
    maximise, c_f_min, w_cap = constraints
    margin = math.inf
    if c_f_min is not None:
        margin = 2.0 * c / b_s - c_f_min
    if w_cap is not None:
        margin = min(w_cap - w, margin)  # in this order a NaN (inf - inf) is kept
    if not margin >= 0.0:
        return math.inf, margin, c, w
    return (-(2.0 * c / b_s) if maximise else w), margin, c, w


def _probe(m: int, h: float, p: float, p_h: float, b_s: float | None, db: tuple[float, float],
           constraints: Constraints) -> tuple[Outputs, float, float]:
    """:func:`_feasibility`'s outputs at one h, and the objective's slopes, from p and dp/dh there.

    The slope is d log|objective| / d log h, which has the sign of
    d objective / d log h, where d log b_s / d log h = ``db`` (left and
    right of h).  With e = h C_p p_h / C, the elasticity of C_m in h
    (C_p = dC/dp, p_h = dp/dh), it is 2 - e for w = h**2 / C, and
    db - e for -c_F = -2 C / b_s.
    """
    out = _feasibility(*_capacity_and_w(m, h, p), b_s, constraints)
    c = out[2]
    if c == 0.0:
        e = math.inf  # w = inf and c_F = 0 here, and both improve as h grows
    elif p == 0.0:
        # C_m rises with h, but p has underflowed: e is positive and below
        # every double, so on the plateau C_m = log2 m a search maximising
        # c_F walks on to the kink or the window end.
        e = math.ulp(0.0)
    else:  # C_p as capacity_bits_per_symbol writes it, safe for subnormal p
        c_p = math.log2(p) - math.log2(m - 1) - math.log1p(-p) / _LOG2
        e = h * c_p * p_h / c
    if constraints[0]:  # maximising c_F
        return out, db[0] - e, db[1] - e
    return out, 2.0 - e, 2.0 - e


def _map_back(axes: Axes, h: float, prefer_min_base: bool) -> tuple[float, float]:
    """Choose a concrete (g, B_s) decomposition of h.

    With an ICSE floor in force the base is pinned to the smallest
    compatible value (which maximises c_F and hence preserves
    feasibility); otherwise the decomposition closest to the geometric
    centre of the g-range is reported.
    """
    (g_lo, g_hi, _), _ = axes
    b_lo, b_hi = _b_s_compat(axes, h)
    b_mid = 2.0 * (h / math.sqrt(g_lo * g_hi)) ** 2  # at the g-range's geometric centre
    b_s = b_lo if prefer_min_base else min(max(b_mid, b_lo), b_hi)
    return (g_lo if g_lo == g_hi else h / math.sqrt(b_s / 2.0)), b_s  # a fixed g exactly


def _result(spec: ExtremumSpec, maximise: bool, m: int, g: float, b_s: float, h: float,
            out: Outputs, w_cap: float | None, evals: int, how: str,
            note: str) -> ExtremumResult:
    """The optimiser (m, g, b_s, h) from its outputs ``out`` and how its search ended."""
    value, margin, c, w = out
    c_f = 2.0 * c / b_s
    slack = {}
    if spec.c_f_min is not None:
        slack["c_f_min"] = c_f - spec.c_f_min
    if w_cap is not None:
        slack["w_cap"] = w_cap - w
    on_root = how == "margin" or margin == 0.0
    return ExtremumResult(
        objective="max_icse" if maximise else "min_icpe",
        m=m,
        g=g,
        b_s=b_s,
        h=h,
        value=-value if maximise else value,
        c_f=c_f,
        w=w,
        attained=how != "end",
        constraint_slack=slack,
        # The constraint whose slack is the margin is the one whose root it is.
        constraint_active={k: on_root and v == margin for k, v in slack.items()},
        evaluations=evals,
        note=note,
    )


def _certificate(m: int, h: float, g: float, b_s: float, out: Outputs) -> dict:
    """A nearest-feasible point (m, h, g, b_s) from its outputs ``out``."""
    _, margin, c, w = out
    return {"m": m, "h": h, "g": g, "b_s": b_s, "c_f": 2.0 * c / b_s, "w": w,
            "margin": margin}


def _search(spec: ExtremumSpec, maximise: bool, axes: Axes, grid: list[float], uses_c_f: bool,
            m: int, p: list[float]) -> Search[tuple[ExtremumResult | dict, int]]:
    """The search of one m on its scan ``grid`` in h, with p there.

    Its result is (the result, or a certificate if no point is feasible,
    and the evaluations of both passes, each point counted once).
    """

    def base(h: float) -> float | None:
        return _b_s_compat(axes, h)[0] if uses_c_f else None

    cw = [_capacity_and_w(m, h, q) for h, q in zip(grid, p)]
    m_grid, w_cap, band_note, total_evals = grid, spec.w_cap, "", 0
    band = maximise and spec.icpe_band_eps is not None
    if band or not any(_feasibility(c, w, base(h), (maximise, spec.c_f_min, w_cap))[1] >= 0.0
                       for h, (c, w) in zip(grid, cw)):
        # The ICPE minimiser h* seeds the band, which holds it by
        # construction.  It is also where w_cap - w peaks, and a c_F
        # floor's margin at a fixed g or above the kink (c_F = g**2 / w
        # there), so a feasible set narrower than a grid step is found.
        # This pass reuses the grid C_m, and h* joins the grid.
        h_seed, seed, evals, _ = yield from _minimise(
            lambda h, p, p_h: _probe(m, h, p, p_h, None, (0.0, 0.0), _UNCONSTRAINED), grid,
            [_feasibility(c, w, None, _UNCONSTRAINED) for c, w in cw])
        total_evals += evals
        if band:
            w_inf = seed[0]
            band_cap = w_inf * (1.0 + spec.icpe_band_eps)
            w_cap = band_cap if w_cap is None else min(w_cap, band_cap)
            band_note = f"near-infimum band: w_inf({m})={w_inf!r}"
        if h_seed not in grid:
            j = bisect.bisect(grid, h_seed)
            m_grid, cw = grid[:j] + [h_seed] + grid[j:], cw[:j] + [seed[2:]] + cw[j:]
        # The next pass reuses the outputs on m_grid, which this pass counted
        # (h* as its probe), so it counts only its own probes.
        total_evals -= len(m_grid)

    constraints = (maximise, spec.c_f_min, w_cap)
    outs = [_feasibility(c, w, base(h), constraints) for h, (c, w) in zip(m_grid, cw)]
    h, out, evals, how = yield from _minimise(
        lambda h, p, p_h: _probe(m, h, p, p_h, base(h), _base_slope(axes, h), constraints),
        m_grid, outs)
    total_evals += evals
    if how == "infeasible":
        # The nearest-feasible point of the scan grid (h* included), as a certificate.
        g, b_s = _map_back(axes, h, prefer_min_base=True)
        return _certificate(m, h, g, b_s, out), total_evals
    g, b_s = _map_back(axes, h, prefer_min_base=spec.c_f_min is not None or maximise)
    return _result(spec, maximise, m, g, b_s, h, out, w_cap, evals, how, band_note), total_evals


def _solve_reduced(specs: list[ExtremumSpec], maximise: bool) -> list[ExtremumResult]:
    """The reduced search of every spec: one SER table for all their scan
    grids, then every (spec, m) search refined in lockstep."""
    plans = []
    for spec in specs:
        axes = _axes(spec)
        grid = _log_grid(*_h_window(axes), max(points for _, _, points in axes))
        uses_c_f = maximise or spec.c_f_min is not None  # c_F = 2 C / b_s, at the smallest b_s
        if uses_c_f and _kink(axes) not in grid:
            # c_F has a kink there, so as a grid point it ends two smooth intervals.
            bisect.insort(grid, _kink(axes))
        plans.append((spec, axes, grid, uses_c_f))
    ms = sorted({m for spec in specs for m in spec.m_values})
    table = _EXACT.ser_table(ms, np.array([h for *_, grid, _ in plans for h in grid]))
    searches, search_ms, start = [], [], 0
    for spec, axes, grid, uses_c_f in plans:
        for m in spec.m_values:
            p = table[ms.index(m), start:start + len(grid)].tolist()
            searches.append(_search(spec, maximise, axes, grid, uses_c_f, m, p))
            search_ms.append(m)
        start += len(grid)
    outcomes = iter(_lockstep(search_ms, searches))
    return [_chosen(spec, maximise, [next(outcomes) for _ in spec.m_values]) for spec in specs]


def _chosen(spec: ExtremumSpec, maximise: bool, outcomes: list[tuple[ExtremumResult | dict, int]]
            ) -> ExtremumResult:
    """The best of the per-m results, with every m's evaluations.

    Raises :class:`InfeasibleSearchError` with the best certificate if no m is feasible.
    """
    per_m = [r for r, _ in outcomes if isinstance(r, ExtremumResult)]
    if not per_m:  # each outcome is a certificate
        cert = max((c for c, _ in outcomes), key=lambda c: c["margin"])
        raise InfeasibleSearchError(
            "no feasible point in the search region; best margin "
            f"{cert.get('margin')!r} at m={cert.get('m')!r}, h={cert.get('h')!r}",
            certificate=cert,
        )
    # Deterministic tie handling: better objective wins, then smaller m.
    if maximise:
        chosen = max(per_m, key=lambda r: (r.value, -r.m))
    else:
        chosen = min(per_m, key=lambda r: (r.value, r.m))
    return replace(chosen, evaluations=sum(e for _, e in outcomes))


def _solve_grid2d(spec: ExtremumSpec, maximise: bool) -> ExtremumResult:
    """A (g, B_s) mesh, then line searches from its best cell: the reduction's cross-check."""
    if spec.icpe_band_eps is not None:
        raise ValueError("the near-infimum band (icpe_band_eps) needs method='reduced'")
    constraints: Constraints = (maximise, spec.c_f_min, spec.w_cap)
    g_axis, b_axis = _axes(spec)
    mesh = [(g, b_s) for g in _log_grid(*g_axis) for b_s in _log_grid(*b_axis)]
    h_mesh = [g * math.sqrt(b_s / 2.0) for g, b_s in mesh]

    best = near = None
    evals = 0
    for m, p in zip(spec.m_values, _EXACT.ser_table(spec.m_values, np.array(h_mesh))):
        outs = [_feasibility(*_capacity_and_w(m, h, q), b_s, constraints)
                for h, q, (_, b_s) in zip(h_mesh, p.tolist(), mesh)]
        evals += len(mesh)
        v = min(o[0] for o in outs)
        if best is None or v < best[0]:
            best = (v, m, outs)
        j = max(range(len(outs)), key=lambda k: outs[k][1])  # nearest-feasible, as a certificate
        if near is None or outs[j][1] > near["margin"]:
            near = _certificate(m, h_mesh[j], *mesh[j], outs[j])
    v, m, outs = best
    if not math.isfinite(v):
        raise InfeasibleSearchError(
            "no feasible point on the 2-D grid; best margin "
            f"{near['margin']!r} at m={near['m']!r}, h={near['h']!r}",
            certificate=near,
        )
    # Many cells share the best h up to rounding (on log grids h depends on
    # 3i + 2j alone), so the last bits of p would pick among them; take the
    # one whose g is nearest the g-range's geometric centre, as _map_back does.
    g_mid = math.sqrt(spec.g_range.lo * spec.g_range.hi)
    k = min((k for k, o in enumerate(outs) if o[0] <= v + 4.0 * math.ulp(v)),
            key=lambda k: abs(math.log(mesh[k][0] / g_mid)))
    (g, b_s), out = mesh[k], outs[k]

    # Line searches in h: in g at fixed B_s, then in B_s at fixed g.  The
    # objective depends on h only, so one pass suffices.
    lines = []
    if spec.g_fixed is None:
        lines += _solve_reduced([replace(spec, m_fixed=m, b_s_fixed=b_s)], maximise)
        g = lines[-1].g
    if spec.b_s_fixed is None:
        lines += _solve_reduced([replace(spec, m_fixed=m, g_fixed=g)], maximise)
    if not lines:  # g and B_s fixed: h is the one point of its window, so attained
        return _result(spec, maximise, m, g, b_s, g * math.sqrt(b_s / 2.0), out, spec.w_cap,
                       evals, "optimum", "direct 2-D search")
    # At a window end of h only if every line ended on an end of its window;
    # the constraint flags are those of the last line that did not.
    flags = next((r for r in reversed(lines) if r.attained), lines[-1])
    return replace(lines[-1], attained=flags.attained, constraint_active=flags.constraint_active,
                   evaluations=evals + sum(r.evaluations for r in lines),
                   note="direct 2-D search")


def _solve(spec: ExtremumSpec, maximise: bool, method: str) -> ExtremumResult:
    if method not in ("reduced", "grid2d"):
        raise ValueError(f"unknown method {method!r}")
    if spec.icpe_band_eps is not None and not maximise:
        raise ValueError("the near-infimum band (icpe_band_eps) restricts maximize_icse only")
    if method == "grid2d":
        return _solve_grid2d(spec, maximise)
    return _solve_reduced([spec], maximise)[0]


def minimize_icpe(spec: ExtremumSpec, method: str = "reduced") -> ExtremumResult:
    """Minimise ICPE over the search region.

    ``method="reduced"`` (default) searches over h and maps back;
    ``method="grid2d"`` scans the (g, B_s) grid directly.  Both must
    agree — the second exists as a cross-check of the first.
    """
    return _solve(spec, False, method)


def maximize_icse(spec: ExtremumSpec, method: str = "reduced") -> ExtremumResult:
    """Maximise ICSE over the search region (same machinery, flipped sign).

    The near-infimum band (``icpe_band_eps``) needs ``method="reduced"``.
    """
    return _solve(spec, True, method)


# ---------------------------------------------------------------------------
# statement verifiers


@dataclass(frozen=True)
class FlatnessRow:
    b_s: float
    h_min: float
    w_min: float
    attained: bool


@dataclass(frozen=True)
class FlatnessReport:
    """Constancy of min-over-g ICPE across the base axis for one m."""

    m: int
    rows: tuple[FlatnessRow, ...]
    w_low: float
    w_high: float
    spread_rel: float
    threshold: float
    passed: bool


def verify_statement1(
    m: int,
    g_range: GridRange | None = None,
    b_s_grid: GridRange | None = None,
) -> FlatnessReport:
    """Check that min_g ICPE(g, B_s) does not depend on B_s.

    For each base on ``b_s_grid`` the power criterion is minimised over
    the induced h-window; the relative spread of those minima is compared
    against the threshold 1e-6.  The model is
    :class:`ExactCoherentOrthogonal`, whose fixed rule is smooth in h, so
    the minima differ by far less than that, even on the m = 2 small-h
    plateau.
    """
    if g_range is None:
        g_range = GridRange(1e-4, 10.0, 48)
    if b_s_grid is None:
        b_s_grid = GridRange(0.1, 100.0, 13)

    # One search per base, each in its own h-window: one SER table serves
    # all their scan grids, and their probes are refined in lockstep.
    bases = b_s_grid.log_grid()
    rows = [FlatnessRow(b_s=b_s, h_min=r.h, w_min=r.value, attained=r.attained)
            for b_s, r in zip(bases, _solve_reduced(
                [ExtremumSpec(m_fixed=m, b_s_fixed=b_s, g_range=g_range) for b_s in bases],
                False))]
    w_values = [r.w_min for r in rows]
    w_low, w_high = min(w_values), max(w_values)
    spread = (w_high - w_low) / w_low
    return FlatnessReport(
        m=m,
        rows=tuple(rows),
        w_low=w_low,
        w_high=w_high,
        spread_rel=spread,
        threshold=_STATEMENT1_THRESHOLD,
        passed=spread <= _STATEMENT1_THRESHOLD,
    )


@dataclass(frozen=True)
class MonotonicityRow:
    g: float
    b_s_star: float
    invariant_product: float  # b_s_star * g**2 = 2 * h_star**2


@dataclass(frozen=True)
class MonotonicityReport:
    """Optimal base versus SINR amplitude for one m."""

    m: int
    h_star: float
    w_inf: float
    attained: bool
    rows: tuple[MonotonicityRow, ...]
    strictly_decreasing: bool
    product_spread_rel: float
    threshold: float
    passed: bool


def verify_statement3(
    m: int,
    g_values: tuple[float, ...] | list[float],
    h_window: tuple[float, float] = (1e-2, 50.0),
) -> MonotonicityReport:
    """Check that the ICPE-optimal base falls as g^-2.

    The power criterion depends on (g, B_s) only through h, so its
    minimiser h* is found once on ``h_window`` = (lo, hi), 0 < lo < hi
    (a log grid of 96 points, then refinement), and the optimal base for
    each amplitude is the map-back B_s*(g) = 2 (h*/g)**2.  The report
    records strict monotonicity of B_s*(g) and the relative spread of the
    invariant product B_s* * g**2 (= 2 h*^2), which passes at <= 1e-3.
    The model is :class:`ExactCoherentOrthogonal`.

    For m = 2 the criterion has no interior minimum; h* is then the lower
    window edge and ``attained`` is False — the mapped bases are the
    near-infimum operating points rather than true minimisers.
    """
    g_sorted = [float(g) for g in g_values]
    if len(g_sorted) < 2:
        raise ValueError("need at least two g values")
    if not all(g > 0.0 and math.isfinite(g) for g in g_sorted):
        raise ValueError(f"g values must be finite and > 0, got {g_sorted!r}")
    if any(b <= a for a, b in zip(g_sorted, g_sorted[1:])):
        raise ValueError("g values must be strictly increasing")
    # At B_s = 2, h = g exactly; GridRange refuses an empty or reversed window.
    res, = _solve_reduced([ExtremumSpec(m_fixed=m, b_s_fixed=2.0,
                                        g_range=GridRange(*h_window, _STATEMENT3_POINTS))], False)
    h_star = res.h

    rows = []
    for g in g_sorted:
        b_star = 2.0 * (h_star / g) ** 2
        rows.append(MonotonicityRow(g=g, b_s_star=b_star,
                                    invariant_product=b_star * g * g))
    decreasing = all(b.b_s_star < a.b_s_star for a, b in zip(rows, rows[1:]))
    products = [r.invariant_product for r in rows]
    spread = (max(products) - min(products)) / min(products)
    return MonotonicityReport(
        m=m,
        h_star=h_star,
        w_inf=res.value,
        attained=res.attained,
        rows=tuple(rows),
        strictly_decreasing=decreasing,
        product_spread_rel=spread,
        threshold=_STATEMENT3_THRESHOLD,
        passed=decreasing and spread <= _STATEMENT3_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# curve families


@dataclass(frozen=True)
class CurvePoint:
    m: int
    g: float
    b_s: float
    h: float
    c_f: float
    w: float


def sweep_curves(
    m_values: tuple[int, ...] | list[int],
    g_values: tuple[float, ...] | list[float],
    b_s_grid: GridRange,
    model: SerModel = _EXACT,
) -> list[CurvePoint]:
    """Criterion families over a base grid, one curve per (m, g) pair.

    Points with zero capacity get w = +inf (the power criterion diverges
    at the uniform-guessing error rate).  One SER table serves every m at
    every (g, B_s) of the curves.
    """
    g_mesh, b_mesh = (a.ravel() for a in np.meshgrid(g_values, b_s_grid.log_grid(),
                                                      indexing="ij"))
    h = g_mesh * np.sqrt(b_mesh / 2.0)
    out = []
    for m, p in zip(m_values, model.ser_table(m_values, h)):
        for g, b_s, hp, q in zip(g_mesh.tolist(), b_mesh.tolist(), h.tolist(), p.tolist()):
            c, w = _capacity_and_w(m, hp, q)
            out.append(CurvePoint(m=m, g=g, b_s=b_s, h=hp, c_f=2.0 * c / b_s, w=w))
    return out
