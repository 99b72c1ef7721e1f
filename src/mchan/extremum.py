"""Constrained extremum searches over the (g, B_s) plane.

ICPE depends on (g, B_s) only through the energy SINR h = g * sqrt(B_s/2),
so every search here reduces to one dimension: build the h-window induced
by the axis ranges, minimise (or maximise) over h with a log-spaced grid
(one vectorised SER call per m) followed by golden-section refinement,
then map the optimiser back to a concrete (g, B_s) pair.  A direct
two-dimensional grid search is kept as a cross-check (``method="grid2d"``);
the two routes must agree.

Boundary extremums are reported with ``attained=False``: for m = 2 the
power criterion has no interior minimum and its infimum pi * ln 2 is only
approached as h -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from mchan.channel import ExactCoherentOrthogonal, SerModel, capacity_bits_per_symbol
from mchan.criteria import UndefinedCriterionError

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

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_MAX_GOLDEN_ITER = 200
# A point within this many refinement tolerances of a window edge is
# reported as a boundary (attained=False).
_EDGE_FACTOR = 5.0


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
    power band w <= w_inf(m) * (1 + eps).  ``tol`` is the relative
    golden-section tolerance on h; ``feas_tol`` the relative constraint
    slack allowed at the reported point.
    """

    objective: str = "min_icpe"
    ser_model: SerModel = field(default_factory=ExactCoherentOrthogonal)
    m_fixed: int | None = None
    g_fixed: float | None = None
    b_s_fixed: float | None = None
    m_set: tuple[int, ...] = DEFAULT_M_SET
    g_range: GridRange = field(default_factory=lambda: GridRange(1e-2, 1e1, 64))
    b_s_range: GridRange = field(default_factory=lambda: GridRange(1e-1, 1e3, 64))
    c_f_min: float | None = None
    w_cap: float | None = None
    icpe_band_eps: float | None = None
    tol: float = 1e-6
    feas_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.objective not in ("min_icpe", "max_icse"):
            raise ValueError(f"unknown objective {self.objective!r}")
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
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol!r}")
        if not (0.0 <= self.feas_tol < 1.0):
            raise ValueError(f"feas_tol must lie in [0, 1), got {self.feas_tol!r}")

    @property
    def m_values(self) -> tuple[int, ...]:
        if self.m_fixed is not None:
            return (self.m_fixed,)
        return tuple(sorted(set(self.m_set)))


@dataclass(frozen=True)
class ExtremumResult:
    """Outcome of a search: the optimiser, its criteria, and bookkeeping.

    ``attained=False`` flags a boundary extremum, i.e. an infimum or
    supremum approached at a window edge rather than an interior
    stationary point.  ``constraint_slack`` maps constraint names to
    signed margins (positive = satisfied with room).
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
# scalar minimisation over h (log coordinates, best-seen tracking)


class _BestTracker:
    __slots__ = ("x", "value", "evals")

    def __init__(self) -> None:
        self.x = math.nan
        self.value = math.inf
        self.evals = 0

    def offer(self, x: float, value: float) -> None:
        self.evals += 1
        if value < self.value:
            self.x = x
            self.value = value

    def offer_grid(self, xs: list[float], values: np.ndarray) -> None:
        """Offer every grid point; the first of equal minima wins, as in ``offer``."""
        i = int(np.argmin(values))
        self.offer(xs[i], float(values[i]))
        self.evals += len(xs) - 1


def _golden_min(f: Callable[[float], float], lo: float, hi: float, rel_tol: float,
                best: _BestTracker) -> None:
    """Golden-section minimisation on [lo, hi] in log coordinates."""
    a, b = math.log(lo), math.log(hi)
    tol = math.log1p(rel_tol)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = f(math.exp(x1))
    best.offer(math.exp(x1), f1)
    f2 = f(math.exp(x2))
    best.offer(math.exp(x2), f2)
    for _ in range(_MAX_GOLDEN_ITER):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(math.exp(x1))
            best.offer(math.exp(x1), f1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(math.exp(x2))
            best.offer(math.exp(x2), f2)


def _optimize_over_h(f: Callable[[np.ndarray], np.ndarray], h_lo: float, h_hi: float,
                     points: int, rel_tol: float) -> _BestTracker:
    """Grid scan plus golden refinement; returns the best-seen tracker.

    ``f`` maps a 1-D array of h to the objective, +inf where h is
    infeasible: the whole grid is one call, the golden refinement calls it
    point by point.  The grid best is always retained, so boundary optima
    at exactly h_lo/h_hi survive the interior-only golden refinement.
    """
    best = _BestTracker()
    if h_hi <= h_lo * (1.0 + 1e-15):
        best.offer_grid([h_lo], f(np.array([h_lo])))
        return best
    grid = GridRange(h_lo, h_hi, points).log_grid()
    best.offer_grid(grid, f(np.array(grid)))
    if not math.isfinite(best.value):
        return best
    i = grid.index(best.x)
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    if hi > lo:
        _golden_min(lambda h: float(f(np.array([h]))[0]), lo, hi, rel_tol, best)
    return best


# ---------------------------------------------------------------------------
# the h-reduction of a search region


def _b_s_compat(spec: ExtremumSpec, h):
    """Interval of bases compatible with h (a float or an ndarray) under the axis ranges."""
    if spec.b_s_fixed is not None:
        return spec.b_s_fixed, spec.b_s_fixed
    if spec.g_fixed is not None:
        b = 2.0 * (h / spec.g_fixed) ** 2
        return b, b
    lo = np.maximum(spec.b_s_range.lo, 2.0 * (h / spec.g_range.hi) ** 2)
    hi = np.minimum(spec.b_s_range.hi, 2.0 * (h / spec.g_range.lo) ** 2)
    # np.maximum also absorbs float fuzz at the window corners (hi < lo).
    return lo, np.maximum(hi, lo)


def _h_window(spec: ExtremumSpec) -> tuple[float, float]:
    g_fix, b_fix = spec.g_fixed, spec.b_s_fixed
    if g_fix is not None and b_fix is not None:
        h = g_fix * math.sqrt(b_fix / 2.0)
        return h, h
    if b_fix is not None:
        s = math.sqrt(b_fix / 2.0)
        return spec.g_range.lo * s, spec.g_range.hi * s
    if g_fix is not None:
        return (g_fix * math.sqrt(spec.b_s_range.lo / 2.0),
                g_fix * math.sqrt(spec.b_s_range.hi / 2.0))
    return (spec.g_range.lo * math.sqrt(spec.b_s_range.lo / 2.0),
            spec.g_range.hi * math.sqrt(spec.b_s_range.hi / 2.0))


def _criteria_of_h(m: int, h: np.ndarray, model: SerModel) -> tuple[np.ndarray, np.ndarray]:
    """C_m and ICPE w (+inf where capacity vanishes) over a 1-D array of h.

    The h-kernel of every scan: one SER call for the whole array.
    """
    c = np.array([capacity_bits_per_symbol(m, p) for p in model.ser(m, h).tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(c > 0.0, h * h / c, np.inf)
    return c, w


def _w_of(m: int, model: SerModel) -> Callable[[np.ndarray], np.ndarray]:
    """ICPE as an objective over arrays of h."""
    return lambda h: _criteria_of_h(m, h, model)[1]


def _map_back(spec: ExtremumSpec, h: float, prefer_min_base: bool) -> tuple[float, float]:
    """Choose a concrete (g, B_s) decomposition of h.

    With an ICSE floor in force the base is pinned to the smallest
    compatible value (which maximises c_F and hence preserves
    feasibility); otherwise the decomposition closest to the geometric
    centre of the g-range is reported.
    """
    b_lo, b_hi = (float(b) for b in _b_s_compat(spec, h))
    if prefer_min_base or b_lo == b_hi:
        b_s = b_lo
    else:
        g_mid = math.sqrt(spec.g_range.lo * spec.g_range.hi)
        b_s = min(max(2.0 * (h / g_mid) ** 2, b_lo), b_hi)
    g = spec.g_fixed if spec.g_fixed is not None else h / math.sqrt(b_s / 2.0)
    return g, b_s


def _attained(h: float, h_lo: float, h_hi: float, tol: float) -> bool:
    if h_lo == h_hi:
        return True
    edge = 1.0 + _EDGE_FACTOR * tol
    return h > h_lo * edge and h < h_hi / edge


def _solve_reduced(spec: ExtremumSpec) -> ExtremumResult:
    model = spec.ser_model
    maximise = spec.objective == "max_icse"
    per_m: list[ExtremumResult] = []
    near_misses: list[dict] = []
    total_evals = 0

    for m in spec.m_values:
        h_lo, h_hi = _h_window(spec)
        points = max(spec.g_range.points, spec.b_s_range.points)

        w_cap = spec.w_cap
        band_note = ""
        if maximise and spec.icpe_band_eps is not None:
            ref = _optimize_over_h(_w_of(m, model), h_lo, h_hi, points, spec.tol)
            total_evals += ref.evals
            band_cap = ref.value * (1.0 + spec.icpe_band_eps)
            w_cap = band_cap if w_cap is None else min(w_cap, band_cap)
            band_note = f"near-infimum band: w_inf({m})={ref.value!r}"

        cf_floor = spec.c_f_min
        slack = spec.feas_tol

        def cf_and_w(h: np.ndarray, m: int = m) -> tuple[np.ndarray, np.ndarray]:
            """Largest ICSE reachable at each h within the axis ranges, and ICPE."""
            c, w = _criteria_of_h(m, h, model)
            return 2.0 * c / _b_s_compat(spec, h)[0], w

        def objective(h: np.ndarray, w_cap: float | None = w_cap) -> np.ndarray:
            cf, w = cf_and_w(h)
            feasible = np.ones(h.shape, dtype=bool)
            if cf_floor is not None:
                feasible &= cf >= cf_floor * (1.0 - slack)
            if w_cap is not None:
                feasible &= w <= w_cap * (1.0 + slack)
            return np.where(feasible, -cf if maximise else w, np.inf)

        best = _optimize_over_h(objective, h_lo, h_hi, points, spec.tol)
        total_evals += best.evals

        if not math.isfinite(best.value):
            # Build an infeasibility certificate: the point with the best
            # constraint margin over the scan grid.
            if h_hi > h_lo * (1.0 + 1e-12):
                cert_grid = GridRange(h_lo, h_hi, points).log_grid()
            else:
                cert_grid = [h_lo]
            cf, w = cf_and_w(np.array(cert_grid))
            margin = np.full(len(cert_grid), np.inf)
            if cf_floor is not None:
                margin = cf - cf_floor
            if w_cap is not None:
                margin = np.where(np.isfinite(w), np.minimum(margin, w_cap - w), margin)
            i = int(np.argmax(margin))
            g, b_s = _map_back(spec, cert_grid[i], prefer_min_base=True)
            near_misses.append({"m": m, "h": cert_grid[i], "g": g, "b_s": b_s,
                                "c_f": float(cf[i]), "w": float(w[i]),
                                "margin": float(margin[i])})
            continue

        h_star = best.x
        prefer_min_base = cf_floor is not None or maximise
        g_star, b_star = _map_back(spec, h_star, prefer_min_base)
        c, w = (float(a[0]) for a in _criteria_of_h(m, np.array([h_star]), model))
        c_f = 2.0 * c / b_star

        slack_map: dict[str, float] = {}
        active_map: dict[str, bool] = {}
        if cf_floor is not None:
            s = c_f - cf_floor
            slack_map["c_f_min"] = s
            active_map["c_f_min"] = s <= max(1e-9, 1e-6 * cf_floor)
        if w_cap is not None:
            s = w_cap - w
            slack_map["w_cap"] = s
            active_map["w_cap"] = s <= max(1e-9, 1e-6 * w_cap)

        per_m.append(ExtremumResult(
            objective=spec.objective,
            m=m,
            g=g_star,
            b_s=b_star,
            h=h_star,
            value=-best.value if maximise else best.value,
            c_f=c_f,
            w=w,
            attained=_attained(h_star, h_lo, h_hi, spec.tol),
            constraint_slack=slack_map,
            constraint_active=active_map,
            evaluations=best.evals,
            note=band_note,
        ))

    if not per_m:
        cert = max(near_misses, key=lambda c: c["margin"]) if near_misses else {}
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
    return replace(chosen, evaluations=total_evals)


def _solve_grid2d(spec: ExtremumSpec) -> ExtremumResult:
    """Direct search on the (g, B_s) grid; cross-check for the reduction."""
    model = spec.ser_model
    maximise = spec.objective == "max_icse"
    slack = spec.feas_tol

    def eval_points(m: int, g: np.ndarray, b_s: np.ndarray) -> tuple[np.ndarray, ...]:
        """Objective (+inf if infeasible), c_F and w at (g, B_s) arrays of one shape."""
        h = g * np.sqrt(b_s / 2.0)
        c, w = _criteria_of_h(m, h, model)
        c_f = 2.0 * c / b_s
        feasible = np.ones(h.shape, dtype=bool)
        if spec.c_f_min is not None:
            feasible &= c_f >= spec.c_f_min * (1.0 - slack)
        if spec.w_cap is not None:
            feasible &= w <= spec.w_cap * (1.0 + slack)
        return np.where(feasible, -c_f if maximise else w, np.inf), c_f, w

    g_grid = [spec.g_fixed] if spec.g_fixed is not None else spec.g_range.log_grid()
    b_grid = [spec.b_s_fixed] if spec.b_s_fixed is not None else spec.b_s_range.log_grid()
    g_mesh, b_mesh = (a.ravel() for a in np.meshgrid(g_grid, b_grid, indexing="ij"))

    best = None
    evals = 0
    for m in spec.m_values:
        obj = eval_points(m, g_mesh, b_mesh)[0]
        evals += obj.size
        i = int(np.argmin(obj))  # the first minimum in (g, B_s) scan order
        if best is None or obj[i] < best[0]:
            best = (float(obj[i]), m, float(g_mesh[i]), float(b_mesh[i]))
    if best is None or not math.isfinite(best[0]):
        raise InfeasibleSearchError("no feasible point on the 2-D grid", certificate={})

    _, m, g0, b0 = best

    def objective_at(g: float, b_s: float) -> float:
        return float(eval_points(m, np.array([g]), np.array([b_s]))[0][0])

    # Coordinate refinement: golden in g at fixed B_s, then in B_s at
    # fixed g.  The objective depends on h only, so one pass suffices.
    tracker = _BestTracker()
    tracker.offer(g0, best[0])
    if spec.g_fixed is None:
        _golden_min(lambda g: objective_at(g, b0),
                    spec.g_range.lo, spec.g_range.hi, spec.tol, tracker)
    g1 = tracker.x
    evals += tracker.evals
    tracker2 = _BestTracker()
    tracker2.offer(b0, tracker.value)
    if spec.b_s_fixed is None:
        _golden_min(lambda b: objective_at(g1, b),
                    spec.b_s_range.lo, spec.b_s_range.hi, spec.tol, tracker2)
    b1 = tracker2.x if tracker2.value <= tracker.value else b0
    evals += tracker2.evals

    obj, c_f, w = (float(a[0]) for a in eval_points(m, np.array([g1]), np.array([b1])))
    h = g1 * math.sqrt(b1 / 2.0)
    slack_map: dict[str, float] = {}
    active_map: dict[str, bool] = {}
    if spec.c_f_min is not None:
        s = c_f - spec.c_f_min
        slack_map["c_f_min"] = s
        active_map["c_f_min"] = s <= max(1e-9, 1e-6 * spec.c_f_min)
    if spec.w_cap is not None:
        s = spec.w_cap - w
        slack_map["w_cap"] = s
        active_map["w_cap"] = s <= max(1e-9, 1e-6 * spec.w_cap)
    h_lo, h_hi = _h_window(spec)
    return ExtremumResult(
        objective=spec.objective,
        m=m,
        g=g1,
        b_s=b1,
        h=h,
        value=-obj if maximise else obj,
        c_f=c_f,
        w=w,
        attained=_attained(h, h_lo, h_hi, spec.tol),
        constraint_slack=slack_map,
        constraint_active=active_map,
        evaluations=evals,
        note="direct 2-D search",
    )


def minimize_icpe(spec: ExtremumSpec, method: str = "reduced") -> ExtremumResult:
    """Minimise ICPE over the search region.

    ``method="reduced"`` (default) searches over h and maps back;
    ``method="grid2d"`` scans the (g, B_s) grid directly.  Both must
    agree — the second exists as a cross-check of the first.
    """
    spec = replace(spec, objective="min_icpe")
    if method == "reduced":
        return _solve_reduced(spec)
    if method == "grid2d":
        return _solve_grid2d(spec)
    raise ValueError(f"unknown method {method!r}")


def maximize_icse(spec: ExtremumSpec, method: str = "reduced") -> ExtremumResult:
    """Maximise ICSE over the search region (same machinery, flipped sign)."""
    spec = replace(spec, objective="max_icse")
    if method == "reduced":
        return _solve_reduced(spec)
    if method == "grid2d":
        return _solve_grid2d(spec)
    raise ValueError(f"unknown method {method!r}")


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
    model: SerModel | None = None,
    tol: float = 1e-6,
    threshold: float | None = None,
) -> FlatnessReport:
    """Check that min_g ICPE(g, B_s) does not depend on B_s.

    For each base on ``b_s_grid`` the power criterion is minimised over
    the induced h-window; the relative spread of those minima is compared
    against ``threshold`` (default: max(1e-6, tol), since a coarse
    refinement tolerance caps the achievable flatness).

    The default model is :class:`ExactCoherentOrthogonal`, whose fixed
    rule is smooth in h, so the minima differ by far less than 1e-6 even
    on the m = 2 small-h plateau.
    """
    if g_range is None:
        g_range = GridRange(1e-4, 10.0, 48)
    if b_s_grid is None:
        b_s_grid = GridRange(0.1, 100.0, 13)
    if model is None:
        model = ExactCoherentOrthogonal()
    if threshold is None:
        threshold = max(1e-6, tol)

    rows = []
    for b_s in b_s_grid.log_grid():
        s = math.sqrt(b_s / 2.0)
        h_lo, h_hi = g_range.lo * s, g_range.hi * s
        best = _optimize_over_h(_w_of(m, model), h_lo, h_hi, g_range.points, tol)
        rows.append(FlatnessRow(
            b_s=b_s,
            h_min=best.x,
            w_min=best.value,
            attained=_attained(best.x, h_lo, h_hi, tol),
        ))
    w_values = [r.w_min for r in rows]
    w_low, w_high = min(w_values), max(w_values)
    spread = (w_high - w_low) / w_low
    return FlatnessReport(
        m=m,
        rows=tuple(rows),
        w_low=w_low,
        w_high=w_high,
        spread_rel=spread,
        threshold=threshold,
        passed=spread <= threshold,
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
    model: SerModel | None = None,
    h_window: tuple[float, float] = (1e-2, 50.0),
    points: int = 96,
    tol: float = 1e-6,
    threshold: float = 1e-3,
) -> MonotonicityReport:
    """Check that the ICPE-optimal base falls as g^-2.

    The power criterion depends on (g, B_s) only through h, so its
    minimiser h* is found once on ``h_window`` and the optimal base for
    each amplitude is the map-back B_s*(g) = 2 (h*/g)**2.  The report
    records strict monotonicity of B_s*(g) and the relative spread of the
    invariant product B_s* * g**2 (= 2 h*^2).

    For m = 2 the criterion has no interior minimum; h* is then the lower
    window edge and ``attained`` is False — the mapped bases are the
    near-infimum operating points rather than true minimisers.
    """
    g_sorted = [float(g) for g in g_values]
    if len(g_sorted) < 2:
        raise ValueError("need at least two g values")
    if any(b <= a for a, b in zip(g_sorted, g_sorted[1:])):
        raise ValueError("g values must be strictly increasing")
    if model is None:
        model = ExactCoherentOrthogonal()
    h_lo, h_hi = h_window
    best = _optimize_over_h(_w_of(m, model), h_lo, h_hi, points, tol)
    h_star = best.x

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
        w_inf=best.value,
        attained=_attained(h_star, h_lo, h_hi, tol),
        rows=tuple(rows),
        strictly_decreasing=decreasing,
        product_spread_rel=spread,
        threshold=threshold,
        passed=decreasing and spread <= threshold,
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
    b_s_grid: GridRange | list[float],
    model: SerModel | None = None,
) -> list[CurvePoint]:
    """Criterion families over a base grid, one curve per (m, g) pair.

    Points with zero capacity get w = +inf (the power criterion diverges
    at the uniform-guessing error rate).  Each m is one SER call over
    every (g, B_s) of its curves.
    """
    if model is None:
        model = ExactCoherentOrthogonal()
    grid = b_s_grid.log_grid() if isinstance(b_s_grid, GridRange) else [float(b) for b in b_s_grid]
    g_mesh, b_mesh = (a.ravel() for a in np.meshgrid(g_values, grid, indexing="ij"))
    h = g_mesh * np.sqrt(b_mesh / 2.0)
    out = []
    for m in m_values:
        c, w = _criteria_of_h(m, h, model)
        c_f = 2.0 * c / b_mesh
        out += [CurvePoint(m=m, g=g, b_s=b_s, h=hp, c_f=cf, w=wp) for g, b_s, hp, cf, wp
                in zip(g_mesh.tolist(), b_mesh.tolist(), h.tolist(), c_f.tolist(), w.tolist())]
    return out
