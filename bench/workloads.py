"""The four benchmark workloads: seed-driven job lists and output checks.

A workload is an endless sequence of rounds.  Round ``r`` of seed ``s``
is drawn from ``numpy.random.default_rng([s, r])``, so any prefix of
rounds is the same whatever the run length.  Every round holds the same
job kinds in the same numbers with freshly drawn parameters; a run is a
whole number of rounds, which keeps the job mix, and with it the
throughput and the percentiles, comparable between runs.

A job is one user-level query: one public-API call (a point criterion
with its Joule or cell-radius form counts as one query), or one CLI
invocation.  ``run`` takes no arguments and returns the result that
``check`` inspects; ``check`` runs outside the timed region and raises
:class:`CheckFailed` on a wrong output.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mchan import criteria, extremum, interference, mac, msequence
from mchan.channel import ChannelPoint, ExactCoherentOrthogonal

ROOT = Path(__file__).resolve().parent.parent
# Scratch space for CLI rerun configs, inside the checkout; run.py removes it.
WORKDIR = ROOT / ".bench_tmp"
LN2 = math.log(2.0)
M_SET = (2, 4, 8, 16, 32, 64)


class CheckFailed(Exception):
    """A job's output is wrong.

    ``defect`` names a known, documented defect class (see README.md);
    None marks an unexpected failure, which makes the run incorrect.
    """

    def __init__(self, message: str, defect: str | None = None):
        super().__init__(message)
        self.defect = defect


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # Exception types that are an expected outcome of this job, mapped to
    # the known-defect class they signal.
    expected_errors: dict = field(default_factory=dict)


def _require(cond: bool, message: str, defect: str | None = None) -> None:
    if not cond:
        raise CheckFailed(message, defect)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# analytic brackets for the h-kernel (stdlib only, independent of mchan)


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _capacity(m: int, p: float) -> float:
    p_max = (m - 1) / m
    if p <= 0.0:
        return math.log2(m)
    if p >= p_max:
        return 0.0
    return max(0.0, math.log2(m) + (1.0 - p) * math.log1p(-p) / LN2
               + p * (math.log2(p) - math.log2(m - 1)))


def capacity_bracket(m: int, h: float) -> tuple[float, float]:
    """Bounds on C_m(p(m, h)) from Q(h) <= p <= min((m-1) Q(h), (m-1)/m).

    The lower error bound is the binary error rate (more signals can only
    add errors), the upper one the union bound; C_m falls with p.
    """
    q = _q(h)
    return _capacity(m, min((m - 1) * q, (m - 1) / m)), _capacity(m, q)


def _check_capacity(m: int, h: float, c: float) -> None:
    # 1e-7 bits is what an SER error of ~1e-9 does to C_m.  The adaptive
    # quadrature misses that now and then (m = 2, h = 4.23 is off by
    # 2.7e-8), which is the SER accuracy defect.
    lo, hi = capacity_bracket(m, h)
    tol = 1e-7 * math.log2(m)
    _require(lo - tol <= c <= hi + tol,
             f"C_m={c!r} outside analytic bracket [{lo!r}, {hi!r}] at m={m}, h={h!r}",
             defect="ser_accuracy")


# ---------------------------------------------------------------------------
# design: the h-kernel workload


def _check_search(spec, r) -> None:
    """Shared checks of an ExtremumResult against its spec."""
    _require(math.isfinite(r.value) and math.isfinite(r.h), f"non-finite result {r!r}")
    _require(_close(r.h, r.g * math.sqrt(r.b_s / 2.0), 1e-9), "h != g*sqrt(B_s/2)")
    if spec.m_fixed is not None:
        _require(r.m == spec.m_fixed, f"m={r.m} but m_fixed={spec.m_fixed}")
    else:
        _require(r.m in spec.m_set, f"m={r.m} not in m_set")
    if spec.g_fixed is not None:
        _require(r.g == spec.g_fixed, "g moved off g_fixed")
    else:
        g = spec.g_range
        _require(g.lo * (1 - 1e-12) <= r.g <= g.hi * (1 + 1e-12), "g out of range")
    b = spec.b_s_range
    _require(b.lo * (1 - 1e-12) <= r.b_s <= b.hi * (1 + 1e-12), "B_s out of range")
    _require(r.w >= LN2, f"ICPE {r.w!r} below the Shannon limit ln 2")
    for name, slack in r.constraint_slack.items():
        _require(slack >= 0.0, f"constraint {name} reported with slack {slack!r}",
                 defect="negative_slack")


def _design_point(rng) -> Job:
    m = int(rng.integers(2, 65))
    g = _loguniform(rng, 1e-2, 10.0)
    b_s = _loguniform(rng, 0.1, 1e3)
    point = ChannelPoint(m=m, g=g, b_s=b_s)
    model = ExactCoherentOrthogonal()
    h = point.h
    form = ("icse", "icpe", "icpe_joule", "icpe_radius")[int(rng.integers(4))]

    if form == "icse":
        def check(c_f):
            _check_capacity(m, h, c_f * b_s / 2.0)
        return Job("point_icse", lambda: criteria.icse(point, model), check)

    def check_w(w):
        _require(w > 0.0 and math.isfinite(w), f"ICPE {w!r}")
        _check_capacity(m, h, h * h / w)

    if form == "icpe":
        return Job("point_icpe", lambda: criteria.icpe(point, model), check_w)

    if form == "icpe_joule":
        noise = criteria.NoiseSpec(n0_noise=_loguniform(rng, 1e-21, 1e-15),
                                   n0_interference=_loguniform(rng, 1e-22, 1e-16))

        def run():
            w = criteria.icpe(point, model)
            return w, criteria.icpe_joule_forms(w, noise, b_s)

        def check(out):
            w, (w_jc, w_jb) = out
            check_w(w)
            _require(_close(w_jc, w * noise.n0_total * b_s / 2.0, 1e-12), "w_Jc")
            _require(_close(w_jb, w_jc * b_s / 2.0, 1e-12), "w_Jb")
        return Job("point_joule", run, check)

    # Cell-radius form: a budget that covers g with a seed-drawn margin.
    tx, gain, loss = (_loguniform(rng, 0.1, 50.0), _loguniform(rng, 1.0, 100.0),
                      _loguniform(rng, 1e3, 1e6))
    budget = criteria.LinkBudget(
        tx_power_w=tx, system_gain=gain, ref_loss=loss,
        ref_distance_m=_loguniform(rng, 1.0, 100.0),
        path_loss_exponent=float(rng.uniform(2.0, 4.5)),
        noise_interference_w=tx * gain / (loss * g * g * _loguniform(rng, 2.0, 1e6)))

    def run():
        radius = criteria.cell_radius(budget, g)
        w = criteria.icpe(point, model)
        return w, radius, criteria.icce(w, radius)

    def check(out):
        w, radius, icce = out
        check_w(w)
        d = radius / budget.ref_distance_m
        received = budget.tx_power_w * budget.system_gain / (
            budget.ref_loss * d ** budget.path_loss_exponent)
        _require(_close(received / budget.noise_interference_w, g * g, 1e-9),
                 "cell radius does not meet g**2")
        _require(_close(icce, w / (math.pi * (radius / 1e3) ** 2), 1e-12), "ICCE")
    return Job("point_radius", run, check)


def _design_sweep(rng) -> Job:
    m_values = sorted({int(x) for x in rng.choice(M_SET, size=int(rng.integers(1, 3)))})
    g_values = sorted(_loguniform(rng, 0.05, 5.0) for _ in range(int(rng.integers(1, 3))))
    lo = _loguniform(rng, 0.1, 5.0)
    grid = extremum.GridRange(lo, lo * _loguniform(rng, 10.0, 200.0), int(rng.integers(8, 17)))

    def check(points):
        _require(len(points) == len(m_values) * len(g_values) * grid.points, "point count")
        for p in points:
            c = p.c_f * p.b_s / 2.0
            _check_capacity(p.m, p.h, c)
            if c > 0.0:
                _require(_close(p.c_f * p.w, p.g * p.g, 1e-9), "c_F * w != g**2")
    return Job("sweep", lambda: extremum.sweep_curves(m_values, g_values, grid), check)


def _design_min(rng, variant: str) -> Job:
    kw = {}
    if variant == "fixed_m":
        kw["m_fixed"] = int(rng.choice(M_SET))
    elif variant == "fixed_g":
        kw["g_fixed"] = _loguniform(rng, 0.05, 5.0)
        kw["m_set"] = tuple(int(x) for x in sorted(rng.choice(M_SET, size=2, replace=False)))
    elif variant in ("cf_min", "w_cap"):
        # Constraints known to be feasible at one window point h in [3, 6],
        # where the union bound is informative for every m <= 64.
        m = kw["m_fixed"] = int(rng.choice(M_SET[1:]))
        h = _loguniform(rng, 3.0, 6.0)
        c_lo, _ = capacity_bracket(m, h)
        if variant == "cf_min":
            ranges = extremum.ExtremumSpec()
            b_lo = max(ranges.b_s_range.lo, 2.0 * (h / ranges.g_range.hi) ** 2)
            kw["c_f_min"] = 2.0 * c_lo / b_lo * float(rng.uniform(0.3, 0.95))
        else:
            kw["w_cap"] = h * h / c_lo * float(rng.uniform(1.01, 2.0))
    spec = extremum.ExtremumSpec(**kw)
    g, b = spec.g_range, spec.b_s_range
    h_mid = math.sqrt(g.lo * g.hi * math.sqrt(b.lo * b.hi) / 2.0)  # window centre

    def check(r):
        _check_search(spec, r)
        _require(_close(r.value, r.w, 1e-12), "value != w")
        if spec.g_fixed is None and spec.c_f_min is None and spec.w_cap is None:
            for m in spec.m_values:
                c_lo, _ = capacity_bracket(m, h_mid)
                if c_lo > 0.0:
                    _require(r.value <= h_mid ** 2 / c_lo * (1 + 1e-9),
                             "minimum above a known window value")
    return Job(f"min_{variant}", lambda: extremum.minimize_icpe(spec), check)


def _design_band(rng, m: int, decade: int) -> Job:
    # Log-uniform over [1e-6, 1e-1], one draw per decade in each round.
    eps = 10.0 ** (-6 + decade + float(rng.random()))
    spec = extremum.ExtremumSpec(m_fixed=m, icpe_band_eps=eps)

    def check(r):
        _check_search(spec, r)
        _require(_close(r.value, r.c_f, 1e-12), "value != c_F")
        _require("w_cap" in r.constraint_slack, "band cap not reported")
    # The ICPE minimiser h* lies in the band by construction, so
    # "infeasible" is always wrong here.
    return Job("band", lambda: extremum.maximize_icse(spec), check,
               expected_errors={extremum.InfeasibleSearchError: "band_infeasible"})


def _design_grid2d(rng) -> list[Job]:
    m = int(rng.choice(M_SET[1:]))
    spec = extremum.ExtremumSpec(
        m_fixed=m, g_range=extremum.GridRange(1e-2, 10.0, int(rng.integers(10, 17))),
        b_s_range=extremum.GridRange(0.1, 1e3, int(rng.integers(10, 17))))
    reduced = {}

    def check_reduced(r):
        _check_search(spec, r)
        reduced["r"] = r

    def check(r):
        _check_search(spec, r)
        ref = reduced.get("r")
        _require(ref is not None, "no reduced result to compare with")
        _require(_close(r.w, ref.w, 1e-6), f"grid2d w={r.w!r} vs reduced {ref.w!r}")
        _require(_close(r.h, ref.h, 1e-3), f"grid2d h={r.h!r} vs reduced {ref.h!r}")
    return [Job("min_grid2d_ref", lambda: extremum.minimize_icpe(spec), check_reduced),
            Job("min_grid2d", lambda: extremum.minimize_icpe(spec, method="grid2d"), check)]


def _design_statement3(rng) -> Job:
    m = int(rng.choice(M_SET))
    g_values = sorted(_loguniform(rng, 0.1, 10.0) for _ in range(3))
    return Job("statement3", lambda: extremum.verify_statement3(m, g_values),
               lambda rep: _require(rep.passed, f"statement 3 failed at m={m}"))


def _design_statement1(rng) -> Job:
    m = int(rng.choice(M_SET[:4]))
    lo = _loguniform(rng, 0.1, 1.0)
    b_grid = extremum.GridRange(lo, lo * _loguniform(rng, 10.0, 100.0), 4)
    g_range = extremum.GridRange(1e-4, 10.0, 16)
    return Job("statement1",
               lambda: extremum.verify_statement1(m, g_range=g_range, b_s_grid=b_grid),
               lambda rep: _require(rep.passed, f"statement 1 failed at m={m}"))


def design_round(rng) -> list[Job]:
    # Point queries are most of the jobs, so the median job is one; the
    # searches and verifiers make the tail.  Band searches stay a small
    # share, so their known failures sit above the p90 without reaching it.
    jobs = [_design_point(rng) for _ in range(60)]
    jobs += [_design_sweep(rng) for _ in range(2)]
    for variant in ("full", "fixed_m", "fixed_m", "fixed_g", "cf_min", "w_cap"):
        jobs.append(_design_min(rng, variant))
    # Five band searches, one per eps decade, with five distinct m: every
    # round holds the same share of the small-eps range, so the number of
    # known-defect jobs, which rank above every passing job, barely moves
    # between rounds and seeds.
    jobs += [_design_band(rng, int(m), decade)
             for decade, m in enumerate(rng.choice(M_SET, size=5, replace=False))]
    jobs.append(_design_statement3(rng))
    jobs.append(_design_statement1(rng))
    order = rng.permutation(len(jobs))
    # The grid2d cross-check runs right after its reduced reference.
    return [jobs[i] for i in order] + _design_grid2d(rng)


# ---------------------------------------------------------------------------
# interference: the Monte Carlo workload


def _errors(rng) -> interference.SyncErrorModel:
    return interference.SyncErrorModel(timing_std_chips=float(rng.uniform(0.0, 0.5)),
                                       phase_std_rad=float(rng.uniform(0.0, 1.0)))


def _check_estimate(est) -> None:
    _require(math.isfinite(est.power) and est.power >= 0.0, f"power {est.power!r}")
    _require(math.isfinite(est.std_error) and est.std_error >= 0.0,
             f"std_error {est.std_error!r}")


def _walsh_cells(degree: int, rows: int, cells: int, weight: float):
    seqs = msequence.distinct_msequences(degree, 1 + cells)
    ref = interference.SignalEnsemble.walsh(seqs[0], rows=rows, cell_id=0)
    others = tuple(interference.InterferingCell(
        ensemble=interference.SignalEnsemble.walsh(s, rows=rows, cell_id=i + 1), weight=weight)
        for i, s in enumerate(seqs[1:]))
    return ref, (interference.CellLayout(reference=ref, interferers=others) if cells else None)


# Sizes (rows, grid, trials x signals) are fixed per job kind and the seed
# draws everything else, so jobs of one kind cost about the same and the
# percentiles do not move with the draws.


def _surface(rng, cells: int) -> Job:
    degree = int(rng.integers(6, 9))
    rows = 8
    weight = float(rng.uniform(0.2, 1.0))
    et = np.linspace(0.0, float(rng.uniform(0.1, 0.5)), 3)
    ep = np.linspace(0.0, float(rng.uniform(0.2, 1.0)), 3)
    trials = 200
    seed = int(rng.integers(2**31))
    noise_db = float(rng.uniform(-120.0, -60.0))

    def run():
        ens, layout = _walsh_cells(degree, rows, cells, weight)
        return interference.sinr_surface(et, ep, ensemble=ens, layout=layout,
                                         noise_power_db=noise_db, trials=trials, seed=seed)

    def check(s):
        _require(len(s.points) == et.size * ep.size, "surface point count")
        ceiling = -noise_db
        for p in s.points:
            _require(math.isfinite(p.sinr_db) and p.sinr_db <= ceiling + 1e-9,
                     f"SINR {p.sinr_db!r} above the noise-only {ceiling!r}")
        if cells == 0:
            # Walsh rows are exactly orthogonal at zero error.
            _require(s.points[0].sinr_db == -10.0 * math.log10(10.0 ** (noise_db / 10.0)),
                     "zero-error corner is not noise-limited")
    return Job(f"surface_{cells}", run, check)


def _intra(rng, zero: bool) -> Job:
    degree = int(rng.integers(6, 9))
    rows = 8
    errors = interference.SyncErrorModel() if zero else _errors(rng)
    trials = 1200
    seed = int(rng.integers(2**31))

    def run():
        ens = interference.SignalEnsemble.walsh(msequence.generate_msequence(degree), rows=rows)
        return interference.intra_cell_interference(ens, errors, trials, seed)

    def check(est):
        _check_estimate(est)
        if zero:
            _require(est.power == 0.0 and est.std_error == 0.0,
                     f"Walsh cell at zero error gave {est.power!r}")
    return Job("intra_zero" if zero else "intra", run, check)


def _inter(rng) -> Job:
    degree = int(rng.integers(6, 9))
    rows = 4
    cells = int(rng.integers(1, 3))
    weight = float(rng.uniform(0.2, 1.0))
    errors = _errors(rng)
    trials = 2400 // cells
    seed = int(rng.integers(2**31))

    def run():
        _, layout = _walsh_cells(degree, rows, cells, weight)
        return interference.inter_cell_interference(layout, errors, trials, seed)
    return Job("inter", run, _check_estimate)


def _nsweep(rng) -> Job:
    degrees = sorted(int(d) for d in rng.choice(np.arange(8, 17), size=3, replace=False))
    trials = 200
    seed = int(rng.integers(2**31))

    def check(rows):
        _require([r[0] for r in rows] == degrees, "sweep degrees")
        for _, power, se in rows:
            _require(math.isfinite(power) and power >= 0.0 and se >= 0.0, "sweep row")
    return Job("nsweep",
               lambda: interference.degree_interference_sweep(degrees, trials=trials, seed=seed),
               check)


def interference_round(rng) -> list[Job]:
    jobs = [_surface(rng, cells) for cells in (0, 1, 2)]
    jobs += [_intra(rng, zero=False) for _ in range(3)] + [_intra(rng, zero=True)]
    jobs += [_inter(rng) for _ in range(4)]
    jobs.append(_nsweep(rng))
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# mac: the simulator and allocator workload


def _simulate(rng, discipline: str) -> Job:
    model = mac.MacModel(discipline=discipline, mean_packet_bits=_loguniform(rng, 100.0, 1e4))
    # Three loads, one or two of them unstable (G >= 1), and a fixed packet
    # count, so every simulator job does the same amount of work.
    n_stable = int(rng.integers(1, 3))
    loads = sorted(float(x) for x in rng.uniform(0.1, 0.8, size=n_stable)) + sorted(
        float(x) for x in rng.uniform(1.0, 1.6, size=3 - n_stable))
    config = mac.SimConfig(loads=tuple(loads), warmup_packets=1000, measure_packets=10_000,
                           batches=10, seed=int(rng.integers(2**31)))

    def check(res):
        _require(len(res.points) == len(config.loads), "load count")
        for p in res.points:
            total = p.useful_time + p.overhead_time + p.idle_time
            _require(abs(total - p.window) <= 1e-9 * p.window,
                     f"time partition {total!r} != window {p.window!r}")
            _require(p.unstable == (p.load >= 1.0), "unstable flag")
            expected = p.load / (1.0 + res.overhead)
            half = max(p.ci_high - p.throughput, p.throughput - p.ci_low, 0.0)
            if not p.unstable:
                _require(abs(p.throughput - expected) <= 5.0 * half + 1e-3 * expected,
                         f"throughput {p.throughput!r} vs offered {expected!r} at G={p.load}")
            else:
                _require(p.throughput <= res.saturation_throughput * (1 + 1e-3) + 5.0 * half,
                         "throughput above saturation")
    return Job(f"simulate_{discipline}", lambda: mac.simulate_tdma(model, config), check)


def _allocate(rng, n: int) -> Job:
    pool = (1 << n) - 1
    stations = int(rng.integers(2, 49))
    ids = sorted(int(x) for x in rng.choice(1000, size=stations, replace=False))
    # Every quota share / total * pool is kept >= 1: below that the
    # one-identifier minimum can oversubscribe the pool, which the
    # allocator rejects by design.
    x = rng.lognormal(0.0, 1.5, size=stations)
    x += x.sum() / (pool - stations)
    shares = {s: float(v) for s, v in zip(ids, x)}

    def check(alloc):
        _require(alloc.pool == pool and len(alloc.stations) == stations, "pool / stations")
        seen = np.zeros(pool + 1, dtype=np.int8)
        for st in alloc.stations:
            _require(st.count >= 1 and len(st.identifiers) == st.count,
                     f"station {st.station} got {st.count} identifiers")
            # In slices, so the check adds little to the job's peak memory.
            for i in range(0, st.count, 1 << 16):
                idents = np.fromiter(st.identifiers[i:i + (1 << 16)], dtype=np.int64)
                _require(idents.min() >= 1 and idents.max() <= pool, "identifier out of range")
                np.add.at(seen, idents, 1)
        _require(seen[0] == 0 and bool(np.all(seen[1:] == 1)),
                 "identifier sets are not a partition of 1 .. 2**n - 1")
    return Job("allocate", lambda: mac.allocate_identifiers(shares, n), check)


def mac_round(rng) -> list[Job]:
    # n stops at 20, where m-sequence generation already dominates the
    # allocator: one call at n = 21 or 22 takes 2-4 s, long enough for the
    # host's speed to change inside it, which no probe around it can see.
    jobs = [_allocate(rng, n) for n in range(8, 21)]
    jobs += [_simulate(rng, d) for d in ("mm1", "md1") for _ in range(10)]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# cli: every README command as a subprocess, each rerun from its header

CLI_COMMANDS = ("criteria_point", "criteria_sweep", "optimize_min_icpe", "optimize_band",
                "verify_statement1", "verify_statement3", "interference_surface",
                "interference_nsweep", "mac_limits", "mac_simulate", "mac_allocate")


def _csv(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def cli_argv(rng, command: str) -> list[str]:
    """Seed-drawn arguments for one README command.

    As on the in-process workloads, sizes (grid points, trials, packets) are
    fixed per command and the seed draws the rest, so a command costs about
    the same in every round and the percentiles do not move with the draws.
    """
    m = str(int(rng.choice(M_SET)))
    if command == "criteria_point":
        argv = ["criteria", "--m", m, "--g", repr(_loguniform(rng, 0.1, 5.0)),
                "--bs", repr(_loguniform(rng, 0.5, 50.0))]
        if rng.random() < 0.5:
            argv += ["--n0n", repr(_loguniform(rng, 1e-21, 1e-15))]
        return argv
    if command == "criteria_sweep":
        lo = _loguniform(rng, 0.1, 2.0)
        return ["criteria", "--m", m, "--g", repr(_loguniform(rng, 0.1, 5.0)),
                "--sweep-bs", f"{lo!r}:{lo * 100.0!r}:12"]
    if command == "optimize_min_icpe":
        return ["optimize", "--m", m]
    if command == "optimize_band":
        # README magnitude; the small-eps defect is measured on `design`.
        return ["optimize", "--objective", "max-icse", "--m", m,
                "--band-eps", repr(_loguniform(rng, 1e-2, 1e-1))]
    if command == "verify_statement1":
        return ["optimize", "--verify", "statement1", "--m", str(int(rng.choice(M_SET[:4]))),
                "--g-range", "0.0001:10.0:16", "--bs-range", "0.1:100.0:4"]
    if command == "verify_statement3":
        g = sorted(_loguniform(rng, 0.1, 10.0) for _ in range(3))
        return ["optimize", "--verify", "statement3", "--m", m, "--g-list", _csv(g)]
    if command == "interference_surface":
        argv = ["interference", "--mode", "surface", "--degree", str(int(rng.integers(6, 9))),
                "--rows", "8", "--grid", "3x3", "--trials", "200",
                "--seed", str(int(rng.integers(2**31)))]
        cells = int(rng.integers(0, 3))
        return argv + (["--inter-cells", str(cells)] if cells else [])
    if command == "interference_nsweep":
        degrees = sorted(int(d) for d in rng.choice(np.arange(8, 17), size=3, replace=False))
        return ["interference", "--mode", "nsweep", "--n-list", _csv(degrees),
                "--trials", "500", "--seed", str(int(rng.integers(2**31)))]
    discipline = ("mm1", "md1")[int(rng.integers(2))]
    length = repr(_loguniform(rng, 100.0, 1e4))
    if command == "mac_limits":
        return ["mac", "limits", "--discipline", discipline, "--length-bits", length]
    if command == "mac_simulate":
        loads = sorted(float(round(x, 3)) for x in rng.uniform(0.1, 1.6, size=3))
        return ["mac", "simulate", "--discipline", discipline, "--length-bits", length,
                "--loads", _csv(loads), "--packets", "20000",
                "--warmup", "1000", "--seed", str(int(rng.integers(2**31)))]
    n = int(rng.integers(4, 13))
    k = int(rng.integers(2, 9))
    shares = rng.lognormal(0.0, 1.0, size=k)
    # Every quota kept >= 1 identifier, as in `_allocate`: below that the
    # allocator rejects the shares by design.
    shares += shares.sum() / ((1 << n) - 1 - k)
    return ["mac", "allocate", "--n", str(n),
            "--shares", ",".join(f"{i + 1}:{float(s)!r}" for i, s in enumerate(shares))]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    env.pop("MCHAN_SEED", None)
    return env


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mchan", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=120)


# Light commands run this many extra times per round, so that most
# invocations are the interpreter-start-and-import kind: the median then
# sits inside that group rather than on its edge, and the tail has enough
# heavier invocations beyond it.
CLI_LIGHT_REPEATS = {"criteria_point": 4, "mac_limits": 4}


class CliRound:
    """Each README command (light ones repeated), then its rerun from the
    `# param` header; a command's rerun directly follows it."""

    def __init__(self, rng):
        self.outputs: dict[str, bytes] = {}
        self.jobs: list[Job] = []
        commands = list(CLI_COMMANDS) + [c for c, k in CLI_LIGHT_REPEATS.items() for _ in range(k)]
        for command in [commands[i] for i in rng.permutation(len(commands))]:
            argv = cli_argv(rng, command)
            self.jobs.append(Job(f"cli_{command}", self._first(command, argv),
                                 self._check_first(command)))
            self.jobs.append(Job(f"cli_{command}_rerun", self._rerun(command, argv),
                                 self._check_rerun(command)))

    def _first(self, command, argv):
        return lambda: run_cli(argv)

    def _check_first(self, command):
        def check(proc):
            _require(proc.returncode == 0,
                     f"{command} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
            _require(proc.stdout.startswith(b"# mchan "), f"{command}: no header")
            self.outputs[command] = proc.stdout
        return check

    def _rerun(self, command, argv):
        tokens = argv[:2] if argv[0] == "mac" else argv[:1]

        def run():
            params = [line[len("# param "):] for line in
                      self.outputs.get(command, b"").decode().splitlines()
                      if line.startswith("# param ")]
            cfg = WORKDIR / f"{command}.cfg"
            cfg.write_text("\n".join(params) + "\n", encoding="utf-8")
            return run_cli([*tokens, "--config", str(cfg)])
        return run

    def _check_rerun(self, command):
        def check(proc):
            _require(proc.returncode == 0, f"{command} rerun exited {proc.returncode}")
            _require(proc.stdout == self.outputs.get(command),
                     f"{command}: rerun from header is not byte-identical")
        return check


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable
    trace_rounds: int
    tail_pct: float  # fixed per workload so runs of different speed stay comparable


WORKLOADS = {
    "design": Workload("design", design_round, 2, 90.0),
    "interference": Workload("interference", interference_round, 8, 95.0),
    "mac": Workload("mac", mac_round, 1, 90.0),
    "cli": Workload("cli", lambda rng: CliRound(rng).jobs, 1, 70.0),
}
