"""Command-line front end.

Subcommands: ``criteria``, ``optimize``, ``interference``, ``mac limits``,
``mac simulate``, ``mac allocate``.  Output is CSV or JSON with an
embedded header carrying the tool version, the command, and every
resolved parameter (``# param key=value`` lines) plus derived summary
values (``# result key=value`` lines).  Headers carry no timestamps, and
floats are written with repr, so rerunning a command from its own header
parameters reproduces the output byte for byte:

    mchan interference --mode surface ... --out surface.csv
    grep '^# param' surface.csv | sed 's/^# param //' > rerun.cfg
    mchan interference --config rerun.cfg --out again.csv
    cmp surface.csv again.csv

Exit codes: 0 success, 2 usage/validation error, 3 infeasible search
(with a nearest-feasible certificate on stderr), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from mchan import __version__
from mchan.channel import (
    ChannelDomainError,
    ChannelPoint,
    ExactCoherentOrthogonal,
    QuadratureError,
    UnionBound,
    ser,
)
from mchan.criteria import (
    LinkBudget,
    NoiseSpec,
    UndefinedCriterionError,
    cell_radius,
    icce,
    icpe,
    icpe_joule_forms,
    icse,
)
from mchan.extremum import (
    ExtremumSpec,
    GridRange,
    InfeasibleSearchError,
    maximize_icse,
    minimize_icpe,
    sweep_curves,
    verify_statement1,
    verify_statement3,
)
from mchan.interference import (
    CellLayout,
    InterferingCell,
    SignalEnsemble,
    degree_interference_sweep,
    sinr_surface,
)
from mchan.mac import (
    MacModel,
    OverSubscriptionError,
    SimConfig,
    allocate_identifiers,
    limits_for,
    simulate_tdma,
)
from mchan.msequence import distinct_msequences, generate_msequence

__all__ = ["main"]


class UsageError(ValueError):
    """Bad command-line input not caught by argparse itself."""


# ---------------------------------------------------------------------------
# option value parsers (each has a matching echo format)


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _ints_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _range_spec(text: str) -> GridRange:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:points, got {text!r}")
    try:
        return GridRange(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _float_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _grid_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RxC (e.g. 20x20), got {text!r}")
    r, c = int(parts[0]), int(parts[1])
    if r < 1 or c < 1:
        raise argparse.ArgumentTypeError("grid sides must be >= 1")
    return r, c


def _shares_spec(text: str) -> tuple[tuple[int, float], ...]:
    out = []
    for i, token in enumerate(text.split(",")):
        if ":" in token:
            sid, _, val = token.partition(":")
            out.append((int(sid), float(val)))
        else:
            out.append((i, float(token)))
    return tuple(out)


def _fmt(v) -> str:
    """Round-trippable text for a parameter value."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, GridRange):
        return f"{v.lo!r}:{v.hi!r}:{v.points}"
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _fmt_pair(v: tuple[float, float]) -> str:
    return f"{v[0]!r}:{v[1]!r}"


def _fmt_shape(v: tuple[int, int]) -> str:
    return f"{v[0]}x{v[1]}"


def _fmt_shares(v: tuple[tuple[int, float], ...]) -> str:
    return ",".join(f"{s}:{share!r}" for s, share in v)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _native(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    return str(v)


# ---------------------------------------------------------------------------
# parser construction


def _default_seed() -> int:
    return int(os.environ.get("MCHAN_SEED", "0"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="root seed (default $MCHAN_SEED or 0); echoed in the header")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults; explicit flags override")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="mchan",
        description="Invariant efficiency criteria for m-ary orthogonal channels",
    )
    parser.add_argument("--version", action="version", version=f"mchan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    pc = sub.add_parser("criteria", help="criterion values at a point or over base sweeps")
    pc.add_argument("--m", type=int, default=None, help="ensemble size")
    pc.add_argument("--g", type=float, default=None, help="SINR amplitude")
    pc.add_argument("--bs", dest="b_s", type=float, default=None, help="signal base 2*dF*T")
    pc.add_argument("--ser", choices=("exact", "union"), default="exact")
    pc.add_argument("--n0n", type=float, default=None, help="noise density W/Hz (enables Joule forms)")
    pc.add_argument("--n0i", type=float, default=0.0, help="interference density W/Hz")
    pc.add_argument("--sweep-bs", type=_range_spec, default=None,
                    help="lo:hi:points base grid; emits curve families")
    pc.add_argument("--m-list", type=_ints_csv, default=None, help="sweep ensemble sizes")
    pc.add_argument("--g-list", type=_floats_csv, default=None, help="sweep amplitudes")
    pc.add_argument("--tx-power", type=float, default=None, help="link budget: transmit power W")
    pc.add_argument("--sys-gain", type=float, default=None, help="link budget: system gain")
    pc.add_argument("--ref-loss", type=float, default=None, help="link budget: loss at d0")
    pc.add_argument("--ref-dist", type=float, default=None, help="link budget: d0 in metres")
    pc.add_argument("--loss-exp", type=float, default=None, help="link budget: path loss exponent")
    pc.add_argument("--rx-npi", type=float, default=None, help="link budget: P_i + P_n at receiver, W")
    _add_common(pc)
    registry["criteria"] = pc

    po = sub.add_parser("optimize", help="constrained extremum searches and statement verifiers")
    po.add_argument("--objective", choices=("min-icpe", "max-icse"), default="min-icpe")
    po.add_argument("--m", type=int, default=None, help="fix the ensemble size")
    po.add_argument("--m-set", type=_ints_csv, default=(2, 4, 8, 16, 32, 64))
    po.add_argument("--g", type=float, default=None, help="fix the amplitude")
    po.add_argument("--g-range", type=_range_spec, default=GridRange(1e-2, 1e1, 64))
    po.add_argument("--bs", dest="b_s", type=float, default=None, help="fix the base")
    po.add_argument("--bs-range", type=_range_spec, default=GridRange(1e-1, 1e3, 64))
    po.add_argument("--cf-min", type=float, default=None, help="ICSE floor constraint")
    po.add_argument("--w-cap", type=float, default=None, help="ICPE ceiling constraint")
    po.add_argument("--band-eps", type=float, default=None,
                    help="restrict max-icse to w <= w_inf*(1+eps)")
    po.add_argument("--tol", type=float, default=1e-6, help="relative refinement tolerance")
    po.add_argument("--method", choices=("reduced", "grid2d"), default="reduced")
    po.add_argument("--verify", choices=("statement1", "statement3"), default=None)
    po.add_argument("--g-list", type=_floats_csv, default=(0.5, 1.0, 2.0),
                    help="amplitudes for --verify statement3")
    po.add_argument("--h-window", type=_float_pair, default=(1e-2, 50.0),
                    help="lo:hi search window for --verify statement3")
    _add_common(po)
    registry["optimize"] = po

    pi = sub.add_parser("interference", help="orthogonality-error interference estimates")
    pi.add_argument("--mode", choices=("surface", "nsweep"), default="surface")
    pi.add_argument("--degree", type=int, default=6, help="m-sequence register length")
    pi.add_argument("--rows", type=int, default=8, help="Walsh rows per cell (surface mode)")
    pi.add_argument("--et-max", type=float, default=0.5, help="max timing-error std, chips")
    pi.add_argument("--ephi-max", type=float, default=1.0, help="max phase-error std, rad")
    pi.add_argument("--grid", type=_grid_shape, default=(10, 10), help="surface grid RxC")
    pi.add_argument("--noise-db", type=float, default=-113.101,
                    help="noise power in dB relative to unit signal power")
    pi.add_argument("--trials", type=int, default=1000)
    pi.add_argument("--inter-cells", type=int, default=0,
                    help="number of interfering cells (surface mode)")
    pi.add_argument("--inter-weight", type=float, default=0.5,
                    help="amplitude weight of each interfering cell")
    pi.add_argument("--n-list", type=_ints_csv, default=(8, 10, 12, 14, 16),
                    help="register lengths for nsweep mode")
    pi.add_argument("--signals", type=int, default=4, help="signals per cell (nsweep mode)")
    _add_common(pi)
    registry["interference"] = pi

    pm = sub.add_parser("mac", help="distributed-MAC limits, simulation, identifiers")
    msub = pm.add_subparsers(dest="mac_command", required=True)

    pml = msub.add_parser("limits", help="overhead infimum and throughput supremum")
    pml.add_argument("--discipline", choices=("mm1", "md1"), required=True)
    pml.add_argument("--length-bits", type=float, required=True, help="mean packet length L")
    pml.add_argument("--bit-rate", type=float, default=1.0)
    pml.add_argument("--geom-p", type=float, default=None,
                     help="geometric length parameter (mm1; default 1/L)")
    _add_common(pml)
    registry["mac limits"] = pml

    pms = msub.add_parser("simulate", help="TDMA discrete-event cross-check")
    pms.add_argument("--discipline", choices=("mm1", "md1"), required=True)
    pms.add_argument("--length-bits", type=float, required=True)
    pms.add_argument("--bit-rate", type=float, default=1.0)
    pms.add_argument("--geom-p", type=float, default=None)
    pms.add_argument("--overhead", type=float, default=None,
                     help="per-packet overhead fraction v (default: the v_inf limit)")
    pms.add_argument("--loads", type=_floats_csv, default=(0.2, 0.5, 0.8, 1.2, 1.5))
    pms.add_argument("--packets", type=int, default=200_000, help="measured packets per load")
    pms.add_argument("--warmup", type=int, default=10_000)
    pms.add_argument("--batches", type=int, default=20)
    pms.add_argument("--confidence", type=float, default=0.95)
    pms.add_argument("--corruption", type=float, default=0.0,
                     help="exploratory per-attempt corruption probability")
    _add_common(pms)
    registry["mac simulate"] = pms

    pma = msub.add_parser("allocate", help="proportional m-sequence window identifiers")
    pma.add_argument("--n", type=int, required=True, help="identifier register length")
    pma.add_argument("--shares", type=_shares_spec, required=True,
                     help="station:share pairs (or bare shares for stations 0..k)")
    _add_common(pma)
    registry["mac allocate"] = pma

    return parser, registry


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (params, results, columns, rows)


def _cmd_criteria(args):
    params = {"ser": args.ser, "seed": _fmt(args.seed), "format": args.format}
    model = ExactCoherentOrthogonal() if args.ser == "exact" else UnionBound()

    if args.sweep_bs is not None:
        m_list = args.m_list if args.m_list else ((args.m,) if args.m else None)
        g_list = args.g_list if args.g_list else ((args.g,) if args.g else None)
        if not m_list or not g_list:
            raise UsageError("sweep mode needs --m-list/--m and --g-list/--g")
        params.update({"sweep_bs": _fmt(args.sweep_bs), "m_list": _fmt(tuple(m_list)),
                       "g_list": _fmt(tuple(g_list))})
        points = sweep_curves(m_list, g_list, args.sweep_bs, model)
        rows = [(p.m, p.g, p.b_s, p.h, p.c_f, p.w) for p in points]
        return params, {}, ("m", "g", "b_s", "h", "c_f", "w"), rows

    if args.m is None or args.g is None or args.b_s is None:
        raise UsageError("point mode needs --m, --g and --bs (or use --sweep-bs)")
    params.update({"m": _fmt(args.m), "g": _fmt(args.g), "b_s": _fmt(args.b_s)})
    point = ChannelPoint(m=args.m, g=args.g, b_s=args.b_s)
    p_err = ser(point, model)
    c_f = icse(point, model)
    try:
        w = icpe(point, model)
    except UndefinedCriterionError:
        w = math.inf
    columns = ["m", "g", "b_s", "h", "p", "c_f", "w"]
    row = [args.m, args.g, args.b_s, point.h, p_err, c_f, w]

    if args.n0n is not None:
        params.update({"n0n": _fmt(args.n0n), "n0i": _fmt(args.n0i)})
        noise = NoiseSpec(n0_noise=args.n0n, n0_interference=args.n0i)
        w_jc, w_jb = icpe_joule_forms(w, noise, args.b_s)
        columns += ["w_jc", "w_jb"]
        row += [w_jc, w_jb]

    budget_flags = (args.tx_power, args.sys_gain, args.ref_loss, args.ref_dist,
                    args.loss_exp, args.rx_npi)
    if any(v is not None for v in budget_flags):
        if any(v is None for v in budget_flags):
            raise UsageError("link budget needs all of --tx-power --sys-gain --ref-loss "
                             "--ref-dist --loss-exp --rx-npi")
        params.update({"tx_power": _fmt(args.tx_power), "sys_gain": _fmt(args.sys_gain),
                       "ref_loss": _fmt(args.ref_loss), "ref_dist": _fmt(args.ref_dist),
                       "loss_exp": _fmt(args.loss_exp), "rx_npi": _fmt(args.rx_npi)})
        budget = LinkBudget(tx_power_w=args.tx_power, system_gain=args.sys_gain,
                            ref_loss=args.ref_loss, ref_distance_m=args.ref_dist,
                            path_loss_exponent=args.loss_exp,
                            noise_interference_w=args.rx_npi)
        radius = cell_radius(budget, args.g)
        columns += ["radius_m", "icce"]
        row += [radius, icce(w, radius)]

    return params, {}, tuple(columns), [tuple(row)]


def _cmd_optimize(args):
    model = ExactCoherentOrthogonal()
    params = {"tol": _fmt(args.tol), "seed": _fmt(args.seed), "format": args.format}

    if args.verify == "statement1":
        if args.m is None:
            raise UsageError("--verify statement1 needs --m")
        params.update({"verify": "statement1", "m": _fmt(args.m),
                       "g_range": _fmt(args.g_range), "bs_range": _fmt(args.bs_range)})
        report = verify_statement1(args.m, g_range=args.g_range, b_s_grid=args.bs_range,
                                   model=model, tol=args.tol)
        results = {"m": report.m, "w_low": _fmt(report.w_low), "w_high": _fmt(report.w_high),
                   "spread_rel": _fmt(report.spread_rel), "threshold": _fmt(report.threshold),
                   "passed": _fmt(report.passed)}
        rows = [(r.b_s, r.h_min, r.w_min, r.attained) for r in report.rows]
        return params, results, ("b_s", "h_min", "w_min", "attained"), rows

    if args.verify == "statement3":
        if args.m is None:
            raise UsageError("--verify statement3 needs --m")
        params.update({"verify": "statement3", "m": _fmt(args.m),
                       "g_list": _fmt(args.g_list), "h_window": _fmt_pair(args.h_window)})
        report = verify_statement3(args.m, args.g_list, model=model,
                                   h_window=args.h_window, tol=args.tol)
        results = {"m": report.m, "h_star": _fmt(report.h_star), "w_inf": _fmt(report.w_inf),
                   "attained": _fmt(report.attained),
                   "strictly_decreasing": _fmt(report.strictly_decreasing),
                   "product_spread_rel": _fmt(report.product_spread_rel),
                   "passed": _fmt(report.passed)}
        rows = [(r.g, r.b_s_star, r.invariant_product) for r in report.rows]
        return params, results, ("g", "b_s_star", "invariant_product"), rows

    objective = args.objective.replace("-", "_")
    params.update({"objective": args.objective, "method": args.method,
                   "m_set": _fmt(args.m_set), "g_range": _fmt(args.g_range),
                   "bs_range": _fmt(args.bs_range)})
    for name, val in (("m", args.m), ("g", args.g), ("bs", args.b_s),
                      ("cf_min", args.cf_min), ("w_cap", args.w_cap),
                      ("band_eps", args.band_eps)):
        if val is not None:
            params[name] = _fmt(val)
    spec = ExtremumSpec(
        objective=objective,
        ser_model=model,
        m_fixed=args.m,
        g_fixed=args.g,
        b_s_fixed=args.b_s,
        m_set=tuple(args.m_set),
        g_range=args.g_range,
        b_s_range=args.bs_range,
        c_f_min=args.cf_min,
        w_cap=args.w_cap,
        icpe_band_eps=args.band_eps,
        tol=args.tol,
    )
    solver = minimize_icpe if objective == "min_icpe" else maximize_icse
    result = solver(spec, method=args.method)
    results = {"evaluations": result.evaluations}
    if result.note:
        results["note"] = result.note
    for k, v in result.constraint_slack.items():
        results[f"slack_{k}"] = _fmt(v)
    for k, v in result.constraint_active.items():
        results[f"active_{k}"] = _fmt(v)
    columns = ("objective", "m", "g", "b_s", "h", "value", "c_f", "w", "attained")
    rows = [(result.objective, result.m, result.g, result.b_s, result.h,
             result.value, result.c_f, result.w, result.attained)]
    return params, results, columns, rows


def _cmd_interference(args):
    params = {"mode": args.mode, "trials": _fmt(args.trials), "seed": _fmt(args.seed),
              "format": args.format}

    if args.mode == "nsweep":
        params.update({"n_list": _fmt(args.n_list), "signals": _fmt(args.signals)})
        rows = degree_interference_sweep(args.n_list, trials=args.trials, seed=args.seed,
                                         signals_per_cell=args.signals)
        return params, {}, ("n", "power", "std_error"), rows

    params.update({"degree": _fmt(args.degree), "rows": _fmt(args.rows),
                   "et_max": _fmt(args.et_max), "ephi_max": _fmt(args.ephi_max),
                   "grid": _fmt_shape(args.grid), "noise_db": _fmt(args.noise_db),
                   "inter_cells": _fmt(args.inter_cells),
                   "inter_weight": _fmt(args.inter_weight)})
    n_cells = args.inter_cells
    if n_cells > 0:
        seqs = distinct_msequences(args.degree, 1 + n_cells)
    else:
        seqs = [generate_msequence(args.degree)]
    ensemble = SignalEnsemble.walsh(seqs[0], rows=args.rows, cell_id=0)
    layout = None
    if n_cells > 0:
        cells = tuple(
            InterferingCell(
                ensemble=SignalEnsemble.walsh(seqs[i + 1], rows=args.rows, cell_id=i + 1),
                weight=args.inter_weight,
            )
            for i in range(n_cells)
        )
        layout = CellLayout(reference=ensemble, interferers=cells)
    r, c = args.grid
    et_grid = np.linspace(0.0, args.et_max, r)
    ep_grid = np.linspace(0.0, args.ephi_max, c)
    surface = sinr_surface(et_grid, ep_grid, ensemble=ensemble, layout=layout,
                           noise_power_db=args.noise_db, trials=args.trials, seed=args.seed)
    corner = surface.points[0].sinr_db
    rows = [(p.timing_std_chips, p.phase_std_rad, p.sinr_db) for p in surface.points]
    return params, {"corner_sinr_db": _fmt(corner)}, ("eps_t", "eps_phi", "sinr_db"), rows


def _mac_model(args) -> MacModel:
    return MacModel(discipline=args.discipline, mean_packet_bits=args.length_bits,
                    bit_rate=args.bit_rate, geometric_p=args.geom_p)


def _cmd_mac_limits(args):
    params = {"discipline": args.discipline, "length_bits": _fmt(args.length_bits),
              "bit_rate": _fmt(args.bit_rate), "seed": _fmt(args.seed),
              "format": args.format}
    if args.geom_p is not None:
        params["geom_p"] = _fmt(args.geom_p)
    model = _mac_model(args)
    limits = limits_for(model)
    columns = ("discipline", "length_bits", "entropy_bits", "v_inf", "c_sup")
    rows = [(args.discipline, args.length_bits, limits.entropy_bits,
             limits.v_inf, limits.c_sup)]
    return params, {}, columns, rows


def _cmd_mac_simulate(args):
    params = {"discipline": args.discipline, "length_bits": _fmt(args.length_bits),
              "bit_rate": _fmt(args.bit_rate), "loads": _fmt(args.loads),
              "packets": _fmt(args.packets), "warmup": _fmt(args.warmup),
              "batches": _fmt(args.batches), "confidence": _fmt(args.confidence),
              "corruption": _fmt(args.corruption), "seed": _fmt(args.seed),
              "format": args.format}
    if args.geom_p is not None:
        params["geom_p"] = _fmt(args.geom_p)
    if args.overhead is not None:
        params["overhead"] = _fmt(args.overhead)
    model = _mac_model(args)
    limits = limits_for(model)
    config = SimConfig(loads=args.loads, overhead=args.overhead,
                       warmup_packets=args.warmup, measure_packets=args.packets,
                       batches=args.batches, confidence=args.confidence,
                       seed=args.seed, corruption_prob=args.corruption)
    result = simulate_tdma(model, config)
    summary = result.summary(limits)
    results = {k: _fmt(v) for k, v in sorted(summary.items())}
    columns = ("load", "throughput", "ci_low", "ci_high", "unstable")
    rows = [(p.load, p.throughput, p.ci_low, p.ci_high, p.unstable)
            for p in result.points]
    return params, results, columns, rows


def _cmd_mac_allocate(args):
    params = {"n": _fmt(args.n), "shares": _fmt_shares(args.shares),
              "seed": _fmt(args.seed), "format": args.format}
    allocation = allocate_identifiers(args.shares, args.n)
    results = {"pool": _fmt(allocation.pool)}
    columns = ("station", "share", "count", "first_position", "identifiers")
    rows = [(s.station, s.share, s.count, s.positions[0],
             "|".join(str(i) for i in s.identifiers))
            for s in allocation.stations]
    return params, results, columns, rows


_HANDLERS = {
    "criteria": _cmd_criteria,
    "optimize": _cmd_optimize,
    "interference": _cmd_interference,
    "mac limits": _cmd_mac_limits,
    "mac simulate": _cmd_mac_simulate,
    "mac allocate": _cmd_mac_allocate,
}


# ---------------------------------------------------------------------------
# config round-trip and rendering


def _command_tokens(argv: list[str]) -> str | None:
    tokens = []
    for a in argv:
        if a.startswith("-"):
            break
        tokens.append(a)
        if len(tokens) == 2:
            break
    if not tokens:
        return None
    if tokens[0] == "mac":
        return " ".join(tokens[:2]) if len(tokens) == 2 else None
    return tokens[0]


def _find_config(argv: list[str]) -> str | None:
    for i, a in enumerate(argv):
        if a == "--config":
            return argv[i + 1] if i + 1 < len(argv) else None
        if a.startswith("--config="):
            return a.split("=", 1)[1]
    return None


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, value = s.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {s!r}")
        out[key.strip()] = value.strip()
    return out


def _apply_config(sub: argparse.ArgumentParser, cfg: dict[str, str], path: str) -> None:
    by_dest = {a.dest: a for a in sub._actions}
    for key, value in cfg.items():
        action = by_dest.get(key)
        if action is None:
            raise UsageError(f"{path}: unknown parameter {key!r} for this command")
        if isinstance(action, argparse._StoreTrueAction):
            action.default = value.lower() == "true"
        elif action.type is not None:
            try:
                action.default = action.type(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{path}: bad value for {key!r}: {exc}") from exc
        else:
            action.default = value
        action.required = False


def _render_csv(command: str, params: dict, results: dict, columns, rows) -> str:
    lines = [f"# mchan {__version__}", f"# command={command}"]
    for k in sorted(params):
        lines.append(f"# param {k}={params[k]}")
    for k in sorted(results):
        lines.append(f"# result {k}={results[k]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(command: str, params: dict, results: dict, columns, rows) -> str:
    payload = {
        "tool": "mchan",
        "version": __version__,
        "command": command,
        "params": {k: params[k] for k in sorted(params)},
        "results": {k: results[k] for k in sorted(results)},
        "columns": list(columns),
        "rows": [[_native(v) for v in row] for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser, registry = build_parser()
        config_path = _find_config(argv)
        if config_path is not None:
            command = _command_tokens(argv)
            if command is None or command not in registry:
                raise UsageError("--config needs a recognised subcommand on the command line")
            _apply_config(registry[command], _read_config(config_path), config_path)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        command = args.command if args.command != "mac" else f"mac {args.mac_command}"
        handler = _HANDLERS[command]
        params, results, columns, rows = handler(args)
        render = _render_csv if args.format == "csv" else _render_json
        text = render(command, params, results, columns, rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except InfeasibleSearchError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        if exc.certificate:
            cert = {k: _native(v) for k, v in exc.certificate.items()}
            sys.stderr.write("nearest-feasible certificate: "
                             + json.dumps(cert, sort_keys=True) + "\n")
        return 3
    except (QuadratureError, UndefinedCriterionError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    except (UsageError, ChannelDomainError, OverSubscriptionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
