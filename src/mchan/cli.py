"""Command-line front end.

Subcommands: ``criteria``, ``optimize``, ``interference``, ``mac limits``,
``mac simulate``, ``mac allocate``.  Each run is in one mode of its
subcommand (``criteria`` at a point or over ``--sweep-bs``, ``optimize``
searching or under ``--verify``, ``interference`` by ``--mode``), and one
table, ``_READS``, gives the options each mode reads: a flag given to a
mode that does not read it exits 2.  Output is CSV or JSON with an
embedded header carrying the tool version, the command, every option the
mode reads that has a value (``# param key=value`` lines, built in one
place from that table) and derived summary values (``# result
key=value`` lines).  Headers carry no timestamps, and floats
are written with repr, so rerunning a command from its own header
parameters reproduces the output byte for byte:

    mchan interference --mode surface ... --out surface.csv
    grep '^# param' surface.csv | sed 's/^# param //' > rerun.cfg
    mchan interference --config rerun.cfg --out again.csv
    cmp surface.csv again.csv

Each ``key=value`` line of a ``--config`` file is read as the flag
``--key-with-hyphens=value``, placed before the command line's own flags,
so explicit flags win and argparse checks config values exactly as it
checks flags (types, choices, required options, no abbreviations); a
line the mode does not read exits 2, as the flag would.

Exit codes: 0 success, 2 usage/validation error, 3 infeasible search
(with a nearest-feasible certificate on stderr), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys

from mchan import __version__

# Each handler imports the layers it calls, so a process pays the start-up
# cost (numpy included) only of the layers its subcommand runs.

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


def _range_spec(text: str):
    from mchan.extremum import GridRange

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
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return repr(float(v))
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    from mchan.extremum import GridRange  # loaded already if v is one

    if isinstance(v, GridRange):
        return f"{v.lo!r}:{v.hi!r}:{v.points}"
    return str(v)


def _fmt_pair(v: tuple[float, float]) -> str:
    return f"{v[0]!r}:{v[1]!r}"


def _fmt_shape(v: tuple[int, int]) -> str:
    return f"{v[0]}x{v[1]}"


def _fmt_shares(v: tuple[tuple[int, float], ...]) -> str:
    return ",".join(f"{s}:{share!r}" for s, share in v)


# Echo formats of the options whose text _fmt would not parse back.
_ECHO = {"h_window": _fmt_pair, "grid": _fmt_shape, "shares": _fmt_shares}


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return repr(float(v))
    return str(v)


def _native(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    return str(v)


# ---------------------------------------------------------------------------
# parser construction


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--config", default=None,
                   help="file of key=value lines, each read as the flag --key-with-hyphens=value; "
                        "explicit flags override")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations: a flag, like a config or header key, is spelled exactly.
    parser = argparse.ArgumentParser(
        prog="mchan",
        description="Invariant efficiency criteria for m-ary orthogonal channels",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"mchan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("criteria", allow_abbrev=False,
                        help="criterion values at a point or over base sweeps")
    pc.add_argument("--m", type=int, default=None, help="ensemble size")
    pc.add_argument("--g", type=float, default=None, help="SINR amplitude")
    # --b-s spells the header key b_s as a flag.
    pc.add_argument("--bs", "--b-s", dest="b_s", type=float, default=None,
                    help="signal base 2*dF*T")
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

    po = sub.add_parser("optimize", allow_abbrev=False,
                        help="constrained extremum searches and statement verifiers")
    po.add_argument("--objective", choices=("min-icpe", "max-icse"), default="min-icpe")
    po.add_argument("--m", type=int, default=None, help="fix the ensemble size")
    po.add_argument("--m-set", type=_ints_csv, default=(2, 4, 8, 16, 32, 64))
    po.add_argument("--g", type=float, default=None, help="fix the amplitude")
    po.add_argument("--g-range", type=_range_spec, default="0.01:10.0:64")
    po.add_argument("--bs", "--b-s", dest="b_s", type=float, default=None, help="fix the base")
    po.add_argument("--bs-range", type=_range_spec, default="0.1:1000.0:64")
    po.add_argument("--cf-min", type=float, default=None, help="ICSE floor constraint")
    po.add_argument("--w-cap", type=float, default=None, help="ICPE ceiling constraint")
    po.add_argument("--band-eps", type=float, default=None,
                    help="restrict max-icse to w <= w_inf*(1+eps)")
    po.add_argument("--verify", choices=("statement1", "statement3"), default=None)
    po.add_argument("--g-list", type=_floats_csv, default=(0.5, 1.0, 2.0),
                    help="amplitudes for --verify statement3")
    po.add_argument("--h-window", type=_float_pair, default=(1e-2, 50.0),
                    help="lo:hi search window for --verify statement3")
    _add_common(po)

    pi = sub.add_parser("interference", allow_abbrev=False,
                        help="orthogonality-error interference estimates")
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
    pi.add_argument("--seed", type=int, default=0, help="root seed of the error draws")
    _add_common(pi)

    pm = sub.add_parser("mac", allow_abbrev=False,
                        help="distributed-MAC limits, simulation, identifiers")
    msub = pm.add_subparsers(dest="mac_command", required=True)

    pml = msub.add_parser("limits", allow_abbrev=False,
                          help="overhead infimum and throughput supremum")
    pml.add_argument("--discipline", choices=("mm1", "md1"), required=True)
    pml.add_argument("--length-bits", type=float, required=True, help="mean packet length L")
    pml.add_argument("--bit-rate", type=float, default=1.0)
    pml.add_argument("--geom-p", type=float, default=None,
                     help="geometric length parameter (mm1; default 1/L)")
    _add_common(pml)

    pms = msub.add_parser("simulate", allow_abbrev=False, help="TDMA discrete-event cross-check")
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
    pms.add_argument("--seed", type=int, default=0, help="root seed of the arrivals and packet lengths")
    _add_common(pms)

    pma = msub.add_parser("allocate", allow_abbrev=False,
                          help="proportional m-sequence window identifiers")
    pma.add_argument("--n", type=int, required=True, help="identifier register length")
    pma.add_argument("--shares", type=_shares_spec, required=True,
                     help="station:share pairs (or bare shares for stations 0..k)")
    _add_common(pma)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, columns, rows)


def _ser_model(ser: str, m_max: int):
    """The SER model ``--ser`` names, for ensembles up to ``m_max``."""
    from mchan.channel import _RULE_MAX_M, ExactCoherentOrthogonal, UnionBound

    if ser == "exact" and m_max > _RULE_MAX_M:  # the one command that can take this advice
        raise UsageError(f"the exact SER rule is validated for m <= {_RULE_MAX_M}, "
                         f"got m={m_max}; use --ser union for larger ensembles")
    return ExactCoherentOrthogonal() if ser == "exact" else UnionBound()


def _cmd_criteria(args):
    from mchan.channel import ChannelPoint
    from mchan.criteria import (LinkBudget, NoiseSpec, _capacity_and_w, cell_radius, icce,
                                icpe_joule_forms)

    model = _ser_model(args.ser, args.m or 2)
    if args.m is None or args.g is None or args.b_s is None:
        raise UsageError("point mode needs --m, --g and --bs (or use --sweep-bs)")
    point = ChannelPoint(m=args.m, g=args.g, b_s=args.b_s)
    p_err = model.ser(point.m, point.h)
    c, w = _capacity_and_w(point.m, point.h, p_err)
    c_f = 2.0 * c / point.b_s
    columns = ["m", "g", "b_s", "h", "p", "c_f", "w"]
    row = [args.m, args.g, args.b_s, point.h, p_err, c_f, w]

    if args.n0n is not None:
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
        budget = LinkBudget(tx_power_w=args.tx_power, system_gain=args.sys_gain,
                            ref_loss=args.ref_loss, ref_distance_m=args.ref_dist,
                            path_loss_exponent=args.loss_exp,
                            noise_interference_w=args.rx_npi)
        radius = cell_radius(budget, args.g)
        columns += ["radius_m", "icce"]
        row += [radius, icce(w, radius)]

    return {}, tuple(columns), [tuple(row)]


def _cmd_criteria_sweep(args):
    from mchan.extremum import sweep_curves

    m_list = args.m_list or ((args.m,) if args.m else None)
    g_list = args.g_list or ((args.g,) if args.g else None)
    model = _ser_model(args.ser, max(m_list or (2,)))
    if not m_list or not g_list:
        raise UsageError("sweep mode needs --m-list/--m and --g-list/--g")
    points = sweep_curves(m_list, g_list, args.sweep_bs, model)
    rows = [(p.m, p.g, p.b_s, p.h, p.c_f, p.w) for p in points]
    return {}, ("m", "g", "b_s", "h", "c_f", "w"), rows


def _cmd_verify_statement1(args):
    from mchan.extremum import verify_statement1

    if args.m is None:
        raise UsageError("--verify statement1 needs --m")
    report = verify_statement1(args.m, g_range=args.g_range, b_s_grid=args.bs_range)
    results = {"m": report.m, "w_low": _fmt(report.w_low), "w_high": _fmt(report.w_high),
               "spread_rel": _fmt(report.spread_rel), "threshold": _fmt(report.threshold),
               "passed": _fmt(report.passed)}
    rows = [(r.b_s, r.h_min, r.w_min, r.attained) for r in report.rows]
    return results, ("b_s", "h_min", "w_min", "attained"), rows


def _cmd_verify_statement3(args):
    from mchan.extremum import verify_statement3

    if args.m is None:
        raise UsageError("--verify statement3 needs --m")
    report = verify_statement3(args.m, args.g_list, h_window=args.h_window)
    results = {"m": report.m, "h_star": _fmt(report.h_star), "w_inf": _fmt(report.w_inf),
               "attained": _fmt(report.attained),
               "strictly_decreasing": _fmt(report.strictly_decreasing),
               "product_spread_rel": _fmt(report.product_spread_rel),
               "passed": _fmt(report.passed)}
    rows = [(r.g, r.b_s_star, r.invariant_product) for r in report.rows]
    return results, ("g", "b_s_star", "invariant_product"), rows


def _cmd_optimize(args):
    from mchan.extremum import ExtremumSpec, maximize_icse, minimize_icpe

    spec = ExtremumSpec(
        m_fixed=args.m,
        g_fixed=args.g,
        b_s_fixed=args.b_s,
        m_set=tuple(args.m_set),
        g_range=args.g_range,
        b_s_range=args.bs_range,
        c_f_min=args.cf_min,
        w_cap=args.w_cap,
        icpe_band_eps=args.band_eps,
    )
    solver = minimize_icpe if args.objective == "min-icpe" else maximize_icse
    result = solver(spec)
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
    return results, columns, rows


def _cmd_nsweep(args):
    from mchan.interference import degree_interference_sweep

    rows = degree_interference_sweep(args.n_list, trials=args.trials, seed=args.seed,
                                     signals_per_cell=args.signals)
    return {}, ("n", "power", "std_error"), rows


def _cmd_surface(args):
    import numpy as np

    from mchan.interference import CellLayout, InterferingCell, SignalEnsemble, sinr_surface
    from mchan.msequence import distinct_msequences, generate_msequence

    # Refused before np.linspace, which turns an infinite end into nan.
    for flag, value in (("--et-max", args.et_max), ("--ephi-max", args.ephi_max)):
        if not 0.0 <= value < math.inf:
            raise UsageError(f"{flag} must be finite and >= 0, got {value!r}")
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
    return {"corner_sinr_db": _fmt(corner)}, ("eps_t", "eps_phi", "sinr_db"), rows


def _mac_model(args):
    from mchan.mac import MacModel

    return MacModel(discipline=args.discipline, mean_packet_bits=args.length_bits,
                    bit_rate=args.bit_rate, geometric_p=args.geom_p)


def _cmd_mac_limits(args):
    from mchan.mac import limits_for

    limits = limits_for(_mac_model(args))
    columns = ("discipline", "length_bits", "entropy_bits", "v_inf", "c_sup")
    rows = [(args.discipline, args.length_bits, limits.entropy_bits,
             limits.v_inf, limits.c_sup)]
    return {}, columns, rows


def _cmd_mac_simulate(args):
    from mchan.mac import SimConfig, limits_for, simulate_tdma

    model = _mac_model(args)
    limits = limits_for(model)
    config = SimConfig(loads=args.loads, overhead=args.overhead,
                       warmup_packets=args.warmup, measure_packets=args.packets,
                       batches=args.batches, confidence=args.confidence,
                       seed=args.seed)
    result = simulate_tdma(model, config)
    summary = result.summary(limits)
    results = {k: _fmt(v) for k, v in sorted(summary.items())}
    columns = ("load", "throughput", "ci_low", "ci_high", "unstable")
    rows = [(p.load, p.throughput, p.ci_low, p.ci_high, p.unstable)
            for p in result.points]
    return results, columns, rows


def _cmd_mac_allocate(args):
    from mchan.mac import allocate_identifiers

    allocation = allocate_identifiers(args.shares, args.n)
    results = {"pool": _fmt(allocation.pool)}
    columns = ("station", "share", "count", "first_position", "identifiers")
    rows = [(s.station, s.share, s.count, s.positions[0],
             "|".join(str(i) for i in s.identifiers))
            for s in allocation.stations]
    return results, columns, rows


# ---------------------------------------------------------------------------
# the modes of a run and the options each reads


def _mode(command: str, args) -> str:
    """The mode of a run, named as a refusal names it: the key of its row and its handler."""
    if command == "criteria":
        return "criteria --sweep-bs" if args.sweep_bs is not None else "criteria without --sweep-bs"
    if command == "optimize":
        return f"--verify {args.verify}" if args.verify else "optimize without --verify"
    if command == "interference":
        return f"interference --mode {args.mode}"
    return command


# The dests each mode of a subcommand reads.  A run refuses any other flag
# given to it (a --config line included), and its header echoes these dests
# where they have a value.  The dest that selects a mode is in every row of
# its subcommand; --out and --config, which say where output goes and
# where flags come from, are in none.
_READS = {
    "criteria": {
        "criteria without --sweep-bs": {
            "format", "sweep_bs", "ser", "m", "g", "b_s", "n0n", "n0i",
            "tx_power", "sys_gain", "ref_loss", "ref_dist", "loss_exp", "rx_npi"},
        "criteria --sweep-bs": {"format", "sweep_bs", "ser", "m", "g", "m_list", "g_list"},
    },
    "optimize": {
        "optimize without --verify": {
            "format", "verify", "objective", "m", "m_set", "g", "g_range", "b_s", "bs_range",
            "cf_min", "w_cap", "band_eps"},
        "--verify statement1": {"format", "verify", "m", "g_range", "bs_range"},
        "--verify statement3": {"format", "verify", "m", "g_list", "h_window"},
    },
    "interference": {
        "interference --mode surface": {
            "format", "mode", "degree", "rows", "et_max", "ephi_max", "grid", "noise_db",
            "trials", "inter_cells", "inter_weight", "seed"},
        "interference --mode nsweep": {"format", "mode", "n_list", "trials", "signals", "seed"},
    },
    "mac limits": {"mac limits": {"format", "discipline", "length_bits", "bit_rate", "geom_p"}},
    "mac simulate": {"mac simulate": {
        "format", "discipline", "length_bits", "bit_rate", "geom_p", "overhead", "loads",
        "packets", "warmup", "batches", "confidence", "seed"}},
    "mac allocate": {"mac allocate": {"format", "n", "shares"}},
}

_HANDLERS = {
    "criteria without --sweep-bs": _cmd_criteria,
    "criteria --sweep-bs": _cmd_criteria_sweep,
    "optimize without --verify": _cmd_optimize,
    "--verify statement1": _cmd_verify_statement1,
    "--verify statement3": _cmd_verify_statement3,
    "interference --mode surface": _cmd_surface,
    "interference --mode nsweep": _cmd_nsweep,
    "mac limits": _cmd_mac_limits,
    "mac simulate": _cmd_mac_simulate,
    "mac allocate": _cmd_mac_allocate,
}


def _given(parser: argparse.ArgumentParser, argv: list[str]) -> dict[str, str]:
    """The dests ``argv`` sets, each with its flag, from a parse without defaults.

    It takes the defaults off ``parser`` and its subparsers.
    """
    flags, parsers = {}, [parser]
    for p in parsers:  # the subparsers join as they are found
        for action in p._actions:
            action.default = argparse.SUPPRESS
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings:
                flags[action.dest] = action.option_strings[0]
    return {dest: flags[dest] for dest in vars(parser.parse_args(argv)) if dest in flags}


def _parse(argv: list[str]) -> tuple[argparse.Namespace, str, str]:
    """A run's arguments, command and mode.

    Refuses every flag given that the mode does not read (argparse's own
    refusals raise SystemExit).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command if args.command != "mac" else f"mac {args.mac_command}"
    mode = _mode(command, args)
    reads = _READS[command][mode] | {"config", "out"}
    unread = sorted(flag for dest, flag in _given(parser, argv).items() if dest not in reads)
    if unread:
        raise UsageError(f"{mode} does not read {', '.join(unread)}")
    return args, command, mode


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


def _read_config(path: str) -> list[str]:
    """The flags a config file names: ``key=value`` becomes ``--key-with-hyphens=value``."""
    flags = []
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
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


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
        config_path = _find_config(argv)
        if config_path is not None:
            command = _command_tokens(argv)
            if command not in _READS:
                raise UsageError("--config needs a recognised subcommand on the command line")
            # Config flags go before the command line's own, which therefore win.
            n = len(command.split())
            argv = [*argv[:n], *_read_config(config_path), *argv[n:]]
        try:
            args, command, mode = _parse(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        results, columns, rows = _HANDLERS[mode](args)
        # The header echoes every option the mode reads that has a value.
        params = {k: _ECHO.get(k, _fmt)(getattr(args, k)) for k in _READS[command][mode]
                  if getattr(args, k) is not None}
        render = _render_csv if args.format == "csv" else _render_json
        text = render(command, params, results, columns, rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ArithmeticError as exc:  # QuadratureError, UndefinedCriterionError
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4
    except ValueError as exc:  # UsageError, ChannelDomainError, OverSubscriptionError, ...
        from mchan.extremum import InfeasibleSearchError

        if not isinstance(exc, InfeasibleSearchError):
            sys.stderr.write(f"error: {exc}\n")
            return 2
        sys.stderr.write(f"infeasible: {exc}\n")
        if exc.certificate:
            cert = {k: _native(v) for k, v in exc.certificate.items()}
            sys.stderr.write("nearest-feasible certificate: "
                             + json.dumps(cert, sort_keys=True) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
