"""Command-line interface: output format, exit codes, header round-trips."""

import argparse
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import numpy as np

import mchan
import mchan.cli as cli
import mchan.channel as channel
from mchan.channel import (ChannelDomainError, ChannelPoint, ExactCoherentOrthogonal,
                           QuadratureError, UnionBound)
from mchan.criteria import UndefinedCriterionError, icpe, icse
from mchan.extremum import GridRange
from mchan.mac import OverSubscriptionError


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "mchan", *argv], capture_output=True, text=True)


def header_params(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("# param "):
            key, _, value = line[len("# param "):].partition("=")
            out[key] = value
    return out


def data_rows(text: str):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, l.split(","))) for l in lines[1:]]


def test_criteria_point_matches_library():
    point = ChannelPoint(m=4, g=1.0, b_s=2.0)
    for ser, model in (("exact", ExactCoherentOrthogonal()), ("union", UnionBound())):
        proc = run_cli("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0", "--ser", ser)
        assert proc.returncode == 0
        columns, rows = data_rows(proc.stdout)
        assert columns == ["m", "g", "b_s", "h", "p", "c_f", "w"]
        assert len(rows) == 1
        row = rows[0]
        assert row["m"] == "4"
        assert float(row["h"]) == point.h
        assert row["p"] == repr(model.ser(point.m, point.h))
        assert row["c_f"] == repr(icse(point, model))
        assert row["w"] == repr(icpe(point, model))


def test_criteria_point_makes_one_ser_kernel_call(monkeypatch, capsys):
    calls = []
    kernel = channel._orthogonal_ser

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(channel, "_orthogonal_ser", counting)
    assert cli.main(["criteria", "--m", "4", "--g", "1.0", "--bs", "2.0"]) == 0
    assert len(calls) == 1


def test_criteria_point_at_zero_capacity_reports_infinite_w(capsys):
    # The union bound sits at its cap (m-1)/m here, so C_m = 0: c_F is 0 and
    # w and its Joule forms are +inf, where the library's icpe raises.
    argv = ["criteria", "--ser", "union", "--m", "4", "--g", "0.1", "--bs", "2.0",
            "--n0n", "1e-18"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",0.0,inf,inf,inf")
    with pytest.raises(UndefinedCriterionError):
        icpe(ChannelPoint(m=4, g=0.1, b_s=2.0), UnionBound())


def test_criteria_json_output():
    proc = run_cli("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0",
                   "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["tool"] == "mchan"
    assert payload["command"] == "criteria"
    assert payload["columns"][:3] == ["m", "g", "b_s"]
    assert payload["rows"][0][0] == 4
    assert payload["params"]["m"] == "4"


def test_criteria_link_budget_columns():
    proc = run_cli("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0",
                   "--tx-power", "16.0", "--sys-gain", "1.0", "--ref-loss", "1.0",
                   "--ref-dist", "100.0", "--loss-exp", "4.0", "--rx-npi", "1.0")
    assert proc.returncode == 0
    columns, rows = data_rows(proc.stdout)
    assert columns[-2:] == ["radius_m", "icce"]
    assert float(rows[0]["radius_m"]) == pytest.approx(200.0, rel=1e-12)
    w = float(rows[0]["w"])
    r_km = 0.2
    assert float(rows[0]["icce"]) == pytest.approx(w / (math.pi * r_km**2), rel=1e-12)


def test_usage_errors_exit_2(capsys):
    assert run_cli("criteria", "--m", "4").returncode == 2  # incomplete point
    assert run_cli("criteria", "--m", "4", "--g", "1.0", "--bs", "-2.0").returncode == 2
    assert run_cli("mac", "allocate", "--n", "3", "--shares",
                   "0:1,1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1").returncode == 2
    proc = run_cli("optimize", "--verify", "statement1")  # missing --m
    assert proc.returncode == 2
    assert "statement1" in proc.stderr
    proc = run_cli("optimize", "--m", "8", "--band-eps", "0.05")  # the band bounds max-icse only
    assert proc.returncode == 2
    assert "icpe_band_eps" in proc.stderr
    for flag, value in (("--g", "1.0"), ("--bs", "2.0"), ("--cf-min", "1.0"), ("--w-cap", "2.0"),
                        ("--band-eps", "0.05")):  # the verifiers never read these
        assert cli.main(["optimize", "--verify", "statement3", "--m", "8", flag, value]) == 2
        assert capsys.readouterr().err == f"error: --verify statement3 does not read {flag}\n"
    for window in ("5:1", "2:2"):  # reversed and empty statement-3 windows
        proc = run_cli("optimize", "--verify", "statement3", "--m", "8", "--h-window", window)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: range hi must be finite and > lo")
        assert proc.stdout == ""


LINK_BUDGET = {"--tx-power": "16.0", "--sys-gain": "1.0", "--ref-loss": "1.0",
               "--ref-dist": "100.0", "--loss-exp": "4.0", "--rx-npi": "1.0"}


def argv_with(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


POINT = ["criteria", "--m", "4", "--g", "1.0", "--bs", "2.0"]
JOULE = [*POINT, "--n0n", "1e-20"]
BUDGET = [*POINT, *(x for kv in LINK_BUDGET.items() for x in kv)]


@pytest.mark.parametrize("argv, flag, value", [
    (JOULE, "--n0n", "nan"),
    (JOULE, "--n0n", "inf"),
    (JOULE, "--n0i", "nan"),
    *((BUDGET, flag, "nan") for flag in LINK_BUDGET),
    (BUDGET, "--loss-exp", "inf"),
    (BUDGET, "--sys-gain", "inf"),
    (["interference", "--degree", "3", "--grid", "2x2", "--trials", "10"], "--noise-db", "nan"),
    (["interference", "--degree", "3", "--grid", "2x2", "--trials", "10"], "--noise-db", "inf"),
    (["optimize", "--verify", "statement3", "--m", "8"], "--g-list", "nan,1"),
    (["optimize", "--verify", "statement3", "--m", "8"], "--g-list", "1,inf"),
    (["optimize", "--verify", "statement3", "--m", "8"], "--g-list", "0,1"),
    (["mac", "simulate", "--discipline", "md1", "--length-bits", "64", "--loads", "0.5",
      "--packets", "400", "--warmup", "10", "--batches", "4"], "--overhead", "inf"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_non_finite_inputs_exit_2(capsys, argv, flag, value):
    assert cli.main(argv) == 0  # the command runs with a finite value
    capsys.readouterr()
    assert cli.main(argv_with(argv, flag, value)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("flag", ["--et-max", "--ephi-max"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1.0"])
def test_surface_error_ranges_are_refused_as_given(capsys, flag, value):
    # np.linspace would turn an infinite end into nan (with numpy's
    # RuntimeWarning) and a negative one into grid values the user never
    # gave, so the flag is refused first, naming the value given.
    argv = ["interference", "--degree", "3", "--grid", "3x3", "--trials", "10", flag, value]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be finite and >= 0, got {float(value)!r}\n"


@pytest.mark.parametrize("argv", [
    (*POINT, "--seed", "1"),
    ("optimize", "--m", "8", "--seed", "1"),
    ("mac", "limits", "--discipline", "md1", "--length-bits", "1000", "--seed", "1"),
    ("mac", "allocate", "--n", "4", "--shares", "0.5,0.5", "--seed", "1"),
    ("optimize", "--m", "8", "--method", "grid2d"),
], ids=("criteria_seed", "optimize_seed", "mac_limits_seed", "mac_allocate_seed", "method"))
def test_inputs_no_command_reads_exit_2(capsys, argv):
    # Nothing random runs in these four commands, and grid2d is a library
    # cross-check: the flags are gone.
    assert cli.main(list(argv)) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


NSWEEP = ("interference", "--mode", "nsweep", "--n-list", "5,6", "--trials", "10")


@pytest.mark.parametrize("argv, unread, mode", [
    (("criteria", "--m", "8", "--g", "1", "--sweep-bs", "0.5:50:3"),
     {"--n0n": "1e-20", "--tx-power": "1"}, "criteria --sweep-bs"),
    (POINT, {"--m-list": "2,4", "--g-list": "1,2"}, "criteria without --sweep-bs"),
    (("optimize", "--m", "8"), {"--g-list": "5,6", "--h-window": "1:2"},
     "optimize without --verify"),
    (("optimize", "--verify", "statement3", "--m", "8"),
     {"--g-range": "0.1:1:4", "--objective": "max-icse", "--m-set": "2,4"},
     "--verify statement3"),
    (NSWEEP, {"--degree": "6", "--ephi-max": "1.0", "--et-max": "0.5", "--grid": "10x10",
              "--inter-cells": "0", "--inter-weight": "0.5", "--noise-db": "-113.101",
              "--rows": "8"}, "interference --mode nsweep"),
    (("interference", "--degree", "3", "--grid", "2x2", "--trials", "10"),
     {"--n-list": "8,10", "--signals": "4"}, "interference --mode surface"),
], ids=("criteria_sweep", "criteria_point", "optimize", "statement3", "nsweep", "surface"))
@pytest.mark.parametrize("as_config", [False, True], ids=("flags", "config"))
def test_flags_the_mode_does_not_read_exit_2(tmp_path, capsys, argv, unread, mode, as_config):
    # The run needs none of these, so it names them all rather than ignore
    # them; a config line is a flag given, such as a line of a header
    # written before the header echoed only what its mode reads.
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    if as_config:
        cfg = tmp_path / "unread.cfg"
        cfg.write_text("".join(f"{k[2:].replace('-', '_')}={v}\n" for k, v in unread.items()))
        extra = ["--config", str(cfg)]
    else:
        extra = [x for kv in unread.items() for x in kv]
    assert cli.main([*argv, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {mode} does not read {', '.join(sorted(unread))}\n"


def test_exact_ser_bound_exits_2(capsys):
    point = ["--g", "2", "--bs", "2"]
    assert cli.main(["criteria", "--m", "64", *point]) == 0
    assert cli.main(["criteria", "--m", "65", *point]) == 2
    assert "validated for m <= 64" in capsys.readouterr().err
    assert cli.main(["criteria", "--m", "1024", *point]) == 2
    assert cli.main(["criteria", "--m", "1024", *point, "--ser", "union"]) == 0
    capsys.readouterr()
    # The union-bound advice is given only where it can be followed.
    assert cli.main(["criteria", "--m-list", "4,128", "--g", "1", "--sweep-bs", "1:2:2"]) == 2
    assert "use --ser union" in capsys.readouterr().err
    assert cli.main(["optimize", "--m", "65"]) == 2
    err = capsys.readouterr().err
    assert "validated for m <= 64" in err and "union" not in err


# Frozen stderr of an infeasible search: the certificate must not move a
# digit.  c_F peaks at the kink h = g_hi * sqrt(b_s_lo / 2), which the scan
# grid holds, so the search certifies it.
INFEASIBLE_STDERR = (
    "infeasible: no feasible point in the search region; best margin "
    "-6.960751242098709 at m=2, h=2.23606797749979\n"
    'nearest-feasible certificate: {"b_s": 0.1, "c_f": 18.03924875790129, "g": 10.0, '
    '"h": 2.23606797749979, "m": 2, "margin": -6.960751242098709, '
    '"w": 5.543468097927274}\n')


def test_infeasible_search_exits_3_with_certificate():
    proc = run_cli("optimize", "--m", "2", "--cf-min", "25")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == INFEASIBLE_STDERR


@pytest.mark.parametrize("argv, slack", [
    (("--w-cap", "1.48545"), "slack_w_cap"),
    (("--w-cap", "1.48545", "--objective", "max-icse"), "slack_w_cap"),
    (("--g", "0.5", "--cf-min", "0.1683"), "slack_c_f_min"),
], ids=("w_cap", "w_cap_max_icse", "cf_min_at_fixed_g"))
def test_feasible_set_between_grid_points_is_found(capsys, argv, slack):
    # w_inf(8) = 1.4854346 < 1.48545, and at g = 0.5 the largest c_F is
    # g**2 / w_inf = 0.16830091 > 0.1683: both margins peak at h* = 1.16934,
    # between two grid points of the default window, and are negative at
    # every grid point.  h* joins the grid, so the search succeeds.
    assert cli.main(["optimize", "--m", "8", *argv]) == 0
    value = next(l for l in capsys.readouterr().out.splitlines()
                 if l.startswith(f"# result {slack}="))
    assert float(value.partition("=")[2]) >= 0.0


def test_fixed_axis_adds_no_grid_points(capsys):
    # A fixed axis is the one-point range, so the ignored range of B_s
    # does not set the size of the scan grid: 16 points, 28 evaluations.
    argv = ["optimize", "--m", "8", "--bs", "5.0", "--g-range", "0.01:10:16"]
    outputs = []
    for extra in ([], ["--bs-range", "0.1:1000:100"]):
        assert cli.main([*argv, *extra]) == 0
        outputs.append([l for l in capsys.readouterr().out.splitlines()
                        if not l.startswith("# param bs_range=")])
    assert outputs[0] == outputs[1]
    assert "# result evaluations=28" in outputs[0]


def test_refinement_cap_exits_4(monkeypatch, capsys):
    monkeypatch.setattr("mchan.extremum._MAX_REFINE_ITER", 3)
    assert cli.main(["optimize", "--m", "8"]) == 4
    assert capsys.readouterr().err.startswith(
        "numerical failure: refinement did not close a bracket in 3 probes")


@pytest.mark.parametrize("argv, row", [
    (("--cf-min", "18"),
     "min_icpe,2,9.95767763015272,0.1,2.226604407905049,5.50863021033577,18.0,"
     "5.50863021033577,true"),
    (("--cf-min", "17.5", "--objective", "max-icse"),
     "max_icse,2,10.0,0.1,2.23606797749979,18.03924875790129,18.03924875790129,"
     "5.543468097927274,true"),
    (("--objective", "max-icse"),
     "max_icse,2,10.0,0.1,2.23606797749979,18.03924875790129,18.03924875790129,"
     "5.543468097927274,true"),
], ids=("cf_min_18", "cf_min_max_icse", "max_icse"))
def test_feasible_set_at_the_kink_is_found(capsys, argv, row):
    # c_F = 2 C / b_s peaks at the kink h = g_hi * sqrt(b_s_lo / 2) = 2.236,
    # where it is 18.039; the scan grid holds the kink, so a feasible set
    # narrower than one grid step around it is found.
    assert cli.main(["optimize", "--m", "2", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == row


def test_narrow_band_search_succeeds():
    # The band w <= w_inf * (1 + 1e-4) is narrower than one grid step.
    proc = run_cli("optimize", "--objective", "max-icse", "--m", "8", "--band-eps", "1e-4")
    assert proc.returncode == 0, proc.stderr
    assert "# result active_w_cap=true" in proc.stdout
    slack = next(l for l in proc.stdout.splitlines() if l.startswith("# result slack_w_cap="))
    assert float(slack.partition("=")[2]) >= 0.0


@pytest.mark.parametrize("error, code, prefix", [
    (QuadratureError("integral did not converge"), 4, "numerical failure: "),
    (UndefinedCriterionError("w undefined at h = 0"), 4, "numerical failure: "),
    (ChannelDomainError("b_s must be > 0"), 2, "error: "),
    (OverSubscriptionError("9 stations but only 7 identifiers"), 2, "error: "),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_raised_errors_map_to_exit_codes(monkeypatch, capsys, error, code, prefix):
    def boom(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "criteria without --sweep-bs", boom)
    assert cli.main(["criteria", "--m", "4", "--g", "1.0", "--bs", "2.0"]) == code
    assert capsys.readouterr().err == f"{prefix}{error}\n"


def test_mac_limits_values():
    proc = run_cli("mac", "limits", "--discipline", "md1", "--length-bits", "1000")
    columns, rows = data_rows(proc.stdout)
    assert float(rows[0]["v_inf"]) == pytest.approx(0.001854, rel=1e-12)
    assert float(rows[0]["c_sup"]) == pytest.approx(1.0 / 1.001854, rel=1e-12)
    assert rows[0]["entropy_bits"] == ""  # not defined for constant lengths


def test_mac_allocate_output():
    proc = run_cli("mac", "allocate", "--n", "3", "--shares", "1:0.5,2:0.3,3:0.2")
    assert proc.returncode == 0
    assert "# result pool=7" in proc.stdout
    columns, rows = data_rows(proc.stdout)
    counts = {r["station"]: int(r["count"]) for r in rows}
    assert counts == {"1": 4, "2": 2, "3": 1}
    ids = [int(i) for r in rows for i in r["identifiers"].split("|")]
    assert sorted(ids) == list(range(1, 8))


def test_mac_allocate_output_is_frozen():
    # The allocator draws nothing at random, so the command has no --seed
    # and its header no seed line; every other line is as it was with one.
    proc = run_cli("mac", "allocate", "--n", "4", "--shares", "1:0.5,2:0.3,3:0.2")
    assert proc.returncode == 0
    assert proc.stdout == (
        "# mchan 0.1.0\n"
        "# command=mac allocate\n"
        "# param format=csv\n"
        "# param n=4\n"
        "# param shares=1:0.5,2:0.3,3:0.2\n"
        "# result pool=15\n"
        "station,share,count,first_position,identifiers\n"
        "1,0.5,8,0,9|2|4|8|1|3|7|15\n"
        "2,0.3,4,8,14|13|10|5\n"
        "3,0.2,3,12,11|6|12\n"
    )


def test_intra_surface_output_is_frozen():
    # Surface mode reads neither --n-list nor --signals (nsweep's), so the
    # header has no n_list or signals line; every other line is as it was.
    proc = run_cli("interference", "--mode", "surface", "--degree", "3", "--rows", "4",
                   "--grid", "3x3", "--trials", "50", "--seed", "5")
    assert proc.returncode == 0
    assert proc.stdout == (
        "# mchan 0.1.0\n"
        "# command=interference\n"
        "# param degree=3\n"
        "# param ephi_max=1.0\n"
        "# param et_max=0.5\n"
        "# param format=csv\n"
        "# param grid=3x3\n"
        "# param inter_cells=0\n"
        "# param inter_weight=0.5\n"
        "# param mode=surface\n"
        "# param noise_db=-113.101\n"
        "# param rows=4\n"
        "# param seed=5\n"
        "# param trials=50\n"
        "# result corner_sinr_db=113.101\n"
        "eps_t,eps_phi,sinr_db\n"
        "0.0,0.0,113.101\n"
        "0.0,0.5,113.101\n"
        "0.0,1.0,113.101\n"
        "0.25,0.0,14.554616635086933\n"
        "0.25,0.5,14.990405106290787\n"
        "0.25,1.0,15.915034709245274\n"
        "0.5,0.0,11.712081106446703\n"
        "0.5,0.5,12.170565191351809\n"
        "0.5,1.0,13.139667674094133\n"
    )


def test_negative_seed_is_a_usage_error():
    proc = run_cli("interference", "--mode", "surface", "--degree", "3", "--seed", "-1")
    assert proc.returncode == 2
    assert "seed must be a non-negative integer" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("interference", "--mode", "surface", "--degree", "3", "--rows", "4",
     "--grid", "3x3", "--trials", "50", "--seed", "5"),
    ("mac", "simulate", "--discipline", "mm1", "--length-bits", "64",
     "--loads", "0.5,1.2", "--packets", "2000", "--warmup", "200",
     "--batches", "4", "--seed", "9"),
    ("optimize", "--m", "4", "--bs", "2.0"),
    ("optimize", "--m", "4", "--g", "1.0"),
    ("criteria", "--m", "8", "--g", "1.0", "--sweep-bs", "0.5:50:12"),
    ("optimize", "--verify", "statement3", "--m", "4", "--g-list", "0.5,1.0",
     "--h-window", "0.3:3.0"),
    ("interference", "--mode", "nsweep", "--n-list", "5,6", "--trials", "50", "--seed", "3"),
    ("mac", "limits", "--discipline", "mm1", "--length-bits", "1000", "--geom-p", "0.002"),
    ("mac", "allocate", "--n", "4", "--shares", "1:0.5,2:0.3,3:0.2"),
    BUDGET,
    ("optimize", "--verify", "statement1", "--m", "4", "--g-range", "0.01:10.0:8",
     "--bs-range", "0.5:5.0:2"),
    ("optimize", "--objective", "max-icse", "--m", "8", "--band-eps", "0.05"),
    (*JOULE, "--format", "json"),
], ids=("surface", "simulate", "optimize_bs", "optimize_g", "criteria_sweep", "statement3",
        "nsweep", "mac_limits_geom_p", "mac_allocate", "criteria_budget", "statement1", "band",
        "criteria_json"))
def test_rerun_from_header_is_byte_identical(tmp_path, argv):
    first = tmp_path / "first.csv"
    again = tmp_path / "again.csv"
    cfg = tmp_path / "rerun.cfg"
    proc = run_cli(*argv, "--out", str(first))
    assert proc.returncode == 0
    text = first.read_text()
    params = json.loads(text)["params"] if "json" in argv else header_params(text)
    cfg.write_text("".join(f"{k}={v}\n" for k, v in params.items()))
    tokens = argv[:2] if argv[0] == "mac" else argv[:1]
    proc = run_cli(*tokens, "--config", str(cfg), "--out", str(again))
    assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == again.read_bytes()


def test_optimize_verifier_output():
    proc = run_cli("optimize", "--verify", "statement3", "--m", "4",
                   "--g-list", "0.5,1.0", "--h-window", "0.3:3.0")
    assert proc.returncode == 0
    assert "# result passed=true" in proc.stdout
    columns, rows = data_rows(proc.stdout)
    assert columns == ["g", "b_s_star", "invariant_product"]
    assert len(rows) == 2
    assert float(rows[0]["b_s_star"]) > float(rows[1]["b_s_star"])


def test_optimize_point_output():
    proc = run_cli("optimize", "--m", "4")
    assert proc.returncode == 0
    columns, rows = data_rows(proc.stdout)
    row = rows[0]
    assert row["objective"] == "min_icpe"
    assert float(row["h"]) == pytest.approx(0.72047796398742139823, rel=1e-12)
    assert float(row["value"]) == pytest.approx(1.6788218474884149915, rel=1e-13)
    assert row["attained"] == "true"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_flag=1\n")
    proc = run_cli("mac", "limits", "--discipline", "md1", "--length-bits", "10",
                   "--config", str(cfg))
    assert proc.returncode == 2
    assert "unrecognized arguments: --no-such-flag=1" in proc.stderr
    # Lines of older headers whose options are gone.
    for line in ("tol=1e-06", "method=reduced", "seed=0"):
        cfg.write_text(f"m=8\n{line}\n")
        assert cli.main(["optimize", "--config", str(cfg)]) == 2
        assert f"unrecognized arguments: --{line}" in capsys.readouterr().err


@pytest.mark.parametrize("line, argv", [
    ("ser=exactt", ("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0")),
    ("format=xml", ("mac", "limits", "--discipline", "md1", "--length-bits", "10")),
    ("mode=nsweeep", ("interference", "--degree", "3", "--grid", "2x2", "--trials", "10")),
    ("deg=3", ("interference", "--grid", "2x2", "--trials", "10")),  # abbreviates degree
], ids=("ser_choice", "format_choice", "mode_choice", "abbreviated_key"))
def test_config_values_are_checked_like_flags(tmp_path, capsys, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    key = line.partition("=")[0].replace("_", "-")
    assert f"--{key}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0"),
    ("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0", "--n0n", "1e-20", "--ser", "union"),
    ("criteria", "--m-list", "2,4", "--g", "1.0", "--sweep-bs", "0.5:5:3"),
    ("optimize", "--m", "4", "--bs", "2.0"),
    ("optimize", "--verify", "statement1", "--m", "4", "--g-range", "0.01:10.0:8",
     "--bs-range", "0.5:5.0:2"),
    ("interference", "--mode", "surface", "--degree", "3", "--grid", "2x2", "--trials", "10"),
    ("interference", "--mode", "nsweep", "--n-list", "5", "--trials", "10"),
    ("mac", "limits", "--discipline", "md1", "--length-bits", "1000"),
    ("mac", "simulate", "--discipline", "md1", "--length-bits", "64", "--loads", "0.5",
     "--packets", "400", "--warmup", "10", "--batches", "4", "--overhead", "0.1"),
    ("mac", "allocate", "--n", "4", "--shares", "0.5,0.5", "--format", "json"),
], ids=("criteria_point", "criteria_joule", "criteria_sweep", "optimize", "statement1",
        "surface", "nsweep", "mac_limits", "mac_simulate", "mac_allocate_json"))
def test_header_echoes_every_option_with_a_value(capsys, argv):
    # Every option the mode's row of the table names that has a value, and no other.
    args, command, mode = cli._parse(list(argv))
    expected = {k for k in cli._READS[command][mode] if getattr(args, k) is not None}
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    params = json.loads(out)["params"] if "json" in argv else header_params(out)
    assert set(params) == expected


def test_readme_commands_parse():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = [line.split("#")[0].split() for line in fh if line.startswith("mchan ")]
    assert len(lines) >= 11
    for words in lines:
        cli._parse(words[1:])  # parses, and passes the table's refusal


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("mchan ")


def loaded_modules(code: str, *argv: str) -> set[str]:
    """Modules a fresh interpreter holds after running ``code`` with ``argv``."""
    code += "\nimport sys\nsys.stderr.write('\\n' + ' '.join(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


# `python -m mchan ARGS`, in-process so that sys.modules can be read after it.
RUN_MCHAN = ("import runpy\n"
             "try:\n"
             "    runpy.run_module('mchan', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    assert exc.code == 0, exc.code\n")


def test_layers_load_neither_scipy_nor_numpy_polynomial():
    # Both would add to every CLI start: scipy.special alone costs ~0.5 s.
    loaded = loaded_modules("from mchan import *")
    assert {f"mchan.{m}" for m in mchan._LAZY} <= loaded
    assert not {"scipy", "numpy.polynomial"} & loaded


def test_import_mchan_loads_no_layer_and_no_numpy():
    loaded = loaded_modules("import mchan")
    assert not [m for m in loaded if m.startswith("mchan.") or m.split(".")[0] == "numpy"]


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("mac", "limits", "--discipline", "mm1", "--length-bits", "1000"),
], ids=("version", "mac_limits"))
def test_light_commands_start_without_numpy(argv):
    assert "numpy" not in loaded_modules(RUN_MCHAN, *argv)


def test_criteria_point_loads_only_its_layers():
    loaded = loaded_modules(RUN_MCHAN, "criteria", "--m", "4", "--g", "1.0", "--bs", "2.0")
    assert {"mchan.channel", "mchan.criteria"} <= loaded
    skipped = {"mchan.extremum", "mchan.interference", "mchan.mac", "mchan.msequence"}
    assert not skipped & loaded


def test_lazy_exports_are_their_home_objects():
    for name in mchan.__all__:
        obj = getattr(mchan, name)
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from mchan import *", namespace)
    assert set(mchan.__all__) <= set(namespace)
    assert set(mchan.__all__) <= set(dir(mchan))
    assert mchan.__getattr__("mac") is sys.modules["mchan.mac"]
    with pytest.raises(AttributeError, match="no_such_name"):
        mchan.no_such_name


# The public surface, name by name: adding or removing a public name is an
# edit to these sets.
PUBLIC_SURFACE = {
    "channel": {"ChannelDomainError", "ChannelPoint", "ExactCoherentOrthogonal",
                "QuadratureError", "SerModel", "UnionBound", "capacity_bits_per_symbol",
                "q_function"},
    "criteria": {"LinkBudget", "NoCoverageError", "NoiseSpec", "UndefinedCriterionError",
                 "cell_radius", "icce", "icie", "icpe", "icpe_joule_forms", "icpe_of_esinr",
                 "icse"},
    "extremum": {"CurvePoint", "DEFAULT_M_SET", "ExtremumResult", "ExtremumSpec",
                 "FlatnessReport", "FlatnessRow", "GridRange", "InfeasibleSearchError",
                 "MonotonicityReport", "MonotonicityRow", "maximize_icse", "minimize_icpe",
                 "sweep_curves", "verify_statement1", "verify_statement3"},
    "interference": {"CellLayout", "InterferenceEstimate", "InterferingCell", "SignalEnsemble",
                     "SurfacePoint", "SurfaceResult", "SyncErrorModel",
                     "degree_interference_sweep", "inter_cell_interference",
                     "intra_cell_interference", "sinr_surface"},
    "mac": {"LoadPoint", "MD1_OVERHEAD_CONSTANT", "MacLimits", "MacModel",
            "OverSubscriptionError", "SimConfig", "SimResult", "StationAllocation",
            "TokenAllocation", "allocate_identifiers", "geometric_entropy", "md1_limits",
            "mm1_limits", "simulate_tdma"},
    "msequence": {"MSequence", "NonPrimitiveTapsError", "PRIMITIVE_TAPS",
                  "distinct_msequences", "generate_msequence", "periodic_autocorrelation"},
    "cli": {"main"},
}
PACKAGE_SURFACE = {
    "__version__", "ChannelPoint", "ExactCoherentOrthogonal", "SerModel", "UnionBound",
    "capacity_bits_per_symbol", "q_function", "LinkBudget", "NoiseSpec", "cell_radius", "icce",
    "icie", "icpe", "icpe_joule_forms", "icse", "ExtremumResult", "ExtremumSpec", "GridRange",
    "InfeasibleSearchError", "maximize_icse", "minimize_icpe", "sweep_curves",
    "verify_statement1", "verify_statement3", "CellLayout", "InterferingCell", "SignalEnsemble",
    "SyncErrorModel", "inter_cell_interference", "intra_cell_interference", "sinr_surface",
    "MacModel", "SimConfig", "TokenAllocation", "allocate_identifiers", "geometric_entropy",
    "md1_limits", "mm1_limits", "simulate_tdma", "MSequence", "NonPrimitiveTapsError",
    "distinct_msequences", "generate_msequence", "periodic_autocorrelation",
}


# Every flag of every subcommand: adding or removing a flag is an edit here.
COMMON_FLAGS = {"--config", "--format", "--out"}
CLI_FLAGS = {
    "criteria": COMMON_FLAGS | {"--b-s", "--bs", "--g", "--g-list", "--loss-exp", "--m",
                                "--m-list", "--n0i", "--n0n", "--ref-dist", "--ref-loss",
                                "--rx-npi", "--ser", "--sweep-bs", "--sys-gain", "--tx-power"},
    "optimize": COMMON_FLAGS | {"--b-s", "--band-eps", "--bs", "--bs-range", "--cf-min", "--g",
                                "--g-list", "--g-range", "--h-window", "--m", "--m-set",
                                "--objective", "--verify", "--w-cap"},
    "interference": COMMON_FLAGS | {"--degree", "--ephi-max", "--et-max", "--grid",
                                    "--inter-cells", "--inter-weight", "--mode", "--n-list",
                                    "--noise-db", "--rows", "--seed", "--signals", "--trials"},
    "mac limits": COMMON_FLAGS | {"--bit-rate", "--discipline", "--geom-p", "--length-bits"},
    "mac simulate": COMMON_FLAGS | {"--batches", "--bit-rate", "--confidence", "--discipline",
                                    "--geom-p", "--length-bits", "--loads", "--overhead",
                                    "--packets", "--seed", "--warmup"},
    "mac allocate": COMMON_FLAGS | {"--n", "--shares"},
}


def subcommand_parsers(parser: argparse.ArgumentParser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def command_parsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, ``mac``'s three by their full names."""
    commands = subcommand_parsers(cli.build_parser())
    parsers = {name: p for name, p in commands.items() if name != "mac"}
    return parsers | {f"mac {name}": p for name, p in subcommand_parsers(commands["mac"]).items()}


def test_cli_flags_are_frozen():
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in command_parsers().items()}
    assert flags == CLI_FLAGS


def test_modes_read_every_flag_of_their_subcommand():
    # A flag that no mode reads, or a row naming a dest that is no flag, fails here.
    parsers = command_parsers()
    assert set(cli._READS) == set(parsers)
    for name, p in parsers.items():
        dests = {a.dest for a in p._actions if a.option_strings} - {"help"}
        assert set().union(*cli._READS[name].values()) | {"config", "out"} == dests, name


# One input per mode that reads every option of its mode's row.
MODE_INPUTS = {
    "criteria without --sweep-bs": BUDGET + ["--n0n", "1e-20"],
    "criteria --sweep-bs": ["criteria", "--m", "8", "--g", "1.0", "--sweep-bs", "0.5:50:3"],
    "optimize without --verify": ["optimize", "--m", "8"],
    "--verify statement1": ["optimize", "--verify", "statement1", "--m", "4",
                            "--g-range", "0.01:10.0:8", "--bs-range", "0.5:5.0:2"],
    "--verify statement3": ["optimize", "--verify", "statement3", "--m", "4"],
    "interference --mode surface": ["interference", "--degree", "3", "--grid", "2x2",
                                    "--trials", "10", "--inter-cells", "1"],
    "interference --mode nsweep": list(NSWEEP),
    "mac limits": ["mac", "limits", "--discipline", "mm1", "--length-bits", "1000"],
    "mac simulate": ["mac", "simulate", "--discipline", "md1", "--length-bits", "64",
                     "--loads", "0.5", "--packets", "400", "--warmup", "10", "--batches", "4"],
    "mac allocate": ["mac", "allocate", "--n", "4", "--shares", "0.5,0.5"],
}


def test_every_mode_has_a_handler_and_an_input():
    modes = {mode for rows in cli._READS.values() for mode in rows}
    assert set(cli._HANDLERS) == set(MODE_INPUTS) == modes


@pytest.mark.parametrize("mode", MODE_INPUTS)
def test_the_table_is_what_the_handlers_read(mode):
    # The mode's selection and its handler read the row's options and no
    # other; main reads --format to render.
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(MODE_INPUTS[mode], namespace=Recording())
    command = args.command if args.command != "mac" else f"mac {args.mac_command}"
    read.clear()
    assert cli._mode(command, args) == mode
    cli._HANDLERS[mode](args)
    assert (read & set(vars(args))) | {"format"} == cli._READS[command][mode]


def test_public_surface_is_frozen():
    assert set(mchan.__all__) == PACKAGE_SURFACE
    assert len(mchan.__all__) == len(PACKAGE_SURFACE)  # no name listed twice
    for layer, names in PUBLIC_SURFACE.items():
        module = importlib.import_module(f"mchan.{layer}")
        assert set(module.__all__) == names, layer
        assert all(hasattr(module, name) for name in names), layer
    for layer, names in mchan._LAZY.items():
        assert set(names) <= PUBLIC_SURFACE[layer], layer


def load_bench_tracing():
    """``bench/tracing.py`` loaded by its file path (``bench`` is no package)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_TRACING = load_bench_tracing()


@pytest.mark.parametrize("layer, modname, path", BENCH_TRACING.TRACED,
                         ids=[path for _, _, path in BENCH_TRACING.TRACED])
def test_benchmark_tracer_names_resolve(layer, modname, path):
    # The benchmark's traced run wraps these names; one that no longer
    # resolves where Tracer.install looks would break that run.
    assert layer in BENCH_TRACING.LAYERS
    module = importlib.import_module(modname)
    owner, _, attr = path.rpartition(".")
    if owner:
        assert attr in vars(getattr(module, owner)), path  # the class's own __dict__
    else:
        assert callable(getattr(module, attr, None)), path


@pytest.mark.parametrize("value, fmt, cell, native", [
    (np.int64(7), "7", "7", 7),
    (np.float32(0.1), "0.10000000149011612", "0.10000000149011612", 0.10000000149011612),
    (np.float64(0.1), "0.1", "0.1", 0.1),
    (True, "true", "true", True),
    (False, "false", "false", False),
    (3, "3", "3", 3),
    (2.5, "2.5", "2.5", 2.5),
    (math.inf, "inf", "inf", "inf"),
    (-math.inf, "-inf", "-inf", "-inf"),
    (math.nan, "nan", "nan", "nan"),
    (np.float64(np.nan), "nan", "nan", "nan"),
    (GridRange(0.01, 10.0, 64), "0.01:10.0:64", "GridRange(lo=0.01, hi=10.0, points=64)",
     "GridRange(lo=0.01, hi=10.0, points=64)"),
    (None, "None", "", None),
    ((1, 2.5), "1,2.5", "(1, 2.5)", "(1, 2.5)"),
])
def test_formatters_are_frozen(value, fmt, cell, native):
    assert cli._fmt(value) == fmt
    assert cli._cell(value) == cell
    got = cli._native(value)
    assert got == native and type(got) is type(native)
