"""Command-line interface: output format, exit codes, header round-trips."""

import json
import math
import os
import subprocess
import sys

import pytest

import mchan.cli as cli
from mchan.channel import ChannelPoint, ExactCoherentOrthogonal, QuadratureError, ser
from mchan.criteria import icpe, icse


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("MCHAN_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mchan", *argv],
        capture_output=True, text=True, env=env,
    )


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
    proc = run_cli("criteria", "--m", "4", "--g", "1.0", "--bs", "2.0")
    assert proc.returncode == 0
    columns, rows = data_rows(proc.stdout)
    assert columns == ["m", "g", "b_s", "h", "p", "c_f", "w"]
    assert len(rows) == 1
    row = rows[0]
    model = ExactCoherentOrthogonal()
    point = ChannelPoint(m=4, g=1.0, b_s=2.0)
    assert row["m"] == "4"
    assert float(row["h"]) == point.h
    assert row["p"] == repr(ser(point, model))
    assert row["c_f"] == repr(icse(point, model))
    assert row["w"] == repr(icpe(point, model))


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


def test_usage_errors_exit_2():
    assert run_cli("criteria", "--m", "4").returncode == 2  # incomplete point
    assert run_cli("criteria", "--m", "4", "--g", "1.0", "--bs", "-2.0").returncode == 2
    assert run_cli("mac", "allocate", "--n", "3", "--shares",
                   "0:1,1:1,2:1,3:1,4:1,5:1,6:1,7:1,8:1").returncode == 2
    proc = run_cli("optimize", "--verify", "statement1")  # missing --m
    assert proc.returncode == 2
    assert "statement1" in proc.stderr


def test_infeasible_search_exits_3_with_certificate():
    proc = run_cli("optimize", "--m", "2", "--cf-min", "25.0")
    assert proc.returncode == 3
    assert "infeasible" in proc.stderr
    cert_line = next(l for l in proc.stderr.splitlines() if "certificate" in l)
    cert = json.loads(cert_line.split("certificate: ", 1)[1])
    assert cert["m"] == 2
    assert cert["margin"] < 0


def test_numerical_failure_exits_4(monkeypatch, capsys):
    def boom(args):
        raise QuadratureError("integral did not converge")

    monkeypatch.setitem(cli._HANDLERS, "criteria", boom)
    code = cli.main(["criteria", "--m", "4", "--g", "1.0", "--bs", "2.0"])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_seed_env_default():
    proc = run_cli("mac", "limits", "--discipline", "md1", "--length-bits", "1000",
                   env_extra={"MCHAN_SEED": "77"})
    assert proc.returncode == 0
    assert header_params(proc.stdout)["seed"] == "77"


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
    proc = run_cli("mac", "allocate", "--n", "4", "--shares", "1:0.5,2:0.3,3:0.2")
    assert proc.returncode == 0
    assert proc.stdout == (
        "# mchan 0.1.0\n"
        "# command=mac allocate\n"
        "# param format=csv\n"
        "# param n=4\n"
        "# param seed=0\n"
        "# param shares=1:0.5,2:0.3,3:0.2\n"
        "# result pool=15\n"
        "station,share,count,first_position,identifiers\n"
        "1,0.5,8,0,9|2|4|8|1|3|7|15\n"
        "2,0.3,4,8,14|13|10|5\n"
        "3,0.2,3,12,11|6|12\n"
    )


def test_intra_surface_output_is_frozen():
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


def test_surface_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "surface.csv"
    again = tmp_path / "again.csv"
    cfg = tmp_path / "rerun.cfg"
    proc = run_cli("interference", "--mode", "surface", "--degree", "3", "--rows", "4",
                   "--grid", "3x3", "--trials", "50", "--seed", "5",
                   "--out", str(first))
    assert proc.returncode == 0
    params = header_params(first.read_text())
    cfg.write_text("".join(f"{k}={v}\n" for k, v in params.items()))
    proc = run_cli("interference", "--config", str(cfg), "--out", str(again))
    assert proc.returncode == 0
    assert first.read_bytes() == again.read_bytes()


def test_simulate_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "sim.csv"
    again = tmp_path / "again.csv"
    cfg = tmp_path / "rerun.cfg"
    proc = run_cli("mac", "simulate", "--discipline", "mm1", "--length-bits", "64",
                   "--loads", "0.5,1.2", "--packets", "2000", "--warmup", "200",
                   "--batches", "4", "--seed", "9", "--out", str(first))
    assert proc.returncode == 0
    params = header_params(first.read_text())
    cfg.write_text("".join(f"{k}={v}\n" for k, v in params.items()))
    proc = run_cli("mac", "simulate", "--config", str(cfg), "--out", str(again))
    assert proc.returncode == 0
    assert first.read_bytes() == again.read_bytes()


def test_optimize_verifier_output():
    proc = run_cli("optimize", "--verify", "statement3", "--m", "4",
                   "--g-list", "0.5,1.0", "--h-window", "0.3:3.0", "--tol", "1e-4")
    assert proc.returncode == 0
    assert "# result passed=true" in proc.stdout
    columns, rows = data_rows(proc.stdout)
    assert columns == ["g", "b_s_star", "invariant_product"]
    assert len(rows) == 2
    assert float(rows[0]["b_s_star"]) > float(rows[1]["b_s_star"])


def test_optimize_point_output():
    proc = run_cli("optimize", "--m", "4", "--tol", "1e-5")
    assert proc.returncode == 0
    columns, rows = data_rows(proc.stdout)
    row = rows[0]
    assert row["objective"] == "min_icpe"
    assert float(row["value"]) == pytest.approx(1.6788218475, rel=1e-5)
    assert row["attained"] == "true"


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_flag=1\n")
    proc = run_cli("mac", "limits", "--discipline", "md1", "--length-bits", "10",
                   "--config", str(cfg))
    assert proc.returncode == 2
    assert "unknown parameter" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("mchan ")


def test_import_loads_neither_scipy_nor_numpy_polynomial():
    # Both would add to every CLI start: scipy.special alone costs ~0.5 s.
    code = ("import sys, mchan; "
            "print(sorted(m for m in ('scipy', 'numpy.polynomial') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"
