"""mchan benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs a fixed number of rounds, each job untraced and traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See bench/README.md for the workloads, the metrics and
the known defects they show.
"""

from __future__ import annotations

import os

# One thread per numerical library, set before numpy loads and inherited
# by every process the benchmark starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program under test is the checkout's own source tree, never an
# installed copy.
if not (ROOT / "src" / "mchan" / "__init__.py").is_file():
    sys.exit(f"bench: no mchan sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from accuracy import ser_max_rel_err  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import CLI_COMMANDS, WORKDIR, WORKLOADS, CheckFailed, child_env  # noqa: E402

SETUP_SAMPLES = 4  # fresh processes before the jobs, and as many after them
# Each probe's time on the host the baseline was taken on, when that host
# runs at full speed (bench/baseline.json); see HostClock.
PROBE_REF_S = {"python": 2.1e-4, "spawn": 7.8e-3}
CLI_PROBE_SAMPLES = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _round_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# set-up time


def _wait_ready(clock, cmd: list[str], marker: bytes | None) -> float:
    """Host-normalised seconds from spawning ``cmd`` to its ready line (or its exit)."""
    procs = []

    def spawn():
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        procs.append(proc)
        if marker is None:
            return proc.communicate(timeout=120)
        return proc.stdout.readline(), b""

    try:
        elapsed, _, (out, err) = clock.measure(spawn, "spawn")
        if marker is not None:
            rest, err = procs[0].communicate(timeout=120)
            out += rest
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    code = procs[0].returncode
    if code != 0 or (marker is not None and not out.startswith(marker)):
        raise RuntimeError(f"set-up probe {cmd} failed ({code}): {err.decode()[-400:]}")
    return elapsed


def measure_setup(clock, workload: str, seed: int) -> float:
    """One fresh process, from its start to its first job ready.

    In-process workloads: interpreter start, ``import mchan`` and building
    the first round's inputs.  ``cli``: one ``python -m mchan --version``.
    """
    if workload == "cli":
        cmd, marker = [sys.executable, "-m", "mchan", "--version"], None
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
               "--seed", str(seed)]
        marker = b"ready"
    return _wait_ready(clock, cmd, marker)


# ---------------------------------------------------------------------------
# job execution


# The probe's data: a 64 Ki list of floats read in a fixed random order.
_PROBE_RNG = random.Random(0)
_PROBE_DATA = [_PROBE_RNG.random() for _ in range(1 << 16)]
_PROBE_ORDER = _PROBE_RNG.sample(range(1 << 16), 1500)


def host_probe() -> float:
    """Seconds for a fixed pure-Python kernel that is not mchan code, the
    fastest of three short runs so that a preemption inside one does not
    count.  Its mix of float arithmetic and scattered list reads slows down
    in the host's slow phases by about as much as mchan's own code."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for i in range(1200):
            total += math.erfc(i * 1e-3) * math.exp(-i * 1e-4)
        for i in _PROBE_ORDER:
            total += _PROBE_DATA[i]
        best = min(best, time.perf_counter() - start)
    return best


def spawn_probe() -> float:
    """Seconds to start and end a bare interpreter (``python -S -c pass``)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


PROBES = {"python": host_probe, "spawn": spawn_probe}


class HostClock:
    """Wall time of a call, scaled to a host running at reference speed.

    The shared host this benchmark was built on changes speed by up to
    ~1.7x (at times ~2x) for seconds or minutes at a time.  So each call is
    bracketed by probes of its own kind, and its wall time is multiplied by
    the kind's PROBE_REF_S over the mean of the two probes: the time the
    call would take on a host that runs the probe in PROBE_REF_S.  In-process
    calls use ``host_probe``; process starts (CLI jobs, set-up) use
    ``spawn_probe``, since starting a process slows less than Python code
    in the host's slow phases.  The program's own code is in neither probe,
    so a change to the program moves these times as it moves the wall
    times.  The process is pinned to one CPU, which its children inherit,
    so the probes see the CPU that runs the work.
    """

    def __init__(self) -> None:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.kind = None
        self.last = 0.0
        self.probes: dict[str, list[float]] = {kind: [] for kind in PROBES}
        self.raw_time = 0.0

    def _probe(self, kind: str) -> float:
        self.probes[kind].append(PROBES[kind]())
        return self.probes[kind][-1]

    def measure(self, fn, kind: str = "python"):
        """Run ``fn``; return (normalised seconds, wall seconds, result)."""
        before = self.last if kind == self.kind else self._probe(kind)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.kind, self.last = kind, self._probe(kind)
        self.raw_time += raw
        return raw * PROBE_REF_S[kind] / (0.5 * (before + self.last)), raw, result


def execute(job, tracer=None, job_id: int = 0, cli_span: str | None = None):
    """Run one job (traced when ``tracer`` is given); returns (wall seconds, output, error)."""
    error = None
    output = None
    start = time.perf_counter()
    try:
        if tracer is None:
            output = job.run()
        else:
            with tracer.job_scope(job_id):
                output = job.run()
    except Exception as exc:  # a job boundary: record and go on
        error = exc
    end = time.perf_counter()
    if tracer is not None and cli_span is not None:
        tracer.add_span(cli_span, "cli", job_id, start, end)
    return end - start, output, error


def judge(job, output, error) -> dict:
    """Check one job's output.

    ``ok`` is False on any failed check; ``defect`` names the known-defect
    class of a failure (see README.md), None for an unexpected one.
    """
    if error is not None:
        defect = job.expected_errors.get(type(error))
        message = f"{type(error).__name__}: {error}"
        if defect is None:
            message += "\n" + "".join(traceback.format_exception(error)[-3:])
        return {"ok": False, "defect": defect, "message": message}
    try:
        job.check(output)
    except CheckFailed as exc:
        return {"ok": False, "defect": exc.defect, "message": str(exc)}
    except Exception as exc:  # the output broke the check itself
        return {"ok": False, "defect": None,
                "message": "".join(traceback.format_exception(exc)[-3:])}
    return {"ok": True, "defect": None, "message": ""}


def unexpected(record: dict) -> bool:
    return not record["ok"] and record["defect"] is None


def run_loop(wl, seed: int, seconds: float, rounds: int | None, clock: HostClock) -> dict:
    """Untraced closed loop over whole rounds, until the jobs have taken about
    ``seconds`` of wall time (or for exactly ``rounds``); latencies are
    host-normalised (HostClock)."""
    records = []
    kind = "spawn" if wl.name == "cli" else "python"
    index = 0
    while (index < rounds) if rounds is not None else (
            index == 0 or clock.raw_time * (1.0 + 0.5 / index) < seconds):
        for job in wl.make_round(_round_rng(seed, index)):
            latency, _, (_, output, error) = clock.measure(lambda: execute(job), kind)
            records.append({"kind": job.kind, "round": index, "latency": latency,
                            **judge(job, output, error)})
            del output
        index += 1
    return {"records": records, "rounds": index}


def trace_loop(wl, seed: int, rounds: int, tracer) -> dict:
    """Fixed rounds; every job runs once to warm up, then untraced and traced
    in alternating order, so neither side gains from running second; its
    check sees the traced output."""
    records = []
    untraced_time = 0.0
    job_time = 0.0
    for index in range(rounds):
        for job in wl.make_round(_round_rng(seed, index)):
            job_id = len(records)
            span = job.kind.removesuffix("_rerun") if wl.name == "cli" else None
            execute(job)
            traced_first = job_id % 2 == 1
            if traced_first:
                latency, output, error = execute(job, tracer, job_id, span)
            untraced_time += execute(job)[0]
            if not traced_first:
                latency, output, error = execute(job, tracer, job_id, span)
            job_time += latency
            records.append({"kind": job.kind, "round": index, "latency": latency,
                            **judge(job, output, error)})
            del output
    return {"records": records, "rounds": rounds, "job_time": job_time,
            "untraced_time": untraced_time}


# ---------------------------------------------------------------------------
# metrics


def ranked_latencies(records) -> list[float]:
    """Passing latencies ascending, then failures, each no faster than any pass."""
    passing = sorted(r["latency"] for r in records if r["ok"])
    floor = passing[-1] if passing else 0.0
    failing = sorted(max(r["latency"], floor) for r in records if not r["ok"])
    return passing + failing


def percentile(ranked: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return ranked[max(1, math.ceil(pct / 100.0 * len(ranked))) - 1]


def end_to_end(wl, run: dict, setup_s: float, peak_rss_mb: float, seed: int) -> dict:
    records = run["records"]
    ranked = ranked_latencies(records)
    return {
        "setup_s": setup_s,
        "jobs_per_s": sum(r["ok"] for r in records) / sum(r["latency"] for r in records),
        "job_p50_s": percentile(ranked, 50.0),
        "job_tail_s": percentile(ranked, wl.tail_pct),
        "peak_rss_mb": peak_rss_mb,
        "ser_max_rel_err": ser_max_rel_err(seed),
    }


def _cli_probe(clock: HostClock, args: list[str]) -> float:
    return statistics.median(_wait_ready(clock, [sys.executable, *args], None)
                             for _ in range(CLI_PROBE_SAMPLES))


def per_layer(wl, run: dict, tracer: Tracer) -> dict:
    records = run["records"]
    m = layer_metrics(tracer, records)
    traced = run["job_time"]
    m["trace.overhead_frac"] = traced / run["untraced_time"] - 1.0
    m["trace.layer_self_frac"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / traced
    m["trace.jobs"] = len(records)
    cli = wl.name == "cli"
    clock = HostClock() if cli else None
    m["cli.import_s"] = _cli_probe(clock, ["-c", "import mchan"]) if cli else 0.0
    m["cli.version_s"] = _cli_probe(clock, ["-m", "mchan", "--version"]) if cli else 0.0
    for command in CLI_COMMANDS:
        lat = [r["latency"] for r in records
               if r["kind"] in (f"cli_{command}", f"cli_{command}_rerun")]
        m[f"cli.{command}_s"] = statistics.median(lat) if lat else 0.0
    m["cli.rerun_mismatches"] = sum(1 for r in records
                                    if r["kind"].endswith("_rerun") and not r["ok"])
    return m


def report(wl, run: dict, metrics: dict) -> dict:
    """Print the run's summary and every metric; return the result object."""
    records = run["records"]
    failed = [r for r in records if unexpected(r)]
    beyond = len(records) - math.ceil(wl.tail_pct / 100 * len(records))
    print(f"workload {wl.name}: {run['rounds']} rounds, {len(records)} jobs, "
          f"{len(failed)} failed, tail = p{wl.tail_pct:g} with {beyond} jobs beyond it")
    for kind, probes in sorted(run.get("probes", {}).items()):
        if probes:
            probes = sorted(probes)
            slow = sum(p > 1.3 * probes[0] for p in probes) / len(probes)
            print(f"  {kind} probe: fastest {probes[0] * 1e3:.3f} ms, median "
                  f"{statistics.median(probes) * 1e3:.3f} ms (reference "
                  f"{PROBE_REF_S[kind] * 1e3:g} ms), {slow:.0%} of {len(probes)} probes over "
                  "1.3x the fastest")
    if "raw_time" in run:
        print(f"  job wall time {run['raw_time']:.2f} s")
    defects: dict[str, int] = {}
    for r in records:
        if not r["ok"] and r["defect"] is not None:
            defects[r["defect"]] = defects.get(r["defect"], 0) + 1
    for name, count in sorted(defects.items()):
        print(f"  known defect {name}: {count} jobs")
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["latency"])
    for kind, lat in sorted(kinds.items()):
        print(f"  jobs {kind:34s} n={len(lat):4d} total={sum(lat):9.3f}s "
              f"median={statistics.median(lat):.3g}s max={max(lat):.3g}s")
    for r in failed[:5]:
        print(f"  failure in {r['kind']}: {r['message']}")
    for name, value in metrics.items():
        unit, better = UNITS[name]
        print(f"  {name:42s} {value:>16.6g} {unit:6s} ({better} is better)")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name][0]}
                    for name, value in metrics.items()},
    }


# ---------------------------------------------------------------------------


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    try:
        if not args.trace:
            clock = HostClock()
            setup = [measure_setup(clock, wl.name, args.seed) for _ in range(SETUP_SAMPLES)]
            clock.raw_time = 0.0
            run = run_loop(wl, args.seed, args.seconds, args.rounds, clock)
            run["raw_time"] = clock.raw_time
            who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
            # Read before the accuracy probe loads scipy.
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            setup += [measure_setup(clock, wl.name, args.seed) for _ in range(SETUP_SAMPLES)]
            run["probes"] = clock.probes
            metrics = end_to_end(wl, run, statistics.median(setup), peak_rss_mb, args.seed)
        else:
            tracer = Tracer()
            tracer.install()
            try:
                run = trace_loop(wl, args.seed, args.rounds or wl.trace_rounds, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(wl, run, tracer)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans_{wl.name}_seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return report(wl, run, metrics)


def run_all(args) -> dict:
    """Every workload, one child process at a time; the summary JSON comes last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.rounds is not None:
            cmd += ["--rounds", str(args.rounds)]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=900)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="job time to measure with --trace 0 (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (fixed work, for counter checks)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        WORKLOADS[args.workload].make_round(_round_rng(args.seed, 0))
        print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
