"""Span tracing of mchan's public API, installed from outside the package.

The tracer wraps the public functions and methods of each module in
``src/mchan`` and records one span per call: name, layer, start, end,
parent span and job id.  Each wrapper is installed in every loaded
``mchan`` module that holds the original object, because ``criteria``,
``extremum`` and ``mac`` import some of their callees by name.  Spans stay
in memory and are written out once, when the run ends.

Self time is a span's duration minus the time its direct child spans
cover; calls are single-threaded and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

# (layer, module, attribute path).  Only public names: spans inside the
# program would be a change to the program itself.
TRACED = (
    ("channel", "mchan.channel", "ExactCoherentOrthogonal.ser"),
    ("channel", "mchan.channel", "capacity_bits_per_symbol"),
    ("criteria", "mchan.criteria", "icse"),
    ("criteria", "mchan.criteria", "icpe"),
    ("criteria", "mchan.criteria", "icpe_of_esinr"),
    ("criteria", "mchan.criteria", "icpe_joule_forms"),
    ("criteria", "mchan.criteria", "cell_radius"),
    ("criteria", "mchan.criteria", "icce"),
    ("extremum", "mchan.extremum", "minimize_icpe"),
    ("extremum", "mchan.extremum", "maximize_icse"),
    ("extremum", "mchan.extremum", "verify_statement1"),
    ("extremum", "mchan.extremum", "verify_statement3"),
    ("extremum", "mchan.extremum", "sweep_curves"),
    ("msequence", "mchan.msequence", "generate_msequence"),
    ("msequence", "mchan.msequence", "distinct_msequences"),
    ("msequence", "mchan.msequence", "MSequence.window_values"),
    ("interference", "mchan.interference", "SignalEnsemble.walsh"),
    ("interference", "mchan.interference", "SignalEnsemble.cyclic_shifts"),
    ("interference", "mchan.interference", "intra_cell_interference"),
    ("interference", "mchan.interference", "inter_cell_interference"),
    ("interference", "mchan.interference", "sinr_surface"),
    ("interference", "mchan.interference", "degree_interference_sweep"),
    ("mac", "mchan.mac", "simulate_tdma"),
    ("mac", "mchan.mac", "allocate_identifiers"),
)

LAYERS = ("channel", "criteria", "extremum", "msequence", "interference", "mac", "cli")


def _intra_work(bound, result):
    ens, errors, trials = (bound.arguments[k] for k in ("ensemble", "errors", "trials"))
    return {"trial_signals": 0 if errors.is_zero else trials * (ens.n_signals - 1)}


def _inter_work(bound, result):
    layout, trials = bound.arguments["layout"], bound.arguments["trials"]
    return {"trial_signals": trials * sum(c.ensemble.n_signals for c in layout.interferers)}


def _search_work(bound, result):
    return {"evals": result.evaluations, "method": bound.arguments.get("method", "reduced")}


def _simulate_work(bound, result):
    cfg = bound.arguments["config"]
    per_load = cfg.warmup_packets + (cfg.measure_packets // cfg.batches) * cfg.batches
    return {"packets": per_load * len(result.points)}


# Work counters read from a call's arguments and result.  They are
# deterministic for a given job list, unlike the span times.
WORK = {
    "intra_cell_interference": _intra_work,
    "inter_cell_interference": _inter_work,
    "minimize_icpe": _search_work,
    "maximize_icse": _search_work,
    "sinr_surface": lambda b, r: {"points": len(r.points)},
    "simulate_tdma": _simulate_work,
    "allocate_identifiers": lambda b, r: {"identifiers": r.pool},
    "generate_msequence": lambda b, r: {"chips": r.period},
}


class Tracer:
    """Records spans while a job is in scope; wrappers pass through otherwise."""

    def __init__(self) -> None:
        # Each span: [name, layer, parent, job, start, end, work dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [name, layer, stack[-1] if stack else -1, self.job,
                    time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[6] = work(sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED wherever an mchan module holds it."""
        for layer, modname, path in TRACED:
            owner_name, _, attr = path.rpartition(".")
            module = sys.modules[modname]
            if owner_name:
                cls = getattr(module, owner_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, attr, layer))
                else:
                    wrapped = self._wrap(raw, attr, layer)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, attr, layer)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("mchan") \
                        and getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def job_scope(self, job_id: int):
        self.job = job_id
        try:
            yield
        finally:
            self.job = None

    def add_span(self, name: str, layer: str, job_id: int, start: float, end: float) -> None:
        """Record a span timed by the caller (used for CLI subprocesses)."""
        self.spans.append([name, layer, -1, job_id, start, end, None])

    def self_times(self) -> list[float]:
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                out[s[2]] -= s[5] - s[4]
        return out

    def write(self, path) -> None:
        keys = ("name", "layer", "parent", "job", "start", "end", "work")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _nearest(spans, i: int, names: tuple[str, ...]) -> int:
    """Index of the closest ancestor of span i whose name is in ``names``, or -1."""
    p = spans[i][2]
    while p >= 0 and spans[p][0] not in names:
        p = spans[p][2]
    return p


def layer_metrics(tracer: Tracer, job_outcomes: list[dict]) -> dict[str, float]:
    """Per-layer counters and times from the recorded spans.

    ``job_outcomes`` carries, per traced job, its kind, latency and the
    known-defect class of a failed check (or None).
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, st in zip(spans, selfs):
        m[f"{s[1]}.self_s"] += st

    def select(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def dur(idx):
        return sum(spans[i][5] - spans[i][4] for i in idx)

    def selfsum(idx):
        return sum(selfs[i] for i in idx)

    def work(idx, key):
        return sum((spans[i][6] or {}).get(key, 0) for i in idx)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    def defects(name):
        return sum(1 for j in job_outcomes if j["defect"] == name)

    ser = select("ser")
    cap = select("capacity_bits_per_symbol")
    m["channel.ser_calls"] = len(ser)
    m["channel.ser_busy_s"] = dur(ser)
    m["channel.ser_us_per_call"] = ratio(dur(ser), len(ser), 1e6)
    m["channel.capacity_calls"] = len(cap)
    m["channel.capacity_busy_s"] = dur(cap)
    m["channel.bracket_misses"] = defects("ser_accuracy")

    crit = [i for i, s in enumerate(spans) if s[1] == "criteria"]
    m["criteria.calls"] = len(crit)

    searches = select("minimize_icpe", "maximize_icse")
    done = [i for i in searches if spans[i][6] is not None]
    ok = set(done)
    ser_in_done = sum(1 for i in ser
                      if _nearest(spans, i, ("minimize_icpe", "maximize_icse")) in ok)
    m["extremum.searches"] = len(searches)
    m["extremum.search_self_s"] = selfsum(searches)
    m["extremum.evals"] = work(done, "evals")
    m["extremum.ser_calls_per_eval"] = ratio(ser_in_done, work(done, "evals"))
    m["extremum.verify_self_s"] = selfsum(select("verify_statement1", "verify_statement3"))
    m["extremum.grid2d_self_s"] = selfsum(
        [i for i in done if spans[i][6]["method"] == "grid2d"])
    m["extremum.sweep_self_s"] = selfsum(select("sweep_curves"))
    m["extremum.infeasible_on_feasible"] = defects("band_infeasible")
    m["extremum.negative_slack"] = defects("negative_slack")

    gen = select("generate_msequence")
    m["msequence.generate_calls"] = len(gen)
    m["msequence.generate_busy_s"] = dur(gen)
    m["msequence.ns_per_chip"] = ratio(dur(gen), work(gen, "chips"), 1e9)
    m["msequence.distinct_busy_s"] = dur(select("distinct_msequences"))
    m["msequence.window_busy_s"] = dur(select("window_values"))

    est = select("intra_cell_interference", "inter_cell_interference")
    surf = select("sinr_surface")
    points = work(surf, "points")
    in_surface = sum(1 for i in est if _nearest(spans, i, ("sinr_surface",)) >= 0)
    m["interference.estimate_calls"] = len(est)
    m["interference.estimate_self_s"] = selfsum(est)
    m["interference.trial_signals"] = work(est, "trial_signals")
    m["interference.ns_per_trial_signal"] = ratio(selfsum(est), work(est, "trial_signals"), 1e9)
    m["interference.surface_points"] = points
    m["interference.ms_per_surface_point"] = ratio(dur(surf), points, 1e3)
    m["interference.estimates_per_surface_point"] = ratio(in_surface, points)
    m["interference.sweep_self_s"] = selfsum(select("degree_interference_sweep"))

    sim = select("simulate_tdma")
    alloc = select("allocate_identifiers")
    m["mac.simulate_calls"] = len(sim)
    m["mac.packets"] = work(sim, "packets")
    m["mac.simulate_busy_s"] = dur(sim)
    m["mac.ns_per_packet"] = ratio(dur(sim), work(sim, "packets"), 1e9)
    m["mac.allocate_calls"] = len(alloc)
    m["mac.allocate_self_s"] = selfsum(alloc)
    m["mac.identifiers"] = work(alloc, "identifiers")
    return m
